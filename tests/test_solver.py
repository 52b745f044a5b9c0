from __future__ import annotations

from collections import OrderedDict

import pytest

from abdukit import solver
from abdukit.config import RunConfig
from abdukit.core import AbdukitError, Atom, Literal, NafLiteral, Program, Rule, var
from abdukit.parser import parse
from abdukit.solver import (
    CONTRADICTORY,
    CandidateBudgetExceeded,
    Interpretation,
    NonGroundRule,
    NotNLP,
    answer_sets,
    consistent,
    credulous_holds,
    entails,
    is_stratified,
    reduct,
    reference_answer_sets,
    satisfies,
)
from abdukit.solver.encode import encode


def prog(text: str) -> Program:
    return parse(text).program


def lit(name: str, positive: bool = True) -> Literal:
    return Literal(Atom(name), positive)


def interp(*names) -> Interpretation:
    out = []
    for n in names:
        if n.startswith("-"):
            out.append(lit(n[1:], positive=False))
        else:
            out.append(lit(n))
    return Interpretation(frozenset(out))


def literal_sets(result):
    return {s.literals for s in result.consistent_sets}


def test_even_cycle_two_answer_sets():
    r = answer_sets(prog("p :- not q. q :- not p."))
    assert literal_sets(r) == {frozenset([lit("p")]), frozenset([lit("q")])}
    assert not r.contains_contradictory


def test_disjunctive_fact_splits():
    r = answer_sets(prog("p ; q."))
    assert literal_sets(r) == {frozenset([lit("p")]), frozenset([lit("q")])}


def test_disjunction_with_symmetric_rules_collapses():
    r = answer_sets(prog("p ; q. p :- q. q :- p."))
    assert literal_sets(r) == {frozenset([lit("p"), lit("q")])}


def test_contradictory_program_yields_marker():
    r = answer_sets(prog("p. -p."))
    assert r.contains_contradictory
    assert r.sets == (CONTRADICTORY,)
    assert not consistent(prog("p. -p."))


def test_contradictory_program_with_naf_free_constraint_has_no_answer_set():
    # L_P cannot satisfy a NAF-free constraint, so nothing is left
    r = answer_sets(prog("p. -p. :- q."))
    assert r.sets == ()
    assert not r.contains_contradictory


def test_odd_loop_has_no_answer_set():
    assert answer_sets(prog("p :- not p.")).sets == ()
    assert answer_sets(prog("p :- not p. q.")).sets == ()


def test_empty_program_has_empty_answer_set():
    r = answer_sets(Program())
    assert literal_sets(r) == {frozenset()}


def test_constraint_prunes():
    r = answer_sets(prog("p :- not q. q :- not p. :- p."))
    assert literal_sets(r) == {frozenset([lit("q")])}


def test_strong_negation_in_answer_sets():
    r = answer_sets(prog("-p :- not q. q :- r."))
    assert literal_sets(r) == {frozenset([lit("p", False)])}


def test_facts_are_forced():
    r = answer_sets(prog("q. p :- q. p ; r."))
    assert literal_sets(r) == {frozenset([lit("p"), lit("q")])}


def test_sorting_smallest_first():
    r = answer_sets(prog("p ; q. r :- p."))
    sizes = [len(s.literals) for s in r.consistent_sets]
    assert sizes == sorted(sizes)
    assert r.sets[0].literals == frozenset([lit("q")])


def test_satisfies_basics():
    r = next(iter(prog("p :- q, not s.")))
    assert satisfies(interp(), r)
    assert satisfies(interp("q", "p"), r)
    assert not satisfies(interp("q"), r)
    assert satisfies(interp("q", "s"), r)


def test_satisfies_marker():
    assert satisfies(CONTRADICTORY, next(iter(prog("p."))))
    assert satisfies(CONTRADICTORY, next(iter(prog(":- q, not r."))))
    assert not satisfies(CONTRADICTORY, next(iter(prog(":- q."))))


def test_satisfies_rejects_non_ground():
    r = Rule([Literal(Atom("p", (var("X"),)))], [])
    with pytest.raises(NonGroundRule):
        satisfies(interp(), r)


def test_reduct():
    p = prog("p :- q, not r. q. s :- not q.")
    red = reduct(p, interp("q", "p"))
    assert {str(r) for r in red} == {"p :- q.", "q."}
    red_marker = reduct(p, CONTRADICTORY)
    assert {str(r) for r in red_marker} == {"q."}


def test_answer_set_is_fixpoint_of_its_reduct():
    p = prog("p :- not q. q :- not p. r :- p.")
    for s in answer_sets(p).consistent_sets:
        again = answer_sets(reduct(p, s))
        assert s.literals in literal_sets(again)


def test_entails_and_credulous():
    p = prog("p :- not q. q :- not p. r.")
    assert entails(p, lit("r"))
    assert not entails(p, lit("p"))
    assert credulous_holds(p, lit("p"))
    assert not credulous_holds(p, lit("s"))
    # no answer sets: entailment is vacuous, credulous fails
    odd = prog("p :- not p. r.")
    assert entails(odd, lit("anything"))
    assert not credulous_holds(odd, lit("r"))


def test_entails_grounds_internally():
    from abdukit.core import const

    p = prog("flies(X) :- bird(X). bird(tweety).")
    assert entails(p, Literal(Atom("flies", (const("tweety"),))))
    assert not entails(p, Literal(Atom("flies", (const("opus"),))))


def test_candidate_budget():
    text = " ".join("p%d :- not q%d. q%d :- not p%d." % (i, i, i, i) for i in range(5))
    with pytest.raises(CandidateBudgetExceeded):
        answer_sets(prog(text), RunConfig(max_universe=8))


def test_candidate_budget_edge_survives_the_cache():
    p = prog("a :- not b. b :- not a. c :- a.")
    n = len(p.literals())
    # the larger cap runs first, so the smaller one meets a cached result
    assert len(answer_sets(p, RunConfig(max_universe=n)).sets) == 2
    with pytest.raises(CandidateBudgetExceeded, match=r"^%d .* is %d$" % (n, n - 1)):
        answer_sets(p, RunConfig(max_universe=n - 1))


def test_kernel_bit_ceiling_is_62_head_literals():
    facts = [Rule([lit("p%d" % i)], []) for i in range(63)]
    assert len(encode(Program(facts[:62])).layout) == 62
    with pytest.raises(AbdukitError, match=r"\b63\b.*\b62\b"):
        encode(Program(facts))


def test_is_stratified():
    assert is_stratified(prog("q :- not p. p :- r."))
    assert not is_stratified(prog("p :- not q. q :- not p."))
    # positive recursion is fine
    assert is_stratified(prog("p :- q. q :- p."))
    # not an NLP: disjunction, strong negation
    assert not is_stratified(prog("p ; q."))
    assert not is_stratified(prog("-p :- q."))
    with pytest.raises(NotNLP):
        is_stratified(prog("p ; q."), require_nlp=True)


def test_stratified_nlp_single_answer_set():
    p = prog("a. b :- a, not c. d :- not b.")
    assert is_stratified(p)
    r = answer_sets(p)
    assert len(r.sets) == 1
    assert r.sets[0].literals == frozenset([lit("a"), lit("b")])


@pytest.mark.parametrize(
    "text",
    [
        "p :- not q. q :- not p.",
        "p ; q.",
        "p. -p.",
        "p. -p. :- q.",
        "p :- not p. q.",
        "p ; q. p :- q. q :- p.",
        "-p :- not q. q :- r.",
        "q. p :- q. p ; r.",
        "p :- q, not r. q. s :- not q.",
        ":- p. p :- not q. q :- not p.",
        "p ; -p.",
        "",
    ],
)
def test_matches_reference(text):
    p = prog(text)
    assert answer_sets(p) == reference_answer_sets(p)


def test_cache_is_a_bounded_lru(monkeypatch):
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())
    programs = [Program([Rule([lit("p%d" % i)], [])]) for i in range(solver._CACHE_SIZE + 1)]
    for p in programs[:-1]:
        answer_sets(p)
    assert len(solver._CACHE) == solver._CACHE_SIZE
    answer_sets(programs[0])  # a hit makes it the most recent entry
    answer_sets(programs[-1])
    assert len(solver._CACHE) == solver._CACHE_SIZE
    assert programs[0].rules in solver._CACHE
    assert programs[1].rules not in solver._CACHE
    assert programs[-1].rules in solver._CACHE
