from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from abdukit import solver
from abdukit.config import RunConfig
from abdukit.core import Atom, Builtin, Literal, NafLiteral, Program, Rule, integer, var
from abdukit.parser import parse
from abdukit.solver import (
    CONTRADICTORY,
    CandidateBudgetExceeded,
    Interpretation,
    NonGroundRule,
    answer_sets,
    consistent,
    credulous_holds,
    entails,
    reference_answer_sets,
)
from abdukit.solver.encode import encode

from corpus import random_ground_program


def prog(text: str) -> Program:
    return parse(text).program


def lit(name: str, positive: bool = True) -> Literal:
    return Literal(Atom(name), positive)


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


def test_answer_sets_rejects_non_ground():
    with_variable = Rule([Literal(Atom("p", (var("X"),)))], [])
    with_builtin = Rule([lit("p")], [Builtin("<", integer(1), integer(2))])
    for r in (with_variable, with_builtin):
        with pytest.raises(NonGroundRule):
            answer_sets(Program([r]))


def reduct(p: Program, s: Interpretation) -> Program:
    """The rules whose NAF part misses s, with NAF stripped."""
    return Program(
        Rule(r.head, [NafLiteral(l, False) for l in r.body_pos()])
        for r in p.rules
        if not r.body_naf() & s.literals
    )


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


def test_reads_ground_a_program_once_per_config(monkeypatch):
    from abdukit.core import GroundingBudgetExceeded, const

    calls = []

    def counting_ground(p, extra_constants=(), config=None):
        calls.append(config)
        return ground(p, extra_constants, config)

    ground = solver.ground
    monkeypatch.setattr(solver, "ground", counting_ground)
    solver._ground_cached.cache_clear()
    p = prog("flies(X) :- bird(X), not ab(X). bird(tweety). bird(opus). ab(opus).")
    tweety, opus = (Literal(Atom("flies", (const(c),))) for c in ("tweety", "opus"))
    assert consistent(p)
    assert entails(p, tweety)
    assert not entails(p, opus)
    assert credulous_holds(p, tweety)
    assert len(calls) == 1
    assert consistent(p, RunConfig(max_universe=20))
    assert len(calls) == 2
    # a failed grounding is not remembered: it raises every time
    tight = RunConfig(max_ground_rules=3)
    for _ in range(2):
        with pytest.raises(GroundingBudgetExceeded):
            consistent(p, tight)
    assert len(calls) == 4


def test_candidate_budget():
    text =" ".join("p%d :- not q%d. q%d :- not p%d." % (i, i, i, i) for i in range(5))
    with pytest.raises(CandidateBudgetExceeded):
        answer_sets(prog(text), RunConfig(max_universe=8))


def test_candidate_budget_edge_survives_the_cache():
    p = prog("a :- not b. b :- not a. c :- a.")
    n = len(p.literals())
    # the larger cap runs first, so the smaller one meets a cached result
    assert len(answer_sets(p, RunConfig(max_universe=n)).sets) == 2
    with pytest.raises(CandidateBudgetExceeded, match=r"^%d .* is %d$" % (n, n - 1)):
        answer_sets(p, RunConfig(max_universe=n - 1))


def test_reads_equal_the_decoded_answer_sets(monkeypatch):
    """consistent, entails and credulous_holds are bit tests on the cached
    masks; they must say what the decoded answer sets say, for literals
    that are derivable, underivable, or absent from the program."""
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())
    cfg = RunConfig(max_universe=30)
    rng = random.Random(20261018)
    only_marker = [prog("p. -p."), prog("p. -p. q :- p. r :- not q."), prog("a ; b. -a. -b. c :- d.")]
    programs = only_marker + [random_ground_program(rng) for _ in range(1000)]
    absent = lit("absent")
    marker_only = 0
    for p in programs:
        # the reads first, so no answer set is decoded before them
        literals = sorted(p.literals() | {l.complement() for l in p.literals()} | {absent}, key=Literal.key)
        reads = [(consistent(p, cfg), entails(p, l, cfg), credulous_holds(p, l, cfg)) for l in literals]
        sets = answer_sets(p, cfg).sets
        marker_only += sets == (CONTRADICTORY,)
        for l, read in zip(literals, reads):
            assert read == (
                any(not s.marker for s in sets),
                all(s.contains(l) for s in sets),
                any(not s.marker and l in s.literals for s in sets),
            ), (str(p), str(l))
    assert marker_only > len(only_marker)


def test_answer_sets_rejects_a_mask_with_a_complementary_pair(monkeypatch):
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())
    p = prog("p ; -p. q :- p.")
    layout = encode(p).layout
    both = (1 << layout.index(lit("p"))) | (1 << layout.index(lit("p", False)))
    monkeypatch.setattr(solver._kernel, "enumerate_answer_sets", lambda *args: ([both], False))
    with pytest.raises(ValueError, match=r"complementary pair p / -p"):
        answer_sets(p)
    assert p.rules not in solver._CACHE


def test_encode_has_no_bit_ceiling():
    facts = [Rule([lit("p%d" % i)], []) for i in range(63)]
    # t can never be derived, so it takes no bit
    dead = Rule([lit("t")], [NafLiteral(lit("u"), False)])
    p = Program(facts + [dead])
    assert len(encode(p).layout) == 63
    result = answer_sets(p, RunConfig(max_universe=70))
    assert result.sets == (Interpretation(frozenset(lit("p%d" % i) for i in range(63))),)


def planted_program(rng: random.Random) -> Program:
    """A corpus program; every other one also holds the unsupported
    positive loop x :- y. y :- x., a rule whose positive body uses it and,
    sometimes, a NAF-free constraint on it."""
    p = random_ground_program(rng, max_atoms=4, max_rules=6)
    if rng.random() < 0.5:
        return p
    x, y = lit("x"), lit("y")
    rules = set(p.rules) | {Rule([x], [NafLiteral(y, False)]), Rule([y], [NafLiteral(x, False)])}
    pool = sorted(p.literals(), key=Literal.key)
    head = rng.sample(pool, min(rng.randint(1, 2), len(pool)))
    body = [NafLiteral(x, False)] + [NafLiteral(l, rng.random() < 0.5) for l in rng.sample(pool, 1)]
    rules.add(Rule(head, [e for e in body if e.literal not in head]))
    if rng.random() < 0.5:
        rules.add(Rule([], [NafLiteral(rng.choice([x, y]), False)]))
    return Program(rules)


def derivable_literals(p: Program) -> set[Literal]:
    """The least set closed under every rule of p with its NAF body ignored."""
    out: set[Literal] = set()
    while True:
        new = {l for r in p.rules if r.body_pos() <= out for l in r.head} - out
        if not new:
            return out
        out |= new


def test_pruning_matches_reference_with_planted_loops():
    rng = random.Random(7)
    for _ in range(2000):
        p = planted_program(rng)
        assert answer_sets(p) == reference_answer_sets(p), str(p)


def test_encoding_has_no_dead_bits():
    rng = random.Random(11)
    for _ in range(2000):
        p = planted_program(rng)
        enc = encode(p)
        heads = 0
        for head in enc.heads:
            heads |= head
        assert enc.free_mask & ~heads == 0, str(p)
        assert set(enc.layout) <= derivable_literals(p), str(p)


@pytest.mark.parametrize("text", [":- y. x :- y. y :- x.", "p. -p. :- y. x :- y. y :- x."])
def test_underivable_naf_free_constraint_still_excludes_the_marker(text):
    p = prog(text)
    assert encode(p).has_naf_free_constraint
    assert not answer_sets(p).contains_contradictory
    assert answer_sets(p) == reference_answer_sets(p)


def test_stratified_nlp_single_answer_set():
    p = prog("a. b :- a, not c. d :- not b.")
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
