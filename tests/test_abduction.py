"""Tests for extended abduction: transformations, explanations, oracles."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from abdukit import abduction, solver
from abdukit.abduction import (
    BOT,
    CREDULOUS,
    NEGATIVE,
    POSITIVE,
    SKEPTICAL,
    AbducibleObservation,
    AbductiveProgram,
    Explanation,
    Observation,
    OracleBudgetExceeded,
    SkepticalBotUnsupported,
    anti_explanations,
    brute_force_explanations,
    build_update_program,
    compile_observations,
    explanations,
    normal_form,
    u_minimal_filter,
)
from abdukit.config import RunConfig
from abdukit.core import Atom, GroundingBudgetExceeded, Literal, Program, const, ground, var
from abdukit.parser import parse, parse_rule
from abdukit.solver import CandidateBudgetExceeded, answer_sets

from test_properties import own_choices_only


def ap_from(text: str) -> AbductiveProgram:
    unit = parse(text)
    return AbductiveProgram(unit.program, unit.abducibles)


def pairs(exps) -> set:
    return {
        (
            frozenset(str(r) for r in e.add),
            frozenset(str(r) for r in e.remove),
        )
        for e in exps
    }


def expect(*changes) -> set:
    out = set()
    for add, remove in changes:
        out.add(
            (
                frozenset(str(parse_rule(s)) for s in add),
                frozenset(str(parse_rule(s)) for s in remove),
            )
        )
    return out


CHAIN = """
p :- b.
q :- a, not b.
a.
#abducible a.
#abducible b.
"""


# ---------------------------------------------------------------------------
# observations


def test_observation_kinds_and_validation():
    p = Literal(Atom("p"))
    assert Observation.positive(p).kind == POSITIVE
    assert Observation.negative(p).kind == NEGATIVE
    assert Observation.bot().kind == BOT
    assert Observation.bot().literal is None
    with pytest.raises(ValueError):
        Observation("maybe", p)
    with pytest.raises(ValueError):
        Observation(BOT, p)
    with pytest.raises(ValueError):
        Observation(POSITIVE, None)
    with pytest.raises(ValueError):
        Observation.positive(Literal(Atom("p", (var("X"),))))
    assert str(Observation.negative(p)) == "not p"
    assert str(Observation.bot()) == "bot"


def test_abducible_observation_rejected():
    ap = ap_from(CHAIN)
    with pytest.raises(AbducibleObservation):
        explanations(ap, Observation.positive(Literal(Atom("a"))))
    with pytest.raises(AbducibleObservation):
        anti_explanations(ap, Observation.negative(Literal(Atom("b"))))
    with pytest.raises(AbducibleObservation):
        brute_force_explanations(ap, Observation.positive(Literal(Atom("a"))))


def test_observation_kind_must_match_direction():
    ap = ap_from(CHAIN)
    with pytest.raises(ValueError):
        explanations(ap, Observation.negative(Literal(Atom("p"))))
    with pytest.raises(ValueError):
        anti_explanations(ap, Observation.positive(Literal(Atom("p"))))
    with pytest.raises(ValueError):
        explanations(ap, Observation.positive(Literal(Atom("p"))), mode="guess")


# ---------------------------------------------------------------------------
# explanation values


def test_explanation_canonicalizes_and_sorts():
    r1 = parse_rule("s(X) :- t(X).")
    r2 = parse_rule("s(Y) :- t(Y).")
    e = Explanation(add=[r1], remove=[])
    assert e.add == frozenset([r2])
    assert e.size == 1
    small = Explanation(add=[parse_rule("a.")])
    assert small.sort_key() < Explanation(add=[parse_rule("a."), parse_rule("b.")]).sort_key()
    assert str(Explanation()) == "(no change)"
    assert str(Explanation(add=[parse_rule("a.")], remove=[parse_rule("b.")])) == "+a. -b."


# ---------------------------------------------------------------------------
# structural assumptions


def test_head_occurrence_is_detected():
    ap = ap_from("a :- q.\nq.\n#abducible a.")
    assert not own_choices_only(ap)
    fixed, names = normal_form(ap)
    assert own_choices_only(fixed)
    # a is no longer abducible; its name feeds it through a bridge
    assert {str(r) for r in fixed.program} == {"a :- __n1.", "a :- q.", "q."}
    assert {str(r) for r in fixed.abducibles} == {"__n1."}
    assert names == {Atom("__n1"): parse_rule("a.")}


def test_mixed_disjunctive_fact_is_not_rewritten():
    # the offending fact mentions a non-abducible, so only the abducible
    # status of a changes; the fact itself stays
    ap = ap_from("a; c.\n#abducible a.\n#abducible b.")
    fixed, names = normal_form(ap)
    assert {str(r) for r in fixed.program} == {"a ; c.", "a :- __n1."}
    assert {str(r) for r in fixed.abducibles} == {"__n1.", "b."}
    assert names == {Atom("__n1"): parse_rule("a.")}
    assert own_choices_only(fixed)


def test_conforming_program_is_left_alone():
    ap = ap_from(CHAIN)
    assert own_choices_only(ap)
    grounded = AbductiveProgram(ground(ap.program), ground(ap.abducibles))
    assert normal_form(ap) == (grounded, {})


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_keeps_fact_only_programs():
    ap = ap_from(CHAIN)
    nf, names = normal_form(ap)
    assert nf == ap
    assert names == {}


def test_normal_form_names_rule_abducibles():
    ap = ap_from(
        """
flies(X) :- bird(X).
bird(X) :- penguin(X).
bird(polly).
penguin(tweety).
#abducible flies(X) :- bird(X).
#abducible -flies(X) :- penguin(X).
"""
    )
    nf, names = normal_form(ap)
    got = {str(r) for r in nf.program}
    assert got == {
        "__n1.",
        "__n2.",
        "bird(polly).",
        "bird(polly) :- penguin(polly).",
        "bird(tweety) :- penguin(tweety).",
        "flies(polly) :- __n1, bird(polly).",
        "flies(tweety) :- __n2, bird(tweety).",
        "penguin(tweety).",
        "-flies(polly) :- __n3, penguin(polly).",
        "-flies(tweety) :- __n4, penguin(tweety).",
    }
    assert {str(r) for r in nf.abducibles} == {"__n1.", "__n2.", "__n3.", "__n4."}
    # the positive instances are in the program, so only their names have
    # facts; the names follow the ground instances in Rule.key order
    assert {str(a): str(r) for a, r in names.items()} == {
        "__n1": "flies(polly) :- bird(polly).",
        "__n2": "flies(tweety) :- bird(tweety).",
        "__n3": "-flies(polly) :- penguin(polly).",
        "__n4": "-flies(tweety) :- penguin(tweety).",
    }
    # each name stands for one ground rule instance
    assert names[Atom("__n2")] == parse_rule("flies(tweety) :- bird(tweety).")
    assert Atom("flies", (const("tweety"),)) not in names


def test_normal_form_names_disjunctive_facts():
    ap = ap_from(
        """
p :- a.
p :- b.
a; b.
#abducible a.
#abducible b.
#abducible a; b.
"""
    )
    nf, names = normal_form(ap)
    # a and b head the named fact, so each is named too and bridged
    assert {str(r) for r in nf.program} == {
        "__n2.",
        "a ; b :- __n2.",
        "a :- __n1.",
        "b :- __n3.",
        "p :- a.",
        "p :- b.",
    }
    assert {str(r) for r in nf.abducibles} == {"__n1.", "__n2.", "__n3."}
    assert names[Atom("__n2")] == parse_rule("a; b.")
    assert names[Atom("__n1")] == parse_rule("a.")
    assert own_choices_only(nf)


def test_normal_form_names_single_present_instances():
    ap = ap_from(
        """
flies(tweety) :- bird(tweety).
bird(tweety).
bird(polly).
#abducible flies(X) :- bird(X).
"""
    )
    nf, _ = normal_form(ap)
    got = {str(r) for r in nf.program}
    # the bare instance leaves the program and its name fact stands for
    # it; the absent instance gets a name but no name fact
    assert got == {
        "__n2.",
        "bird(polly).",
        "bird(tweety).",
        "flies(polly) :- __n1, bird(polly).",
        "flies(tweety) :- __n2, bird(tweety).",
    }


def test_normal_form_honours_the_callers_grounding_budget():
    # q(X, Y, Z) has 18^3 = 5832 instances, above the default budget of 5000
    facts = "".join("r(c%d, c%d, c%d).\n" % (i, i, i) for i in range(18))
    ap = ap_from(facts + "#abducible q(X, Y, Z) :- r(X, Y, Z).\n")
    up = build_update_program(ap, RunConfig(max_ground_rules=10**6))
    assert sum(added for added, _ in up.changes.values()) == 18**3
    with pytest.raises(GroundingBudgetExceeded):
        build_update_program(ap)


# ---------------------------------------------------------------------------
# the update transformation


def test_update_program_structure():
    ap = ap_from(CHAIN)
    up = build_update_program(ap)
    assert {str(r) for r in up.rules} == {
        "p :- b.",
        "q :- a, not b.",
        "a :- not __not0_a.",
        "__not0_a :- not a.",
        "b :- not __not0_b.",
        "__not0_b :- not b.",
        "__del0_a :- not a.",
        "__add0_b :- b.",
    }
    assert {str(a): (added, str(r)) for a, (added, r) in up.changes.items()} == {
        "__add0_b": (True, "b."),
        "__del0_a": (False, "a."),
    }
    assert up.update_atoms == frozenset(up.changes)


def test_update_program_answer_sets_and_minimality():
    ap = ap_from(CHAIN)
    up = build_update_program(ap)
    res = answer_sets(up.rules)
    projections = {
        frozenset(str(l) for l in s.literals if not str(l).startswith("__not"))
        for s in res.sets
    }
    assert projections == {
        frozenset({"a", "b", "p", "__add0_b"}),
        frozenset({"b", "p", "__add0_b", "__del0_a"}),
        frozenset({"a", "q"}),
        frozenset({"__del0_a"}),
    }
    kept = u_minimal_filter(res, up.update_atoms)
    assert len(kept.sets) == 1
    assert {str(l) for l in kept.sets[0].literals if not str(l).startswith("__")} == {"a", "q"}
    assert not kept.contains_contradictory


def test_u_minimal_filter_keeps_equal_projections():
    ap = ap_from("p :- a.\nq :- a.\n#abducible a.")
    up = build_update_program(ap)
    res = answer_sets(up.rules)
    kept = u_minimal_filter(res, up.update_atoms)
    # the empty-change set projects to {}, strictly below {+a}
    assert len(kept.sets) == 1


# ---------------------------------------------------------------------------
# explanations on the chain program


def test_explain_positive_chain():
    ap = ap_from(CHAIN)
    goal = Observation.positive(Literal(Atom("p")))
    assert pairs(explanations(ap, goal, CREDULOUS, True)) == expect((["b."], []))
    allp = explanations(ap, goal, CREDULOUS, False)
    assert pairs(allp) == expect((["b."], []), (["b."], ["a."]))
    flags = {frozenset(str(r) for r in e.remove): e.minimal for e in allp}
    assert flags[frozenset()] is True
    assert flags[frozenset({"a."})] is False
    assert pairs(explanations(ap, goal, SKEPTICAL, True)) == expect((["b."], []))


def test_anti_explain_negative_chain():
    ap = ap_from(CHAIN)
    goal = Observation.negative(Literal(Atom("q")))
    got = anti_explanations(ap, goal, CREDULOUS, True)
    assert pairs(got) == expect((["b."], []), ([], ["a."]))
    assert all(e.minimal for e in got)
    assert pairs(anti_explanations(ap, goal, SKEPTICAL, True)) == expect(
        (["b."], []), ([], ["a."])
    )


def test_combined_observations_chain():
    ap = ap_from(CHAIN)
    extended, goal = compile_observations(
        ap, [Literal(Atom("p"))], [Literal(Atom("q"))]
    )
    assert goal.kind == POSITIVE
    got = explanations(extended, goal, SKEPTICAL, True)
    assert pairs(got) == expect((["b."], []))
    assert pairs(explanations(extended, goal, CREDULOUS, True)) == expect((["b."], []))


def test_compile_observations_validation():
    ap = ap_from(CHAIN)
    with pytest.raises(ValueError):
        compile_observations(ap, [], [])
    with pytest.raises(AbducibleObservation):
        compile_observations(ap, [Literal(Atom("a"))])
    with pytest.raises(ValueError):
        compile_observations(ap, [Literal(Atom("p", (var("X"),)))])


# ---------------------------------------------------------------------------
# credulous and skeptical diverge on disjunction


DISJUNCTIVE = """
p; q :- a.
-q :- not b.
b.
#abducible a.
#abducible b.
"""


def test_credulous_explanations_disjunctive():
    ap = ap_from(DISJUNCTIVE)
    goal = Observation.positive(Literal(Atom("p")))
    assert pairs(explanations(ap, goal, CREDULOUS, False)) == expect(
        (["a."], []), (["a."], ["b."])
    )
    assert pairs(explanations(ap, goal, CREDULOUS, True)) == expect((["a."], []))


def test_skeptical_explanations_disjunctive():
    ap = ap_from(DISJUNCTIVE)
    goal = Observation.positive(Literal(Atom("p")))
    assert pairs(explanations(ap, goal, SKEPTICAL, False)) == expect((["a."], ["b."]))
    assert pairs(explanations(ap, goal, SKEPTICAL, True)) == expect((["a."], ["b."]))


# ---------------------------------------------------------------------------
# variables ground against program constants


def test_explanations_ground_variable_abducibles():
    ap = ap_from(
        """
g :- p(X), not r.
r :- q(a).
q(a).
q(b).
#abducible p(X).
#abducible q(X).
"""
    )
    goal = Observation.positive(Literal(Atom("g")))
    assert pairs(explanations(ap, goal, SKEPTICAL, True)) == expect(
        (["p(a)."], ["q(a)."]), (["p(b)."], ["q(a)."])
    )


def test_rule_abducibles_explain_through_names():
    ap = ap_from(
        """
flies(X) :- bird(X).
bird(X) :- penguin(X).
bird(polly).
penguin(tweety).
#abducible flies(X) :- bird(X).
#abducible -flies(X) :- penguin(X).
"""
    )
    cfg = RunConfig(max_universe=24)
    goal = Observation.positive(Literal(Atom("flies", (const("tweety"),)), positive=False))
    got = explanations(ap, goal, SKEPTICAL, True, cfg)
    assert pairs(got) == expect(
        ((["-flies(tweety) :- penguin(tweety)."], ["flies(tweety) :- bird(tweety)."]))
    )


def test_disjunctive_fact_abducible_round_trip():
    ap = ap_from(
        """
p :- a.
p :- b.
a; b.
#abducible a.
#abducible b.
#abducible a; b.
"""
    )
    goal = Observation.negative(Literal(Atom("p")))
    for mode in (CREDULOUS, SKEPTICAL):
        got = anti_explanations(ap, goal, mode, True)
        assert pairs(got) == expect(([], ["a; b."]))


def test_abducible_fact_heading_an_abducible_rule_is_named():
    # a :- b. derives a, so the fact a gets its own name; both additions
    # explain p, as the oracle says
    ap = ap_from("b.\np :- a.\n#abducible a.\n#abducible a :- b.\n")
    goal = Observation.positive(Literal(Atom("p")))
    got = explanations(ap, goal)
    assert pairs(got) == expect((["a."], []), (["a :- b."], []))
    assert got == brute_force_explanations(ap, goal, CREDULOUS, True)


def test_all_abducible_disjunctive_fact_changes_nothing_by_itself():
    # both answer sets {a} and {b} lack p, so no change is needed; the
    # disjunctive fact must not record a change of a or b
    ap = ap_from(
        "p :- a, b.\na; b.\n#abducible a.\n#abducible b.\n#abducible a; b.\n"
    )
    goal = Observation.negative(Literal(Atom("p")))
    got = anti_explanations(ap, goal)
    assert pairs(got) == expect(([], []))
    assert got == brute_force_explanations(ap, goal, CREDULOUS, True)


def test_overlapping_rule_patterns_share_one_ground_abducible():
    # p(a) :- q(a). is an instance of both patterns, so it is one choice
    ap = ap_from(
        "q(a).\nq(b).\ng :- p(a).\n#abducible p(X) :- q(X).\n#abducible p(a) :- q(a).\n"
    )
    goal = Observation.positive(Literal(Atom("g")))
    got = explanations(ap, goal, CREDULOUS, True)
    assert [str(e) for e in got] == ["+p(a) :- q(a)."]
    assert got == brute_force_explanations(ap, goal, CREDULOUS, True)
    got = explanations(ap, goal, CREDULOUS, False)
    assert [str(e) for e in got] == ["+p(a) :- q(a).", "+p(a) :- q(a). +p(b) :- q(b)."]
    assert got == brute_force_explanations(ap, goal, CREDULOUS, False)


def test_overlapping_fact_patterns_share_one_ground_abducible():
    # p(b) :- r. heads p(b), so that instance is named; p(a) stays one choice
    ap = ap_from("r.\ng :- p(a).\np(b) :- r.\n#abducible p(X).\n#abducible p(a).\n")
    goal = Observation.positive(Literal(Atom("g")))
    got = explanations(ap, goal, CREDULOUS, False)
    assert [str(e) for e in got] == ["+p(a).", "+p(a). +p(b)."]
    assert got == brute_force_explanations(ap, goal, CREDULOUS, False)


def test_abducible_rule_instances_lose_their_builtins():
    # p(5) :- q(5), 5 < 3. is no ground instance, and p(1)'s true builtin
    # is dropped, as grounding drops it
    ap = ap_from("q(1).\nq(5).\ng :- p(1).\n#abducible p(X) :- q(X), X < 3.\n")
    goal = Observation.positive(Literal(Atom("g")))
    for minimal in (True, False):
        got = explanations(ap, goal, CREDULOUS, minimal)
        assert [str(e) for e in got] == ["+p(1) :- q(1)."]
        assert got == brute_force_explanations(ap, goal, CREDULOUS, minimal)


def test_removed_rule_instances_lose_their_builtins():
    ap = ap_from(
        "q(1).\nq(5).\ng :- p(1).\np(X) :- q(X), X < 3.\n#abducible p(X) :- q(X), X < 3.\n"
    )
    goal = Observation.negative(Literal(Atom("g")))
    for minimal in (True, False):
        got = anti_explanations(ap, goal, CREDULOUS, minimal)
        assert [str(e) for e in got] == ["-p(1) :- q(1)."]
        assert got == brute_force_explanations(ap, goal, CREDULOUS, minimal)


# ---------------------------------------------------------------------------
# consistency restoration


def test_bot_restores_consistency():
    ap = ap_from("p.\n-p.\n#abducible p.")
    got = anti_explanations(ap, Observation.bot(), CREDULOUS, True)
    assert pairs(got) == expect(([], ["p."]))


def test_bot_on_consistent_program_needs_no_change():
    ap = ap_from(CHAIN)
    got = anti_explanations(ap, Observation.bot(), CREDULOUS, True)
    assert pairs(got) == {(frozenset(), frozenset())}


def test_bot_skeptical_is_rejected():
    ap = ap_from(CHAIN)
    with pytest.raises(SkepticalBotUnsupported):
        anti_explanations(ap, Observation.bot(), SKEPTICAL)
    with pytest.raises(SkepticalBotUnsupported):
        brute_force_explanations(ap, Observation.bot(), SKEPTICAL)


def test_one_solve_serves_every_mode(monkeypatch):
    abduction._prepare_cached.cache_clear()
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())
    encoded, solved = [], []
    real_encode, real_answer_sets = solver.encode, abduction.answer_sets
    monkeypatch.setattr(solver, "encode", lambda p: encoded.append(p) or real_encode(p))
    monkeypatch.setattr(
        abduction, "answer_sets", lambda p, cfg: solved.append(p) or real_answer_sets(p, cfg)
    )
    ap = ap_from(CHAIN)
    p, q = Literal(Atom("p")), Literal(Atom("q"))

    def every_mode():
        for mode in (CREDULOUS, SKEPTICAL):
            assert explanations(ap, Observation.positive(p), mode)
            assert anti_explanations(ap, Observation.negative(q), mode)
        assert anti_explanations(ap, Observation.bot())

    every_mode()
    assert len(encoded) == 1 and len(solved) == 1
    # the five modes read one grouping memoized on the update program
    # and decode no answer set
    result, _ = build_update_program(ap)._groups
    (cached,) = solver._CACHE.values()
    assert cached is result
    assert result._sets is None
    every_mode()
    assert len(encoded) == 1 and len(solved) == 1


def test_update_program_is_built_once(monkeypatch):
    ap = ap_from(CHAIN)
    cfg = RunConfig()
    assert build_update_program(ap, cfg) is build_update_program(ap, cfg)
    abduction._prepare_cached.cache_clear()
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())
    solved = []
    real_encode = solver.encode
    monkeypatch.setattr(solver, "encode", lambda p: solved.append(p) or real_encode(p))
    p, q = Literal(Atom("p")), Literal(Atom("q"))
    for mode in (CREDULOUS, SKEPTICAL):
        explanations(ap, Observation.positive(p), mode)
        anti_explanations(ap, Observation.negative(q), mode)
    anti_explanations(ap, Observation.bot())
    assert abduction._prepare_cached.cache_info().misses == 1
    assert len(solved) == 1
    assert solved[0] is build_update_program(ap).rules


def test_observations_over_known_constants_share_one_update_program():
    ap = ap_from(
        "flies(X) :- bird(X), not ab(X).\nbird(tweety).\nbird(opus).\n#abducible ab(X).\n"
    )
    cfg = RunConfig()
    abduction._prepare_cached.cache_clear()
    for name in ("opus", "tweety"):
        explanations(ap, Observation.positive(Literal(Atom("flies", (const(name),)))), config=cfg)
    info = abduction._prepare_cached.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    up = build_update_program(ap, cfg)
    assert abduction._prepare_cached.cache_info().hits == 2
    # a constant the program lacks still widens the grounding
    explanations(ap, Observation.positive(Literal(Atom("flies", (const("polly"),)))), config=cfg)
    assert abduction._prepare_cached.cache_info().misses == 2
    assert build_update_program(ap, cfg) is up


def test_universe_budget_edge_through_the_pipeline():
    ap = ap_from(CHAIN)
    goal = Observation.positive(Literal(Atom("p")))
    n = len(build_update_program(ap).rules.literals())
    # the larger cap runs first, so the smaller one meets a cached solve
    assert explanations(ap, goal, config=RunConfig(max_universe=n)) == explanations(ap, goal)
    with pytest.raises(CandidateBudgetExceeded, match=r"^%d .* is %d$" % (n, n - 1)):
        explanations(ap, goal, config=RunConfig(max_universe=n - 1))


# ---------------------------------------------------------------------------
# well-formedness of results


def test_additions_and_removals_partition():
    ap = ap_from(CHAIN)
    goal = Observation.positive(Literal(Atom("p")))
    for mode in (CREDULOUS, SKEPTICAL):
        for exp in explanations(ap, goal, mode, False):
            assert not exp.add & exp.remove
            for r in exp.add:
                assert r not in ap.program
            for r in exp.remove:
                assert r in ap.program
            assert exp.mode == mode


def test_results_are_sorted_and_deduplicated():
    ap = ap_from(CHAIN)
    goal = Observation.negative(Literal(Atom("q")))
    got = anti_explanations(ap, goal, CREDULOUS, True)
    keys = [e.sort_key() for e in got]
    assert keys == sorted(keys)
    assert len(got) == len(set(pairs(got)))


# ---------------------------------------------------------------------------
# the brute-force oracle


def test_oracle_matches_on_chain():
    ap = ap_from(CHAIN)
    goal = Observation.positive(Literal(Atom("p")))
    for mode in (CREDULOUS, SKEPTICAL):
        for minimal in (False, True):
            assert pairs(explanations(ap, goal, mode, minimal)) == pairs(
                brute_force_explanations(ap, goal, mode, minimal)
            )
    anti = Observation.negative(Literal(Atom("q")))
    for mode in (CREDULOUS, SKEPTICAL):
        for minimal in (False, True):
            assert pairs(anti_explanations(ap, anti, mode, minimal)) == pairs(
                brute_force_explanations(ap, anti, mode, minimal)
            )


def test_oracle_budget():
    rules = ["p(a%d)." % i for i in range(13)]
    text = "\n".join(rules) + "\n#abducible p(X).\nq :- p(a0).\n"
    ap = ap_from(text)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_explanations(ap, Observation.positive(Literal(Atom("q"))))
    # a raised cap allows the run
    got = brute_force_explanations(
        ap, Observation.positive(Literal(Atom("q"))), CREDULOUS, True, cap=13
    )
    assert pairs(got) == {(frozenset(), frozenset())}
