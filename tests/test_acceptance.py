"""Acceptance gate: one test per shipped guarantee.

Criteria 1-5 pin the abduction engine to known-good values, 6-10 pin the
update services, and 11, 12 and 14 are randomized property sweeps
(13, that two abducible-choice encodings agree, retired with the second
encoding; the numbers are kept).  Each test
prints a single "criterion N: PASS" line when it holds (run with -s to
see them; a failure shows up as the test failing).
"""

from __future__ import annotations

from abdukit.abduction import (
    CREDULOUS,
    SKEPTICAL,
    AbductiveProgram,
    Observation,
    anti_explanations,
    build_update_program,
    compile_observations,
    explanations,
    normal_form,
    u_minimal_filter,
)
from abdukit.config import RunConfig
from abdukit.core import Atom, Literal, Program, const, program_union
from abdukit.parser import parse, parse_rule
from abdukit.solver import answer_sets, consistent, entails
from abdukit.updates import (
    ALL_RULES,
    FACT_UNIVERSE,
    delta_maximal_answer_sets,
    maintain_integrity,
    multi_solution_program,
    remove_inconsistency,
    theory_update,
    view_delete,
    view_insert,
)

import test_properties


def _ap(text: str):
    unit = parse(text)
    return AbductiveProgram(unit.program, unit.abducibles)


def _pairs(exps) -> set:
    return {
        (
            frozenset(str(r) for r in e.add),
            frozenset(str(r) for r in e.remove),
        )
        for e in exps
    }


def _deltas(sols) -> set:
    return {
        (
            frozenset(str(r) for r in s.delta.add),
            frozenset(str(r) for r in s.delta.remove),
        )
        for s in sols
    }


def _expect(*changes) -> set:
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


def test_criterion_01_update_program_answer_sets():
    up = build_update_program(_ap(CHAIN))
    res = answer_sets(up.rules)
    got = {frozenset(str(l) for l in s.literals) for s in res.sets}
    assert got == {
        frozenset({"__del0_a", "__not0_a", "__not0_b"}),
        frozenset({"__not0_b", "a", "q"}),
        frozenset({"__add0_b", "a", "b", "p"}),
        frozenset({"__add0_b", "__del0_a", "__not0_a", "b", "p"}),
    }
    kept = u_minimal_filter(res, up.update_atoms)
    assert {frozenset(str(l) for l in s.literals) for s in kept.sets} == {
        frozenset({"__not0_b", "a", "q"})
    }
    print("criterion 1: PASS")


def test_criterion_02_explain_and_anti_explain_chain():
    ap = _ap(CHAIN)
    p, q = Literal(Atom("p")), Literal(Atom("q"))
    assert _pairs(explanations(ap, Observation.positive(p), CREDULOUS, True)) == _expect(
        (["b."], [])
    )
    assert _pairs(
        anti_explanations(ap, Observation.negative(q), CREDULOUS, True)
    ) == _expect((["b."], []), ([], ["a."]))
    extended, goal = compile_observations(ap, [p], [q])
    assert _pairs(explanations(extended, goal, SKEPTICAL, True)) == _expect((["b."], []))
    print("criterion 2: PASS")


def test_criterion_03_skeptical_prunes_disjunctive_alternative():
    ap = _ap(
        """
p; q :- a.
-q :- not b.
b.
#abducible a.
#abducible b.
"""
    )
    goal = Observation.positive(Literal(Atom("p")))
    assert _pairs(explanations(ap, goal, CREDULOUS, False)) == _expect(
        (["a."], []), (["a."], ["b."])
    )
    assert _pairs(explanations(ap, goal, SKEPTICAL, False)) == _expect((["a."], ["b."]))
    print("criterion 3: PASS")


def test_criterion_04_ground_variable_abducibles():
    ap = _ap(
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
    assert _pairs(explanations(ap, goal, SKEPTICAL, True)) == _expect(
        (["p(a)."], ["q(a)."]), (["p(b)."], ["q(a)."])
    )
    print("criterion 4: PASS")


def test_criterion_05_rule_abducibles_name_and_map_back():
    ap = _ap(
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
    assert {str(r) for r in nf.program} == {
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
    assert names[Atom("__n4")] == parse_rule("-flies(tweety) :- penguin(tweety).")
    cfg = RunConfig(max_universe=24)
    goal = Observation.positive(Literal(Atom("flies", (const("tweety"),)), False))
    assert _pairs(explanations(ap, goal, SKEPTICAL, True, cfg)) == _expect(
        ((["-flies(tweety) :- penguin(tweety)."], ["flies(tweety) :- bird(tweety)."]))
    )
    print("criterion 5: PASS")


BIRDS = """
flies(X) :- bird(X), not ab(X).
ab(X) :- broken_wing(X).
bird(tweety).
bird(opus).
broken_wing(tweety).
#variable broken_wing(X).
"""


def test_criterion_06_view_insert_and_delete():
    unit = parse(BIRDS)
    p, v = unit.program, unit.variable_rules
    tweety = Literal(Atom("flies", (const("tweety"),)))
    ins = view_insert(p, v, tweety)
    assert _deltas(ins) == _expect(([], ["broken_wing(tweety)."]))
    assert len(ins) == 1 and entails(ins[0].updated_program, tweety)
    opus = Literal(Atom("flies", (const("opus"),)))
    dele = view_delete(p, v, opus)
    assert _deltas(dele) == _expect((["broken_wing(opus)."], []))
    assert len(dele) == 1 and not entails(dele[0].updated_program, opus)
    print("criterion 6: PASS")


def test_criterion_07_integrity_maintenance_two_repairs():
    unit = parse(
        """
employee(john, 35).
manager(john).
:- employee(X, Y), manager(X), not talented(X), Y < 40.
#variable manager(X).
#variable talented(X).
"""
    )
    sols = maintain_integrity(unit.program, unit.variable_rules)
    assert len(sols) == 2
    assert _deltas(sols) == _expect(([], ["manager(john)."]), (["talented(john)."], []))
    assert all(consistent(s.updated_program) for s in sols)
    print("criterion 7: PASS")


def test_criterion_08_two_step_theory_update():
    p1 = parse("sleep :- not tv_on.\nwatch_tv :- tv_on.\ntv_on.").program
    p2 = parse("power_failure.\n:- power_failure, tv_on.").program
    step1 = theory_update(p1, p2)
    assert _deltas(step1) == _expect(([], ["tv_on."]))
    p3 = step1[0].updated_program
    assert p3 == parse(
        "sleep :- not tv_on.\nwatch_tv :- tv_on.\npower_failure.\n:- power_failure, tv_on."
    ).program
    step2 = theory_update(p3, parse("-power_failure.").program)
    assert _deltas(step2) == _expect(([], ["power_failure."]))
    result = answer_sets(step2[0].updated_program)
    assert len(result.sets) == 1
    assert {str(l) for l in result.sets[0].literals} == {"sleep", "-power_failure"}
    print("criterion 8: PASS")


def test_criterion_09_theory_update_family():
    p = parse("p :- q.\nq.").program
    q = parse("-p.").program
    assert _deltas(theory_update(p, q)) == _expect(([], ["p :- q."]), ([], ["q."]))
    m = multi_solution_program(p, q)
    result = delta_maximal_answer_sets(m)
    assert len(result.sets) == 2
    projections = {
        frozenset(str(l) for l in s.literals if not str(l).lstrip("-").startswith("__"))
        for s in result.sets
    }
    assert projections == {frozenset({"-p"}), frozenset({"-p", "q"})}
    nixon = parse(
        "pacifist :- quaker.\n-pacifist :- republican.\nquaker.\nrepublican."
    ).program
    sols = remove_inconsistency(nixon)
    assert _deltas(sols) == _expect(
        ([], ["pacifist :- quaker."]),
        ([], ["-pacifist :- republican."]),
        ([], ["quaker."]),
        ([], ["republican."]),
    )
    assert all(len(s.delta.remove) == 1 for s in sols)
    odd = parse("p :- not p.\nq.").program
    repaired = remove_inconsistency(odd)
    assert _deltas(repaired) == _expect(([], ["p :- not p."]))
    assert repaired[0].updated_program == parse("q.").program
    print("criterion 9: PASS")


def test_criterion_10_repair_scopes():
    p = parse("-p.\n:- not p.").program
    wide = remove_inconsistency(p, FACT_UNIVERSE)
    assert _expect((["p."], ["-p."])) <= _deltas(wide)
    narrow = remove_inconsistency(p, ALL_RULES)
    assert _deltas(narrow) == _expect(([], [":- not p."]))
    assert narrow[0].updated_program == parse("-p.").program
    print("criterion 10: PASS")


def test_criterion_11_three_route_equivalence():
    test_properties.test_three_routes_agree_on_random_instances()
    print("criterion 11: PASS")


def test_criterion_12_update_program_mirrors_answer_sets():
    test_properties.test_unchanged_update_sets_mirror_original_answer_sets()
    print("criterion 12: PASS")


def test_criterion_14_stratified_collapse():
    test_properties.test_credulous_equals_skeptical_on_stratified_programs()
    print("criterion 14: PASS")
