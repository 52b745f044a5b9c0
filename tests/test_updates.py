"""Tests for the update services: views, integrity, theory, repair."""

from __future__ import annotations

import itertools
import random

import pytest

from abdukit import core, solver, updates
from abdukit.abduction import (
    CREDULOUS,
    AbductiveProgram,
    Observation,
    brute_force_explanations,
    build_update_program,
)
from abdukit.config import RunConfig
from abdukit.core import (
    AbdukitError,
    Atom,
    Literal,
    Program,
    canonical_form,
    const,
    fact,
    literal_universe,
    program_diff,
    program_union,
)
from abdukit.parser import parse, parse_rule
from abdukit.solver import answer_sets, consistent, entails
from abdukit.solver.encode import encode
from abdukit.updates import (
    ALL_RULES,
    FACT_UNIVERSE,
    ConstraintInVariablePart,
    NoSolution,
    RuleAlreadyPresent,
    RuleNotPresent,
    ScopeNotSubset,
    delete_rule,
    delta_maximal_answer_sets,
    insert_rule,
    maintain_integrity,
    multi_solution_program,
    remove_inconsistency,
    theory_update,
    view_delete,
    view_insert,
)

from corpus import random_ground_program
from test_cli import FIXTURES


def deltas(sols) -> set:
    return {
        (
            frozenset(str(r) for r in s.delta.add),
            frozenset(str(r) for r in s.delta.remove),
        )
        for s in sols
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


BIRDS = """
flies(X) :- bird(X), not ab(X).
ab(X) :- broken_wing(X).
bird(tweety).
bird(opus).
broken_wing(tweety).
#variable broken_wing(X).
"""


def birds():
    unit = parse(BIRDS)
    return unit.program, unit.variable_rules


# ---------------------------------------------------------------------------
# view updates


def test_view_insert_removes_blocking_fact():
    p, v = birds()
    goal = Literal(Atom("flies", (const("tweety"),)))
    sols = view_insert(p, v, goal)
    assert deltas(sols) == expect(([], ["broken_wing(tweety)."]))
    (sol,) = sols
    assert sol.kind == "view-insert"
    assert entails(sol.updated_program, goal)
    assert consistent(sol.updated_program)


def test_view_delete_adds_exception_fact():
    p, v = birds()
    goal = Literal(Atom("flies", (const("opus"),)))
    sols = view_delete(p, v, goal)
    assert deltas(sols) == expect((["broken_wing(opus)."], []))
    (sol,) = sols
    assert sol.kind == "view-delete"
    assert not entails(sol.updated_program, goal)
    assert consistent(sol.updated_program)


def test_view_updates_touch_only_the_variable_part():
    p, v = birds()
    fixed = Program([r for r in p if r not in parse("broken_wing(tweety).").program])
    for goal, sols in [
        (Literal(Atom("flies", (const("tweety"),))), view_insert(p, v, Literal(Atom("flies", (const("tweety"),))))),
        (Literal(Atom("flies", (const("opus"),))), view_delete(p, v, Literal(Atom("flies", (const("opus"),))))),
    ]:
        for sol in sols:
            # P' \ V = P \ V on ground instantiations
            v_preds = {("broken_wing", 1)}
            left = Program(
                r
                for r in program_diff(sol.updated_program, Program(()))
                if not any((l.atom.predicate, l.atom.arity) in v_preds for l in r.literals())
            )
            right = Program(
                r
                for r in program_diff(p, Program(()))
                if not any((l.atom.predicate, l.atom.arity) in v_preds for l in r.literals())
            )
            assert left == right


def test_view_solution_is_diff_plus_additions():
    p, v = birds()
    for sols in [
        view_insert(p, v, Literal(Atom("flies", (const("tweety"),)))),
        view_delete(p, v, Literal(Atom("flies", (const("opus"),)))),
    ]:
        for sol in sols:
            rebuilt = program_union(
                program_diff(p, Program(sol.delta.remove)), Program(sol.delta.add)
            )
            assert program_diff(rebuilt, sol.updated_program).rules == frozenset()
            assert program_diff(sol.updated_program, rebuilt).rules == frozenset()


def test_view_insert_of_entailed_goal_is_empty_change():
    p, v = birds()
    sols = view_insert(p, v, Literal(Atom("bird", (const("tweety"),))))
    assert deltas(sols) == {(frozenset(), frozenset())}
    assert sols[0].updated_program == p


def test_view_delete_of_unprovable_goal_is_empty_change():
    p, v = birds()
    sols = view_delete(p, v, Literal(Atom("flies", (const("tweety"),))))
    assert deltas(sols) == {(frozenset(), frozenset())}


def test_view_goal_with_unknown_predicate_is_diagnosed():
    p, v = birds()
    with pytest.raises(NoSolution):
        view_insert(p, v, Literal(Atom("swims", (const("tweety"),))))
    with pytest.raises(NoSolution):
        view_delete(p, v, Literal(Atom("swims", (const("opus"),))))


def test_view_insert_with_rule_views():
    unit = parse(
        """
flies(X) :- bird(X).
bird(X) :- penguin(X).
bird(polly).
penguin(tweety).
#variable flies(X) :- bird(X).
#variable -flies(X) :- penguin(X).
"""
    )
    cfg = RunConfig(max_universe=24)
    goal = Literal(Atom("flies", (const("tweety"),)), positive=False)
    sols = view_insert(unit.program, unit.variable_rules, goal, cfg)
    assert deltas(sols) == expect(
        (["-flies(tweety) :- penguin(tweety)."], ["flies(tweety) :- bird(tweety)."])
    )
    (sol,) = sols
    assert entails(sol.updated_program, goal, cfg)


def test_view_delete_applies_the_delta_under_the_callers_budget():
    # the removed rule is a ground instance of r(X) :- p(X), so applying
    # the delta grounds the program: 5^6 + 10 instances, over the default
    # budget of 5000
    unit = parse(
        """
p(a). p(b). p(c). p(d). p(e).
r(X) :- p(X).
s(X) :- p(X), p(Y1), p(Y2), p(Y3), p(Y4), p(Y5), X = Y1, Y1 = Y2, Y2 = Y3, Y3 = Y4, Y4 = Y5.
#variable r(X) :- p(X).
"""
    )
    cfg = RunConfig(max_ground_rules=40000, max_universe=200)
    goal = Literal(Atom("r", (const("a"),)))
    sols = view_delete(unit.program, unit.variable_rules, goal, cfg)
    assert [str(s.delta) for s in sols] == ["-r(a) :- p(a)."]


def test_applied_delta_keeps_instances_over_constants_only_the_change_brings():
    # p(b) brings the constant b, and removing r(a) :- p(a) grounds the
    # program: it must be grounded over b too, or r(b) :- p(b) and
    # g :- r(b), not r(a) are lost and g no longer holds
    unit = parse(FIXTURES["fresh"])
    goal = Literal(Atom("g"))
    (sol,) = view_insert(unit.program, unit.variable_rules, goal)
    assert str(sol.delta) == "+p(b). -r(a) :- p(a)."
    assert sol.updated_program == parse(
        "g :- r(a), not r(a).\ng :- r(b), not r(a).\np(a).\np(b).\nr(b) :- p(b)."
    ).program
    assert entails(sol.updated_program, goal)


def test_view_delete_enumerates_alternatives():
    unit = parse(
        """
p :- b.
q :- a, not b.
a.
#variable a.
#variable b.
"""
    )
    sols = view_delete(unit.program, unit.variable_rules, Literal(Atom("q")))
    assert deltas(sols) == expect(([], ["a."]), (["b."], []))


def test_view_minimality_under_symmetric_difference():
    # no reported solution is dominated by another consistent candidate
    # over the variable part
    p, v = birds()
    goal = Literal(Atom("flies", (const("opus"),)))
    sols = view_delete(p, v, goal)
    instances = [
        parse_rule("broken_wing(tweety)."),
        parse_rule("broken_wing(opus)."),
    ]
    base = Program([r for r in p if r not in Program(instances)])
    # every candidate accomplishing the deletion has a symmetric difference
    # at least as large as some reported solution
    p_view = {str(r) for r in instances if r in p}
    for keep_count in range(len(instances) + 1):
        for keep in itertools.combinations(instances, keep_count):
            candidate = Program(base.rules | frozenset(keep))
            if not consistent(candidate) or entails(candidate, goal):
                continue
            cand_view = {str(r) for r in keep}
            cand_sym = cand_view ^ p_view
            assert any(
                (({str(r) for r in sol.delta.add} | {str(r) for r in sol.delta.remove}) <= cand_sym)
                for sol in sols
            )


# ---------------------------------------------------------------------------
# integrity maintenance


MANAGER = """
employee(john, 35).
manager(john).
:- employee(X, Y), manager(X), not talented(X), Y < 40.
#variable manager(X).
#variable talented(X).
"""


def test_integrity_maintenance_offers_both_repairs():
    unit = parse(MANAGER)
    sols = maintain_integrity(unit.program, unit.variable_rules)
    assert deltas(sols) == expect(([], ["manager(john)."]), (["talented(john)."], []))
    for sol in sols:
        assert sol.kind == "integrity"
        assert consistent(sol.updated_program)


def test_integrity_maintenance_restricted_variable_part():
    unit = parse(MANAGER)
    only_manager = Program([parse_rule("manager(X).")])
    sols = maintain_integrity(unit.program, only_manager)
    assert deltas(sols) == expect(([], ["manager(john)."]))


def test_integrity_maintenance_on_consistent_program():
    p = parse("p :- q.\nq.").program
    sols = maintain_integrity(p, Program([parse_rule("q.")]))
    assert deltas(sols) == {(frozenset(), frozenset())}
    assert sols[0].updated_program == p


def test_constraints_may_not_be_variable():
    unit = parse(MANAGER)
    bad = Program(list(unit.variable_rules) + [parse_rule(":- manager(X), not employee(X, Y).")])
    with pytest.raises(ConstraintInVariablePart):
        maintain_integrity(unit.program, bad)


# ---------------------------------------------------------------------------
# theory updates


def test_theory_update_tv_scenario():
    p1 = parse("sleep :- not tv_on.\nwatch_tv :- tv_on.\ntv_on.").program
    p2 = parse("power_failure.\n:- power_failure, tv_on.").program
    step1 = theory_update(p1, p2)
    assert deltas(step1) == expect(([], ["tv_on."]))
    p3 = step1[0].updated_program
    assert p3 == parse(
        "sleep :- not tv_on.\nwatch_tv :- tv_on.\npower_failure.\n:- power_failure, tv_on."
    ).program
    step2 = theory_update(p3, parse("-power_failure.").program)
    assert deltas(step2) == expect(([], ["power_failure."]))
    final = step2[0].updated_program
    result = answer_sets(final)
    assert len(result.sets) == 1
    assert {str(l) for l in result.sets[0].literals} == {"sleep", "-power_failure"}


def test_theory_update_keeps_new_rules_and_maximality():
    p = parse("p :- q.\nq.").program
    q = parse("-p.").program
    sols = theory_update(p, q)
    assert deltas(sols) == expect(([], ["p :- q."]), ([], ["q."]))
    union = program_union(p, q)
    for sol in sols:
        assert sol.kind == "theory"
        # Q <= P' <= P u Q
        for rule in q:
            assert rule in sol.updated_program
        assert program_diff(sol.updated_program, union).rules == frozenset()
        assert consistent(sol.updated_program)
        # re-adding any single removed rule breaks consistency
        for removed in sol.delta.remove:
            assert not consistent(Program(sol.updated_program.rules | {removed}))


def test_theory_update_with_inconsistent_new_rules():
    p = parse("q.").program
    with pytest.raises(NoSolution):
        theory_update(p, parse("r.\n-r.").program)


def test_theory_update_by_nothing_equals_repair():
    p = parse("pacifist :- quaker.\n-pacifist :- republican.\nquaker.\nrepublican.").program
    left = theory_update(p, Program(()))
    right = remove_inconsistency(p, ALL_RULES)
    assert deltas(left) == deltas(right)
    assert {s.updated_program for s in left} == {s.updated_program for s in right}


def test_theory_update_grounds_each_input_once(monkeypatch):
    p = parse("flies(X) :- bird(X), not ab(X).\nbird(tweety).\nbird(opus).").program
    q = parse("ab(X) :- penguin(X).\npenguin(opus).").program
    expected = theory_update(p, q)
    grounded = []
    real_ground = core.ground

    def counting_ground(program, *args, **kwargs):
        grounded.append(program)
        return real_ground(program, *args, **kwargs)

    for module in (core, solver, updates):
        monkeypatch.setattr(module, "ground", counting_ground)
    assert theory_update(p, q) == expected
    assert (grounded.count(p), grounded.count(q)) == (1, 1)


def test_theory_update_of_consistent_pair_changes_nothing():
    p = parse("p :- q.\nq.").program
    sols = theory_update(p, parse("r.").program)
    assert deltas(sols) == {(frozenset(), frozenset())}
    assert sols[0].updated_program == program_union(p, parse("r.").program)


# ---------------------------------------------------------------------------
# single-rule updates


def test_insert_rule_matches_theory_update():
    p = parse("p :- q.\nq.").program
    sols = insert_rule(p, parse_rule("-p."))
    assert deltas(sols) == expect(([], ["p :- q."]), ([], ["q."]))
    assert all(s.kind == "rule-insert" for s in sols)
    with pytest.raises(RuleAlreadyPresent):
        insert_rule(p, parse_rule("q."))


def test_delete_rule_simple():
    p = parse("p :- q.\nq.").program
    sols = delete_rule(p, parse_rule("q."))
    assert len(sols) == 1
    assert sols[0].updated_program == parse("p :- q.").program
    assert deltas(sols) == expect(([], ["q."]))
    assert sols[0].kind == "rule-delete"
    with pytest.raises(RuleNotPresent):
        delete_rule(p, parse_rule("r."))


def test_delete_rule_from_consistent_program_is_exact():
    p = parse("a.\nb :- a.\nc :- not d.").program
    r = parse_rule("b :- a.")
    sols = delete_rule(p, r)
    assert len(sols) == 1
    assert sols[0].updated_program == Program(p.rules - {canonical_form(r)})


def _maximal_consistent_subsets(rules):
    rules = sorted(rules, key=lambda r: r.key())
    good = []
    for count in range(len(rules), -1, -1):
        for combo in itertools.combinations(rules, count):
            candidate = frozenset(combo)
            if any(candidate < other for other in good):
                continue
            if consistent(Program(candidate)):
                good.append(candidate)
    return {g for g in good if not any(g < other for other in good)}


def test_delete_rule_matches_subset_oracle():
    # removing the guard fact leaves an inconsistent remainder, as do some
    # of the seeded programs; either way the results must be exactly the
    # maximal consistent subsets of what is left
    cases = [(parse("p :- not guard.\n-p.\nguard.").program, parse_rule("guard."))]
    rng = random.Random(20261017)
    for _ in range(30):
        p = random_ground_program(rng, max_atoms=4, max_rules=6)
        cases.append((p, rng.choice(p.sorted_rules())))
    for p, r in cases:
        sols = delete_rule(p, r, RunConfig(max_universe=24))
        rest = p.rules - {canonical_form(r)}
        oracle = _maximal_consistent_subsets(rest)
        assert {frozenset(s.updated_program.rules) for s in sols} == oracle
        for sol in sols:
            assert canonical_form(r) in sol.delta.remove
            assert canonical_form(r) not in sol.updated_program.rules
            assert consistent(sol.updated_program)


# ---------------------------------------------------------------------------
# inconsistency removal


def test_repair_single_odd_loop():
    p = parse("p :- not p.\nq.").program
    sols = remove_inconsistency(p)
    assert deltas(sols) == expect(([], ["p :- not p."]))
    assert sols[0].updated_program == parse("q.").program
    assert sols[0].kind == "inconsistency-removal"


def test_repair_contradictory_defaults_four_ways():
    p = parse(
        "pacifist :- quaker.\n-pacifist :- republican.\nquaker.\nrepublican."
    ).program
    sols = remove_inconsistency(p)
    assert deltas(sols) == expect(
        ([], ["pacifist :- quaker."]),
        ([], ["-pacifist :- republican."]),
        ([], ["quaker."]),
        ([], ["republican."]),
    )
    for sol in sols:
        assert len(sol.delta.remove) == 1
        assert consistent(sol.updated_program)


def test_repair_with_restricted_scope():
    p = parse(
        "pacifist :- quaker.\n-pacifist :- republican.\nquaker.\nrepublican."
    ).program
    scope = [parse_rule("quaker."), parse_rule("republican.")]
    sols = remove_inconsistency(p, scope)
    assert deltas(sols) == expect(([], ["quaker."]), ([], ["republican."]))
    with pytest.raises(ScopeNotSubset):
        remove_inconsistency(p, [parse_rule("nixon.")])


def test_repair_fact_universe_can_add_facts():
    p = parse("-p.\n:- not p.").program
    sols = remove_inconsistency(p, FACT_UNIVERSE)
    assert expect((["p."], ["-p."])) <= deltas(sols)
    by_delta = {
        (frozenset(str(r) for r in s.delta.add), frozenset(str(r) for r in s.delta.remove)): s
        for s in sols
    }
    repaired = by_delta[(frozenset({"p."}), frozenset({"-p."}))].updated_program
    assert repaired == parse("p.\n:- not p.").program


def test_repair_all_rules_drops_the_constraint():
    p = parse("-p.\n:- not p.").program
    sols = remove_inconsistency(p, ALL_RULES)
    assert deltas(sols) == expect(([], [":- not p."]))
    assert sols[0].updated_program == parse("-p.").program


def test_repair_fact_universe_searches_a_wide_update_program():
    p = parse(
        "a0.  a2 :- a3, not a1, not -a1.  -a0 :- not a1.  -a1 ; -a3 :- a1."
        "  -a2 :- not a2, not -a3."
    ).program
    cfg = RunConfig(max_universe=30)
    ap = AbductiveProgram(p, Program(fact(l) for l in literal_universe(p)))
    # generate and test would visit 2^29 candidates here
    assert bin(encode(build_update_program(ap, cfg).rules).free_mask).count("1") == 29
    sols = remove_inconsistency(p, FACT_UNIVERSE, cfg)
    assert deltas(sols) == expect(([], ["a0."]), (["a1."], []))
    oracle = brute_force_explanations(ap, Observation.bot(), CREDULOUS, True, cfg)
    assert tuple(s.delta for s in sols) == oracle


def test_repair_names_the_source_of_a_renamed_disjunctive_fact():
    # a0 and a1 head rules, so naming bridges both; the removal must name
    # the program's own fact a1., and the disjunctive fact a0 ; a1., which
    # is no fact-universe hypothesis, is never removed
    p = parse("a0 :- a1, -a0.\na0 ; a1.\na1.\n-a0 :- not -a1.").program
    cfg = RunConfig(max_universe=24)
    sols = remove_inconsistency(p, FACT_UNIVERSE, cfg)
    assert [str(s.delta) for s in sols] == ["+-a1. -a1."]
    assert all(consistent(s.updated_program) for s in sols)
    ap = AbductiveProgram(p, Program(fact(l) for l in literal_universe(p)))
    oracle = brute_force_explanations(ap, Observation.bot(), CREDULOUS, True, cfg)
    assert tuple(s.delta for s in sols) == oracle


def test_repair_of_consistent_program_changes_nothing():
    p = parse("p :- q.\nq.").program
    sols = remove_inconsistency(p)
    assert deltas(sols) == {(frozenset(), frozenset())}
    assert sols[0].updated_program == p


def test_repair_scope_string_validation():
    p = parse("q.").program
    with pytest.raises(ValueError):
        remove_inconsistency(p, "everything")


# ---------------------------------------------------------------------------
# the all-solutions program


def test_multi_solution_program_structure():
    p = parse("p :- q.\nq.").program
    q = parse("-p.").program
    m = multi_solution_program(p, q)
    got = {str(r) for r in m.pi}
    assert "-p." in got
    assert "p :- __r1, q." in got
    assert "q :- __r2." in got
    assert {str(a) for a in m.delta_atoms} == {"__r1", "__r2"}


def test_delta_maximal_sets_enumerate_solutions():
    p = parse("p :- q.\nq.").program
    q = parse("-p.").program
    m = multi_solution_program(p, q)
    result = delta_maximal_answer_sets(m)
    assert len(result.sets) == 2
    projections = {
        frozenset(str(l) for l in s.literals if not str(l).lstrip("-").startswith("__"))
        for s in result.sets
    }
    assert projections == {frozenset({"-p"}), frozenset({"-p", "q"})}


def test_delta_maximal_matches_theory_update_answer_sets():
    p = parse("p :- q.\nq.").program
    q = parse("-p.").program
    m = multi_solution_program(p, q)
    left = {
        frozenset(str(l) for l in s.literals if not str(l).lstrip("-").startswith("__"))
        for s in delta_maximal_answer_sets(m).sets
    }
    right = set()
    for sol in theory_update(p, q):
        for s in answer_sets(sol.updated_program).consistent_sets:
            right.add(frozenset(str(l) for l in s.literals))
    assert left == right


def test_multi_solution_program_with_empty_source():
    q = parse("a.\nb :- a.").program
    m = multi_solution_program(Program(()), q)
    assert m.pi == q
    assert m.delta_atoms == frozenset()
    result = delta_maximal_answer_sets(m)
    assert len(result.sets) == 1
    assert {str(l) for l in result.sets[0].literals} == {"a", "b"}


# ---------------------------------------------------------------------------
# every service keeps its promise on the programs it returns


def _service_cases():
    """(program, variable part, goal, new rules, new rule, old rule): one
    per goal of each command-line input file, then seeded corpus cases."""
    names = list(FIXTURES)
    for name, next_name in zip(names, names[1:] + names[:1]):
        unit = parse(FIXTURES[name])
        v = Program(unit.variable_rules.rules | unit.abducibles.rules)
        q = parse(FIXTURES[next_name]).program
        heads = {l for r in core.ground(unit.program).rules for l in r.head}
        for goal in sorted(heads, key=Literal.key):
            new_rule, old_rule = fact(goal.complement()), unit.program.sorted_rules()[0]
            yield unit.program, v, goal, q, new_rule, old_rule
    rng = random.Random(20261020)
    for _ in range(40):
        p = random_ground_program(rng, max_atoms=4, max_rules=5)
        facts = [r for r in p.sorted_rules() if r.is_fact]
        v = Program(rng.sample(facts, min(2, len(facts))))
        goal = rng.choice(sorted(p.literals(), key=Literal.key))
        q = random_ground_program(rng, max_atoms=4, max_rules=2)
        yield p, v, goal, q, fact(goal.complement()), rng.choice(p.sorted_rules())


def _solved(service, *args):
    """The service's solutions, or none where it rejects its input."""
    try:
        return service(*args)
    except AbdukitError:
        return ()


def test_every_service_keeps_its_promise():
    cfg = RunConfig(max_universe=24)
    checked = 0
    for p, v, goal, q, new_rule, old_rule in _service_cases():
        promises = []
        # the variable part both inside the program and outside it
        for base in (p, Program(p.rules - v.rules)):
            promises += [
                (_solved(view_insert, base, v, goal, cfg), lambda u: entails(u, goal, cfg)),
                (_solved(view_delete, base, v, goal, cfg), lambda u: not entails(u, goal, cfg)),
                (_solved(maintain_integrity, base, v, cfg), None),
            ]
        promises += [
            (_solved(theory_update, p, q, cfg), lambda u: not program_diff(q, u, cfg).rules),
            (
                _solved(insert_rule, p, new_rule, cfg),
                lambda u: not program_diff(Program([new_rule]), u, cfg).rules,
            ),
            (_solved(remove_inconsistency, p, ALL_RULES, cfg), None),
            (_solved(remove_inconsistency, p, FACT_UNIVERSE, cfg), None),
            (_solved(delete_rule, p, old_rule, cfg), None),
        ]
        for sols, promise in promises:
            for sol in sols:
                assert consistent(sol.updated_program, cfg), (p, sol.delta)
                assert promise is None or promise(sol.updated_program), (p, goal, sol.delta)
                checked += 1
    assert checked > 500
