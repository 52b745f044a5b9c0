"""Randomized cross-checks of the abduction engine.

Three independent routes must agree on every instance: the update-program
transformation, the brute-force subset oracle, and the translation to
introduction-only abduction.  Further properties: the update program's
minimal answer sets with no update atoms mirror the source program's
answer sets; credulous and skeptical collapse on stratified normal
programs.
"""

from __future__ import annotations

import random

import pytest

from abdukit.abduction import (
    BOT,
    CREDULOUS,
    NEGATIVE,
    POSITIVE,
    SKEPTICAL,
    AbductiveProgram,
    Observation,
    anti_explanations,
    brute_force_explanations,
    build_update_program,
    explanations,
    normal_form,
    to_normal_abduction,
    u_minimal_filter,
)
from abdukit.config import RunConfig
from abdukit.core import Atom, Literal, NafLiteral, Program, Rule, fact, ground
from abdukit.solver import answer_sets

from corpus import (
    random_abduction_instance,
    random_nonground_abduction_instance,
    random_rule_abduction_instance,
    random_stratified_nlp,
)

CFG = RunConfig(max_universe=30)

MODES = (CREDULOUS, SKEPTICAL)
FLAGS = (False, True)


def _instances(count: int, seed: int):
    rng = random.Random(seed)
    made = 0
    while made < count:
        program, abducible_literals, goal = random_abduction_instance(rng)
        if goal in abducible_literals:
            # observations must not themselves be abducible
            continue
        ap = AbductiveProgram(program, Program([fact(l) for l in abducible_literals]))
        made += 1
        yield made, ap, goal


def _rule_instances(count: int, seed: int):
    """Instances whose abducibles hold rules and disjunctive facts too."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        program, abducibles, goal = random_rule_abduction_instance(rng)
        if fact(goal) in abducibles:
            continue
        made += 1
        yield made, AbductiveProgram(program, abducibles), goal


def _nonground_instances(count: int, seed: int):
    """Non-ground instances: patterns, overlapping patterns, builtins."""
    rng = random.Random(seed)
    for i in range(1, count + 1):
        program, abducibles, goal = random_nonground_abduction_instance(rng)
        yield i, AbductiveProgram(program, abducibles), goal


def _pairs(exps) -> set:
    return {
        (
            frozenset(str(r) for r in e.add),
            frozenset(str(r) for r in e.remove),
        )
        for e in exps
    }


def _combos():
    for kind in (POSITIVE, NEGATIVE, BOT):
        for mode in MODES:
            if kind == BOT and mode == SKEPTICAL:
                continue
            for minimal in FLAGS:
                yield kind, mode, minimal


def _observe(kind: str, goal: Literal) -> Observation:
    if kind == POSITIVE:
        return Observation.positive(goal)
    if kind == NEGATIVE:
        return Observation.negative(goal)
    return Observation.bot()


def _engine(ap, obs, mode, minimal, config):
    if obs.kind == POSITIVE:
        return explanations(ap, obs, mode, minimal, config)
    return anti_explanations(ap, obs, mode, minimal, config)


def _via_translation(ap, obs, mode, minimal, config, memo=None) -> set:
    """Reduce to introduction-only abduction and decode the hypotheses."""
    memo = memo if memo is not None else {}
    if obs.kind not in memo:
        if obs.kind == POSITIVE:
            base, target = ap, Observation.positive(obs.literal)
        else:
            witness = Literal(Atom("__w"))
            if obs.kind == BOT:
                bridge = fact(witness)
            else:
                bridge = Rule([witness], [NafLiteral(obs.literal, True)])
            base = AbductiveProgram(
                Program(list(ap.program.rules) + [bridge]), ap.abducibles
            )
            target = Observation.positive(witness)
        translated, mapping = to_normal_abduction(base, config)
        memo[obs.kind] = (translated, {p: s for s, p in mapping}, target)
    translated, prime_to_source, target = memo[obs.kind]
    exps = explanations(translated, target, mode, minimal, config)
    out = set()
    for e in exps:
        assert not e.remove, "translated programs have nothing to remove"
        adds, removes = set(), set()
        for r in e.add:
            (lit,) = r.head
            source = prime_to_source.get(lit)
            if source is not None:
                removes.add(str(fact(source)))
            else:
                adds.add(str(r))
        out.add((frozenset(adds), frozenset(removes)))
    return out


def test_three_routes_agree_on_random_instances():
    for i, ap, goal in _instances(500, seed=20260819):
        memo = {}
        for kind, mode, minimal in _combos():
            obs = _observe(kind, goal)
            via_update = _pairs(_engine(ap, obs, mode, minimal, CFG))
            via_oracle = _pairs(brute_force_explanations(ap, obs, mode, minimal, CFG))
            assert via_update == via_oracle, (
                "instance %d %s/%s minimal=%s: update %r oracle %r\n%s\nabducibles %s"
                % (i, kind, mode, minimal, via_update, via_oracle, ap.program,
                   [str(r) for r in ap.abducibles])
            )
            via_primes = _via_translation(ap, obs, mode, minimal, CFG, memo)
            assert via_update == via_primes, (
                "instance %d %s/%s minimal=%s: update %r translation %r\n%s\nabducibles %s"
                % (i, kind, mode, minimal, via_update, via_primes, ap.program,
                   [str(r) for r in ap.abducibles])
            )


def test_rule_abducibles_match_the_oracle():
    for i, ap, goal in _rule_instances(150, seed=20261020):
        for kind, mode, minimal in _combos():
            obs = _observe(kind, goal)
            via_update = _engine(ap, obs, mode, minimal, CFG)
            via_oracle = brute_force_explanations(ap, obs, mode, minimal, CFG)
            assert via_update == via_oracle, (
                "instance %d %s/%s minimal=%s: update %s oracle %s\n%s\nabducibles %s"
                % (i, kind, mode, minimal, [str(e) for e in via_update],
                   [str(e) for e in via_oracle], ap.program, [str(r) for r in ap.abducibles])
            )


def test_nonground_instances_match_the_oracle():
    cfg = RunConfig(max_universe=64)
    for i, ap, goal in _nonground_instances(100, seed=20261021):
        for kind, mode, minimal in _combos():
            obs = _observe(kind, goal)
            via_update = _engine(ap, obs, mode, minimal, cfg)
            via_oracle = brute_force_explanations(ap, obs, mode, minimal, cfg, cap=10)
            assert via_update == via_oracle, (
                "instance %d %s/%s minimal=%s: update %s oracle %s\n%s\nabducibles %s"
                % (i, kind, mode, minimal, [str(e) for e in via_update],
                   [str(e) for e in via_oracle], ap.program, [str(r) for r in ap.abducibles])
            )


def own_choices_only(ap: AbductiveProgram) -> bool:
    """Whether every abducible of the ground program ap is a single-head
    fact whose literal heads no rule of ap's program other than a
    single-head fact, so that only its own choice derives it."""
    heads = {
        lit for r in ap.program.rules if not (len(r.head) == 1 and not r.body) for lit in r.head
    }
    return all(len(r.head) == 1 and not r.body and not r.head & heads for r in ap.abducibles.rules)


def test_normal_form_meets_the_assumption_on_every_corpus():
    corpora = (
        _instances(300, seed=20260819),
        _rule_instances(300, seed=20261020),
        _nonground_instances(300, seed=20261021),
    )
    for instances in corpora:
        for i, ap, _ in instances:
            nf, _ = normal_form(ap)
            assert nf.program.is_ground and nf.abducibles.is_ground
            assert own_choices_only(nf), "instance %d\n%s\nabducibles %s" % (
                i, ap.program, [str(r) for r in ap.abducibles]
            )


def _set_key(s):
    return tuple(sorted(str(l) for l in s))


def test_unchanged_update_sets_mirror_original_answer_sets():
    for i, ap, _ in _instances(500, seed=20260819):
        up = build_update_program(ap, CFG)
        kept = u_minimal_filter(answer_sets(up.rules, CFG), up.update_atoms)
        unchanged = [
            frozenset(
                l for l in s.literals if not l.atom.predicate.startswith("__")
            )
            for s in kept.sets
            if not any(l.atom in up.update_atoms for l in s.literals if l.positive)
        ]
        original = [
            frozenset(s.literals)
            for s in answer_sets(ground(ap.program), CFG).consistent_sets
        ]
        assert sorted(unchanged, key=_set_key) == sorted(original, key=_set_key), (
            "instance %d: update-program image %r, original %r\n%s"
            % (i, unchanged, original, ap.program)
        )


def test_skeptical_explanations_are_credulous():
    for i, ap, goal in _instances(200, seed=16180):
        for kind in (POSITIVE, NEGATIVE):
            obs = _observe(kind, goal)
            skept = _pairs(_engine(ap, obs, SKEPTICAL, False, CFG))
            cred = _pairs(_engine(ap, obs, CREDULOUS, False, CFG))
            assert skept <= cred, (
                "instance %d %s: skeptical pairs %r not within credulous %r\n%s"
                % (i, kind, skept, cred, ap.program)
            )


def test_results_are_well_formed_on_corpus():
    for i, ap, goal in _instances(200, seed=60221):
        gp = ground(ap.program)
        for kind, mode, minimal in _combos():
            obs = _observe(kind, goal)
            for e in _engine(ap, obs, mode, minimal, CFG):
                assert not e.add & e.remove
                assert all(r not in gp for r in e.add), "additions must be new"
                assert all(r in gp for r in e.remove), "removals must be present"
                assert e.mode == mode
                if minimal:
                    assert e.minimal


def test_minimal_results_are_the_minimal_part_of_all_results():
    for i, ap, goal in _instances(200, seed=31337):
        for kind, mode, minimal in _combos():
            if not minimal:
                continue
            obs = _observe(kind, goal)
            everything = _engine(ap, obs, mode, False, CFG)
            expected = tuple(e for e in everything if e.minimal)
            assert _engine(ap, obs, mode, True, CFG) == expected, (
                "instance %d %s/%s\n%s" % (i, kind, mode, ap.program)
            )


def _stratified_instance(rng: random.Random):
    program = random_stratified_nlp(rng, max_atoms=6, max_rules=8)
    atoms = sorted({l.atom for l in program.literals()}, key=lambda a: a.key())
    k = rng.randint(1, min(3, len(atoms)))
    chosen = rng.sample(atoms, k)
    abducibles = Program([fact(Literal(a, True)) for a in chosen])
    pool = [l for l in program.literals() if l.positive and l.atom not in chosen]
    goal = rng.choice(pool) if pool else None
    return AbductiveProgram(program, abducibles), goal


def test_credulous_equals_skeptical_on_stratified_programs():
    rng = random.Random(98765)
    checked = 0
    while checked < 200:
        ap, goal = _stratified_instance(rng)
        if goal is None:
            continue
        checked += 1
        for kind in (POSITIVE, NEGATIVE):
            obs = _observe(kind, goal)
            for minimal in FLAGS:
                cred = _pairs(_engine(ap, obs, CREDULOUS, minimal, CFG))
                skept = _pairs(_engine(ap, obs, SKEPTICAL, minimal, CFG))
                assert cred == skept, (
                    "instance %d %s minimal=%s: credulous %r skeptical %r\n%s\nabducibles %s"
                    % (checked, kind, minimal, cred, skept, ap.program,
                       [str(r) for r in ap.abducibles])
                )
