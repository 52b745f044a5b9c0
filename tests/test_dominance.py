"""The one dominance filter, on integer keys, against the frozenset
filter it replaced.

``_undominated`` decides minimality (or maximality) of bit-set keys for
``u_minimal_filter``, ``delta_maximal_answer_sets``, the minimal flag of
``explanations`` and the brute-force oracle.  The oracles below are the
quadratic definition on frozensets and the filter that projected every
decoded answer set onto the atoms.
"""

from __future__ import annotations

import operator
import random

import pytest

from abdukit.abduction import (
    CREDULOUS,
    SKEPTICAL,
    AbductiveProgram,
    Observation,
    _undominated,
    anti_explanations,
    brute_force_explanations,
    build_update_program,
    explanations,
    u_minimal_filter,
)
from abdukit.config import RunConfig
from abdukit.core import AbdukitError, Atom, Literal, fact
from abdukit.parser import parse
from abdukit.solver import answer_sets
from abdukit.updates import delta_maximal_answer_sets, multi_solution_program

from corpus import random_abduction_instance, random_ground_program

CFG = RunConfig(max_universe=30)


def _quadratic(projections: list[frozenset], maximal: bool = False) -> list[bool]:
    dominates = operator.gt if maximal else operator.lt
    return [not any(dominates(other, mine) for other in projections) for mine in projections]


def _bits(key: int) -> frozenset[int]:
    return frozenset(i for i in range(key.bit_length()) if key >> i & 1)


def _old_filter(result, atoms, maximal: bool = False):
    atoms = frozenset(atoms)
    sets = result.consistent_sets
    flags = _quadratic(
        [frozenset(l for l in s.literals if l.positive and l.atom in atoms) for s in sets],
        maximal,
    )
    return tuple(s for s, keep in zip(sets, flags) if keep)


def _key_lists(count: int, seed: int):
    rng = random.Random(seed)
    yield []
    yield [0]
    yield [0, 0]
    yield [5, 5, 1]
    for _ in range(count):
        width = rng.randint(1, 9)
        if rng.random() < 0.5:
            # a small pool makes duplicates and the key 0 common
            pool = [rng.getrandbits(width) for _ in range(rng.randint(1, 4))] + [0]
            yield [rng.choice(pool) for _ in range(rng.randint(1, 10))]
        else:
            yield [rng.getrandbits(width) for _ in range(rng.randint(0, 14))]


@pytest.mark.parametrize("maximal", [False, True])
def test_undominated_equals_the_quadratic_definition(maximal):
    checked = 0
    for keys in _key_lists(3000, seed=20261019):
        expected = _quadratic([_bits(k) for k in keys], maximal)
        assert _undominated(keys, maximal) == expected, (keys, maximal)
        checked += 1
    assert checked > 3000


def _corpus(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        program, abducible_literals, _ = random_abduction_instance(rng)
        yield AbductiveProgram(program, [fact(l) for l in abducible_literals])


def test_u_minimal_filter_equals_the_filter_on_decoded_sets():
    checked = 0
    for ap in _corpus(300, seed=20261021):
        try:
            up = build_update_program(ap, CFG)
            result = answer_sets(up.rules, CFG)
        except AbdukitError:
            continue
        kept = u_minimal_filter(result, up.update_atoms)
        assert kept.sets == _old_filter(result, up.update_atoms), ap
        assert not kept.contains_contradictory
        checked += 1
    assert checked >= 250


def test_delta_maximal_answer_sets_equal_the_filter_on_decoded_sets():
    rng = random.Random(20261022)
    cfg = RunConfig(max_universe=30)
    checked = 0
    for _ in range(300):
        p = random_ground_program(rng, max_atoms=4, max_rules=5)
        q = random_ground_program(rng, max_atoms=4, max_rules=2)
        try:
            m = multi_solution_program(p, q, cfg)
            result = answer_sets(m.pi, cfg)
        except AbdukitError:
            continue
        kept = delta_maximal_answer_sets(m, cfg)
        assert kept.sets == _old_filter(result, m.delta_atoms, maximal=True), (p, q)
        assert not kept.contains_contradictory
        checked += 1
    assert checked >= 250


def _diagnosis(n: int) -> AbductiveProgram:
    """n abducible causes; causes i, i+3, ... give symptom s(i mod 3), and
    causes 0 and 1 exclude each other.  Every group key overlaps many."""
    lines = ["s%d :- c%d." % (i % 3, i) for i in range(n)]
    lines += ["m%d :- c%d, not ok%d." % (i, i, i) for i in range(n)]
    lines += ["obs :- s0, s1.", ":- m0, m1."]
    lines += ["#abducible c%d." % i for i in range(n)]
    unit = parse("\n".join(lines) + "\n")
    return AbductiveProgram(unit.program, unit.abducibles)


@pytest.mark.parametrize("mode", [CREDULOUS, SKEPTICAL])
def test_many_overlapping_groups_match_the_oracle(mode):
    ap = _diagnosis(10)
    cfg = RunConfig(max_universe=200)
    obs = Observation.positive(Literal(Atom("obs")))
    every = brute_force_explanations(ap, obs, mode, False, cfg)
    assert explanations(ap, obs, mode, False, cfg) == every
    minimal = tuple(e for e in every if e.minimal)
    # s0 from causes 0, 3, 6, 9; s1 from 1, 4, 7; 0 and 1 not together
    assert len(minimal) == 11
    assert explanations(ap, obs, mode, True, cfg) == minimal
    assert brute_force_explanations(ap, obs, mode, True, cfg) == minimal
    if mode == CREDULOUS:
        repairs = anti_explanations(ap, Observation.bot(), mode, False, cfg)
        assert repairs == brute_force_explanations(ap, Observation.bot(), mode, False, cfg)
        assert [str(e) for e in repairs if e.minimal] == ["(no change)"]
