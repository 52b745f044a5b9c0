"""The least-model search must agree bit for bit with generate and test.

kernel_py.enumerate_answer_sets searches every program, with or without
a head cycle.  kernel_oracle.generate_and_test tests every candidate set
over the same encoding and is the oracle here: same masks, in the same
order, and the same answer on the contradictory set.
"""

from __future__ import annotations

import random
import sys
import time
from collections import OrderedDict

import pytest

from abdukit import solver
from abdukit.abduction import AbductiveProgram, build_update_program
from abdukit.config import RunConfig
from abdukit.core import NafLiteral, Program, Rule, fact
from abdukit.parser import parse
from abdukit.solver import CONTRADICTORY, answer_sets, kernel_py, reference_answer_sets
from abdukit.solver.encode import encode
from abdukit.updates import FACT_UNIVERSE, remove_inconsistency

from corpus import head_cycle_repairs, random_abduction_instance, random_ground_program
from kernel_oracle import generate_and_test as _oracle


def _args(enc) -> tuple:
    return (
        enc.forced,
        enc.free_mask,
        enc.conflict_first,
        enc.heads,
        enc.poss,
        enc.nafs,
        enc.notfree,
        enc.has_naf_free_constraint,
    )


def search(enc):
    return kernel_py.enumerate_answer_sets(*_args(enc))


def generate_and_test(enc):
    return _oracle(*_args(enc))


def _disjunctive(enc) -> bool:
    return any(head & (head - 1) for head in enc.heads)


def _head_cycle_free(enc) -> bool:
    return kernel_py._head_cycle_free(enc.heads, enc.poss)


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(solver, "_CACHE", OrderedDict())


def test_package_runs_the_search():
    assert solver._kernel is kernel_py
    assert solver.KERNEL_NAME == "python"


def test_kernels_agree_on_random_corpus():
    rng = random.Random(20260819)
    for _ in range(400):
        enc = encode(random_ground_program(rng))
        assert search(enc) == generate_and_test(enc)


def test_kernels_agree_on_edge_encodings():
    # empty program, single forced fact, all-conflict zone
    for enc in [
        encode(random_ground_program(random.Random(s), max_atoms=2, max_rules=2))
        for s in range(50)
    ]:
        assert search(enc) == generate_and_test(enc)


def test_kernels_agree_on_head_cycle_free_disjunction():
    rng = random.Random(20261019)
    seen = 0
    while seen < 1000:
        enc = encode(random_ground_program(rng))
        if not (_disjunctive(enc) and _head_cycle_free(enc)):
            continue
        seen += 1
        assert search(enc) == generate_and_test(enc)


HEAD_CYCLES = [
    "p ; q.  p :- q.  q :- p.",
    "p ; q :- not r.  p :- q.  q :- p.  r :- not p.",
    "p ; -p.  p :- -p.  -p :- p.",
    "p ; q ; r.  p :- q.  q :- r.  r :- p.  :- not p.",
]


def _agrees_with_oracle_and_reference(p: Program) -> None:
    enc = encode(p)
    assert not _head_cycle_free(enc)
    assert search(enc) == generate_and_test(enc)
    assert answer_sets(p) == reference_answer_sets(p)


@pytest.mark.parametrize("text", HEAD_CYCLES)
def test_program_with_a_head_cycle_matches_the_oracle(text, empty_cache):
    _agrees_with_oracle_and_reference(parse(text).program)


def test_random_head_cycles_match_the_oracle(empty_cache):
    rng = random.Random(20261024)
    seen = 0
    while seen < 50:
        p = random_ground_program(rng, max_atoms=4)
        if _head_cycle_free(encode(p)):
            continue
        seen += 1
        _agrees_with_oracle_and_reference(p)


def _disjunctive_choices(rules: Program) -> Program:
    """rules with each choice pair a :- not s. s :- not a. over a shadow
    atom s written as the disjunctive fact a ; s., as a user program may
    write a choice."""
    out = []
    for r in rules:
        naf = [b.literal for b in r.body if isinstance(b, NafLiteral) and b.naf]
        pair = r.head | set(naf)
        if len(r.head) == len(r.body) == len(naf) == 1 and any(
            l.atom.predicate.startswith("__not") for l in pair
        ):
            r = Rule(pair, ())
        out.append(r)
    return Program(out)


def _update_programs(count: int, seed: int, disjunctive: bool = False) -> list[Program]:
    cfg = RunConfig(max_universe=30)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        program, abducible_literals, _ = random_abduction_instance(rng)
        ap = AbductiveProgram(program, Program([fact(l) for l in abducible_literals]))
        rules = build_update_program(ap, cfg).rules
        if disjunctive:
            rules = _disjunctive_choices(rules)
        # generate and test visits 2^free-bits candidates
        if bin(encode(rules).free_mask).count("1") <= 14:
            out.append(rules)
    return out


@pytest.mark.parametrize("disjunctive", [False, True], ids=["naf-pair", "disjunctive-fact"])
def test_kernels_agree_on_update_programs(disjunctive):
    for rules in _update_programs(150, seed=20261020, disjunctive=disjunctive):
        enc = encode(rules)
        assert search(enc) == generate_and_test(enc)


def test_search_matches_reference(empty_cache):
    rng = random.Random(20261021)
    programs = [random_ground_program(rng) for _ in range(300)]
    programs += _update_programs(30, seed=20261022)
    programs += _update_programs(30, seed=20261023, disjunctive=True)
    checked = 0
    for p in programs:
        if len(p.literals()) <= 16:
            checked += 1
            assert answer_sets(p) == reference_answer_sets(p)
    assert checked > 300


def test_contradictory_set_with_disjunctive_naf_free_rules(empty_cache):
    # L_P is decided by the same search, run on the NAF-free rules alone
    rng = random.Random(20261025)
    seen = contradictory = 0
    while seen < 300:
        p = random_ground_program(rng)
        disjunctive = [r for r in p.rules if r.is_naf_free and len(r.head) > 1]
        if not disjunctive or any(r.is_naf_free and not r.head for r in p.rules):
            continue
        if rng.random() < 0.5:
            # complement facts for one disjunctive head make L_P likely
            heads = rng.choice(disjunctive).head
            p = Program(list(p.rules) + [Rule([l.complement()], []) for l in heads])
        if len(p.literals()) > 16:
            continue
        seen += 1
        result = answer_sets(p, RunConfig(max_universe=16))
        assert result == reference_answer_sets(p)
        contradictory += result.contains_contradictory
    assert contradictory > 50


def test_contradictory_set_ignores_bits_outside_naf_free_heads(empty_cache):
    # only L_P is an answer set; the 24 choice bits cannot help a model
    # of `a ; b.` avoid -a and -b
    pairs = " ".join("x%d :- not y%d.  y%d :- not x%d." % (i, i, i, i) for i in range(12))
    p = parse("a ; b.  -a.  -b.  " + pairs).program
    start = time.process_time()
    result = answer_sets(p, RunConfig(max_universe=64))
    assert time.process_time() - start < 1.0
    assert result.sets == (CONTRADICTORY,)


def test_contradictory_set_test_prunes_disjunctive_facts(empty_cache):
    # the odd loop has no answer set and the 24 disjunctive facts have a
    # consistent model, so L_P is not one; 48 free bits of NAF-free heads
    facts = " ".join("p%d ; q%d." % (i, i) for i in range(24))
    p = parse("a0 :- not a0.  " + facts).program
    start = time.process_time()
    result = answer_sets(p, RunConfig(max_universe=64))
    assert time.process_time() - start < 1.0
    assert result.sets == ()
    assert not result.contains_contradictory


def test_search_depth_has_no_recursion_bound(empty_cache):
    # one decision per guarded choice, far deeper than the recursion limit
    choices = " ".join("a%d :- not b%d.  b%d :- not a%d.  :- b%d." % ((i,) * 5) for i in range(300))
    p = parse(choices).program
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = answer_sets(p, RunConfig(max_universe=600))
    finally:
        sys.setrecursionlimit(limit)
    assert len(result.sets) == 1


def _repair_programs(count: int, seed: int) -> list[Program]:
    cfg = RunConfig(max_universe=30)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        for rules in head_cycle_repairs(rng, cfg):
            enc = encode(rules)
            # generate and test visits 2^free-bits candidates
            if bin(enc.free_mask).count("1") <= 14 and not _head_cycle_free(enc):
                out.append(rules)
    return out


def test_kernels_agree_on_head_cycle_repair_programs():
    with_answers = 0
    for rules in _repair_programs(150, seed=20261026):
        enc = encode(rules)
        masks, contradictory = search(enc)
        assert (masks, contradictory) == generate_and_test(enc)
        with_answers += len(masks) > 1
    # most keep several answer sets, so the leaf test is checked, not only pruning
    assert with_answers > 100


def test_head_cycle_repair_is_fast(empty_cache):
    # 28 free bits and a head cycle: generate and test took about a minute
    p = parse(
        "a0 ; a3 :- a1, a2, not -a2, not -a3.  a1.  a1 ; a2 :- a0, -a3, not -a1, not -a2."
    ).program
    start = time.process_time()
    solutions = remove_inconsistency(p, FACT_UNIVERSE, RunConfig(max_universe=30))
    assert time.process_time() - start < 2.0
    assert [str(s.delta) for s in solutions] == ["(no change)"]
