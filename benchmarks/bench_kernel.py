"""Time the answer-set kernel's search against generate and test.

kernel_py.enumerate_answer_sets searches every program by least models;
the generate-and-test oracle in tests/kernel_oracle.py tests every
candidate set.  Both take the same bitmask encoding, so each workload is
encoded once and both are timed on it directly, after a check that they
agree (exit status 1 when they do not).  Workloads:

  corpus    random ground programs with disjunction and strong negation
  update    update programs built from random abductive instances
  cycle     update programs with a head cycle: repairs of small programs
            with a planted head cycle, every rule removable or every fact
            over their literals addable
  choice    n independent choice pairs (2^n answer sets)
  lp        an odd loop (no answer set) plus 6 disjunctive facts: 13 free
            bits, and the contradictory-set test searches the facts

Usage: python3 benchmarks/bench_kernel.py [--repeat N] [--instances N]

The script imports abdukit from the ``src/`` of its own checkout.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import head_cycle_repairs, random_abduction_instance, random_ground_program
from kernel_oracle import generate_and_test

from abdukit.abduction import AbductiveProgram, build_update_program
from abdukit.config import RunConfig
from abdukit.core import Program, fact
from abdukit.parser import parse
from abdukit.solver import kernel_py
from abdukit.solver.encode import encode

KERNELS = [
    ("search", kernel_py.enumerate_answer_sets),
    ("gen-test", generate_and_test),
]

CFG = RunConfig(max_universe=24)

# generate and test visits 2^free-bits candidates, so cap the width
_MAX_FREE_BITS = 14


def _free_bits(enc) -> int:
    return bin(enc.free_mask).count("1")


def _corpus_encodings(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_ground_program(rng, max_atoms=6, max_rules=8)
        enc = encode(p)
        if _free_bits(enc) <= _MAX_FREE_BITS:
            out.append(enc)
    return out


def _update_encodings(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        program, abducible_literals, _ = random_abduction_instance(rng)
        ap = AbductiveProgram(
            program, Program([fact(l) for l in abducible_literals])
        )
        enc = encode(build_update_program(ap, CFG).rules)
        if _free_bits(enc) <= _MAX_FREE_BITS:
            out.append(enc)
    return out


def _cycle_encodings(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        for rules in head_cycle_repairs(rng, CFG):
            enc = encode(rules)
            head_cycle = not kernel_py._head_cycle_free(enc.heads, enc.poss)
            if head_cycle and _free_bits(enc) <= _MAX_FREE_BITS:
                out.append(enc)
    return out[:count]


def _choice_encodings(width: int) -> list:
    lines = []
    for i in range(width):
        lines.append("a%d :- not b%d." % (i, i))
        lines.append("b%d :- not a%d." % (i, i))
    return [encode(parse("\n".join(lines)).program)]


def _lp_encodings(width: int) -> list:
    facts = " ".join("p%d ; q%d." % (i, i) for i in range(width))
    return [encode(parse("a0 :- not a0.  " + facts).program)]


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


def _run(kernel, encodings) -> float:
    t0 = time.perf_counter()
    for enc in encodings:
        kernel(*_args(enc))
    return time.perf_counter() - t0


def _check_agreement(encodings) -> None:
    for enc in encodings:
        args = _args(enc)
        if kernel_py.enumerate_answer_sets(*args) != generate_and_test(*args):
            raise SystemExit("kernel disagreement on a benchmark instance")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="timing repetitions")
    ap.add_argument("--instances", type=int, default=25, help="instances per workload")
    ap.add_argument("--choice-width", type=int, default=8, help="choice pairs (2^n sets)")
    args = ap.parse_args(argv)

    workloads = [
        ("corpus", _corpus_encodings(args.instances, seed=11)),
        ("update", _update_encodings(args.instances, seed=22)),
        ("cycle", _cycle_encodings(args.instances, seed=33)),
        ("choice", _choice_encodings(args.choice_width)),
        ("lp", _lp_encodings(6)),
    ]
    for name, encodings in workloads:
        _check_agreement(encodings)
        print("%-7s (%d programs)" % (name, len(encodings)))
        timings = {}
        for kname, kernel in KERNELS:
            runs = [_run(kernel, encodings) for _ in range(args.repeat)]
            timings[kname] = statistics.median(runs)
            print("  %-8s %10.3f ms" % (kname, timings[kname] * 1000))
        print("  speedup  %9.1fx" % (timings["gen-test"] / timings["search"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
