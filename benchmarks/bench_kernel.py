"""Compare the compiled enumeration kernel against the pure-Python one.

Both kernels consume the same bitmask encoding, so we encode each workload
once and time `enumerate_answer_sets` on each kernel directly.  Workloads:

  corpus    random ground programs with disjunction and strong negation
  update    update programs built from random abductive instances
  choice    n independent choice pairs (2^n answer sets)

Usage: python3 benchmarks/bench_kernel.py [--repeat N] [--instances N]
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from corpus import random_abduction_instance, random_ground_program

from abdukit import solver
from abdukit.abduction import AbductiveProgram, build_update_program
from abdukit.config import RunConfig
from abdukit.core import Program, fact
from abdukit.parser import parse
from abdukit.solver import kernel_py
from abdukit.solver.encode import encode

# solver._kernel is the selected kernel, which is kernel_py when unbuilt
kernel_c = solver._kernel if solver.KERNEL_NAME == "c" else None

CFG = RunConfig(max_universe=24)

# candidate spaces are 2^free-bits, so cap the width for the Python kernel
_MAX_FREE_BITS = 14


def _free_bits(enc) -> int:
    return bin(enc.free_mask).count("1")


def _corpus_encodings(count: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_ground_program(rng, max_atoms=6, max_rules=8)
        try:
            enc = encode(p)
        except Exception:
            continue
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
        try:
            up = build_update_program(ap, CFG)
            enc = encode(up.rules)
        except Exception:
            continue
        if _free_bits(enc) <= _MAX_FREE_BITS:
            out.append(enc)
    return out


def _choice_encodings(width: int) -> list:
    lines = []
    for i in range(width):
        lines.append("a%d :- not b%d." % (i, i))
        lines.append("b%d :- not a%d." % (i, i))
    return [encode(parse("\n".join(lines)).program)]


def _run(kernel, encodings) -> float:
    t0 = time.perf_counter()
    for enc in encodings:
        kernel.enumerate_answer_sets(
            enc.forced,
            enc.free_mask,
            enc.conflict_first,
            enc.heads,
            enc.poss,
            enc.nafs,
            enc.notfree,
            enc.has_naf_free_constraint,
        )
    return time.perf_counter() - t0


def _check_agreement(encodings) -> None:
    if kernel_c is None:
        return
    for enc in encodings:
        args = (
            enc.forced,
            enc.free_mask,
            enc.conflict_first,
            enc.heads,
            enc.poss,
            enc.nafs,
            enc.notfree,
            enc.has_naf_free_constraint,
        )
        c_masks, c_contra = kernel_c.enumerate_answer_sets(*args)
        p_masks, p_contra = kernel_py.enumerate_answer_sets(*args)
        if sorted(c_masks) != sorted(p_masks) or c_contra != p_contra:
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
        ("choice", _choice_encodings(args.choice_width)),
    ]
    kernels = [("python", kernel_py)]
    if kernel_c is not None:
        kernels.insert(0, ("c", kernel_c))
    else:
        print("compiled kernel not built; timing the Python kernel only")

    for name, encodings in workloads:
        _check_agreement(encodings)
        print("%-7s (%d programs)" % (name, len(encodings)))
        timings = {}
        for kname, kernel in kernels:
            runs = [_run(kernel, encodings) for _ in range(args.repeat)]
            timings[kname] = statistics.median(runs)
            print("  %-7s %10.3f ms" % (kname, timings[kname] * 1000))
        if len(timings) == 2:
            print("  speedup %9.1fx" % (timings["python"] / timings["c"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
