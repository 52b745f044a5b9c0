"""benchmarks/bench_kernel.py imports encode and kernel_py internals and
exits 1 when the search and generate-and-test disagree; a small run keeps
both the imports and the agreement checked."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"


def test_bench_kernel_runs_and_the_kernels_agree():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeat", "1", "--instances", "2", "--choice-width", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
