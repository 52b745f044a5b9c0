"""benchmarks/dump_engine.py prints the engine's answers for diffing two
checkouts; its output must not depend on the interpreter's hash seed."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "dump_engine.py"


def _dump(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--instances", "3", "--seed", "11"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return proc.stdout


def test_dump_is_the_same_under_two_hash_seeds():
    first = _dump(0)
    assert first == _dump(7)
    kinds = {line.split(" ", 1)[0] for line in first.splitlines()}
    assert kinds == {
        "abduce", "filter", "rules", "nonground", "solve", "update", "multi", "cli"
    }
