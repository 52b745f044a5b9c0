"""The benchmark under perfbench/ wraps library functions by name; a
refactor that renames or bypasses one should fail here, not at benchmark
time."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.Tracer()
import abdukit
tracer.install()
import routes
abdukit.solver.KERNEL_NAME, abdukit.solver.reference_answer_sets
unit = abdukit.parse("p :- b.\\nq :- a, not b.\\na.\\n#abducible a.\\n#abducible b.\\n")
ap = abdukit.AbductiveProgram(unit.program, unit.abducibles)
goal = abdukit.Observation.positive(abdukit.Literal(abdukit.Atom("p")))
for mode in (abdukit.CREDULOUS, abdukit.SKEPTICAL):
    abdukit.explanations(ap, goal, mode)
abdukit.view_delete(unit.program, unit.abducibles, abdukit.Literal(abdukit.Atom("q")))
abdukit.answer_sets(abdukit.parse("t :- u.\\nv.\\n").program)
tracer.write(sys.argv[3])
"""


def test_tracer_installs_and_records(tmp_path):
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), str(out)],
        check=True,
        timeout=60,
    )
    doc = json.loads(out.read_text())
    assert doc["counts"]["abduction.u_minimal_in"] > 0
    assert doc["counts"]["kernel.candidates"] > 0
    assert doc["counts"]["updates.solutions"] > 0
    assert doc["prepare_hits"] > 0
    assert doc["prepare_misses"] > 0
    assert doc["cache_entries"] > 0
    assert doc["counts"]["encode.dead_free_bits"] == 0
    names = {span[0] for span in doc["spans"]}
    assert {"abduction.explanations", "kernel.enumerate", "updates.view_delete"} <= names
