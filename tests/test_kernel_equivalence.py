"""The compiled and pure-Python kernels must agree bit for bit.

The compiled side is built from the committed _kernel.c for this test run
and loaded beside the package, so the kernel the package selected (and the
rest of the suite runs on) stays as it is.
"""

from __future__ import annotations

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from abdukit import solver
from abdukit.solver import kernel_py
from abdukit.solver.encode import encode

from corpus import random_ground_program

ROOT = Path(__file__).resolve().parent.parent


def _compiler() -> str | None:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


@pytest.fixture(scope="module")
def kernel_c(tmp_path_factory):
    if _compiler() is None:
        pytest.skip("no C compiler found")
    out = tmp_path_factory.mktemp("kernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out)],
        cwd=ROOT, timeout=300, capture_output=True, text=True,
    )
    # setup.py swallows compiler errors, so a missing extension is the
    # only sign that the committed .c no longer builds
    built = out / "abdukit" / "solver" / ("_kernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    assert built.exists(), "no extension built from _kernel.c:\n" + build.stderr
    spec = importlib.util.spec_from_file_location("abdukit.solver._kernel", built)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.NAME == "c"
    return module


def run(kernel, enc):
    return kernel.enumerate_answer_sets(
        enc.forced,
        enc.free_mask,
        enc.conflict_first,
        enc.heads,
        enc.poss,
        enc.nafs,
        enc.notfree,
        enc.has_naf_free_constraint,
    )


def test_kernels_agree_on_random_corpus(kernel_c):
    rng = random.Random(20260819)
    for _ in range(400):
        enc = encode(random_ground_program(rng))
        masks_c, contra_c = run(kernel_c, enc)
        masks_py, contra_py = run(kernel_py, enc)
        assert masks_c == masks_py
        assert contra_c == contra_py


def test_kernels_agree_on_edge_encodings(kernel_c):
    # empty program, single forced fact, all-conflict zone
    for enc in [
        encode(random_ground_program(random.Random(s), max_atoms=2, max_rules=2))
        for s in range(50)
    ]:
        assert run(kernel_c, enc) == run(kernel_py, enc)


SELECT = """
import importlib.util, sys
sys.path.insert(0, sys.argv[2])
spec = importlib.util.spec_from_file_location("abdukit.solver._kernel", sys.argv[1])
sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sys.modules[spec.name])
import abdukit.solver
print(abdukit.solver.KERNEL_NAME)
"""


def test_package_selects_the_extension_when_it_imports(kernel_c):
    assert solver._kernel is not kernel_c
    out = subprocess.run(
        [sys.executable, "-c", SELECT, kernel_c.__file__, str(ROOT / "src")],
        check=True, capture_output=True, text=True, timeout=60,
    )
    assert out.stdout == "c\n"
