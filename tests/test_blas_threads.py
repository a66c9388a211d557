"""The decoherent error budgets write the same bytes under one and two
OpenBLAS threads.

Each thread count runs in its own interpreter, since OpenBLAS reads
OPENBLAS_NUM_THREADS once, when it is loaded.  The bits underneath still
depend on the count: `evolution._expm` returns different bits under two
threads for every sector block of 100 rows or more, real or complex, by a
few units in the last place (ROADMAP item 7).  So this test guards the
written bytes only.  `zgate-repeat --mode pulse+decoherence`, whose blocks
reach 180 rows, is left out: its bytes differed under the two counts until
the self-mirror sector went to real arithmetic (at m = 4,
0.82310468428067063 against 0.82310468428067229), and they agree now by
chance, not by construction.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_GATES = ("z", "s", "t")

_RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); from cavitysim.cli import main\n"
    "for gate in sys.argv[3:]:\n"
    "    assert main(['error-budget', '--gate', gate, '-o', sys.argv[2] + '/' + gate]) == 0\n"
)


def _budgets(out: Path, threads: str) -> dict:
    """Run `sim error-budget --gate z|s|t` in a child process under
    `threads` OpenBLAS threads, and return each gate's result.json and
    budget.csv bytes."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, SRC, str(out), *_GATES],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        (gate, name): (out / gate / name).read_bytes()
        for gate in _GATES
        for name in ("result.json", "budget.csv")
    }


def test_error_budget_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = _budgets(tmp_path / "one", "1")
    two = _budgets(tmp_path / "two", "2")
    for key in one:
        assert one[key] == two[key], key
