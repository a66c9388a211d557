"""A fresh `sim` process imports only the scipy modules of the solver it runs.

Importing scipy.linalg, scipy.integrate, scipy.optimize and scipy.sparse took
about 0.9 s of every fresh process, while most commands compute for 0.05-0.3 s.
Each case runs in its own interpreter, so no other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_REPORT = (
    "import sys; sys.path.insert(0, sys.argv[1]); {run}; "
    "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
)
_SETUP = (
    "import cavitysim.cli; from cavitysim.device import default_config_text, load_params; "
    "load_params(default_config_text())"
)
_COMMAND = "from cavitysim.cli import main; assert main(sys.argv[2:]) == 0"


def _scipy_modules(run: str, *args: str) -> set:
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT.format(run=run), SRC, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(proc.stdout.split())


def test_import_and_load_params_load_no_scipy():
    assert _scipy_modules(_SETUP) == set()


@pytest.mark.parametrize(
    "args",
    [
        ["qpt", "--gate", "z", "--mode", "pulse"],
        ["parity-sweep", "--mode", "pulse"],
        ["bell", "--encoding", "cat", "--mode", "pulse"],
        ["wigner"],
    ],
    ids=lambda args: " ".join(args),
)
def test_closed_system_command_loads_no_scipy(tmp_path, args):
    assert _scipy_modules(_COMMAND, *args, "-o", str(tmp_path / "run")) == set()


def test_error_budget_loads_only_scipy_linalg(tmp_path):
    loaded = _scipy_modules(_COMMAND, "error-budget", "--gate", "z", "-o", str(tmp_path / "run"))
    assert "scipy.linalg" in loaded
    for heavy in ("scipy.integrate", "scipy.optimize", "scipy.sparse"):
        assert heavy not in loaded, f"{heavy} is loaded"
