"""Structural import gates: closed forms run without scipy or numpy.

Each probe runs in a fresh interpreter, because the test process itself
has long since imported scipy.  The last line a probe prints is the
sorted list of heavy modules in ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscint
from oscint.cli import main

HEAVY = ("numpy", "scipy")
SRC = str(Path(oscint.__file__).resolve().parent.parent)

# one in-grid point (a <= 1, zeta <= 2, x <= 10, a != b) per closed-form family
IN_GRID = {
    "half-power": ("--alpha", "2", "--x", "3.5", "--zeta", "0.75"),
    "two-radical": ("--a", "0.4", "--b", "1.9", "--zeta", "1.5"),
    "radical-pole": ("--a", "0.7", "--b", "2.6", "--zeta", "0.5"),
    "lommel": ("--n", "1", "--m", "3", "--x", "6.0", "--zeta", "1.25"),
    "log-half-power": ("--x", "2.5"),
}
CLOSED_FORM_CASES = [(family, kernel) for family in IN_GRID for kernel in ("sin", "cos")
                     if not (family == "log-half-power" and kernel == "cos")]


def _fresh(code):
    """Run ``code`` in a new interpreter; returns (stdout lines, heavy modules)."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _eval_code(argv):
    return f"import oscint.cli\nassert oscint.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("module", ["oscint", "oscint.cli"])
def test_import_loads_no_scipy_or_numpy(module):
    assert _fresh(f"import {module}")[1] == []


@pytest.mark.parametrize("family,kernel", CLOSED_FORM_CASES)
def test_closed_form_eval_loads_no_scipy_or_numpy(family, kernel):
    argv = ["eval", "--family", family, "--kernel", kernel, *IN_GRID[family]]
    out, heavy = _fresh(_eval_code(argv))
    assert heavy == []
    assert json.loads(out[0])["method"] == "closed-form"


def test_oracle_eval_loads_scipy_and_prints_the_same_bytes(capsys):
    argv = ["eval", "--family", "two-radical", *IN_GRID["two-radical"], "--method", "oracle"]
    code = _eval_code(argv) + ("\nimport oscint.oracle, scipy.integrate"
                               "\nassert oscint.oracle.quad is scipy.integrate.quad")
    out, heavy = _fresh(code)
    assert "scipy" in heavy
    assert main(argv) == 0
    assert out == capsys.readouterr().out.splitlines()
