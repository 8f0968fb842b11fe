"""Structural import gates: closed forms run without scipy or numpy, the
oracle without scipy, and a cold ``oscint eval`` loads only its own
family's modules.

Each probe runs in a fresh interpreter, because the test process itself
has long since imported scipy (the tests compare against it).  The last line a probe prints is the
sorted list of watched modules in ``sys.modules``: those whose top-level
package is in ``watch`` (by default the heavy ones).  The gates count
modules; none of them takes a timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscint
from oscint.cli import main
from oscint.oracle import (IntegrandSpec, Kernel, RadicalPole, TwoRadical,
                           integrate_semi_infinite)

HEAVY = ("numpy", "scipy")
# modules whose import costs a cold eval milliseconds it does not need
SLOW_STDLIB = ("csv", "dataclasses", "inspect")
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


def _fresh(code, watch=HEAVY):
    """Run ``code`` in a new interpreter; returns (stdout lines, watched modules)."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in sys.modules"
             f" if m.partition('.')[0] in {watch!r})))")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def _eval_code(argv):
    return f"import oscint.cli\nassert oscint.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize("module", ["oscint", "oscint.cli", "oscint.oracle"])
def test_import_loads_no_scipy_or_numpy(module):
    assert _fresh(f"import {module}")[1] == []


@pytest.mark.parametrize("family,kernel", CLOSED_FORM_CASES)
def test_closed_form_eval_loads_no_scipy_or_numpy(family, kernel):
    argv = ["eval", "--family", family, "--kernel", kernel, *IN_GRID[family]]
    out, heavy = _fresh(_eval_code(argv))
    assert heavy == []
    assert json.loads(out[0])["method"] == "closed-form"


# the oscint modules a cold closed-form eval of each family loads
CORE_MODULES = {"oscint", "oscint.cli", "oscint.control", "oscint.errors", "oscint.oracle",
                "oscint.special_functions"}
FAMILY_MODULES = {
    "half-power": {"oscint.half_power"},
    "two-radical": {"oscint.two_radical"},
    "radical-pole": {"oscint.radical_pole", "oscint.two_radical"},
    "lommel": {"oscint.lommel"},
    "log-half-power": {"oscint.lommel"},
}


@pytest.mark.parametrize("family,kernel", CLOSED_FORM_CASES)
def test_closed_form_eval_loads_only_its_family(family, kernel):
    argv = ["eval", "--family", family, "--kernel", kernel, *IN_GRID[family]]
    _, loaded = _fresh(_eval_code(argv), watch=("oscint",) + SLOW_STDLIB)
    assert not set(SLOW_STDLIB) & set(loaded)
    assert set(loaded) == CORE_MODULES | FAMILY_MODULES[family]


def test_package_import_loads_no_submodule():
    assert _fresh("import oscint", watch=("oscint",) + SLOW_STDLIB)[1] == ["oscint"]


def test_every_public_name_resolves_lazily_and_is_cached():
    code = ("import importlib, oscint\n"
            "names = oscint.__all__\n"
            "assert set(names) <= set(dir(oscint))\n"
            "ns = {}\n"
            "exec('from oscint import *', ns)\n"
            "assert set(names) <= set(ns)\n"
            "for name in names:\n"
            "    owner = importlib.import_module('oscint.' + oscint._SUBMODULE[name])\n"
            "    assert vars(oscint)[name] is getattr(owner, name) is ns[name], name\n"
            "print(len(names))")
    out, _ = _fresh(code)
    assert int(out[0]) == len(oscint.__all__) > 70
    with pytest.raises(AttributeError):
        oscint.no_such_name


# closed forms through the Gamma series (u = zeta x < 3), the backward
# Gamma fraction (u > 3) and the Fresnel tail (sqrt(2u/pi) > 1.6)
SPECIAL_ROUTES = {
    "lommel-gamma-series": ("--family", "lommel", "--n", "1", "--m", "3",
                            "--x", "1.5", "--zeta", "1.25"),
    "lommel-gamma-fraction": ("--family", "lommel", "--kernel", "cos", "--n", "2", "--m", "5",
                              "--x", "7.0", "--zeta", "1.5"),
    "half-power-fresnel-tail": ("--family", "half-power", "--alpha", "3", "--x", "9.0",
                                "--zeta", "1.0"),
}


@pytest.mark.parametrize("route", sorted(SPECIAL_ROUTES))
def test_gamma_and_fresnel_routes_load_no_scipy_or_numpy(route):
    out, heavy = _fresh(_eval_code(["eval", *SPECIAL_ROUTES[route]]))
    assert heavy == []
    assert json.loads(out[0])["method"] == "closed-form"


def test_oracle_eval_loads_no_scipy_and_prints_the_same_bytes(capsys):
    argv = ["eval", "--family", "two-radical", *IN_GRID["two-radical"], "--method", "oracle"]
    out, heavy = _fresh(_eval_code(argv))
    assert "numpy" in heavy
    assert not [m for m in heavy if m.partition(".")[0] == "scipy"]
    assert main(argv) == 0
    assert out == capsys.readouterr().out.splitlines()


# every oracle-backed subcommand: compare runs the oracle and the
# quadrature heads next to the closed form; selfcheck runs every group
ORACLE_COMMANDS = {
    "compare": ["compare", "--family", "radical-pole", "--a", "0.7", "--b", "2.6",
                "--zeta", "0.5"],
    "selfcheck": ["selfcheck"],
}


@pytest.mark.parametrize("command", sorted(ORACLE_COMMANDS))
def test_oracle_commands_load_no_scipy(command):
    _, heavy = _fresh(_eval_code(ORACLE_COMMANDS[command]))
    assert "numpy" in heavy
    assert not [m for m in heavy if m.partition(".")[0] == "scipy"]


def test_large_gamma_radical_heads_load_no_scipy_or_numpy():
    # gamma = 6 (a = 36, b = 37): the moments come from the upward
    # recurrence, so the heads need neither 2F1 nor a quadrature fallback
    code = ("import importlib, oscint\n"
            "print(repr(oscint.cos_transform(36.0, 37.0, 0.01)))\n"
            "print(repr(oscint.pole_cos_transform(36.0, 37.0, 0.01)))")
    out, heavy = _fresh(code)
    assert heavy == []
    for line, weight in zip(out, (TwoRadical, RadicalPole)):
        ref = integrate_semi_infinite(IntegrandSpec(weight(36.0, 37.0), Kernel.COS, 0.01)).value
        assert abs(float(line) - ref) <= max(1e-9, 1e-8 * abs(ref))
