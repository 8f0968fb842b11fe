"""Structural import gates: closed forms run without scipy or numpy, the
oracle without scipy, and a cold ``oscint eval`` loads only its own
family's modules and no oracle until it sums lobes.

Each probe runs in a fresh interpreter, because the test process itself
has long since imported scipy (the tests compare against it).  The last line a probe prints is the
sorted list of watched modules in ``sys.modules``: those whose top-level
package is in ``watch`` (by default the heavy ones).  The gates count
modules; none of them takes a timing.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oscint
from oscint import errors
from oscint.cli import main
from oscint.oracle import (IntegrandSpec, Kernel, RadicalPole, TwoRadical, integrate_finite,
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
CORE_MODULES = {"oscint", "oscint.cli", "oscint.control", "oscint.errors",
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


def test_cli_import_loads_no_oracle():
    assert _fresh("import oscint.cli", watch=("oscint",))[1] == [
        "oscint", "oscint.cli", "oscint.control", "oscint.errors"]


# cold evals that sum lobes or run quadrature, so load the oracle on first use: the
# a = b radical (gen_si/gen_ci), a radical past the phase guard (the contour), the
# oracle and series methods, the radical-pole a = b fallback, compare and --timing
ORACLE_EVALS = {
    "a-equals-b": ["eval", "--family", "two-radical", "--a", "0.7", "--b", "0.7",
                   "--zeta", "1.3"],
    "past-the-guard": ["eval", "--family", "radical-pole", "--kernel", "cos", "--a", "20",
                       "--b", "21.5", "--zeta", "0.75"],
    "oracle": ["eval", "--family", "lommel", *IN_GRID["lommel"], "--method", "oracle"],
    "series": ["eval", "--family", "two-radical", *IN_GRID["two-radical"], "--method", "series"],
    "pole-fallback": ["eval", "--family", "radical-pole", "--a", "0.7", "--b", "0.7"],
    "compare": ["compare", "--family", "radical-pole", "--a", "0.7", "--b", "2.6",
                "--zeta", "0.5"],
    "timing": ["eval", "--family", "half-power", *IN_GRID["half-power"], "--timing"],
}


@pytest.mark.parametrize("case", sorted(ORACLE_EVALS))
def test_evals_that_sum_lobes_load_the_oracle_and_print_the_same_bytes(capsys, case):
    argv = ORACLE_EVALS[case]
    out, loaded = _fresh(_eval_code(argv), watch=("oscint",))
    assert "oscint.oracle" in loaded
    assert main(argv) == 0
    here = capsys.readouterr().out.splitlines()
    if case == "timing":    # elapsed_us is a clock reading
        out, here = ([{k: v for k, v in json.loads(line).items() if k != "elapsed_us"}
                      for line in lines] for lines in (out, here))
    assert out == here


def test_a_stand_in_binds_the_oracle_function_on_its_first_call():
    code = ("import sys\n"
            "import oscint.radical_pole as rp, oscint.special_functions as sf\n"
            "import oscint.two_radical as tr\n"
            "assert 'oscint.oracle' not in sys.modules\n"
            "tr.sin_transform(20.0, 21.5, 0.75), rp.pole_sin_transform(20.0, 21.5, 0.75)\n"
            "sf.gen_si(0.0, 1.0)\n"
            "import oscint.oracle as o\n"
            "print(tr.integrate_finite is rp.integrate_finite is o.integrate_finite,\n"
            "      sf.lobe_sum is o.lobe_sum, sf.kernel_breakpoints is o.kernel_breakpoints)")
    assert _fresh(code)[0] == ["True True True"]


def test_concurrent_first_calls_bind_one_object():
    # eight threads call one stand-in at once in a fresh interpreter: they import
    # the oracle under the import lock, agree on the value and leave one binding
    code = ("import math, sys, threading\n"
            "import oscint.two_radical as tr\n"
            "stand_in, barrier, got = tr.integrate_finite, threading.Barrier(8), []\n"
            "def first_call():\n"
            "    barrier.wait()\n"
            "    got.append(stand_in(math.sin, 0.0, 1.0))\n"
            "sys.setswitchinterval(1e-6)\n"
            "threads = [threading.Thread(target=first_call) for _ in range(8)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(timeout=60)\n"
            "import oscint.oracle as o\n"
            "print(not any(t.is_alive() for t in threads), len(got), len(set(got)),\n"
            "      tr.integrate_finite is o.integrate_finite)")
    assert _fresh(code)[0] == ["True 8 1 True"]


def test_a_global_replaced_before_the_first_call_stays_replaced():
    namespace = {}
    stand_in = namespace["integrate_finite"] = errors._from_oracle(namespace, "integrate_finite")
    namespace["integrate_finite"] = replaced = object()
    got = stand_in(math.sin, 0.0, 1.0)
    assert got == integrate_finite(math.sin, 0.0, 1.0)
    assert namespace["integrate_finite"] is replaced


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
