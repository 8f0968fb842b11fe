"""Command-line interface: dispatch coverage, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from oscint.cli import FAMILY_METHODS, Method, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_json_golden(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "half-power",
                           "--alpha", "0", "--x", "1", "--zeta", "1")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"] - 0.810) < 5e-4
    assert abs(rec["value"] - 0.80952548174740884) < 1e-9
    assert rec["method"] == "closed-form"
    assert rec["params"]["kernel"] == "sin"


def test_eval_trivial_at_zero_shift(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "half-power",
                           "--alpha", "0", "--x", "0", "--zeta", "1")
    assert code == 0
    assert abs(json.loads(out)["value"] - math.sqrt(0.5 * math.pi)) < 1e-12


def test_eval_oracle_method(capsys):
    code, out, _ = run_cli(capsys, "eval", "--family", "two-radical",
                           "--a", "1", "--b", "2", "--zeta", "1",
                           "--method", "oracle")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "oracle"
    assert abs(rec["value"] - 0.49826494947386386) < 1e-8
    assert rec["err_estimate"] > 0


def test_byte_identical_output(capsys):
    args = ("eval", "--family", "lommel", "--n", "0", "--m", "3",
            "--x", "1", "--zeta", "1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timing_flag_adds_field(capsys):
    _, out, _ = run_cli(capsys, "eval", "--family", "log-half-power", "--x", "1")
    assert "elapsed_us" not in json.loads(out)
    _, out, _ = run_cli(capsys, "eval", "--family", "log-half-power", "--x", "1",
                        "--timing")
    assert "elapsed_us" in json.loads(out)


def test_compare_gate(capsys):
    code, out, _ = run_cli(capsys, "compare", "--family", "radical-pole",
                           "--a", "1", "--b", "2", "--zeta", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert set(doc["values"]) >= {"closed-form", "series", "oracle", "approximation"}
    assert doc["gated_max_deviation"] <= 1e-8


def test_compare_lommel(capsys):
    code, out, _ = run_cli(capsys, "compare", "--family", "lommel",
                           "--n", "0", "--m", "2", "--x", "1", "--zeta", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["gated_max_deviation"] <= 1e-8


def test_compare_impossible_tolerance(capsys):
    code, _, _ = run_cli(capsys, "compare", "--family", "two-radical",
                         "--a", "1", "--b", "2", "--zeta", "1", "--tol", "0")
    assert code == 1


def test_table_sweep(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "half-power",
                           "--alpha", "0", "--x", "0.5,1", "--zeta", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5                         # header + 2x2 grid
    assert lines[0].startswith("family,method")


def test_oracle_subcommand_three_radical(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--family", "three-radical",
                           "--a", "1", "--b", "2", "--c3", "3", "--zeta", "1")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["value"] - 0.25841488335016015) < 1e-8
    assert rec["zero_intervals_used"] > 0
    assert rec["accelerated"] is True


def test_missing_parameter_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--family", "half-power", "--x", "1")
    assert code == 2
    assert "alpha" in err


def test_divergent_request_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--family", "half-power",
                           "--alpha", "1", "--x", "0")
    assert code == 2
    assert "alpha" in err


def test_unsupported_falls_back_to_oracle(capsys):
    code, out, err = run_cli(capsys, "eval", "--family", "radical-pole",
                             "--a", "2", "--b", "1", "--zeta", "1")
    assert code == 0
    assert "falling back" in err
    assert json.loads(out)["method"] == "oracle"


def test_numerical_failure_exit_3(capsys):
    # a one-term budget exhausts the continued fraction immediately
    code, _, err = run_cli(capsys, "eval", "--family", "lommel",
                           "--n", "0", "--m", "3", "--x", "2",
                           "--max-terms", "1")
    assert code == 3
    assert err


def test_as_printed_flag_matches_method(capsys):
    base = ("--family", "radical-pole", "--a", "1", "--b", "2", "--zeta", "1")
    _, out1, _ = run_cli(capsys, "eval", *base, "--as-printed")
    _, out2, _ = run_cli(capsys, "eval", *base, "--method", "as-printed")
    assert out1 == out2
    assert json.loads(out1)["method"] == "as-printed"


def test_selfcheck_list_and_subset(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--list")
    assert code == 0
    assert "difference-equations" in out
    code, out, _ = run_cli(capsys, "selfcheck", "--only", "scaling")
    assert code == 0
    assert "PASS scaling" in out


def test_selfcheck_seed_is_inert(capsys):
    _, out1, _ = run_cli(capsys, "selfcheck", "--only", "scaling", "--json")
    _, out2, _ = run_cli(capsys, "selfcheck", "--only", "scaling", "--json",
                         "--seed", "7")
    assert out1 == out2


def test_env_overrides_series_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("OSCINT_REL_TOL", "1e-6")
    _, out, _ = run_cli(capsys, "eval", "--family", "half-power",
                        "--alpha", "0", "--x", "1")
    rec = json.loads(out)
    assert rec["err_estimate"] == pytest.approx(abs(rec["value"]) * 1e-6)


def test_every_family_method_dispatches(capsys):
    """Coverage: each advertised family/method pair is reachable."""
    nominal = {
        "half-power": ["--alpha", "1", "--x", "1", "--zeta", "1"],
        "two-radical": ["--a", "1", "--b", "4", "--zeta", "1"],
        "radical-pole": ["--a", "1", "--b", "4", "--zeta", "1"],
        "lommel": ["--n", "0", "--m", "3", "--x", "1", "--zeta", "1"],
        "log-half-power": ["--x", "1"],
        "three-radical": ["--a", "1", "--b", "2", "--c3", "3", "--zeta", "1"],
    }
    for family, methods in FAMILY_METHODS.items():
        for method in methods:
            argv = ["eval", "--family", family, "--method", method.value,
                    *nominal[family]]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (family, method, err)
            rec = json.loads(out)
            assert math.isfinite(rec["value"])
        # the quadrature entry point must also accept the family
        code, out, _ = run_cli(capsys, "oracle", "--family", family,
                               *nominal[family])
        assert code == 0
    assert set(FAMILY_METHODS["two-radical"]) == {
        Method.CLOSED_FORM, Method.SERIES, Method.APPROXIMATION,
        Method.ORACLE, Method.AS_PRINTED}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "eval", "--family", "half-power",
         "--alpha", "0", "--x", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["family"] == "half-power"


NON_FINITE_ARGV = {
    "eval": ("eval", "--family", "half-power", "--alpha", "1", "--x={}"),
    "eval-zeta": ("eval", "--family", "two-radical", "--a", "1", "--b", "2", "--zeta={}"),
    "oracle": ("oracle", "--family", "half-power", "--alpha", "1", "--x={}"),
    "compare": ("compare", "--family", "radical-pole", "--a={}", "--b", "2"),
    "table": ("table", "--family", "lommel", "--n", "0", "--m", "3", "--x=1,{}"),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", sorted(NON_FINITE_ARGV))
def test_non_finite_parameter_exit_2(capsys, command, bad):
    argv = [arg.format(bad) for arg in NON_FINITE_ARGV[command]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "must be finite" in err
    assert out == ""
