"""Command-line interface: dispatch coverage, determinism, exit codes."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from oscint.cli import FAMILY_METHODS, Method, main

import mpref


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


# a closed form, the series route (quadrature heads), a closed form that
# sums si/ci lobes (a = b) and the oracle
TIMED = {
    "closed-form": ("--family", "half-power", "--alpha", "0", "--x", "1"),
    "series": ("--family", "two-radical", "--a", "0.4", "--b", "1.9", "--method", "series"),
    "si-ci": ("--family", "two-radical", "--a", "1", "--b", "1"),
    "oracle": ("--family", "lommel", "--n", "1", "--m", "3", "--x", "2", "--method", "oracle"),
}


@pytest.mark.parametrize("case", sorted(TIMED))
def test_timed_evaluation_imports_nothing(case):
    # --timing loads what an evaluation needs before the clock starts, so
    # elapsed_us holds no import; in a fresh interpreter every import
    # would be a first one
    code = ("import sys\n"
            "import oscint.cli as cli\n"
            "evaluate = cli.evaluate\n"
            "def timed(*args):\n"
            "    before = set(sys.modules)\n"
            "    out = evaluate(*args)\n"
            "    assert set(sys.modules) == before, sorted(set(sys.modules) - before)\n"
            "    return out\n"
            "cli.evaluate = timed\n"
            f"assert cli.main(['eval', '--timing', *{list(TIMED[case])!r}]) == 0\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "elapsed_us" in json.loads(proc.stdout)


# tables of rows that each take a cached oracle table: the oracle's own, an
# a = b radical's and Lommel's series' (the e^(it) tables of the (gen_si,
# gen_ci) pair at each one's tolerance), and the first quad level of the
# rotated contour past the phase guard
TIMED_TABLES = (
    ("--family", "two-radical", "--a", "1", "--b", "2,3,4,5", "--method", "oracle"),
    ("--family", "two-radical", "--a", "0.7", "--b", "0.7", "--zeta", "1.3,1.9"),
    ("--family", "lommel", "--n", "1", "--m", "2", "--x", "1.5,2", "--method", "series"),
    ("--family", "two-radical", "--a", "20", "--b", "21,22.5", "--zeta", "1"),
)


@pytest.mark.parametrize("kernel", ["sin", "cos"])
def test_timed_oracle_rows_build_no_table(capsys, monkeypatch, kernel):
    # the first oracle row read several times the rest while it built the
    # GK21 and phase tables; --timing builds them before any clock starts
    import oscint.cli as cli
    import oscint.oracle as oracle
    import oscint.special_functions as special_functions

    caches = (oracle._gk21, oracle._phase_table, oracle._quad_start)
    # the (gen_si, gen_ci) memo too: holding the throwaway pair, it would build no table
    for cache in (*caches, special_functions._gen_trig_pair):
        cache.cache_clear()
    record, built = cli._record, []

    def timed(*args):
        before = [c.cache_info().misses for c in caches]
        row = record(*args)
        built.append([c.cache_info().misses for c in caches] != before)
        return row

    monkeypatch.setattr(cli, "_record", timed)
    for argv in TIMED_TABLES:
        assert run_cli(capsys, "table", "--kernel", kernel, *argv, "--timing")[0] == 0, argv
    assert built == [False] * 10        # 4 oracle rows, then 2 of each other table


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


@pytest.mark.parametrize("x", ["10", "60", "150"])
def test_compare_log_half_power_passes_its_gate(capsys, x):
    # the series method's central difference at h = 1e-4 was up to 4e-8 off;
    # Richardson's (4 D_h - D_2h)/3 leaves it below 1e-12
    code, out, _ = run_cli(capsys, "compare", "--family", "log-half-power", "--x", x)
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert doc["gated_max_deviation"] <= 1e-12


def _lommel_tiny_zeta(capsys, kernel):
    code, out, _ = run_cli(capsys, "eval", "--family", "lommel", "--kernel", kernel,
                           "--n", "1", "--m", "1", "--x", "1", "--zeta", "1e-100")
    assert code == 0
    return json.loads(out)["value"]


def test_lommel_closed_form_at_a_tiny_frequency(capsys):
    # exponent 3 at u = 1e-100, where the Gamma form alone gives 9.18e-17:
    # the sine is zeta * integral of t/(t+1)^3 = zeta/2 to O(zeta^2 log zeta)
    value = _lommel_tiny_zeta(capsys, "sin")
    assert abs(value - 0.5e-100) <= 1e-13 * 0.5e-100


def test_lommel_closed_form_cosine_at_a_tiny_frequency_matches_mpmath(capsys):
    want = float(mpref.pair(3, 1, 250, "1e-100").cos)
    assert abs(_lommel_tiny_zeta(capsys, "cos") - want) <= 1e-13 * abs(want)


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


# one in-domain point per family
NOMINAL = {
    "half-power": ["--alpha", "1", "--x", "1", "--zeta", "1"],
    "two-radical": ["--a", "1", "--b", "4", "--zeta", "1"],
    "radical-pole": ["--a", "1", "--b", "4", "--zeta", "1"],
    "lommel": ["--n", "0", "--m", "3", "--x", "1", "--zeta", "1"],
    "log-half-power": ["--x", "1"],
    "three-radical": ["--a", "1", "--b", "2", "--c3", "3", "--zeta", "1"],
}
REPORT_FIELDS = {"zero_intervals_used", "accelerated"}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_oracle_subcommand_prints_the_params_of_eval(capsys, fmt):
    # the whole row: value, err_estimate, method and params; only the oracle
    # subcommand's JSON adds its report fields
    for family, point in NOMINAL.items():
        point = ("--family", family, *point, "--format", fmt)
        code, oracle_out, _ = run_cli(capsys, "oracle", *point)
        assert code == 0, family
        _, eval_out, _ = run_cli(capsys, "eval", "--method", "oracle", *point)
        if fmt == "csv":
            assert oracle_out == eval_out, family
            continue
        oracle_row, eval_row = json.loads(oracle_out), json.loads(eval_out)
        assert set(oracle_row) - set(eval_row) == REPORT_FIELDS, family
        assert not REPORT_FIELDS & set(eval_row), family
        assert {k: v for k, v in oracle_row.items() if k not in REPORT_FIELDS} == eval_row
        assert "plus_one" not in oracle_row["params"]


# Lommel points outside its domain x, zeta > 0
OFF_DOMAIN_LOMMEL = {"negative": ("--x", "-1", "--zeta", "-1"), "zero-shift": ("--x", "0")}


@pytest.mark.parametrize("point", OFF_DOMAIN_LOMMEL.values(), ids=OFF_DOMAIN_LOMMEL)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_as_printed_lommel_off_domain_exit_2(capsys, point, fmt):
    # the verbatim Gamma order shares the checks of the corrected route
    code, out, err = run_cli(capsys, "eval", "--family", "lommel", "--n", "0", "--m", "3",
                             *point, "--method", "as-printed", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: need x > 0")


@pytest.mark.parametrize("point", OFF_DOMAIN_LOMMEL.values(), ids=OFF_DOMAIN_LOMMEL)
def test_compare_skips_as_printed_lommel_off_domain(capsys, point):
    _, out, err = run_cli(capsys, "compare", "--family", "lommel", "--n", "0", "--m", "3",
                          *point, "--as-printed")
    doc = json.loads(out)
    assert "as-printed" not in doc["values"]
    assert doc["skipped"]["as-printed"].startswith("need x > 0")
    assert err == ""


def test_as_printed_lommel_off_domain_in_a_fresh_process_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "eval", "--family", "lommel", "--n", "0",
         "--m", "3", *OFF_DOMAIN_LOMMEL["negative"], "--method", "as-printed"],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: need x > 0")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("plus_one", [(), ("--plus-one",)])
def test_compare_prints_the_params_of_eval(capsys, plus_one):
    point = ("--family", "lommel", "--n", "0", "--m", "3", "--x", "1", "--kernel", "cos",
             *plus_one)
    _, compare_out, _ = run_cli(capsys, "compare", *point)
    _, eval_out, _ = run_cli(capsys, "eval", *point)
    params = json.loads(compare_out)["params"]
    assert params == json.loads(eval_out)["params"]
    assert ("plus_one" in params) == bool(plus_one)


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


def test_oracle_at_a_tiny_frequency_warns_of_nothing(capsys):
    # lobes about 3e300 long: quad's bisection test must not overflow
    code, out, err = run_cli(capsys, "eval", "--method", "oracle", "--family", "half-power",
                             "--alpha", "0", "--x", "0", "--zeta", "1e-300")
    assert code == 0
    assert err == ""
    rec = json.loads(out)
    assert abs(rec["value"] - math.sqrt(0.5 * math.pi / 1e-300)) <= rec["err_estimate"]


def test_huge_lommel_order_exit_3_in_a_fresh_process():
    # Gamma's order lift past max_terms raises instead of looping 1e9 times
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "eval", "--family", "lommel",
         "--n", "500000000", "--m", "1", "--x", "1"],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3
    assert "recurrence steps" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_series_heads_below_quadpack_floor_exit_0(capsys):
    # --rel-tol 1e-14 is below QUADPACK's round-off floor; the quadrature
    # heads ask it for the floor instead of failing with exit 3
    base = ("--family", "two-radical", "--kernel", "sin", "--a", "0.5", "--b", "1.5",
            "--zeta", "1")
    code, out, err = run_cli(capsys, "eval", *base, "--method", "series", "--rel-tol", "1e-14")
    assert code == 0, err
    _, ref, _ = run_cli(capsys, "eval", *base)
    assert abs(json.loads(out)["value"] - json.loads(ref)["value"]) <= 1e-14


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


# the default report of a passing run, byte for byte: one line per group, in
# registry order, and the verdict
SELFCHECK_GOLDEN = (
    "PASS fresnel-derivatives (11/11)\n"
    "PASS gamma-recurrences (54/54)\n"
    "PASS gamma-routes (116/116)\n"
    "PASS exponent-switch (35/35)\n"
    "PASS hyp2f1-transform (6/6)\n"
    "PASS gen-si-additivity (6/6)\n"
    "PASS difference-equations (48/48)\n"
    "PASS interrelations (48/48)\n"
    "PASS scaling (24/24)\n"
    "PASS ode-residual (18/18)\n"
    "PASS derivative-relation (18/18)\n"
    "PASS half-power-oracle (48/48)\n"
    "PASS oracle-ibp (18/18)\n"
    "PASS oracle-robustness (6/6)\n"
    "PASS radical-head-moments (20/20)\n"
    "PASS two-radical-tails (10/10)\n"
    "PASS two-radical-heads (18/18)\n"
    "PASS two-radical-decomposition (18/18)\n"
    "PASS two-radical-assembly (36/36)\n"
    "PASS two-radical-derivative (1/1)\n"
    "PASS contour-switch (6/6)\n"
    "PASS approximation-trends (5/5)\n"
    "PASS radical-pole-tails (10/10)\n"
    "PASS radical-pole-heads (18/18)\n"
    "PASS radical-pole-decomposition (18/18)\n"
    "PASS radical-pole-assembly (36/36)\n"
    "PASS radical-pole-derivative (1/1)\n"
    "PASS lommel-recurrence (16/16)\n"
    "PASS lommel-three-way (72/72)\n"
    "PASS lommel-reduction (30/30)\n"
    "PASS log-integral (6/6)\n"
    "all checks passed\n"
)


def test_selfcheck_default_output_is_pinned(capsys):
    assert run_cli(capsys, "selfcheck") == (0, SELFCHECK_GOLDEN, "")


def test_selfcheck_runs_a_group_named_twice_once(capsys):
    argv = ("selfcheck", "--only", "scaling", "--only", "difference-equations", "--only", "scaling")
    assert run_cli(capsys, *argv) == (0, "PASS scaling (24/24)\n"
                                         "PASS difference-equations (48/48)\n"
                                         "all checks passed\n", "")
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert [(g["group"], g["total"]) for g in json.loads(out)["groups"]] == [
        ("scaling", 24), ("difference-equations", 48)]


def test_unknown_selfcheck_group_exit_2(capsys):
    # validated before any group runs, so the known group before it prints nothing
    code, out, err = run_cli(capsys, "selfcheck", "--only", "scaling", "--only", "nosuch")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown selfcheck group 'nosuch'; known: ")


def test_unknown_selfcheck_group_in_a_fresh_process_has_no_traceback():
    proc = subprocess.run([sys.executable, "-m", "oscint.cli", "selfcheck", "--only", "nosuch"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: unknown selfcheck group")
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("kernel", ["sin", "cos"])
def test_every_family_method_dispatches(capsys, kernel):
    """Coverage: each advertised family/method pair is reachable on both
    kernels, except that log-half-power is sine-only for every method."""
    for family, methods in FAMILY_METHODS.items():
        sine_only = family == "log-half-power" and kernel == "cos"
        for method in methods:
            argv = ["eval", "--family", family, "--kernel", kernel, "--method", method.value,
                    *NOMINAL[family]]
            code, out, err = run_cli(capsys, *argv)
            if sine_only:
                assert (code, out) == (2, ""), (family, method)
                assert "sine-kernel only" in err
                continue
            assert code == 0, (family, method, err)
            rec = json.loads(out)
            assert math.isfinite(rec["value"])
            assert rec["params"]["kernel"] == kernel
        # the quadrature entry point must also accept the family
        code, out, err = run_cli(capsys, "oracle", "--family", family, "--kernel", kernel,
                                 *NOMINAL[family])
        if sine_only:
            assert (code, out) == (2, "") and "sine-kernel only" in err
        else:
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


MALFORMED_ARGV = {
    "table-int-list": ("table", "--family", "half-power", "--alpha", "1,x", "--x", "1"),
    "table-float-list": ("table", "--family", "two-radical", "--a", "1,abc", "--b", "2"),
    "rel-tol-inf": ("eval", "--family", "two-radical", "--a", "1", "--b", "2",
                    "--rel-tol", "inf"),
    "rel-tol-nan": ("eval", "--family", "two-radical", "--a", "1", "--b", "2",
                    "--rel-tol", "nan"),
    "rel-tol-negative": ("compare", "--family", "two-radical", "--a", "1", "--b", "2",
                         "--rel-tol=-1"),
    "max-terms-zero": ("oracle", "--family", "half-power", "--alpha", "1", "--x", "1",
                       "--max-terms", "0"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARGV))
def test_malformed_number_exit_2(capsys, case):
    code, out, err = run_cli(capsys, *MALFORMED_ARGV[case])
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""


def test_unparsable_env_tolerance_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("OSCINT_REL_TOL", "abc")
    code, out, err = run_cli(capsys, "eval", "--family", "half-power",
                             "--alpha", "0", "--x", "1")
    assert code == 2
    assert "OSCINT_REL_TOL" in err
    assert out == ""


def test_malformed_number_in_a_fresh_process_has_no_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "oscint.cli", "table", "--family", "half-power",
         "--alpha", "1,x", "--x", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# zeta (b - a) / 2 overflows to inf: the argument of the two-radical Bessel tails
OVERFLOW = ("--family", "two-radical", "--a", "1e308", "--b", "1.5e308", "--zeta", "1e308")


@pytest.mark.parametrize("command", ["eval", "table"])
def test_overflowed_bessel_argument_exit_2(capsys, command):
    code, out, err = run_cli(capsys, command, *OVERFLOW)
    assert code == 2
    assert err.startswith("error: ")
    assert "overflows double precision" in err
    assert out == ""


def test_compare_skips_closed_forms_with_overflowed_bessel_argument(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "compare", *OVERFLOW)
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert list(doc["values"]) == ["oracle"]
    assert doc["skipped"]
    assert all("overflows double precision" in why for why in doc["skipped"].values())
    assert err == ""


def test_overflowed_bessel_argument_in_a_fresh_process_has_no_traceback():
    proc = subprocess.run([sys.executable, "-m", "oscint.cli", "eval", *OVERFLOW],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


# points where a closed form or its lobes leave double precision (exit 2),
# and half-power orders past the Gamma range (exit 0); each once ended in
# a traceback
OUT_OF_RANGE_ARGV = {
    "half-power-u-overflow": (2, ["--family", "half-power", "--alpha", "5", "--x", "1e-300"]),
    "half-power-u-underflow": (2, ["--family", "half-power", "--alpha", "5", "--x", "1e-300",
                                   "--zeta", "1e-300"]),
    "half-power-zeta-overflow": (2, ["--family", "half-power", "--alpha", "5", "--x", "2",
                                     "--zeta", "1e300"]),
    "half-power-alpha-171-sin": (0, ["--family", "half-power", "--alpha", "171", "--x", "1"]),
    "half-power-alpha-171-cos": (0, ["--family", "half-power", "--kernel", "cos",
                                     "--alpha", "171", "--x", "3"]),
    "lommel-zeta-overflow": (2, ["--family", "lommel", "--n", "1", "--m", "1", "--x", "1e-300",
                                 "--zeta", "1e300"]),
    "two-radical-degenerate": (2, ["--family", "two-radical", "--a", "1e-30", "--b", "1e-30",
                                   "--zeta", "1e150"]),
    "lommel-series": (2, ["--family", "lommel", "--method", "series", "--n", "0", "--m", "1",
                          "--x", "1e-8", "--zeta", "1e300"]),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE_ARGV))
def test_out_of_range_point_has_no_traceback(capsys, case):
    want, argv = OUT_OF_RANGE_ARGV[case]
    code, out, err = run_cli(capsys, "eval", *argv)
    assert code == want
    assert "Traceback" not in err
    if want == 2:
        assert err.startswith("error: ") and "double precision" in err
    else:
        assert math.isfinite(json.loads(out)["value"])


# a scaled shift u = zeta x that overflows to inf, and approximate heads past
# the double range: the first two once ended in a traceback (exit 1), the
# third printed "value": NaN with exit 0
PAST_RANGE_ARGV = {
    "half-power-u-inf": ["--family", "half-power", "--alpha", "0", "--x", "1e20",
                         "--zeta", "1e300"],
    "lommel-u-inf": ["--family", "lommel", "--n", "0", "--m", "1", "--x", "1e20",
                     "--zeta", "1e300"],
    "two-radical-approximation": ["--family", "two-radical", "--a", "1e-300", "--b", "1e-20",
                                  "--zeta", "1e-300", "--method", "approximation"],
}


@pytest.mark.parametrize("case", sorted(PAST_RANGE_ARGV))
def test_point_past_the_double_range_exit_2(capsys, case):
    code, out, err = run_cli(capsys, "eval", *PAST_RANGE_ARGV[case])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "double precision" in err


@pytest.mark.parametrize("case", ["half-power-u-inf", "lommel-u-inf"])
def test_overflowed_scaled_shift_in_a_fresh_process_has_no_traceback(case):
    proc = subprocess.run([sys.executable, "-m", "oscint.cli", "eval", *PAST_RANGE_ARGV[case]],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr


def test_compare_skips_approximation_past_the_double_range(capsys):
    argv = PAST_RANGE_ARGV["two-radical-approximation"][:-2]
    code, out, _ = run_cli(capsys, "compare", *argv)
    doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
    assert "approximation" in doc["skipped"]
    assert "double precision" in doc["skipped"]["approximation"]
    assert "approximation" not in doc["values"]


def test_compare_csv_bytes(capsys):
    # the CSV form of compare holds the JSON form's values, gate and verdict,
    # each value as its repr, in method order
    args = ("compare", "--family", "half-power", "--alpha", "1", "--x", "2", "--zeta", "1.5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert sorted(doc["values"]) == ["closed-form", "oracle"]
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out == ("method,value\n"
                   f"closed-form,{doc['values']['closed-form']!r}\n"
                   f"oracle,{doc['values']['oracle']!r}\n"
                   f"gated_max_deviation,{doc['gated_max_deviation']!r}\n"
                   "ok,True\n")


@pytest.mark.parametrize("command, family, method, methods", [
    ("eval", "half-power", "series", "closed-form, oracle, as-printed"),
    ("table", "three-radical", "closed-form", "oracle"),
])
def test_method_the_family_lacks_exit_2(capsys, command, family, method, methods):
    code, out, err = run_cli(capsys, command, "--family", family, "--a", "1", "--b", "2",
                             "--c3", "3", "--alpha", "0", "--x", "1", "--method", method)
    assert (code, out) == (2, "")
    assert err == f"error: family {family!r} supports methods: {methods}\n"


def test_table_with_an_empty_value_list_exit_2(capsys):
    code, out, err = run_cli(capsys, "table", "--family", "half-power",
                             "--alpha", "0", "--x", ",", "--zeta", "1")
    assert (code, out, err) == (2, "", "error: empty value list for --x\n")


def test_failing_selfcheck_group_text_report(capsys, monkeypatch):
    from oscint import selfcheck
    monkeypatch.setattr(selfcheck, "GROUPS", {
        "good": lambda: [("one", 1e-12, 1e-10)],
        "bad": lambda: [("two", 5e-11, 1e-10), ("three", 3e-9, 1e-9), ("four", math.nan, 1.0)],
    })
    code, out, _ = run_cli(capsys, "selfcheck")
    assert code == 1
    assert out == ("PASS good (1/1)\n"
                   "FAIL bad (1/3)\n"
                   "     failed: three  error 3.0e-09, tolerance 1.0e-09\n"
                   "     failed: four  error nan, tolerance 1.0e+00\n"
                   "FAILURES present\n")


def test_selfcheck_json_with_a_nan_row_is_standard_json(capsys, monkeypatch):
    # a NaN error fails its row and has no margin: both are null, not the
    # NaN and Infinity that strict parsers reject
    from oscint import selfcheck
    monkeypatch.setattr(selfcheck, "GROUPS", {
        "bad": lambda: [("one", 1e-12, 1e-10), ("two", math.nan, 1.0)],
    })
    code, out, _ = run_cli(capsys, "selfcheck", "--json")
    assert code == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert json.loads(out, parse_constant=reject) == {"ok": False, "groups": [
        {"group": "bad", "passed": 1, "total": 2, "ok": False, "worst_margin": None,
         "failures": [{"name": "two", "error": None, "tolerance": 1.0}]},
    ]}


def test_failing_selfcheck_group_json_report(capsys, monkeypatch):
    # each group's worst margin (error / tolerance), and each failure's two numbers
    from oscint import selfcheck
    monkeypatch.setattr(selfcheck, "GROUPS", {
        "good": lambda: [("one", 1e-12, 1e-10), ("two", 0.0, 1.0)],
        "bad": lambda: [("three", 4e-9, 2e-9), ("four", 1e-11, 1e-10)],
    })
    code, out, _ = run_cli(capsys, "selfcheck", "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "groups": [
        {"group": "good", "passed": 2, "total": 2, "ok": True, "worst_margin": 0.01,
         "failures": []},
        {"group": "bad", "passed": 1, "total": 2, "ok": False, "worst_margin": 2.0,
         "failures": [{"name": "three", "error": 4e-9, "tolerance": 2e-9}]},
    ]}
