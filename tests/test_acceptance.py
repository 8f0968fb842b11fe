"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` for the per-criterion
pass lines.  The quadrature oracle is the reference everywhere; golden
values for printed-formula arbitration were frozen from 25-digit
independent computations before the closed forms were written.
"""

import math
import subprocess
import sys
import time

import pytest

from oscint import errata
from oscint import lommel as lm
from oscint import radical_pole as rp
from oscint import selfcheck
from oscint import two_radical as tr
from oscint.oracle import (
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    QuadraticPhase,
    integrate_semi_infinite,
)

TOL_REL = 1e-8
TOL_ABS = 1e-9


def close(a, b, rel=TOL_REL, abs_=TOL_ABS):
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def oracle(weight, kernel, zeta=1.0):
    return integrate_semi_infinite(IntegrandSpec(weight, kernel, zeta)).value


def _announce(num, text):
    print(f"PASS criterion {num}: {text}")


def _checks(*groups, names=None):
    """Results of the selfcheck ``groups`` (first name word in ``names``), all passing."""
    res = selfcheck.run(only=list(groups))
    if names is not None:
        res = [r for r in res if r.name.split()[0] in names]
    bad = [r for r in res if not r.passed]
    assert not bad, bad
    return res


def test_criterion_1_base_closed_forms():
    t0 = time.perf_counter()
    # x in {0.1, 1, 10} by zeta in {0.5, 1, 2}, both kernels
    checked = len(_checks("half-power-oracle", names=("s0", "c0")))
    elapsed = time.perf_counter() - t0
    assert checked == 18
    assert elapsed < 5.0
    _announce(1, f"s0/c0 match the oracle at {checked} grid points "
                 f"(max(1e-12 rel, the oracle's estimate)) in {elapsed:.2f}s")


def test_criterion_2_integer_families_and_difference_equation():
    # alpha 1..5 by x in {0.5, 1, 2}, both kernels
    assert len(_checks("half-power-oracle", names=("s_alpha", "c_alpha"))) == 30
    # alpha 0..5 by u in {0.5, 1, 2, 10}, both kernels
    assert len(_checks("difference-equations")) == 48
    _announce(2, "orders 1..5 match the oracle (max(1e-12 rel, its estimate)); "
                 "difference equation holds to 1e-13 rel")


def test_criterion_3_interrelations_and_scaling():
    res = selfcheck.run(only=["interrelations", "scaling"])
    bad = [r for r in res if not r.passed]
    assert not bad, bad
    _announce(3, f"integration-by-parts pair and scaling law ({len(res)} checks)")


def test_criterion_4_two_radical_family():
    # tails at 5 values of c (purely relative 1e-8), heads at 3 c by 3 gamma,
    # transforms on a in {0.5, 1} by b in {1.5, 2, 4} by zeta in {0.5, 1, 2}
    assert len(_checks("two-radical-tails")) == 10
    assert len(_checks("two-radical-heads")) == 18
    assert len(_checks("two-radical-assembly")) == 36
    _announce(4, "Bessel tails and assembled transforms vs oracle (max(1e-12 rel, "
                 "its estimate)), hypergeometric heads (5e-15)")


def test_criterion_5_approximation_trends():
    gamma = 0.5
    cs = (5.0, 10.0, 20.0, 40.0)

    def trend(approx, series):
        errs = [abs(approx(c, gamma) / series(c, gamma) - 1.0) for c in cs]
        return errs, all(e2 <= e1 for e1, e2 in zip(errs, errs[1:]))

    _, ok = trend(tr.head_sin_approx, tr.head_sin_series)
    assert ok, "two-radical sine approximation must improve monotonically"
    _, ok = trend(rp.pole_head_sin_approx, rp.pole_head_sin_series)
    assert ok, "radical-pole sine approximation must improve monotonically"

    # printed two-radical cosine approximation fails; the erratum ships a
    # corrected default and keeps the verbatim form behind as_printed
    _, ok_printed = trend(lambda c, g: tr.head_cos_approx(c, g, as_printed=True),
                          tr.head_cos_series)
    assert not ok_printed
    entry = errata.find("TR-COS-APPROX")
    assert entry.corrected
    assert tr.head_cos_approx(10.0, gamma) != tr.head_cos_approx(10.0, gamma,
                                                                 as_printed=True)
    errs_corr, ok_corr = trend(tr.head_cos_approx, tr.head_cos_series)
    errs_printed, _ = trend(lambda c, g: tr.head_cos_approx(c, g, as_printed=True),
                            tr.head_cos_series)
    assert all(c < p for c, p in zip(errs_corr, errs_printed))
    if not ok_corr:
        assert not errata.find("TR-COS-APPROX-TREND").corrected

    # radical-pole cosine approximation is correct as printed but its
    # residual oscillates; the failed trend check is a registered erratum
    _, ok_pole_cos = trend(rp.pole_head_cos_approx, rp.pole_head_cos_series)
    if not ok_pole_cos:
        assert not errata.find("RP-COS-APPROX-TREND").corrected
    _announce(5, "sine approximations improve monotonically; both cosine "
                 "trend failures are registered errata (printed coefficient "
                 "corrected and shipped behind as-printed separation)")


def test_criterion_6_radical_pole_family():
    # a in {0.5, 1} by b in {1.5, 2, 4} by zeta in {0.5, 1, 2}, both kernels
    assert len(_checks("radical-pole-assembly")) == 36
    # oracle-arbitrated errata documented in the registry
    tail_entry = errata.find("RP-COS-TAIL")
    assert tail_entry.corrected and "sqrt(2 pi/c)" in tail_entry.printed
    head_entry = errata.find("RP-SIN-HEAD")
    assert not head_entry.corrected          # printed series verified correct
    assert close(rp.pole_tail_cos(1.0), oracle(QuadraticPhase(1.0, 1.0), Kernel.COS))
    assert not close(rp.pole_tail_cos(1.0, as_printed=True),
                     oracle(QuadraticPhase(1.0, 1.0), Kernel.COS))
    _announce(6, "assembled transforms vs oracle (max(1e-12 rel, its estimate)); "
                 "cosine-tail erratum and verified sine-series denominator documented")


def test_criterion_7_lommel_bridge():
    res = selfcheck.run(only=["lommel-recurrence", "lommel-three-way"])
    bad = [r for r in res if not r.passed]
    assert not bad, bad
    for x in (0.5, 1.0, 2.0):
        closed = lm.log_weighted_sin_integral(x)
        direct = oracle(LogHalfPower(x), Kernel.SIN)
        fd = lm.log_weighted_sin_integral_fd(x)
        assert abs(closed - direct) < 1e-5, x
        assert abs(closed - fd) < 1e-5, x
    _announce(7, "Lommel recurrence (1e-14), three-way route agreement (max(1e-12 rel, "
                 "the oracle's estimate)), "
                 "logarithmic integral vs oracle and finite differences (1e-5)")


def test_criterion_8_special_functions():
    res = selfcheck.run(only=["fresnel-derivatives", "gamma-recurrences",
                              "hyp2f1-transform"])
    bad = [r for r in res if not r.passed]
    assert not bad, bad
    from oscint import bessel_j0, hyp2f1
    assert abs(bessel_j0(2.404825557695773)) < 1e-9
    assert abs(hyp2f1(0.5, 0.5, 1.5, -1.0) - math.log(1 + math.sqrt(2))) < 1e-11
    assert abs(hyp2f1(1.0, 0.5, 1.5, -1.0) - math.pi / 4) < 1e-11
    _announce(8, "Fresnel derivative FD (1e-8 abs), gamma recurrences (2e-14), "
                 "2F1 known values (1e-11), first J0 zero (1e-9)")


def test_criterion_9_oracle_robustness():
    res = selfcheck.run(only=["oracle-robustness"])
    bad = [r for r in res if not r.passed]
    assert not bad, bad
    _announce(9, "halving internal tolerances moves every golden by less "
                 "than its reported error estimate")


def test_criterion_10_cli_selfcheck():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "oscint.cli", "selfcheck"],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    assert "all checks passed" in proc.stdout
    _announce(10, f"CLI selfcheck exits 0 in {elapsed:.1f}s (< 60s)")
