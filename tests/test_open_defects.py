"""Open silent defects: each case asserts the right answer, which the
library does not give yet, and names the FOUND line of CHANGES.md that
describes it.

Every case is a strict xfail on its assertion.  A change that mends a
defect sees its case XPASS, which fails the suite, so the mend also
drops the marker and turns the FOUND line into MENDED.
"""

import math

import mpmath
import pytest

from oscint import ConvergenceError, Kernel, gen_si, hyp2f2_half, lommel, radical_pole
from oscint.oracle import (
    HalfPower,
    IntegrandSpec,
    QuadraticPhase,
    TwoRadical,
    integrate_semi_infinite,
)


def found(line):
    """Strict xfail on an assertion, for the CHANGES.md FOUND line ``line``."""
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=f"FOUND: {line}")


@found("`special_functions.hyp2f2_half` returns silently wrong values once "
       "its direct series cancels")
def test_hyp2f2_half_raises_or_agrees_with_mpmath_at_60():
    try:
        value = hyp2f2_half(60.0)
    except ConvergenceError:
        return
    with mpmath.workdps(40):
        want = complex(mpmath.hyp2f2(0.5, 0.5, 1.5, 1.5, 60j))
    assert abs(value - want) <= 1e-12 * abs(want)


@found("the oracle's quadratic phase is silently wrong at small scale")
def test_quadratic_phase_cosine_at_a_tiny_scale_within_its_estimate():
    rep = integrate_semi_infinite(IntegrandSpec(QuadraticPhase(1e-20, 1.0), Kernel.COS))
    assert abs(rep.value - radical_pole.pole_tail_cos(1e-20)) <= rep.abs_err_est


@found("`lommel.si_ci_representation` (`--method series`) is silently wrong at small u")
def test_si_ci_representation_at_a_tiny_frequency():
    # zeta * int t/(t + 1)^3 dt = zeta/2
    assert abs(lommel.si_ci_representation(1, 1, 1.0, 1e-100) - 5e-101) <= 1e-12 * 5e-101


@found("`--method series` (tail − head with quadrature heads) misses its own "
       "error estimate on radical-pole cosines past the phase guard")
def test_quadrature_heads_agree_with_the_contour_past_the_phase_guard():
    heads = radical_pole.pole_cos_transform(80, 81.5, 0.5, heads_by_quadrature=True)
    contour = radical_pole.pole_cos_transform(80, 81.5, 0.5)
    assert abs(heads - contour) <= 1e-12 * abs(contour)


@found("the oracle silently returns 0.0 for the two-radical sine at a tiny frequency")
def test_oracle_two_radical_sine_at_a_tiny_frequency_within_its_estimate():
    rep = integrate_semi_infinite(IntegrandSpec(TwoRadical(1.0, 2.0), Kernel.SIN, 1e-300))
    assert abs(rep.value - 0.5 * math.pi) <= rep.abs_err_est


@found("`special_functions.gen_si`/`gen_ci` lose accuracy as z grows, silently")
def test_gen_si_at_1e4_agrees_with_mpmath():
    with mpmath.workdps(40):
        want = float(mpmath.pi / 2 - mpmath.si(10000))
    assert abs(gen_si(0.0, 1e4) - want) <= 1e-12 * abs(want)


@found("the oracle's cosine of HalfPower(alpha, 0) near alpha = 1/2 is far "
       "outside its estimate")
@pytest.mark.parametrize("alpha", [0.486, 0.489, 0.491, 0.492])
def test_half_power_cosine_at_the_origin_within_its_estimate(alpha):
    # int_0^inf cos(t) t^-p dt = Gamma(1 - p) sin(pi p / 2)
    p = alpha + 0.5
    rep = integrate_semi_infinite(IntegrandSpec(HalfPower(alpha, 0.0), Kernel.COS))
    assert abs(rep.value - math.gamma(1.0 - p) * math.sin(0.5 * math.pi * p)) <= rep.abs_err_est
