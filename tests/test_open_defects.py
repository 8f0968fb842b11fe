"""Open defects, silent, or raising where the value is a double: each case
asserts the right answer, which the library does not give yet, and names
the FOUND line of CHANGES.md that describes it.

Every case is a strict xfail on its assertion; a case that raises turns
the error into a failed assertion.  A change that mends a defect sees its
case XPASS, which fails the suite, so the mend also drops the marker and
turns the FOUND line into MENDED.
"""

import math

import mpmath
import pytest

from oscint import Kernel, gen_ci, gen_si, lommel, radical_pole, special_functions, two_radical
from oscint.errors import ConvergenceError, DomainError
from oscint.oracle import (
    HalfPower,
    IntegrandSpec,
    QuadraticPhase,
    TwoRadical,
    integrate_semi_infinite,
)

import mpref


def found(line):
    """Strict xfail on an assertion, for the CHANGES.md FOUND line ``line``."""
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=f"FOUND: {line}")


def returned(fn, *args):
    """``fn(*args)``, where an error it raises is a failed assertion."""
    try:
        return fn(*args)
    except (DomainError, ConvergenceError) as exc:
        raise AssertionError(f"{fn.__name__}{args} raised {exc!r}") from None


@found("the oracle's quadratic phase is silently wrong at small scale")
def test_quadratic_phase_cosine_at_a_tiny_scale_within_its_estimate():
    rep = integrate_semi_infinite(IntegrandSpec(QuadraticPhase(1e-20, 1.0), Kernel.COS))
    assert abs(rep.value - radical_pole.pole_tail_cos(1e-20)) <= rep.abs_err_est


@found("`lommel.si_ci_representation` (`--method series`) raises at small u")
def test_si_ci_representation_at_a_tiny_frequency():
    # zeta * int t/(t + 1)^3 dt = zeta/2; the (gen_si, gen_ci) pair's lobe sum
    # at z = 1e-100 is wrong by far more than its value, and says so
    got = returned(lommel.si_ci_representation, 1, 1, 1.0, 1e-100)
    assert abs(got - 5e-101) <= 1e-12 * 5e-101


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


# mended: the shifted pair from 0 rounds no lobe abscissa near z
def test_gen_si_at_1e4_agrees_with_mpmath():
    want = float(mpref.gen_trig(0.0, 1e4, 40).sin)
    assert abs(gen_si(0.0, 1e4) - want) <= 1e-12 * abs(want)


@found("the a = b two-radical cosine cancels like eps u")
def test_degenerate_two_radical_cosine_at_a_large_phase_agrees_with_mpmath():
    # a = b: the weight is 1/(t + a), and its cosine transform is g(u), u = zeta a
    want = float(mpref.pair(1, 1e4, 40).cos)
    assert abs(two_radical.cos_transform(1e4, 1e4, 1.0) - want) <= 1e-12 * abs(want)


@found("the a = b two-radical cosine is silently wrong at a tiny phase")
def test_degenerate_two_radical_cosine_at_a_tiny_phase_agrees_with_mpmath():
    # 81.28 for 82.32 at u = 1e-36; the pair's own estimate says 2.0e-2 of |ci + i si|,
    # which gen_si/gen_ci drop
    want = float(mpref.pair(1, 1e-36, 40).cos)
    assert abs(two_radical.cos_transform(1e-36, 1e-36, 1.0) - want) <= 1e-12 * abs(want)


@found("`gen_si`/`gen_ci` at (alpha, z) = (0.5, 1e-20) miss a term the size of 2 sqrt(z)")
def test_gen_trig_pair_at_a_tiny_argument_agrees_with_mpmath():
    # 1.13e-10 of |ci + i si| off, against an estimate of 6.2e-15 of it
    si, ci = mpref.gen_trig(0.5, 1e-20, 40)
    scale = float(mpmath.hypot(si, ci))
    assert abs(gen_si(0.5, 1e-20) - float(si)) <= 1e-13 * scale
    assert abs(gen_ci(0.5, 1e-20) - float(ci)) <= 1e-13 * scale


@found("the oracle's cosine of HalfPower(alpha, 0) near alpha = 1/2 is far "
       "outside its estimate")
@pytest.mark.parametrize("alpha", [0.486, 0.489, 0.491, 0.492])
def test_half_power_cosine_at_the_origin_within_its_estimate(alpha):
    # int_0^inf cos(t) t^-p dt = Gamma(1 - p) sin(pi p / 2)
    p = alpha + 0.5
    rep = integrate_semi_infinite(IntegrandSpec(HalfPower(alpha, 0.0), Kernel.COS))
    assert abs(rep.value - math.gamma(1.0 - p) * math.sin(0.5 * math.pi * p)) <= rep.abs_err_est


@found("the two-radical transforms lose up to 7e-11 where h = c/2 sits just below "
       "the Bessel switch")
def test_two_radical_cosine_just_below_the_bessel_switch_agrees_with_mpmath():
    # c = 27.5: J0/Y0 at h = 13.75, on the ascending series (Y0(14) is 6.2e-12 off)
    want = float(mpref.contour(TwoRadical(1.0, 28.5), 1.0, 40).cos)
    assert abs(two_radical.cos_transform(1.0, 28.5, 1.0) - want) <= 1e-12 * abs(want)


# mended: a bracket that cancels past rel_tol raises
def test_pre_reduction_cosine_at_a_large_shift_agrees_with_mpmath():
    # the cosine transform of (t + x)^-q, q = 1/9: Re e^-ix i^(1-q) Gamma(1 - q, -ix);
    # a mend may instead raise on the cancellation
    x, q = 7869.632401330979, 1.0 / 9
    want = float(mpref.pair(q, x, 40).cos)
    try:
        got = lommel.pre_reduction_values(0, 9, x)[(Kernel.COS, False)]
    except ConvergenceError:
        return
    assert abs(got - want) <= 1e-12 * abs(want)


@found("`lommel.lommel_s_half` raises `DomainError` where √z·S overflows but S does not")
def test_lommel_s_half_where_only_root_z_times_s_overflows_agrees_with_mpmath():
    with mpmath.workdps(60):
        want = float(mpmath.lommels2(1.6, 0.5, 1e300))       # 1.0e180
    got = returned(lommel.lommel_s_half, 1.6, 1e300)
    assert abs(got - want) <= 1e-13 * abs(want)


@found("`special_functions.upper_incomplete_gamma` raises `ConvergenceError` near the "
       "negative real axis where the value is an ordinary double")
def test_upper_incomplete_gamma_next_to_the_negative_axis_agrees_with_mpmath():
    a, z = -22.854249878645668, complex(-17.373036094817305, -0.11668237745467006)
    want = complex(mpref.gamma(a, z, 40))                   # -3.3347e-22 - 3.8100e-23i
    got = returned(special_functions.upper_incomplete_gamma, a, z)
    assert abs(got - want) <= 1e-13 * abs(want)
