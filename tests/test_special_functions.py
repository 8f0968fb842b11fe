"""Special-function backends: frozen goldens and identity properties.

Golden values were generated with 25-digit arbitrary-precision
arithmetic (series/quadrature definitions evaluated independently of
the library) and frozen here.
"""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    ConvergenceError,
    DomainError,
    PoleError,
    SeriesControl,
    bessel_j0,
    bessel_y0,
    fresnel_c,
    fresnel_s,
    gamma_real,
    gen_ci,
    gen_si,
    hyp2f1,
    hyp2f2_half,
    integrate_finite,
    sin_transform,
    upper_incomplete_gamma,
)
from oscint import half_power as hp
from oscint import radical_pole as rp
from oscint import special_functions as sf
from oscint import two_radical as tr
from oscint.special_functions import EULER_GAMMA, _gauss_series

SQRT_PI = math.sqrt(math.pi)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- Fresnel

def test_fresnel_at_zero():
    assert fresnel_s(0.0) == 0.0
    assert fresnel_c(0.0) == 0.0


@pytest.mark.parametrize("z, want_s, want_c", [
    (0.8, 0.24934139305391778, 0.72284417189635612),
    (1.3, 0.68633328553465011, None),
    (2.4, None, 0.55496140585642813),
])
def test_fresnel_goldens(z, want_s, want_c):
    if want_s is not None:
        assert abs(fresnel_s(z) - want_s) < 1e-13
    if want_c is not None:
        assert abs(fresnel_c(z) - want_c) < 1e-13


def test_fresnel_against_finite_quadrature():
    # cross-module: the defining integral on [0, 0.8]
    got = integrate_finite(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, 0.8)
    assert abs(got.value - fresnel_s(0.8)) < 1e-12


def test_fresnel_c_limit_and_decay():
    assert abs(fresnel_c(10.0) - 0.5) < 0.04
    assert abs(fresnel_c(20.0) - 0.5) < abs(fresnel_c(10.0) - 0.5)


@given(st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_fresnel_odd_and_bounded(z):
    assert fresnel_s(-z) == -fresnel_s(z)
    assert fresnel_c(-z) == -fresnel_c(z)
    assert abs(fresnel_s(z)) < 0.9
    assert abs(fresnel_c(z)) < 0.9


# ---------------------------------------------------------------- Bessel

def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_first_zero_by_series_bisection():
    # locate the first zero of the plain ascending series by bisection,
    # then check the library value against the classical constant
    def series(z):
        q = 0.25 * z * z
        term, total = 1.0, 1.0
        for k in range(1, 60):
            term *= -q / (k * k)
            total += term
        return total

    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series(lo) * series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    z0 = 0.5 * (lo + hi)
    assert abs(z0 - 2.404825557695773) < 1e-9
    assert abs(bessel_j0(2.404825557695773)) < 1e-9


@pytest.mark.parametrize("z, want", [
    (1.0, 0.088256964215676958),
    (2.0, 0.51037567264974512),
    (5.0, -0.30851762524903378),
])
def test_y0_goldens(z, want):
    assert abs(bessel_y0(z) - want) < 1e-12


def test_y0_domain():
    with pytest.raises(DomainError):
        bessel_y0(0.0)
    with pytest.raises(DomainError):
        bessel_y0(-1.0)
    with pytest.raises(DomainError):
        bessel_j0(-0.1)


@pytest.mark.parametrize("z", [math.inf, math.nan])
@pytest.mark.parametrize("fn", [bessel_j0, bessel_y0])
def test_bessel_overflowed_argument_is_domain_error(fn, z):
    # past the series switch the Hankel branch would call math.cos(inf)
    with pytest.raises(DomainError, match="overflows double precision"):
        fn(z)


def test_transform_with_overflowed_bessel_argument_is_domain_error():
    # the two-radical tails take J0/Y0 at zeta (b - a) / 2, here inf
    with pytest.raises(DomainError, match="overflows double precision"):
        sin_transform(1e308, 1.5e308, 1e308)


def test_bessel_branch_consistency():
    # values must join smoothly across the series/asymptotic split at 14
    for z in (13.999999, 14.000001):
        assert abs(bessel_j0(z) - bessel_j0(14.0)) < 1e-6
        assert abs(bessel_y0(z) - bessel_y0(14.0)) < 1e-6


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    assert rel(gamma_real(0.5), SQRT_PI) < 1e-15
    assert rel(gamma_real(2.5), 0.75 * SQRT_PI) < 1e-14
    assert gamma_real(1.0) == 1.0


def test_gamma_poles():
    for x in (0.0, -1.0, -5.0):
        with pytest.raises(PoleError):
            gamma_real(x)


@given(st.floats(min_value=0.05, max_value=60.0))
@settings(max_examples=80, deadline=None)
def test_gamma_recurrence(x):
    assert rel(gamma_real(x + 1.0), x * gamma_real(x)) < 1e-13


# ------------------------------------------------- incomplete gamma

def test_incomplete_gamma_trivials():
    got = upper_incomplete_gamma(1.0, 1j)
    want = complex(math.cos(1.0), -math.sin(1.0))
    assert abs(got - want) < 1e-13
    # small positive real z approaches the complete function for a > 0
    assert abs(upper_incomplete_gamma(0.5, 1e-12) - SQRT_PI) < 3e-6


def test_incomplete_gamma_negative_half_golden():
    got = upper_incomplete_gamma(-0.5, 1j)
    want = complex(-0.53487236211877285, -0.27331291887479215)
    assert abs(got - want) < 1e-11 * abs(want)


def test_incomplete_gamma_domain():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(-1.0, 0.0)
    assert upper_incomplete_gamma(2.0, 0.0) == complex(1.0)


@pytest.mark.parametrize("a", [-1.5, -0.5, 0.5, 1.5])
@pytest.mark.parametrize("y", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_incomplete_gamma_recurrence_grid(a, y, sign):
    z = complex(0.0, sign * y)
    lhs = upper_incomplete_gamma(a + 1.0, z)
    rhs = a * upper_incomplete_gamma(a, z) + z ** a * _cexp(-z)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def _cexp(z):
    return complex(math.exp(z.real) * math.cos(z.imag),
                   math.exp(z.real) * math.sin(z.imag))


@given(st.floats(min_value=-2.5, max_value=2.5),
       st.floats(min_value=0.05, max_value=25.0))
@settings(max_examples=60, deadline=None)
def test_incomplete_gamma_conjugate_symmetry(a, y):
    z = complex(0.0, y)
    left = upper_incomplete_gamma(a, z.conjugate())
    right = upper_incomplete_gamma(a, z).conjugate()
    assert abs(left - right) <= 1e-10 * max(abs(left), 1e-30)


def test_incomplete_gamma_integer_descent():
    # integer a <= 0 goes through the exponential-integral route for small |z|
    got = upper_incomplete_gamma(-1.0, 0.25j)
    rec = (upper_incomplete_gamma(0.0, 0.25j) - _cexp(-0.25j) / 0.25j) / -1.0
    assert abs(got - rec) < 1e-12 * abs(got)


def _gamma_grid():
    """(a, z) on both half-axes of the imaginary axis: a in [-6, 1), u in
    [0.05, 50] log-uniform, plus both sides of the |z| = 3 switch."""
    rng = random.Random(20261018)
    pts = []
    for _ in range(360):
        a = rng.uniform(-6.0, 1.0)
        u = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        pts.append((a, complex(0.0, rng.choice((1.0, -1.0)) * u)))
    for a in (-5.3, -2.6, -0.45, 0.2, 0.9):
        for u in (2.99, 3.01):
            pts += [(a, complex(0.0, u)), (a, complex(0.0, -u))]
    return pts


def _gamma_errors(points):
    mpmath = pytest.importorskip("mpmath")
    errs = []
    with mpmath.workdps(30):
        for a, z in points:
            want = complex(mpmath.gammainc(a, z))
            errs.append(abs(upper_incomplete_gamma(a, z) - want) / abs(want))
    return sorted(errs)


def _near_negative_integer(a):
    return a < 0.5 and abs(a - round(a)) < 0.05


def test_incomplete_gamma_imaginary_axis_against_mpmath():
    grid = _gamma_grid()
    far = _gamma_errors([p for p in grid if not _near_negative_integer(p[0])])
    assert far[-1] <= 2e-13
    assert far[int(0.99 * len(far))] <= 5e-14
    near = _gamma_errors([p for p in grid if _near_negative_integer(p[0])]
                         + [(k + d, complex(0.0, s * u)) for k in (-4, -1, 0)
                            for d in (-0.03, -1e-9, 1e-9, 0.03) for u in (0.4, 1.5, 2.9)
                            for s in (1.0, -1.0) if k + d < 0.5])
    assert near[-1] <= 2e-13


def test_rgamma_taylor_table_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = [float(c) for c in mpmath.taylor(mpmath.rgamma, 0, 22)[2:]]
    assert len(sf._RGAMMA_TAYLOR) == len(want)
    for got, c in zip(reversed(sf._RGAMMA_TAYLOR), want):
        assert abs(got - c) <= 2e-16 * abs(c)


def test_backward_depth_covers_the_lentz_count():
    # Re z >= 0, |z| >= 3, -8 <= a <= 1: the modified-Lentz loop at a
    # 1e-16 tolerance must stop within the backward fraction's fixed depth
    for k in range(40):
        r = 3.0 * (1e4 / 3.0) ** (k / 39)
        depth = math.ceil(sf._CF_DEPTH_SCALE / r) + sf._CF_DEPTH_PAD
        lentz = SeriesControl(rel_tol=1e-16, max_terms=depth)
        for a in [j / 4 for j in range(-32, 5)]:
            for theta in (-0.5, -0.25, 0.0, 0.25, 0.5):
                z = cmath.rect(r, math.pi * theta)
                want = sf._legendre_cf(a, z, lentz)     # raises past the depth
                got = sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
                assert abs(got - want) <= 1e-14 * abs(want) + 1e-300, (a, z)  # e^-z may underflow


def test_backward_fraction_honours_max_terms():
    with pytest.raises(ConvergenceError):
        upper_incomplete_gamma(0.5, 5j, SeriesControl(max_terms=20))
    with pytest.raises(ConvergenceError):
        upper_incomplete_gamma(-0.5, 1j, SeriesControl(max_terms=1))


@pytest.mark.parametrize("a, z", [(200.0, 1j), (300.0, -1j), (200.0, 0.0)])
def test_incomplete_gamma_overflow_is_convergence_error(a, z):
    # Gamma(a) overflows the double range past a ~ 171.6
    with pytest.raises(ConvergenceError, match="non-finite"):
        upper_incomplete_gamma(a, z)


def test_incomplete_gamma_non_finite_is_domain_error():
    for a, z in ((math.nan, 1j), (0.5, complex(0.0, math.inf)), (math.inf, 2j)):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(a, z)


def test_no_lentz_below_the_switch_or_on_the_imaginary_axis(count_calls):
    counts = count_calls(sf, "_legendre_cf", "_legendre_cf_backward")
    for a in (-6.0, -5.5, -2.3, -1.0, -0.5, 0.0, 1.0 / 3.0, 2.0 / 3.0, 0.999):
        for u in (0.05, 0.7, 2.9, 3.0, 8.0, 60.0, 900.0):
            upper_incomplete_gamma(a, complex(0.0, u))
            upper_incomplete_gamma(a, complex(0.0, -u))
        for arg in (0.0, 0.5, 1.5, 2.5, 3.1):      # any direction below |z| = 3
            upper_incomplete_gamma(a, cmath.rect(2.5, arg))
    assert counts["_legendre_cf"] == 0
    assert counts["_legendre_cf_backward"] == 9 * 8
    # no verified depth: the left half-plane and orders outside [-8, 1]
    upper_incomplete_gamma(0.5, complex(-3.0, 4.0))
    upper_incomplete_gamma(2.5, 5j)
    upper_incomplete_gamma(-9.5, 5j)
    assert counts["_legendre_cf"] == 3


@pytest.mark.parametrize("u", [0.4, 2.0, 9.0])     # Fresnel argument below and above 1.6
def test_one_fresnel_branch_per_bracket(count_calls, u):
    sf._fresnel_pair.cache_clear()
    counts = count_calls(sf, "_fresnel_series", "_fresnel_tail")
    hp.fresnel_bracket(u, hp.PhasePattern.SIN_LIKE)
    assert sum(counts.values()) == 1


@pytest.mark.parametrize("c", [0.3, 9.0])
def test_one_fresnel_branch_per_pole_tail_and_head_approximation(count_calls, c):
    counts = count_calls(sf, "_fresnel_series", "_fresnel_tail")
    sf._fresnel_pair.cache_clear()
    rp._pole_tails(c)
    assert sum(counts.values()) == 1
    tr._head_approx(True, c, 0.7, 4.0)
    assert sum(counts.values()) == 2


def test_one_j0_series_per_two_radical_tail(count_calls):
    counts = count_calls(sf, "_j0_series")
    sf._j0_small.cache_clear()
    tr._tails(5.0)                      # J0/Y0 at 2.5, below the Hankel switch
    assert counts["_j0_series"] == 1


# ---------------------------------------------------------------- 2F1

def test_hyp2f1_at_zero():
    assert hyp2f1(0.3, 1.7, 2.2, 0.0) == 1.0


def test_hyp2f1_known_values():
    assert rel(hyp2f1(0.5, 0.5, 1.5, -1.0), math.log(1.0 + math.sqrt(2.0))) < 1e-11
    assert rel(hyp2f1(1.0, 0.5, 1.5, -1.0), 0.25 * math.pi) < 1e-11


def test_hyp2f1_pfaff_vs_direct():
    ctl = SeriesControl(1e-15, 4000)
    for (a, b, c) in [(0.5, 1.5, 2.5), (1.0, 0.5, 1.5), (0.5, 3.5, 4.5)]:
        direct = _gauss_series(a, b, c, -0.9, ctl)
        assert rel(hyp2f1(a, b, c, -0.9), direct) < 1e-11


def test_hyp2f1_domain():
    with pytest.raises(DomainError):
        hyp2f1(0.5, 0.5, 1.5, 0.25)
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.5, 0.0, -0.5)


# ---------------------------------------------------------------- 2F2

def test_hyp2f2_trivial_and_golden():
    assert hyp2f2_half(0.0) == complex(1.0)
    got = hyp2f2_half(1.0)
    want = complex(0.98050627021181737, 0.10777774684256268)
    assert abs(got - want) < 1e-12
    # real coefficients force conjugate symmetry
    assert abs(hyp2f2_half(-1.0) - got.conjugate()) < 1e-15


def test_hyp2f2_budget():
    with pytest.raises(ConvergenceError):
        hyp2f2_half(1.0, SeriesControl(rel_tol=1e-12, max_terms=2))


# ----------------------------------------------- generalized si / ci

def test_gen_si_dirichlet_limit():
    assert abs(gen_si(0.0, 1e-8) - 0.5 * math.pi) < 1e-7


def test_gen_si_ci_goldens():
    assert abs(gen_si(0.5, 1.0) - 0.63277753386873805) < 1e-9
    assert abs(gen_ci(0.5, 1.0) - (-0.55573433848504391)) < 1e-9


def test_gen_ci_against_classical_ci():
    # Ci(z) by its own log series; gen_ci(0, z) must be its negative
    z = 2.0
    total = 0.0
    term = 1.0
    for k in range(1, 40):
        term *= -z * z / ((2 * k - 1) * (2 * k))
        total += term / (2 * k)
    ci = EULER_GAMMA + math.log(z) + total
    assert abs(gen_ci(0.0, z) + ci) < 1e-9


def test_gen_si_domain():
    with pytest.raises(DomainError):
        gen_si(1.0, 1.0)
    with pytest.raises(DomainError):
        gen_ci(0.5, 0.0)


def test_gen_si_additivity():
    mid = integrate_finite(lambda t: math.sin(t) / math.sqrt(t), 1.0, 3.0).value
    assert abs(gen_si(0.5, 1.0) - (mid + gen_si(0.5, 3.0))) < 1e-9
