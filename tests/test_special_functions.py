"""Special-function backends: frozen goldens and identity properties.

Golden values were generated with 25-digit arbitrary-precision
arithmetic (series/quadrature definitions evaluated independently of
the library) and frozen here.
"""

import cmath
import functools
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    ConvergenceError,
    DomainError,
    Kernel,
    PoleError,
    SeriesControl,
    UnsupportedError,
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
    kernel_breakpoints,
    sin_transform,
    upper_incomplete_gamma,
)
from oscint import errata, oracle
from oscint import half_power as hp
from oscint import lommel as lm
from oscint import radical_pole as rp
from oscint import special_functions as sf
from oscint import two_radical as tr
from oscint.special_functions import EULER_GAMMA, _gauss_series

import mpref
from mpref import rel

SQRT_PI = math.sqrt(math.pi)


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


def test_fresnel_past_the_overflow_of_the_phase():
    # above |z| = 1.07e154, pi z^2 / 2 is inf; S and C are 1/2 to within
    # 1/(pi z) < 1e-154 there, so 1/2 is the correctly rounded value
    assert math.isinf(0.5 * math.pi * 1.4e154 * 1.4e154)
    for z in (1.4e154, 1e300):
        assert (fresnel_s(z), fresnel_c(z)) == (0.5, 0.5)
        assert (fresnel_s(-z), fresnel_c(-z)) == (-0.5, -0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            fresnel_s(bad)


def test_fresnel_is_one_half_where_that_is_correctly_rounded(count_calls):
    # past 2^55/pi = 1.15e16, |S - 1/2| and |C - 1/2| < 1/(pi z) < 2^-55, half
    # an ulp below 1/2; the fraction returned 0.5000000000000001 there
    for z in (1.2e16, 1e100, 1e154):
        assert (fresnel_s(z), fresnel_c(z)) == (0.5, 0.5)
        assert (fresnel_s(-z), fresnel_c(-z)) == (-0.5, -0.5)
    counts = count_calls(sf, "_legendre_cf_backward")
    fresnel_c(1.1e16)           # below the threshold the fraction still runs
    assert counts["_legendre_cf_backward"] == 1


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


@pytest.mark.parametrize("z, message", [(math.inf, "overflows double precision"),
                                        (math.nan, "^Bessel argument is not finite: nan$")],
                         ids=["inf", "nan"])
@pytest.mark.parametrize("fn", [bessel_j0, bessel_y0])
def test_bessel_overflowed_argument_is_domain_error(fn, z, message):
    # past the series switch the Hankel branch would call math.cos(inf);
    # a NaN is named as not finite, not as an overflow
    with pytest.raises(DomainError, match=message):
        fn(z)


@pytest.mark.parametrize("call, message", [
    (lambda: fresnel_s(math.nan), "Fresnel argument is not finite: nan"),
    (lambda: lm.lommel_s_half(0.0, math.nan), "Gamma form argument is not finite: nan"),
    (lambda: lm.lommel_s_half(5.0, math.nan), "Gamma form argument is not finite: nan"),
], ids=["fresnel_s", "lommel_s_half", "lommel_s_half-continued"])
def test_nan_argument_is_not_reported_as_an_overflow(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_transform_with_overflowed_bessel_argument_is_domain_error():
    # the two-radical tails take J0/Y0 at zeta (b - a) / 2, here inf
    with pytest.raises(DomainError, match="overflows double precision"):
        sin_transform(1e308, 1.5e308, 1e308)


def _j0_series(z):
    q = 0.25 * z * z
    term, total = 1.0, 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


def _y0_series(z):
    q = 0.25 * z * z
    term, hk, total, sign = 1.0, 0.0, 0.0, 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        hk += 1.0 / k
        piece = sign * hk * term
        total += piece
        sign = -sign
        if abs(piece) < 1e-17 * abs(total) + 1e-300:
            break
    return (2.0 / math.pi) * ((math.log(0.5 * z) + EULER_GAMMA) * _j0_series(z) + total)


def test_bessel_pair_is_bitwise_the_two_series():
    # one loop sums J0 and Y0 until both stop; each keeps the bits of a
    # series of its own, stopped at its own test; zeros of Y0 and J0 included
    rng = random.Random(20261018)
    zs = [rng.uniform(1e-6, 14.0) for _ in range(3000)]
    zs += [10.0 ** rng.uniform(-310.0, 0.0) for _ in range(500)]
    zs += [0.8935769662791675, 2.404825557695773, 3.957678419314858, 5.520078110286311, 14.0]
    for z in zs:
        assert bessel_j0(z).hex() == _j0_series(z).hex(), z
        assert bessel_y0(z).hex() == _y0_series(z).hex(), z


@pytest.mark.parametrize("z, j0, y0", [
    (20.0, "0x1.561106f7bed66p-3", "0x1.00936d2b2bedep-4"),
    (123.456, "-0x1.22f06b31ea753p-4", "-0x1.59c329332f78fp-7"),
])
def test_hankel_branch_keeps_its_bits(z, j0, y0):
    # one Hankel pair for both functions: the bits of the separate forms
    sf._bessel_pair.cache_clear()
    assert (bessel_j0(z).hex(), bessel_y0(z).hex()) == (j0, y0)


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


def test_incomplete_gamma_conjugate_symmetry_is_bitwise_on_every_route(count_calls):
    # lommel_s_half takes the real part of one Gamma product on this symmetry,
    # at exact points of the imaginary axis; the points with Re z < 0
    # (|arg z| up to 3 pi/4) are Lentz's route
    counts = count_calls(sf, "_gamma_series", "_legendre_cf_backward", "_legendre_cf")
    rng = random.Random(20261018)
    axis = [(rng.uniform(-20.0, 6.0), complex(0.0, 10.0 ** rng.uniform(-2.0, 3.0)))
            for _ in range(1500)]
    rng = random.Random(20261020)
    west = [(rng.uniform(-20.0, 6.0),
             cmath.rect(10.0 ** rng.uniform(-2.0, 3.0), math.pi * (0.5 + rng.uniform(0.0, 0.25))))
            for _ in range(600)]
    for a, z in axis + west:
        left = upper_incomplete_gamma(a, z.conjugate())
        right = upper_incomplete_gamma(a, z).conjugate()
        assert (left.real.hex(), left.imag.hex()) == (right.real.hex(), right.imag.hex()), (a, z)
    assert min(counts.values()) > 100, counts


def test_incomplete_gamma_order_lift_counts_against_max_terms():
    # a = -499.5 lifts by 500 steps, a = -500.5 by 501: one over the default cap
    assert upper_incomplete_gamma(-499.5, 1j) == \
        upper_incomplete_gamma(-499.5, 1j, SeriesControl(max_terms=501))
    with pytest.raises(ConvergenceError, match="501 recurrence steps"):
        upper_incomplete_gamma(-500.5, 1j)
    got = upper_incomplete_gamma(-500.5, 1j, SeriesControl(max_terms=501))
    want = complex(mpref.gamma(-500.5, 1j, 40))
    assert abs(got - want) <= 1e-14 * abs(want)


def test_small_order_series_at_a_tiny_argument_against_mpmath():
    # the lift's z^b (b in (0, 1/2]) once came from expm1(b log z) + 1, which
    # drops it where |z|^b < 1e-16 (Gamma(-0.5, 1e-40j) read -2 sqrt(pi) for
    # 1.41e20 (1 - i)), and a subnormal z stalled the stop test at 0 < 0.  The
    # error left is z^b = exp(b log z) itself, about eps |log z|; where the
    # value leaves the double range the route raises
    mp = pytest.importorskip("mpmath")
    orders = [0.5 - j / 2 for j in range(19)] + [-7.77, -2.0001, -0.999, -1e-9, 1e-9, 1.0 / 3.0]
    for a in orders:
        for r in [5e-324, 1e-310, 1e-200, 1e-60, 1e-40, 1e-20, 1e-8, 1e-3]:
            want = mpref.gamma(a, complex(0.0, r), 30)
            for z, w in ((complex(0.0, r), want), (complex(0.0, -r), mp.conj(want))):
                if abs(w) > 1.7e308:
                    with pytest.raises(ConvergenceError, match="non-finite"):
                        upper_incomplete_gamma(a, z)
                    continue
                err = abs(upper_incomplete_gamma(a, z) - complex(w)) / abs(complex(w))
                assert err <= 2e-16 * (1.0 + abs(math.log(r))), (a, z, err)
    assert abs(upper_incomplete_gamma(0.25, 1e-310j) - math.gamma(0.25)) <= 1e-15 * math.gamma(0.25)


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
    errs = []
    for a, z in points:
        want = complex(mpref.gamma(a, z, 30))
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
    # DLMF 5.7.2 at 40 digits: c_1 = 1, c_2 = gamma and
    # (k-1) c_k = gamma c_(k-1) - zeta(2) c_(k-2) + ... + (-1)^k zeta(k-1) c_1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = [None, mpmath.mpf(1), +mpmath.euler]
        for k in range(3, 23):
            zeta_sum = sum((-1) ** j * mpmath.zeta(j) * c[k - j] for j in range(2, k))
            c.append((mpmath.euler * c[k - 1] - zeta_sum) / (k - 1))
        want = [float(ck) for ck in c[2:]]
    assert len(sf._RGAMMA_TAYLOR) == len(want)
    for got, c in zip(reversed(sf._RGAMMA_TAYLOR), want):
        assert abs(got - c) <= 2e-16 * abs(c)


def test_backward_depth_covers_the_lentz_count(monkeypatch):
    # Re z >= 0, |z| >= max(3, a + 1): the backward fraction, at its one depth, must
    # agree with the modified-Lentz loop at a 1e-16 tolerance (delta == 1 exactly),
    # uncapped, to 1e-14 in every direction.  Every quarter order in [-8, 1], where
    # the need is largest at a <= 1, then orders down to -200 and log-spaced to -1000
    # (the need falls as a falls: at |z| = 3, 60 steps at a = -8.5, 13 at -100.5), and
    # orders above 1 to 171.5
    monkeypatch.setattr(sf, "_LENTZ_TOL", 1e-16)
    orders = ([j / 4 for j in range(-32, 5)] + [-8.5, -9.5, -10.5]
              + [-8.0 - 192.0 * (k / 24) ** 2 - 0.3 * (k % 3) for k in range(1, 25)]
              + [-(10.0 ** (2.3 + 0.7 * k / 4)) for k in range(5)]
              + [1.25, 1.5, 2.0, 3.3, 7.75, 15.5, 40.1, 99.9, 150.5, 171.5])
    for k in range(40):
        r = 3.0 * (1e4 / 3.0) ** (k / 39)
        for a in orders:
            if r < a + 1.0:
                continue
            for theta in (-0.5, -0.25, 0.0, 0.25, 0.5):
                z = cmath.rect(r, math.pi * theta)
                if a * math.log(r) - z.real > 700.0:       # z^a e^-z past the double range
                    continue
                want = sf._legendre_cf(a, z, sf.DEFAULT_CONTROL)
                got = sf._zpow_exp(a, z) / sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
                assert abs(got - want) <= 1e-14 * abs(want) + 1e-300, (a, z)  # e^-z may underflow


def test_axis_depth_covers_the_truncation_need(monkeypatch):
    # on the imaginary axis the depth follows the order: the need at 1.1e-16
    # peaks where u is near -a (71 steps at a = -3.5, u = 3; 9 at a = -100.5,
    # u = 100).  Against the same fraction 60 steps deeper, at every quarter
    # order in [-11, 1], then down to -171.5, u log-spaced from 3 to 1e4 and
    # dense around -a; the orders are dyadic, so both sums start from the
    # same exact b_n - 2k and differ only by truncation and an ulp of rounding.
    # (ceil(190/u^0.8) + 3, which ignores the order, reads 5.4e-15 at a = -155.5,
    # u = 179; this rule with one step less pad, 6e-15 at a = -8.25, u = 291.)
    # Orders above 1 from u = max(3, a + 1), and just past the switch
    orders = ([1.0 - j / 4 for j in range(49)] + [-12.5 - 2.0 * k for k in range(14)]
              + [-40.5, -55.5, -70.5, -85.0, -100.5, -120.5, -140.5, -155.5, -171.5]
              + [1.25, 1.5, 2.5, 5.75, 12.5, 40.5, 100.5, 170.5])
    points = []
    for a in orders:
        us = [u for u in (3.0 * (1e4 / 3.0) ** (k / 39) for k in range(40)) if u >= a + 1.0]
        us += [-a * f for f in (0.3, 0.5, 0.7, 0.85, 1.0, 1.15, 1.4, 2.0, 3.0) if -a * f >= 3.0]
        us += [(a + 1.0) * f for f in (1.0, 1.02, 1.1) if a > 2.0]
        points += [(a, complex(0.0, s * u)) for u in us for s in (1.0, -1.0)]
    got = [sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL) for a, z in points]
    k, slope, rise, pad = sf._CF_DEPTH
    monkeypatch.setattr(sf, "_CF_DEPTH", (k, slope, rise, pad + 60))
    for (a, z), d in zip(points, got):
        deep = sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
        assert abs(d - deep) <= 2.5e-16 * abs(deep), (a, z)


def test_backward_fraction_at_non_dyadic_orders_against_mpmath():
    # the last denominator b_0 = z + 1 - a is formed afresh: carried down from
    # b_n = z + 2n + 1 - a by exact steps of 2 it kept b_n's rounding, up to
    # ulp(2n + 1 - a)/2 in D, 3.7e-15 relative on this box.  D = z^a e^-z / Gamma(a, z)
    rng = random.Random("backward-fraction-start")
    for _ in range(300):
        a, u = rng.uniform(-11.0, 1.0), rng.uniform(3.0, 6.0)
        z = complex(0.0, -u if rng.random() < 0.5 else u)
        got = sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
        want = mpref.fraction(a, z, 30)
        assert float(abs(got - want) / abs(want)) <= 5e-16, (a, z)


def test_backward_fraction_above_order_one_against_mpmath():
    # a in (1, 171.5], Re z >= 0, |z| from the switch max(3, a + 1) to 1e3 times it,
    # half of the points within 1.1 times it and a third on the imaginary axis.  The
    # need at 1.1e-16 peaks by the real axis at |z| = a + 1: 47 steps at a = 170, where
    # the depth's term in a - 1 gives 53 (36 (a - 1) gives 45 and reads 7e-15 here).
    # D = z^a e^-z / Gamma(a, z), the order formed from the float
    rng = random.Random("backward-fraction-above-order-one")
    for k in range(400):
        a = 1.0 + 170.5 * rng.random()
        r = max(3.0, a + 1.0) * (1.0 + 0.1 * rng.random() if k % 2 else 1e3 ** rng.random())
        theta = 0.5 * math.pi * (rng.uniform(-1.0, 1.0) ** 3 if k % 3 else rng.choice((1.0, -1.0)))
        z = cmath.rect(r, theta) if k % 3 else complex(0.0, math.copysign(r, theta))
        got = sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
        want = mpref.fraction(a, z, 30)
        assert float(abs(got - want) / abs(want)) <= 1e-15, (a, z)


def test_order_derivative_of_the_backward_fraction_against_mpmath():
    # (D, dD/da) from one loop at the plain loop's depth: its D is bitwise the plain
    # loop's, and dD/da within 1e-14 of 40-digit mp.diff of D = z^a e^-z / Gamma(a, z)
    for a, z in [(0.5, -3j), (0.5, -20j), (0.5, 3e3j), (0.5, -1e5j), (-2.5, 4j),
                 (-10.33, -8j), (1.0, 5 - 1j), (0.2, 3 + 4j)]:
        d, dd = sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL, order_derivative=True)
        assert d == sf._legendre_cf_backward(a, z, sf.DEFAULT_CONTROL)
        want = complex(mpref.fraction(a, z, 40, derivative=True))
        assert abs(dd - want) <= 1e-14 * abs(want), (a, z)


@pytest.mark.parametrize("z, d", [
    (-3j, "0x1.bd30d073c39afp-2 -0x1.8d993c57fe6f1p+1"),
    (-4.2j, "0x1.d45c23f2d4060p-2 -0x1.127842a5da16bp+2"),
    (-7.5j, "0x1.edd6f1c914b25p-2 -0x1.e3c348bc65f10p+2"),
    (-40j, "0x1.ff3567fb878c0p-2 -0x1.401974583b0f2p+5"),
    (-1e4j, "0x1.ffffff29406dap-2 -0x1.3880001a36e2cp+13"),
    (10 - 1j, "0x1.4eb4e87d0cfd4p+3 -0x1.00daf1443fbfbp+0"),
    (3 + 4j, "0x1.b88c73b574782p+1 0x1.030430614e077p+2")])
def test_plain_backward_fraction_at_a_half_keeps_its_bits(z, d):
    # the order-derivative path is a loop of its own: the plain loop, which the
    # Fresnel tails and every (t+u)^-1/2 sine from u = 3 up sum at a = 1/2, keeps
    # the bits it had before that path existed
    got = sf._legendre_cf_backward(0.5, z, sf.DEFAULT_CONTROL)
    assert f"{got.real.hex()} {got.imag.hex()}" == d


@pytest.mark.parametrize("a, u", [(-8.5, 5.0), (-10.33, 8.0), (-12.5, 4.0), (-15.5, 10.0),
                                  (-40.5, 3.5), (2.5, 5.0), (5.5, 30.0)])
def test_continued_fraction_outside_orders_minus_eight_to_one_against_mpmath(a, u):
    # orders below -8 and above 1 on the axis, by the backward fraction at its
    # fitted depth, not to the default rel_tol
    assert _gamma_errors([(a, complex(0.0, u)), (a, complex(0.0, -u))])[-1] <= 5e-14


def test_lentz_fraction_honours_max_terms():
    with pytest.raises(ConvergenceError, match="stalled at a=2.5"):
        upper_incomplete_gamma(2.5, complex(-4.0, 3.0), SeriesControl(max_terms=5))


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


def test_incomplete_gamma_off_the_axis_where_a_factor_leaves_the_double_range():
    # z^a e^-z as the product of its two factors underflowed to 0 where e^-Re z
    # did (the first point) and overflowed where it or |z|^a did; every value
    # returned within 1e-12 of 30-digit mpmath, and a route that cannot
    # finish (Lentz near the negative axis) raises ConvergenceError
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261019)
    points = [(57.71, complex(800.156, -124.96))]
    while len(points) < 300:
        a = rng.uniform(-60.0, 60.0)
        z = cmath.rect(math.exp(rng.uniform(0.0, math.log(3000.0))), rng.uniform(-math.pi, math.pi))
        points.append((a, z))
    returned = 0
    with mpmath.workdps(30):
        for a, z in points:
            want = mpref.gamma(a, z, 30)
            if not 1e-290 <= abs(want) <= 1e290:
                continue
            try:
                got = upper_incomplete_gamma(a, z)
            except ConvergenceError:
                assert (a, z) != points[0]
                continue
            returned += 1
            assert abs(mpmath.mpc(got) - want) <= 1e-12 * abs(want), (a, z)
    assert returned > 150


def test_incomplete_gamma_where_z_to_the_a_overflows_but_the_value_does_not():
    # |z|^a = 10^309.7 leaves the double range; Gamma(a, z) is about 1.1e307
    a, z = 129.16134356228432, -248.9906271189122j
    want = complex(mpref.gamma(a, z, 60))
    assert abs(upper_incomplete_gamma(a, z) - want) <= 1e-13 * abs(want)


def test_incomplete_gamma_non_finite_is_domain_error():
    for a, z in ((math.nan, 1j), (0.5, complex(0.0, math.inf)), (math.inf, 2j)):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(a, z)


NAN, INF = math.nan, math.inf
# L0/L1 calls whose non-finite argument once escaped as a bare ValueError,
# OverflowError, a stalled series or a returned NaN
NON_FINITE_CALLS = {
    "fresnel_s(nan)": lambda: fresnel_s(NAN),
    "fresnel_s(-inf)": lambda: fresnel_s(-INF),
    "fresnel_c(inf)": lambda: fresnel_c(INF),
    "fresnel_bracket(nan)": lambda: hp.fresnel_bracket(NAN, hp.PhasePattern.SIN_LIKE),
    "fresnel_bracket(-inf)": lambda: hp.fresnel_bracket(-INF, hp.PhasePattern.COS_LIKE),
    "pole_tail_sin(nan)": lambda: rp.pole_tail_sin(NAN),
    "pole_tail_cos(inf)": lambda: rp.pole_tail_cos(INF),
    "gen_si(0, nan)": lambda: gen_si(0.0, NAN),
    "gen_ci(0, inf)": lambda: gen_ci(0.0, INF),
    "gen_si(nan, 1)": lambda: gen_si(NAN, 1.0),
    "gen_ci(-inf, 1)": lambda: gen_ci(-INF, 1.0),
    "kernel_breakpoints(zeta=nan)": lambda: next(kernel_breakpoints(Kernel.SIN, NAN)),
    "kernel_breakpoints(start=inf)": lambda: next(kernel_breakpoints(Kernel.COS, 1.0, INF)),
    "integrate_finite(hi=inf)": lambda: integrate_finite(math.sin, 0.0, INF),
    "integrate_finite(lo=nan)": lambda: integrate_finite(math.sin, NAN, 1.0),
    "gamma_real(nan)": lambda: gamma_real(NAN),
    "gamma_real(inf)": lambda: gamma_real(INF),
    "gamma_real(-inf)": lambda: gamma_real(-INF),
    "hyp2f1(a=nan)": lambda: hyp2f1(NAN, 1.0, 1.5, -0.3),
    "hyp2f1(b=-inf, Pfaff)": lambda: hyp2f1(1.0, -INF, 1.5, -0.8),
    "hyp2f1(c=inf)": lambda: hyp2f1(1.0, 1.0, INF, -0.3),
    "hyp2f1(c=-inf)": lambda: hyp2f1(1.0, 1.0, -INF, -0.3),
    "hyp2f1(z=nan)": lambda: hyp2f1(1.0, 1.0, 1.5, NAN),
    "hyp2f1(z=-inf)": lambda: hyp2f1(1.0, 1.0, 1.5, -INF),
    "hyp2f2_half(nan)": lambda: hyp2f2_half(NAN),
    "hyp2f2_half(inf)": lambda: hyp2f2_half(INF),
    "head_sin_series(inf, 0.5)": lambda: tr.head_sin_series(INF, 0.5),
    "pole_head_cos_series(1, inf)": lambda: rp.pole_head_cos_series(1.0, INF),
    "head_sin_approx(inf, 0.5)": lambda: tr.head_sin_approx(INF, 0.5),
    "pole_head_cos_approx(inf, 0.5)": lambda: rp.pole_head_cos_approx(INF, 0.5),
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_argument_is_domain_error(call):
    with pytest.raises(DomainError):
        NON_FINITE_CALLS[call]()


# finite arguments whose values or lobes leave the double range, which
# once escaped as a bare OverflowError or ZeroDivisionError
OUT_OF_RANGE_CALLS = {
    "gamma_real(200)": lambda: gamma_real(200.0),
    "kernel_breakpoints(start=1e17)": lambda: next(kernel_breakpoints(Kernel.SIN, 1.0, 1e17)),
    "gen_si(0, 1e17)": lambda: gen_si(0.0, 1e17),
    "gen_ci(0.5, 1e300)": lambda: gen_ci(0.5, 1e300),
    "sin_transform(a=b, zeta=1e150)": lambda: sin_transform(1e-30, 1e-30, 1e150),
    "s_alpha(5, x=1e-300)": lambda: hp.s_alpha(5, 1e-300),
    "c_alpha(5, u underflows)": lambda: hp.c_alpha(5, 1e-300, 1e-300),
    "s_alpha(5, zeta=1e300)": lambda: hp.s_alpha(5, 2.0, 1e300),
    "rational_value(0)": lambda: hp.family_coefficients(5).rational_value(0.0),
    "sin_exponent_transform(3, zeta=1e300)": lambda: lm.sin_exponent_transform(3.0, 1e-300, 1e300),
    "si_ci_representation(zeta=1e300)": lambda: lm.si_ci_representation(1, 1, 1e-300, 1e300),
}


@pytest.mark.parametrize("call", OUT_OF_RANGE_CALLS)
def test_value_past_double_range_is_domain_error(call):
    with pytest.raises(DomainError, match="double precision"):
        OUT_OF_RANGE_CALLS[call]()


# parameter rules, each with its exception class and message, exactly:
# the two radical records share one base, which keeps each record's name
RULE_CALLS = {
    "family_coefficients(-1)": (DomainError, "alpha must be a nonnegative integer, got -1",
                                lambda: hp.family_coefficients(-1)),
    "family_coefficients(1.5)": (DomainError, "alpha must be a nonnegative integer, got 1.5",
                                 lambda: hp.family_coefficients(1.5)),
    # non-finite input: once a ValueError, an OverflowError or a record holding NaN
    "family_coefficients(nan)": (DomainError, "family_coefficients alpha must be finite, got nan",
                                 lambda: hp.family_coefficients(NAN)),
    "family_coefficients(inf)": (DomainError, "family_coefficients alpha must be finite, got inf",
                                 lambda: hp.family_coefficients(INF)),
    "HalfPowerParams(alpha=1.5)": (DomainError, "alpha must be a nonnegative integer, got 1.5",
                                   lambda: hp.HalfPowerParams(1.0, 1.0, 1.5)),
    "LommelOrder(mu=nan)": (DomainError, "LommelOrder mu must be finite, got nan",
                            lambda: lm.LommelOrder(NAN, 1.0)),
    "LommelOrder(alpha=nan)": (DomainError, "LommelOrder exponent_alpha must be finite, got nan",
                               lambda: lm.LommelOrder(0.5, NAN)),
    "lommel_s_half(mu=inf)": (DomainError, "lommel_s_half mu must be finite, got inf",
                              lambda: lm.lommel_s_half(INF, 1.0)),
    "lommel_s_half(mu=-inf)": (DomainError, "lommel_s_half mu must be finite, got -inf",
                               lambda: lm.lommel_s_half(-INF, 1.0)),
    "log_weighted_sin_integral(nan)": (
        DomainError, "log_weighted_sin_integral x must be finite, got nan",
        lambda: lm.log_weighted_sin_integral(NAN)),
    "log_weighted_sin_integral(-1)": (DomainError, "need x > 0, got -1.0",
                                      lambda: lm.log_weighted_sin_integral(-1.0)),
    "errata.find(unknown)": (KeyError, "'NO-SUCH'", lambda: errata.find("NO-SUCH")),
    "climb over max_terms": (
        ConvergenceError, "exponent p=30.5 needs 30 recurrence steps, over max_terms=5",
        lambda: lm.sin_exponent_transform(30.5, 0.01, 1.0, SeriesControl(1e-12, 5))),
    "TwoRadicalParams(a=nan)": (DomainError, "TwoRadicalParams a must be finite, got nan",
                                lambda: tr.TwoRadicalParams(NAN, 1.0)),
    "TwoRadicalParams(zeta=inf)": (DomainError, "TwoRadicalParams zeta must be finite, got inf",
                                   lambda: tr.TwoRadicalParams(1.0, 2.0, INF)),
    "TwoRadicalParams(b<0)": (DomainError, "need a, b, zeta > 0, got a=3.0 b=-1.0 zeta=1.0",
                              lambda: tr.TwoRadicalParams(3.0, -1.0)),
    "TwoRadicalParams(zeta=0)": (DomainError, "need a, b, zeta > 0, got a=1.0 b=2.0 zeta=0.0",
                                 lambda: tr.TwoRadicalParams(1.0, 2.0, 0.0)),
    "RadicalPoleParams(b=-inf)": (DomainError, "RadicalPoleParams b must be finite, got -inf",
                                  lambda: rp.RadicalPoleParams(1.0, -INF)),
    "RadicalPoleParams(a<0)": (DomainError, "need a, b, zeta > 0, got a=-1.0 b=2.0 zeta=1.0",
                               lambda: rp.RadicalPoleParams(-1.0, 2.0)),
    "RadicalPoleParams(b<a)": (
        UnsupportedError, "closed form requires b > a strictly (got a=2.0, b=1.0); "
        "evaluate via the quadrature oracle instead", lambda: rp.RadicalPoleParams(2.0, 1.0)),
    "RadicalPoleParams(b=a)": (
        UnsupportedError, "closed form requires b > a strictly (got a=1.0, b=1.0); "
        "evaluate via the quadrature oracle instead", lambda: rp.RadicalPoleParams(1.0, 1.0)),
}


@pytest.mark.parametrize("call", RULE_CALLS)
def test_parameter_rule_keeps_its_exception_and_message(call):
    exc, message, f = RULE_CALLS[call]
    with pytest.raises(exc) as info:
        f()
    assert (type(info.value), str(info.value)) == (exc, message)


def test_gen_trig_below_the_half_period_limit_still_returns():
    # 1e16 is below 2^52 half-periods, 1e17 above
    assert math.isfinite(gen_si(0.0, 1e16))


def test_non_finite_quadrature_is_convergence_error():
    # once an ArithmeticError from QuadratureReport, outside the library's errors
    with pytest.raises(ConvergenceError, match="non-finite"):
        integrate_finite(lambda t: math.inf, 0.0, 1.0)


def test_no_lentz_below_the_switch_or_on_the_imaginary_axis(count_calls):
    counts = count_calls(sf, "_legendre_cf", "_legendre_cf_backward")
    orders = (-171.5, -40.5, -9.5, -6.0, -5.5, -2.3, -1.0, -0.5, 0.0, 1.0 / 3.0, 2.0 / 3.0, 0.999,
              1.5, 2.5, 40.5, 100.5)
    us = (0.05, 0.7, 2.9, 3.0, 8.0, 60.0, 900.0)
    for a in orders:
        for u in us:
            upper_incomplete_gamma(a, complex(0.0, u))
            upper_incomplete_gamma(a, complex(0.0, -u))
        for arg in (0.0, 0.5, 1.5, 2.5, 3.1):      # any direction below |z| = 3
            upper_incomplete_gamma(a, cmath.rect(2.5, arg))
    assert counts["_legendre_cf"] == 0
    assert counts["_legendre_cf_backward"] == sum(2 for a in orders for u in us
                                                  if u >= max(3.0, a + 1.0))
    # the backward depth holds only in the right half-plane
    upper_incomplete_gamma(0.5, complex(-3.0, 4.0))
    assert counts["_legendre_cf"] == 1


def test_the_gamma_form_on_the_fraction_route_forms_no_phase(count_calls):
    # from u = 3 up (Gamma order a <= 1) the Gamma form is -i u^a / D: one backward
    # fraction per value, no complex exp, log or unit phase, and no call of the
    # caller's Gamma binding; below u = 3 the binding.  The orders are the sine's
    # 1 - p and the cosine's -p of each p
    asked = []
    binding = lambda a, z, ctl: asked.append(z) or upper_incomplete_gamma(a, z, ctl)
    fractions = count_calls(sf, "_legendre_cf_backward")
    phases = count_calls(cmath, "exp", "log", "rect")
    values = 0
    for p in (0.0, 1.0 / 3.0, 0.5, 1.5, 4.5, 12.5, 172.5):
        for u in (3.0, 3.05, 30.0, 3e3, 1e7):
            for a in (1.0 - p, -p):
                sf._phased_gamma(binding, a, u, sf.DEFAULT_CONTROL)
                values += 1
    assert (asked, fractions["_legendre_cf_backward"]) == ([], values)
    assert sum(phases.values()) == 0, phases
    sf._phased_gamma(binding, 0.5, 2.9, sf.DEFAULT_CONTROL)
    assert (asked, fractions["_legendre_cf_backward"]) == ([-2.9j], values)
    assert phases["rect"] == 2


def _gate_calls(rng):
    """Seeded (function, args) of every public transform whose value goes
    through Gamma, S_{mu,1/2} continued past mu = 1/2 and pre_reduction_values
    at q < 1 and above among them, u (or c) log-uniform in [0.05, 1e4]."""
    u = lambda: 10.0 ** rng.uniform(math.log10(0.05), 4.0)
    printed_pole_cos = functools.partial(rp.pole_cos_transform, as_printed=True)
    for x in (50.0, 3e3):                       # the lowest orders, -170.5 and -171.5
        yield from ((f, (170, x, 1.0, printed)) for f in (hp.s_alpha, hp.c_alpha)
                    for printed in (False, True))
        yield from ((f, (171.5, x)) for f in (lm.sin_exponent_transform, lm.cos_exponent_transform))
    for _ in range(60):
        alpha, printed = rng.randint(0, 170), rng.random() < 0.5
        yield hp.s_alpha, (alpha, u(), 1.0, printed)
        yield hp.c_alpha, (alpha, u(), 1.0, printed)
        p = rng.uniform(0.01, 171.5)
        yield lm.sin_exponent_transform, (p, u())
        yield lm.cos_exponent_transform, (p, u())
        n, m, plus = rng.randint(0, 85), rng.randint(1, 9), rng.random() < 0.5
        yield lm.general_sin_transform, (n, m, u(), 1.0, plus)
        yield lm.general_cos_transform, (n, m, u(), 1.0, plus)
        yield lm.log_weighted_sin_integral, (u(),)
        yield lm.lommel_s_half, (rng.uniform(-171.0, 0.5), u())
        yield lm.lommel_s_half, (rng.uniform(0.5, 40.0), u())
        yield lm.pre_reduction_values, (rng.randint(0, 2), rng.randint(2, 9), u())
        yield rp.pole_tail_sin, (u(),)
        yield rp.pole_tail_cos, (u(), printed)
        a = rng.uniform(0.05, 2.0)
        yield rp.pole_sin_transform, (a, a + u())
        yield printed_pole_cos if printed else rp.pole_cos_transform, (a, a + u())
        yield sin_transform, (a, a + u())
        yield tr.cos_transform, (a, a + u())


def test_no_transform_reaches_the_lentz_fraction(count_calls, monkeypatch):
    # every Gamma order a transform takes, from -171.5 (the cosine at p = 171.5)
    # to 40.5 (S_{40,1/2}), sits on the imaginary axis, where the backward
    # fraction's depth is verified; a call that raises a library error counts too.
    # From |z| = max(3, a + 1) up the Gamma form sums that fraction itself, so a
    # transform module's own Gamma binding is only ever asked below that switch;
    # radical_pole, whose Gamma form is past |z| = 3, holds none
    counts = count_calls(sf, "_legendre_cf", "_legendre_cf_backward")
    asked = []
    assert not hasattr(rp, "upper_incomplete_gamma")
    for module in (hp, lm):
        monkeypatch.setattr(module, "upper_incomplete_gamma", lambda a, z, *rest:
                            asked.append(abs(z) / max(sf._GAMMA_SWITCH, a + 1.0))
                            or upper_incomplete_gamma(a, z, *rest))
    calls = list(_gate_calls(random.Random(20261019)))
    errors = 0
    for f, args in calls:
        try:
            f(*args)
        except (DomainError, ConvergenceError):
            errors += 1
    assert counts["_legendre_cf"] == 0
    assert counts["_legendre_cf_backward"] > len(calls) // 4, counts
    assert errors < len(calls) // 4, errors
    assert len(asked) > len(calls) // 8 and max(asked) < 1.0, len(asked)


@pytest.mark.parametrize("u", [0.4, 2.0, 9.0])     # Fresnel argument below and above 1.6
def test_one_fresnel_branch_per_bracket(count_calls, u):
    sf._fresnel_pair.cache_clear()
    counts = count_calls(sf, "_fresnel_series", "_fresnel_tail")
    hp.fresnel_bracket(u, hp.PhasePattern.SIN_LIKE)
    assert sum(counts.values()) == 1


@pytest.mark.parametrize("c", [0.3, 9.0])
def test_one_fresnel_branch_per_pole_tail_and_head_approximation(count_calls, c):
    # past the Fresnel switch, sqrt(2c/pi) > 1.6, the corrected tails are one
    # Gamma form, c > 4 on the backward fraction's route: one fraction and no
    # call of a Gamma binding; only the verbatim cosine keeps the Fresnel pair,
    # whose tail branch sums one more fraction, again by no Gamma binding
    counts = count_calls(sf, "_fresnel_series", "_fresnel_tail")
    gammas = count_calls(sf, "_legendre_cf_backward", "upper_incomplete_gamma")
    by_gamma = math.sqrt(2.0 * c / math.pi) > 1.6
    sf._fresnel_pair.cache_clear()
    rp._pole_tails(c)
    assert (sum(counts.values()), gammas["_legendre_cf_backward"],
            gammas["upper_incomplete_gamma"]) == (not by_gamma, by_gamma, 0)
    sf._fresnel_pair.cache_clear()
    rp._pole_tails(c, as_printed=True)
    assert sum(counts.values()) == 1 + (not by_gamma)
    assert (gammas["_legendre_cf_backward"], gammas["upper_incomplete_gamma"]) == (
        2 * by_gamma, 0)
    sf._fresnel_pair.cache_clear()
    tr._head_approx(c, 0.7, 4.0)            # both heads from one pair
    assert sum(counts.values()) == 2 + (not by_gamma)


def test_one_ascending_series_per_j0_y0_pair(count_calls):
    # a cache miss is one run of the series, which sums J0 and Y0 together
    sf._bessel_pair.cache_clear()
    tr._tails(5.0)                      # J0/Y0 at 2.5, below the Hankel switch
    assert sf._bessel_pair.cache_info()[:2] == (1, 1)       # (hits, misses)
    bessel_y0(3.0)
    bessel_j0(3.0)
    assert sf._bessel_pair.cache_info()[:2] == (2, 2)
    # above the switch one pair of Hankel sums serves both
    counts = count_calls(sf, "_hankel_pq")
    bessel_j0(20.0)
    bessel_y0(20.0)
    assert counts == {"_hankel_pq": 1}


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


def _gauss_series_uncached(a, b, c, z, ctl):
    term, total = 1.0, 1.0
    for k in range(ctl.max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) < ctl.rel_tol * abs(total):
            return total
    raise ConvergenceError("stalled")


def test_cached_2f1_ratios_are_bitwise_the_series(monkeypatch):
    # the moment tables' shapes (p, top+1/2, top+3/2) and Pfaff's (p, 1, top+3/2),
    # and random ones, in random order, so cached ratio lists are both read
    # and extended; every value against the same call on the uncached series
    rng = random.Random(20261018)
    shapes = [(p, b, top + 1.5) for p in (0.5, 1.0) for top in range(2, 40)
              for b in (top + 0.5, 1.0)]
    shapes += [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 6.0))
               for _ in range(40)]
    controls = (SeriesControl(), SeriesControl(1e-15, 4000), SeriesControl(1e-6, 500))
    points = [(*rng.choice(shapes), -rng.uniform(0.0, 3.0), rng.choice(controls))
              for _ in range(3000)]
    sf._gauss_ratios.cache_clear()
    cached = [hyp2f1(*point).hex() for point in points]
    with monkeypatch.context() as m:
        m.setattr(sf, "_gauss_series", _gauss_series_uncached)
        assert cached == [hyp2f1(*point).hex() for point in points]
    # a cached entry longer than the budget still stops at max_terms
    _gauss_series(0.5, 1.0, 3.5, 0.5, SeriesControl(1e-15, 4000))
    with pytest.raises(ConvergenceError):
        _gauss_series(0.5, 1.0, 3.5, 0.5, SeriesControl(1e-15, 3))


def test_cached_2f1_ratios_under_racing_threads():
    # threads released together extend the same shapes' ratio lists at
    # once; a lost or duplicated ratio would shift every later term
    shapes = [(0.5, top + 0.5, top + 1.5) for top in range(60, 100)]
    ctl = SeriesControl(1e-15, 4000)
    want = [_gauss_series_uncached(*shape, -0.5, ctl) for shape in shapes]
    start = threading.Barrier(6)
    got = []

    def work():
        start.wait(timeout=60)
        got.append([_gauss_series(*shape, -0.5, ctl) for shape in shapes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            sf._gauss_ratios.cache_clear()
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 72
    for a, b, c in shapes:
        ratios = sf._gauss_ratios(a, b, c)
        assert ratios == [(a + k) * (b + k) / ((c + k) * (k + 1.0)) for k in range(len(ratios))]


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


def test_hyp2f2_raises_where_its_series_cancels():
    # every term ratio is positive, so sum |term| is the series at |x|; once
    # eps sum |term| passes rel_tol |sum| (from |x| = 14.4 at the default 1e-12;
    # 5.6e-14 at 11) the sum raises.  Summed regardless, x = 60 read
    # 23543 - 66960i for 0.309 + 0.182i
    mp = pytest.importorskip("mpmath")
    for x in (14.5, 40.0, 60.0, -60.0, 200.0):
        with pytest.raises(ConvergenceError, match="cancels"):
            hyp2f2_half(x)
    with pytest.raises(ConvergenceError, match="cancels"):
        hyp2f2_half(40.0, SeriesControl(rel_tol=1e-6))
    for x, rel_tol in ((11.0, 1e-12), (-6.0, 1e-12), (14.3, 1e-12), (20.0, 1e-9)):
        got = hyp2f2_half(x, SeriesControl(rel_tol=rel_tol))
        with mp.workdps(40):
            want = complex(mp.hyp2f2(0.5, 0.5, 1.5, 1.5, mp.mpc(0, x)))
        assert abs(got - want) <= rel_tol * abs(want), x


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


# points where the lobes from z stalled: no two CRVZ orders up to the highest
# agreed at the tolerance asked, and a value summed past that order was 7.3e-14
# to 2.0e-12 off.  From 0 the shifted pair settles there
STALLED_FROM_Z = [(1e-14, gen_si, 0.9, 10 ** 4.5), (1e-15, gen_si, 0.9, 1e4),
                  (1e-15, gen_si, 0.9, 10 ** 4.5), (1e-15, gen_ci, 0.9, 1e4)]


@pytest.mark.parametrize("rel_tol, gen, alpha, z", STALLED_FROM_Z)
def test_gen_si_ci_settle_where_the_lobes_from_z_stalled(rel_tol, gen, alpha, z):
    si, ci = mpref.gen_trig(alpha, z, 50)
    want = float(si if gen is gen_si else ci)
    assert abs(gen(alpha, z, SeriesControl(rel_tol=rel_tol)) - want) <= 1e-14 * abs(want)


def test_gen_trig_pair_sums_one_table_and_serves_both(count_calls):
    gen_si(0.0, 0.5)       # the memo now holds another point
    sums = count_calls(sf, "lobe_sum")
    nodes = count_calls(oracle, "_nodes")
    # the a = b transform: C + iS as one sum from the e^(it) table, no trig at nodes
    tr.sin_transform(0.7, 0.7, 1.3)
    assert (sums["lobe_sum"], nodes["_nodes"]) == (1, 0)
    gen_si(-0.5, 1.7)
    gen_ci(-0.5, 1.7)
    assert (sums["lobe_sum"], nodes["_nodes"]) == (2, 0)


def test_each_part_of_the_gen_trig_pair_against_itself(monkeypatch):
    # C + iS = e^(-iz) e^(i pi alpha/2) Gamma(alpha, -iz), read from the one lobe sum.
    # Each part is held relative to itself: C reads at most 7.7e-14 here (as two real
    # sums 2.8e-11).  C also carries the rounding of lobes of size |S|, which passes
    # 1e-12 of C where |C| << |S|: 8.0e-12 at alpha = 0.994, z = 130, off these points
    mpmath = pytest.importorskip("mpmath")
    sums, lobe_sum = [], sf.lobe_sum
    monkeypatch.setattr(sf, "lobe_sum", lambda *a: sums.append(lobe_sum(*a)) or sums[-1])
    rng = random.Random(45)
    for _ in range(60):
        alpha, z = rng.uniform(-8.0, 1.0), math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        sf._gen_trig_pair.cache_clear()
        gen_si(alpha, z)
        with mpmath.workdps(40):                # S and C: the pair at the order alpha
            s, c = map(float, mpref.pair(1 - mpmath.mpf(alpha), z, 40))
        (value, *_), = sums
        sums.clear()
        assert abs(value.imag - s) <= 1e-12 * abs(s), (alpha, z)
        assert abs(value.real - c) <= 1e-12 * abs(c), (alpha, z)


@pytest.mark.parametrize("kernel", ["sin", "cos"])
def test_degenerate_two_radical_pair_against_mpmath(kernel):
    # a = b: 1/(t + a) at u = zeta a, whose sine and cosine transforms are
    # DLMF 6.2's auxiliary f(u) and g(u), S and C of the pair at z = u, each
    # rotated by u into (gen_si, gen_ci) and back, which costs a few ulp: the
    # cosine reads 1.03e-15 at (a, zeta) = (0.178, 8.29) here, and at most
    # 9.9e-16 over 1,000 other seeded points (1.7e-15 as two real sums)
    transform = tr.sin_transform if kernel == "sin" else tr.cos_transform
    rng = random.Random(45)
    for _ in range(30):
        a = rng.uniform(0.05, 1.0)
        zeta = rng.uniform(0.0125, 2.0) / a
        want = float(getattr(mpref.pair(1, a, 40, zeta), kernel))
        assert abs(transform(a, a, zeta) - want) <= 1.5e-15 * abs(want), (a, zeta)


def test_gen_si_additivity():
    mid = integrate_finite(lambda t: math.sin(t) / math.sqrt(t), 1.0, 3.0).value
    assert abs(gen_si(0.5, 1.0) - (mid + gen_si(0.5, 3.0))) < 1e-9
