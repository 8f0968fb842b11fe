"""The radical tails and the Gamma form at large phase, against 40-digit mpmath.

Past the Fresnel switch the corrected radical-pole tails are (Im, Re) of
(sqrt(pi)/2) e^-ic Gamma(1/2, -ic), and past the Bessel switch the
two-radical tails are (P + Q, P - Q) sqrt(pi/h)/4 of the Hankel sums at
h = c/2.  Recombining sines and cosines of c (or h) with special
functions at a rounded argument loses up to 1.9e-9 and 4.4e-10 by
c = 1e7, and one exponential of the Gamma form's rounded phase sum 5e-10
at c = 1e6; these cases fail on either.  The references are ``mpref``'s
(t+u)^-p pair and quadratic-phase heads, and mpmath's ``besselj``/``bessely``.
"""

import math
import random

import mpmath
import pytest

from oscint import half_power, lommel, radical_pole, special_functions, two_radical

import mpref
from mpref import rel

DPS = 40


def log_uniform(seed, lo, hi, n):
    rng = random.Random(seed)
    return [10.0 ** rng.uniform(math.log10(lo), math.log10(hi)) for _ in range(n)]


def pole_tails(c):
    """(Im, Re) of (sqrt(pi)/2) e^-ic Gamma(1/2, -ic), the pair at p = 1/2 turned by
    e^(-i pi/4)."""
    s, co = mpref.pair(0.5, c, DPS)
    with mpmath.workdps(DPS):
        k = mpmath.sqrt(mpmath.pi / 2) / 2
        return k * (s - co), k * (s + co)


def two_radical_tails(c):
    with mpmath.workdps(DPS):
        h = mpmath.mpf(c) / 2
        j0, y0 = mpmath.besselj(0, h), mpmath.bessely(0, h)
        s, co = mpmath.sin(h), mpmath.cos(h)
        return mpmath.pi / 4 * (s * y0 + co * j0), mpmath.pi / 4 * (s * j0 - co * y0)


POLE_CS = log_uniform(3001, 5.0, 1e7, 24)
TWO_RADICAL_CS = log_uniform(3002, 30.0, 1e7, 10)


@pytest.mark.parametrize("c", POLE_CS, ids="{:.4g}".format)
def test_pole_tails_match_mpmath(c):
    for value, want in zip(radical_pole._pole_tails(c), pole_tails(c)):
        assert rel(value, float(want)) <= 2e-15


@pytest.mark.parametrize("c", POLE_CS, ids="{:.4g}".format)
def test_phased_gamma_matches_mpmath(c):
    value = special_functions._phased_gamma(special_functions.upper_incomplete_gamma, 0.5, c,
                                            special_functions.DEFAULT_CONTROL)
    s, co = mpref.pair(0.5, c, DPS)          # e^(-i pi/4) e^-ic Gamma(1/2, -ic) = s - i co
    want = complex(s, -co)
    assert abs(value - want) <= 2e-15 * abs(want)


@pytest.mark.parametrize("c", TWO_RADICAL_CS, ids="{:.4g}".format)
def test_two_radical_tails_match_mpmath(c):
    for value, want in zip(two_radical._tails(c), two_radical_tails(c)):
        assert rel(value, float(want)) <= 2e-15


# (family module, sine, cosine, weight power, tails, prefactor at b - a)
FAMILIES = {
    "two-radical": (two_radical, "sin_transform", "cos_transform", mpmath.mpf(1) / 2,
                    two_radical_tails, lambda d: 2),
    "radical-pole": (radical_pole, "pole_sin_transform", "pole_cos_transform", 1,
                     pole_tails, lambda d: 2 / mpmath.sqrt(d)),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("a,b", [(1.0, 30001.0), (1.0, 100001.0), (1.0, 1000001.0),
                                 (0.5, 250000.0)])
def test_transforms_at_a_large_phase_match_mpmath(family, a, b):
    module, sin_name, cos_name, power, tails, prefactor = FAMILIES[family]
    c, gamma = b - a, math.sqrt(a / (b - a))        # zeta = 1
    with mpmath.workdps(DPS):
        ts, tc = (t - h for t, h in zip(tails(c), mpref.head(c, gamma, power, DPS)))
        cs, sn, k = mpmath.cos(a), mpmath.sin(a), prefactor(mpmath.mpf(c))
        want = k * (cs * ts - sn * tc), k * (cs * tc + sn * ts)
    assert rel(getattr(module, sin_name)(a, b), float(want[0])) <= 2e-14
    assert rel(getattr(module, cos_name)(a, b), float(want[1])) <= 2e-14


# the Gamma form's guard: every exponent it serves, from its switch
# u = max(1, p/4) to u = 10^7.8, both kernels
EXPONENTS = ([("half-power", alpha + 0.5) for alpha in range(11)]
             + [("lommel", p) for p in (0.25, 1 / 3, 0.5, 1.0, 7 / 3, 4.2, 5.2)])


@pytest.mark.parametrize("family,p", EXPONENTS)
def test_gamma_form_guard_sweep(family, p):
    for u in log_uniform(int(1000 * p), max(1.0, 0.25 * p), 10.0 ** 7.8, 4):
        if family == "half-power":
            alpha = int(p)
            got = half_power.s_alpha(alpha, u), half_power.c_alpha(alpha, u)
        else:
            got = lommel.sin_exponent_transform(p, u), lommel.cos_exponent_transform(p, u)
        for value, want in zip(got, map(float, mpref.pair(p, u, DPS))):
            assert rel(value, want) <= 5e-14, (u, value, want)
