"""Lommel bridge: gamma realization, recurrence, representations, log integral."""

import cmath
import math
import random
import subprocess
import sys

import pytest

from oscint import (
    ConvergenceError,
    DomainError,
    GeneralExponent,
    Kernel,
    LommelOrder,
    c_alpha,
    cos_exponent_transform,
    general_cos_transform,
    general_sin_transform,
    log_weighted_sin_integral,
    log_weighted_sin_integral_fd,
    lommel_s_half,
    pre_reduction_values,
    s0,
    s_alpha,
    si_ci_representation,
    sin_exponent_transform,
)
from oscint import lommel as lm
from oscint import special_functions as sf
from oscint.control import DEFAULT_CONTROL, SeriesControl
from oscint.special_functions import upper_incomplete_gamma

import mpref
from mpref import rel


def test_structural_identity_with_base_form():
    # order zero carries exactly the exponent-1/2 sine transform
    assert rel(lommel_s_half(0.0, 1.0), s0(1.0, 1.0)) < 1e-10
    assert rel(lommel_s_half(0.0, 2.0) * math.sqrt(2.0), s0(2.0, 1.0)) < 1e-10


@pytest.mark.parametrize("as_printed", [False, True])
def test_one_gamma_call_per_lommel_value(count_calls, as_printed):
    fraction = sf._legendre_cf_backward         # uncounted, for the expected values
    counts = count_calls(lm, "upper_incomplete_gamma")
    fractions = count_calls(sf, "_legendre_cf_backward")
    # Gamma routes: series, series, backward fraction, backward fraction;
    # (-2.2, 0.4) sits below the switch, where mu < -1/2 climbs (as printed, also
    # (0.0, 1.0)).  As printed the value is the cosine transform of (t+z)^-(p+1), p
    # = 1/2 - mu, whose Gamma form is (p+1) Re of the form at order -(p+1).  On the
    # backward fraction's route the Gamma form is -i u^a / D, one fraction and no
    # call of the module's binding
    points = ((-2.2, 0.4), (0.0, 1.0), (-5.5, 30.0), (0.7, 12.0))
    backward = 0
    for mu, z in points:
        p = 0.5 - mu
        kernel, p, a, factor = ((Kernel.COS, p + 1.0, -(p + 1.0), p + 1.0) if as_printed
                                else (Kernel.SIN, p, 1.0 - p, 1.0))
        route = sf._power_transform(kernel, p, z, upper_incomplete_gamma)
        assert lommel_s_half(mu, z, as_printed=as_printed) == route / math.sqrt(z)
        if not (p <= 0 or sf._gamma_form_holds(p, z) or (p <= 1 and z ** p * math.e > 1.0)):
            continue                            # the climb
        if sf._gamma_fraction(a, complex(0.0, -z)):
            backward += 1
            d = fraction(a, complex(0.0, -z), DEFAULT_CONTROL)
            assert route == factor * (complex(0.0, -math.pow(z, a)) / d).real
            continue
        phase = cmath.exp(-0.5j * math.pi * (1.0 - a)) * cmath.exp(complex(0.0, -z))
        # the conjugate-symmetric combination over both half-axes, summed in full
        both = 0.5 * (phase * upper_incomplete_gamma(a, complex(0.0, -z))
                      + phase.conjugate() * upper_incomplete_gamma(a, complex(0.0, z)))
        assert both.imag == 0.0
        assert route == factor * both.real
    # one fraction for each value on its route, lommel_s_half's and the route's
    assert backward == 2
    assert (counts["upper_incomplete_gamma"], fractions["_legendre_cf_backward"]) == (
        len(points) - backward, 2 * backward)
    general_sin_transform(1, 3, 6.0, 1.25)                      # u = 7.5: the fraction
    general_cos_transform(0, 2, 2.0, 0.5, plus_one=True)        # u = 1: the binding
    assert (counts["upper_incomplete_gamma"], fractions["_legendre_cf_backward"]) == (
        len(points) - backward + 1, 2 * backward + 1)


def _lommel_grid(seed, n):
    """Seeded (mu, z): mu uniform over [-171, 3], z log-uniform over [1e-3, 1e4]."""
    rng = random.Random(seed)
    return [(rng.uniform(-171.0, 3.0), 10.0 ** rng.uniform(-3.0, 4.0)) for _ in range(n)]


def test_lommel_s_half_below_one_half_is_the_sine_transform_route():
    # mu < 1/2: the defining integral over sqrt(z), bit for bit, by the route
    # every (t+x)^-p transform takes (the climb below the switch)
    checked = 0
    for mu, z in _lommel_grid("lommel-route", 400):
        if mu >= 0.5:
            continue
        try:
            got, want = lommel_s_half(mu, z), sin_exponent_transform(0.5 - mu, z) / math.sqrt(z)
        except DomainError:             # past the double range
            continue
        assert got == want, (mu, z)
        checked += 1
    assert checked > 200, checked


def test_lommel_s_half_keeps_the_gamma_form_bits():
    # the realization itself wherever the route is the Gamma form: mu >= 1/2
    # (the continuation) and mu >= -1/2 (p <= 1) at every z.  As printed
    # (errata LOM-GAMMA-ORDER), the cosine transform of (t+z)^-(p+1), p = 1/2 - mu,
    # and past mu = 3/2, where that order is not positive, its Gamma form
    rng = random.Random("lommel-gamma-form")
    checked = 0
    for _ in range(300):
        z = 10.0 ** rng.uniform(-3.0, 4.0)
        for mu, as_printed in ((rng.uniform(0.5, 3.0), False), (rng.uniform(-0.5, 0.5), False),
                               (rng.uniform(-171.0, 3.0), True)):
            try:
                got = lommel_s_half(mu, z, as_printed=as_printed)
            except (DomainError, ConvergenceError):     # past the double range
                continue
            p = 0.5 - mu
            if not as_printed:
                want = sf._phased_gamma(upper_incomplete_gamma, 1.0 - p, z, DEFAULT_CONTROL).real
            elif p + 1.0 > 0:
                want = cos_exponent_transform(p + 1.0, z)
            else:
                want = (p + 1.0) * sf._phased_gamma(upper_incomplete_gamma, -(p + 1.0), z,
                                                    DEFAULT_CONTROL).real
            assert got == want / math.sqrt(z), (mu, z, as_printed)
            checked += 1
    assert checked > 700, checked


def test_lommel_s_half_matches_mpmath_on_a_seeded_grid():
    # against 50 digits at the order 1/2 - mu as rounded to double (that
    # rounding alone moves the value by up to 2e-14 at mu = -128, z = 4).  Every
    # route holds 1e-14: the climb, the continuation mu >= 1/2 and the Gamma form,
    # which lost in proportion to the order p (2.1e-13 at p = 164) while it
    # formed exp(a log z) and a rounded phase from u = 3 up
    mp = pytest.importorskip("mpmath")
    checked = 0
    for mu, z in _lommel_grid("lommel-mpmath", 600):
        try:
            got = lommel_s_half(mu, z)
        except DomainError:             # past the double range
            continue
        if abs(got) < sys.float_info.min:
            continue
        with mp.workdps(50):
            want = mpref.pair(0.5 - mu, z, 50).sin / mp.sqrt(z)
        err = float(abs(got - want) / abs(want))
        assert err <= 1e-14, (mu, z, err)
        checked += 1
    assert checked > 300, checked


def test_continuation_where_z_to_the_gamma_order_overflows():
    # S_{mu,1/2} past mu = 1/2 at z = 1e300: z^a, a = 1/2 + mu > 1, leaves the double
    # range where the value need not, and the Gamma form is z^(a-1) (z/D) there (it
    # once raised ConvergenceError from Lentz); where the value itself leaves the range,
    # S_{2.5,1/2}(1e300) = 1e450, a DomainError
    mp = pytest.importorskip("mpmath")
    for mu in (0.75, 1.5):
        want = mpref.pair(0.5 - mu, 1e300, 60).sin
        assert rel(lommel_s_half(mu, 1e300), want / mp.sqrt(1e300)) <= 1e-14, mu
    with pytest.raises(DomainError, match="double precision"):
        lommel_s_half(2.5, 1e300)


def test_gamma_form_on_the_fraction_route_against_mpmath():
    # the Gamma form from u = 3 up, -i u^a / D, against 50 digits at the float
    # order: the sine (a = 1 - p) for p up to 171.5 within 2e-15, the cosine, p S_(p+1)
    # at the exact order a = -p, within 1e-14 of mpmath at mpf(p) + 1 (6.9e-15 from
    # p = 10.5 up, 3.4e-16 below), u log-uniform from max(3, p/4) to 1e5, where S_p
    # and S_(p+1) are normal.
    # Through exp(a log z) and two phases the form read 1.2e-13 (p = 149.7,
    # u = 51.9); the fraction's depth fitted without the order, 3e-15 at p = 124;
    # the cosine at the order p + 1 as rounded to double, 3.2e-14
    mp = pytest.importorskip("mpmath")

    def sine(p, u, up=0):
        with mp.workdps(50):
            return float(mpref.pair(mp.mpf(p) + up, u, 50).sin)

    rng = random.Random("gamma-form-fraction")
    checked = [0, 0]
    for _ in range(300):
        p = rng.uniform(0.01, 171.5)
        u = math.exp(rng.uniform(math.log(max(3.0, p / 4)), math.log(1e5)))
        want = sine(p, u)
        if abs(want) >= sys.float_info.min:
            assert abs(sin_exponent_transform(p, u) - want) <= 2e-15 * abs(want), (p, u)
            checked[0] += 1
        want = sine(p, u, 1)
        if abs(want) >= sys.float_info.min:
            assert abs(cos_exponent_transform(p, u) - p * want) <= 1e-14 * abs(p * want), (p, u)
            checked[1] += 1
    assert min(checked) > 100, checked


def test_printed_lommel_values_against_the_verbatim_formula():
    # as printed, Re[exp(-i pi alpha/2) exp(-iz) Gamma(-alpha, -iz)] / sqrt(z), alpha =
    # 1/2 - mu (errata LOM-GAMMA-ORDER), evaluated as the cosine transform of
    # (t+z)^-(alpha+1): against 40 digits of the verbatim formula at mu < 3/2, where
    # that transform is positive.  Summed literally it read 2.2e-13 (mu = 2.3, z = 1e3)
    mp = pytest.importorskip("mpmath")
    checked = 0
    for mu, z in _lommel_grid("lommel-printed", 300):
        if mu >= 1.5:
            continue
        try:
            got = lommel_s_half(mu, z, as_printed=True)
        except DomainError:             # past the double range
            continue
        with mp.workdps(40):
            want = mpref.pair(mp.mpf(0.5 - mu) + 1, z, 40).cos / mp.sqrt(z)
        if abs(want) < sys.float_info.min:
            continue
        err = float(abs(got - want) / abs(want))
        assert err <= 2e-14, (mu, z, err)
        checked += 1
    assert checked > 150, checked


def test_lommel_relation_example():
    mu, z = -1.5, 2.0
    lhs = z ** (mu + 1.5) - math.sqrt(z) * lommel_s_half(mu + 2.0, z)
    rhs = ((mu + 1.0) ** 2 - 0.25) * math.sqrt(z) * lommel_s_half(mu, z)
    scale = max(abs(z ** (mu + 1.5)), abs(rhs), 1e-300)
    assert abs(lhs - rhs) / scale < 1e-9


def test_exponent_transform_goldens():
    assert abs(sin_exponent_transform(1.0 / 3.0, 1.0) - 0.87525528672218002) < 1e-8
    assert abs(sin_exponent_transform(1.0, 1.0) - 0.62144962423581336) < 1e-10
    assert abs(sin_exponent_transform(7.0 / 3.0, 1.0) - 0.28067560487509496) < 1e-8
    assert abs(cos_exponent_transform(2.0, 1.0) - 0.37855037576418664) < 1e-8


@pytest.mark.parametrize("p", [1.0, 1.0 / 3.0, 2.5])
@pytest.mark.parametrize("u", [1e12, 1e15, 1e17])
def test_exponent_transforms_at_a_large_shift(u, p):
    # one exponential of the phase (pi alpha + 2u)/2 would lose pi alpha to
    # the rounding of 2u here; the asymptotic series u^-p (1 - p(p+1)/u^2)
    # is exact to double precision
    assert rel(sin_exponent_transform(p, u), u ** -p * (1.0 - p * (p + 1.0) / u ** 2)) < 1e-13
    want = p * u ** (-p - 1.0) * (1.0 - (p + 1.0) * (p + 2.0) / u ** 2)
    assert rel(cos_exponent_transform(p, u), want) < 1e-13


def test_tiny_transform_is_not_flushed_to_zero():
    # u = 5e299: the value 1/u is representable, but sqrt(u) S(u) = 1/u
    # divided by sqrt(u) is not
    u = 0.5 * 1e300
    assert rel(general_sin_transform(0, 1, 0.5, 1e300), 1.0 / u) < 1e-8


def test_general_transforms():
    # n=0, m=2 is the base family
    assert rel(general_sin_transform(0, 2, 1.0, 1.0), s0(1.0, 1.0)) < 1e-10
    assert rel(general_sin_transform(0, 2, 2.0, 0.5), s0(2.0, 0.5)) < 1e-10
    assert abs(general_sin_transform(1, 3, 1.0, 1.0) - 0.28067560487509496) < 1e-8
    assert abs(general_cos_transform(0, 1, 1.0, 1.0, plus_one=True)
               - 0.37855037576418664) < 1e-8


def test_printed_gamma_order_fails_the_defining_integral():
    ok = lommel_s_half(0.0, 1.0)
    bad = lommel_s_half(0.0, 1.0, as_printed=True)
    assert abs(ok - bad) > 0.1
    assert rel(ok, s0(1.0, 1.0)) < 1e-10


def test_si_ci_representation():
    assert rel(si_ci_representation(0, 2, 1.0, 1.0, Kernel.SIN), s0(1.0, 1.0)) < 1e-9
    got = si_ci_representation(0, 1, 1.0, 2.0, Kernel.COS)
    assert abs(got - 0.14454530303733242) < 1e-9
    got = si_ci_representation(0, 1, 1.0, 2.0, Kernel.SIN)
    assert abs(got - 0.39902098859418385) < 1e-9
    printed = si_ci_representation(0, 1, 1.0, 2.0, Kernel.SIN, as_printed=True)
    assert abs(printed - 0.37033170393665074) < 1e-9
    # at zeta = 1 the phase erratum is invisible and routes agree
    assert rel(si_ci_representation(1, 2, 1.0, 1.0, Kernel.SIN),
               general_sin_transform(1, 2, 1.0, 1.0)) < 1e-9


def test_si_ci_string_kernel_selects_the_same_route():
    for name, member in (("sin", Kernel.SIN), ("cos", Kernel.COS)):
        assert (si_ci_representation(1, 3, 2.0, 1.0, name)
                == si_ci_representation(1, 3, 2.0, 1.0, member))
    with pytest.raises(DomainError):
        si_ci_representation(1, 3, 2.0, 1.0, "bogus")


@pytest.mark.parametrize("kernel, lo, hi, least", [
    (Kernel.COS, 1.0, 1e2, 25), (Kernel.COS, 1e2, 1e4, 1), (Kernel.COS, 1e4, 1e6, 0),
    (Kernel.SIN, 1.0, 1e2, 30), (Kernel.SIN, 1e2, 1e4, 30), (Kernel.SIN, 1e4, 1e6, 30)])
def test_si_ci_is_within_rel_tol_or_raises(kernel, lo, hi, least):
    # a value is returned only where the rounding, times the cancellation
    # factor, and the (gen_si, gen_ci) pair's own estimate stay within rel_tol,
    # and at least ``least`` of 30 are.  With the rounding alone tested, cosines
    # 1.6e-12 and 2.4e-12 off were returned here.  The sine barely cancels.  The
    # cosine, about p/u of the pair, is good to about eps |S| / |C| ~ eps u / p
    # (it reads 2e-12 to 4e-10 past u = 1e4), so past u ~ 100 the pair's
    # estimate, mostly its rounding, lets only a few through
    rng = random.Random(0)
    transform = general_sin_transform if kernel is Kernel.SIN else general_cos_transform
    returned = 0
    for _ in range(30):
        x = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        n, m = rng.randint(0, 2), rng.randint(2, 5)
        try:
            got = si_ci_representation(n, m, x, 1.0, kernel)
        except ConvergenceError:
            continue
        assert rel(got, transform(n, m, x)) <= 1e-12
        returned += 1
    assert returned >= least


@pytest.mark.parametrize("n,m,x", [(1, 3, 1.0), (0, 2, 1.5), (2, 5, 2.0)])
def test_general_sin_transform_pins_against_mpmath(n, m, x):
    # u = 1-2 is where the Gamma continued fraction used to stop at
    # rel_tol and land at 2-3e-12; the series route now holds ~1e-16
    mpmath = pytest.importorskip("mpmath")
    p = 2 * n + 1.0 / m
    with mpmath.workdps(20):
        want = mpmath.quadosc(lambda t: mpmath.sin(t) / (t + x) ** p, [0, mpmath.inf], omega=1)
    assert abs(general_sin_transform(n, m, x) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("p,u", [(0.25, 519.0), (0.25, 817.0), (1.0 / 3.0, 950.0),
                                 (0.5, 949.0)])
def test_cos_exponent_transform_pins_against_mpmath_at_large_u(p, u):
    # At large u the cosine is ~p/u of the sine, so Re of the one complex
    # product e^(-iu) e^(i pi (1-p)/2) Gamma(1-p, -iu), which gives both,
    # loses digits to Gamma's rounding: written so, it lands at 1.4e-14 to
    # 2.2e-13 here.  The cosine's own route p Gamma(-p, .) holds ~2e-16.
    want = float(mpref.pair(p, u, 40).cos)
    assert abs(cos_exponent_transform(p, u) - want) <= 1e-14 * abs(want)


def test_pre_reduction_forms_match_reduced():
    pre = pre_reduction_values(1, 2, 1.5, 0.5)
    assert rel(pre[(Kernel.SIN, False)], general_sin_transform(1, 2, 1.5, 0.5)) < 1e-10
    assert rel(pre[(Kernel.COS, False)], general_cos_transform(1, 2, 1.5, 0.5)) < 1e-10
    assert rel(pre[(Kernel.SIN, True)],
               general_sin_transform(1, 2, 1.5, 0.5, plus_one=True)) < 1e-10
    assert rel(pre[(Kernel.COS, True)],
               general_cos_transform(1, 2, 1.5, 0.5, plus_one=True)) < 1e-10
    with pytest.raises(DomainError):
        pre_reduction_values(0, 1, 1.0, 1.0)      # q = 1 is singular here


@pytest.mark.parametrize("n, m", [(0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 5), (3, 4)])
def test_pre_reduction_forms_match_reduced_on_both_sides_of_the_switch(n, m):
    # S_{mu,1/2} below the switch climbs like the reduced forms (the raw
    # realization read 1.2e-12 at (2, 5), x = 1e-3); q < 1 takes the continuation
    for x in (1e-3, 0.05, 0.3, 1.0, 3.0, 20.0):
        pre = pre_reduction_values(n, m, x)
        for plus in (False, True):
            assert rel(pre[(Kernel.SIN, plus)], general_sin_transform(n, m, x, 1.0, plus)) <= 5e-13
            assert rel(pre[(Kernel.COS, plus)], general_cos_transform(n, m, x, 1.0, plus)) <= 5e-13


def test_pre_reduction_raises_where_a_bracket_cancels_past_rel_tol():
    # the brackets cancel like u^-2: by 1.3e9 at q = 1/9, u = 7.9e3 and by 5.3e7
    # at q = 2.5, u = 1e4, against rel_tol / 2^-52 = 4.5e3 by default
    for args in ((0, 9, 7869.632401330979), (1, 2, 1e4)):
        with pytest.raises(ConvergenceError, match="cancels by a factor"):
            pre_reduction_values(*args)
    loose = pre_reduction_values(1, 2, 1e4, 1.0, SeriesControl(rel_tol=1e-6))
    assert rel(loose[(Kernel.COS, False)], general_cos_transform(1, 2, 1e4)) < 1e-6


def test_log_integral():
    got = log_weighted_sin_integral(1.0)
    assert abs(got - 0.39410320685967553) < 1e-9
    assert abs(log_weighted_sin_integral(0.5) - 0.16177546871628293) < 1e-9
    assert abs(log_weighted_sin_integral(2.0) - 0.59372118407733654) < 1e-9
    # Euler-Mascheroni enters the closed form as printed
    from oscint import EULER_GAMMA
    assert abs(EULER_GAMMA - 0.5772156649) < 1e-9


def test_log_integral_finite_difference_cross_check():
    for x in (0.5, 1.0, 2.0):
        closed = log_weighted_sin_integral(x)
        fd = log_weighted_sin_integral_fd(x)
        assert abs(closed - fd) < 1e-5


def test_log_integral_from_the_fraction_against_mpmath():
    # from x = 3 up the log weight is d/da of the Gamma form at a = 1/2,
    # sqrt(x) (ln x - D'/D)/D from one backward-fraction loop, against 40 digits of
    # mp.diff of that form in the order, x log-uniform from 3 to 1e5.  The 2F2
    # form it replaced there read 1.1e-12 at x = 3 and 1.6e-3 at 40
    rng = random.Random("log-weight-fraction")
    xs = [3.0, 1e5] + [math.exp(rng.uniform(math.log(3.0), math.log(1e5))) for _ in range(150)]
    for x in xs:
        want = -mpref.pair(0.5, x, 40, derivative=True).sin
        assert abs(log_weighted_sin_integral(x) - want) <= 2e-15 * abs(want), x


def test_log_integral_takes_2f2_below_the_fraction_route_only(count_calls):
    counts = count_calls(lm, "hyp2f2_half")
    for x in (0.05, 2.999, 3.0, 9.5, 150.0, 1e300):
        log_weighted_sin_integral(x)
    assert counts["hyp2f2_half"] == 2


def test_domain_types():
    with pytest.raises(DomainError):
        LommelOrder(0.0, 0.6)                     # mu + alpha != 1/2
    assert LommelOrder.from_exponent(0.5).mu == 0.0
    with pytest.raises(DomainError):
        GeneralExponent(-1, 2)
    with pytest.raises(DomainError):
        GeneralExponent(0, 0)
    assert GeneralExponent(1, 3).exponent(True) == pytest.approx(2 + 1.0 / 3.0 + 1.0)
    with pytest.raises(DomainError):
        sin_exponent_transform(0.5, -1.0)
    with pytest.raises(DomainError):
        lommel_s_half(0.0, 0.0)
    with pytest.raises(DomainError, match="double precision"):
        pre_reduction_values(1, 2, 1.0, 1e300)    # zeta^(q - 1) = 1e450
    with pytest.raises(DomainError, match="double precision"):
        pre_reduction_values(1, 2, 1e-300, 1.0)   # u^-(q - 1) = 1e450
    assert LommelOrder.from_mu(-1.5) == LommelOrder(-1.5, 2.0)
    # each parameter rule's exception class and message, exactly
    for message, call in [
        ("defining integral diverges for exponent alpha = -0.5 <= 0",
         lambda: LommelOrder(1.0, -0.5)),
        ("defining integral diverges for exponent alpha = -0.5 <= 0",
         lambda: LommelOrder.from_mu(1.0)),
        ("need zeta > 0, got 0.0", lambda: sin_exponent_transform(0.5, 1.0, 0.0)),
        ("need zeta > 0, got -2.0", lambda: si_ci_representation(1, 1, 1.0, -2.0)),
        ("need exponent p > 0, got -1.0", lambda: cos_exponent_transform(-1.0, 1.0)),
        ("need exponent p > 0, got 0.0", lambda: sin_exponent_transform(0.0, 1.0)),
        ("need x > 0, got 0.0", lambda: log_weighted_sin_integral(0.0)),
        ("need x > 0, got -1.0", lambda: log_weighted_sin_integral_fd(-1.0)),
    ]:
        with pytest.raises(DomainError) as info:
            call()
        assert (type(info.value), str(info.value)) == (DomainError, message)


def test_overflowed_scaled_shift_is_a_domain_error():
    # u = zeta x overflows to inf: the Gamma form's phase exp(-iu) has no value
    with pytest.raises(DomainError, match="overflows double precision"):
        cos_exponent_transform(2.5, 1e200, 1e200)
    with pytest.raises(DomainError, match="overflows double precision"):
        lommel_s_half(-0.5, math.inf)
    with pytest.raises(DomainError, match="overflows double precision"):
        s_alpha(0, 1e20, 1e300)
    with pytest.raises(DomainError, match="overflows double precision"):
        general_sin_transform(0, 1, 1e20, 1e300)


def test_values_past_the_double_range_are_domain_errors():
    # the verbatim Gamma order at tiny z, and zeta^(alpha - 1/2) times a
    # half-power value: each once returned inf
    with pytest.raises(DomainError, match="double precision"):
        lommel_s_half(-0.5, 1e-300, as_printed=True)
    with pytest.raises(DomainError, match="double precision"):
        s_alpha(3, 1e-300, 1e100)
    with pytest.raises(DomainError, match="double precision"):
        c_alpha(3, 1e-300, 1e100, as_printed=True)


def test_integer_exponent_routes():
    # m=1 drives the incomplete gamma through integer orders (E1 descent)
    assert abs(general_sin_transform(0, 1, 0.5, 0.5) - 0.0) != 0.0
    v = general_sin_transform(1, 1, 1.0, 1.0)     # exponent 3
    w = sin_exponent_transform(3.0, 1.0, 1.0)
    assert v == w


def test_huge_exponent_raises_instead_of_recurring_forever():
    # Gamma's order 1 - 1e15 would take 1e15 recurrence steps; a fresh
    # process, so that a loop without a cap fails by the timeout instead of
    # hanging the suite
    code = ("from oscint import ConvergenceError, sin_exponent_transform\n"
            "try:\n"
            "    sin_exponent_transform(1e15, 1.0)\n"
            "except ConvergenceError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "over max_terms=500" in proc.stdout


def test_exponent_route_matches_mpmath_on_a_seeded_grid():
    # integer, half-integer and uniform exponents up to 10.5, u = zeta x
    # log-uniform over 1e-12 .. 1e3: both sides of the Gamma-form switch
    rng = random.Random("exponent-route")
    draws = (lambda: float(rng.randint(1, 10)), lambda: rng.randint(0, 10) + 0.5,
             lambda: rng.uniform(0.0, 10.5) or 10.5)
    worst = (0.0, ())
    for i in range(240):
        p = draws[i % 3]()
        x, u = rng.uniform(0.05, 10.0), 10.0 ** rng.uniform(-12.0, 3.0)
        zeta = u / x
        want = [float(v) for v in mpref.pair(p, x, 60, zeta)]
        got = [sin_exponent_transform(p, x, zeta), cos_exponent_transform(p, x, zeta)]
        if p % 1 == 0.5:
            got += [s_alpha(int(p), x, zeta), c_alpha(int(p), x, zeta)]
        for k, value in enumerate(got):
            err = abs(value - want[k % 2]) / abs(want[k % 2])
            worst = max(worst, (err, (k, p, x, zeta)))
    assert worst[0] <= 2e-13, worst


@pytest.mark.parametrize("p", [1e-6, 1e-3, 0.999999, 1.999999, 2.000001, 2.001, 3.000001])
def test_exponents_near_an_integer_match_mpmath_below_the_switch(p):
    # the base order p - ceil(p) + 1 is then near 0 or 1, where one of the
    # two parts of its Gamma pair cancels; the climb starts where it does not
    for u in (1e-12, 1e-3, 0.3, 0.99):
        want = [float(v) for v in mpref.pair(p, 1.0, 60, u)]
        for kernel, got in enumerate((sin_exponent_transform(p, 1.0, u),
                                      cos_exponent_transform(p, 1.0, u))):
            assert abs(got - want[kernel]) <= 2e-13 * abs(want[kernel]), (u, kernel)


@pytest.mark.parametrize("call", [
    lambda: cos_exponent_transform(5.0, 1.0, 1e-100),     # u^-4 at u = 1e-100
    lambda: sin_exponent_transform(2.5, 1e-200, 1e-200),  # u underflows to 0
    lambda: cos_exponent_transform(3.0, 1e-200, 1e100),   # about x^-2 / 2 = 5e399
], ids=["u^-r", "u=0", "x^-r"])
def test_climb_past_the_double_range_is_domain_error(call):
    with pytest.raises(DomainError, match="double precision"):
        call()


NON_FINITE = {
    "sin_exponent.p": lambda v: sin_exponent_transform(v, 1.0),
    "sin_exponent.x": lambda v: sin_exponent_transform(0.5, v),
    "cos_exponent.zeta": lambda v: cos_exponent_transform(0.5, 1.0, v),
    "general_sin.x": lambda v: general_sin_transform(0, 3, v),
    "general_cos.n": lambda v: general_cos_transform(v, 3, 1.0),
    "general_sin.m": lambda v: general_sin_transform(0, v, 1.0),
    "si_ci.x": lambda v: si_ci_representation(0, 3, v),
    "si_ci.zeta": lambda v: si_ci_representation(0, 3, 1.0, v, Kernel.COS),
    "log.x": lambda v: log_weighted_sin_integral(v),
    "log_fd.x": lambda v: log_weighted_sin_integral_fd(v),
    "log_fd.h": lambda v: log_weighted_sin_integral_fd(1.0, v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(NON_FINITE))
def test_non_finite_input_is_domain_error(call, bad):
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE[call](bad)
