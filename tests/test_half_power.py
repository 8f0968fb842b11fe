"""Half-power closed forms: base cases, families, scaling, errata."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    DivergentIntegralError,
    DomainError,
    Kernel,
    c0,
    c_alpha,
    family_coefficients,
    fresnel_bracket,
    s0,
    s_alpha,
)
from oscint.half_power import PhasePattern

import mpref
from mpref import rel

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def test_base_values_at_zero_shift():
    assert abs(s0(0.0, 1.0) - SQRT_HALF_PI) < 1e-15
    assert abs(c0(0.0, 1.0) - SQRT_HALF_PI) < 1e-15
    assert abs(c0(0.0, 2.0) - math.sqrt(math.pi / 4.0)) < 1e-15


def test_base_goldens():
    assert abs(s0(1.0, 1.0) - 0.80952548174740884) < 1e-9
    assert abs(c0(1.0, 1.0) - 0.23219939005526461) < 1e-9
    assert abs(s0(0.5, 2.0) - 0.5724209576868995) < 1e-9


def test_base_scaling_law():
    assert rel(s0(2.0, 3.0), 3.0 ** -0.5 * s0(6.0, 1.0)) < 5e-16
    assert rel(c0(1.0, 2.0), 2.0 ** -0.5 * c0(2.0, 1.0)) < 5e-16


def test_family_seeds():
    even0 = family_coefficients(0, Kernel.SIN)
    assert even0.rational_part == ()
    assert abs(even0.fresnel_coeff - SQRT_HALF_PI) < 1e-15
    assert even0.phase_pattern is PhasePattern.SIN_LIKE

    even2 = family_coefficients(2, Kernel.SIN)
    assert abs(even2.fresnel_coeff + (4.0 / 3.0) * SQRT_HALF_PI) < 1e-14
    ((power, coeff),) = even2.rational_part
    assert power == -0.5
    assert abs(coeff - 4.0 / 3.0) < 1e-14

    odd_cos = family_coefficients(1, Kernel.COS)
    assert abs(odd_cos.fresnel_coeff + math.sqrt(2.0 * math.pi)) < 1e-14
    ((power, coeff),) = odd_cos.rational_part
    assert power == -0.5
    assert abs(coeff - 2.0) < 1e-14
    assert odd_cos.phase_pattern is PhasePattern.SIN_LIKE


def test_string_kernel_does_not_poison_the_coefficient_cache():
    # "sin" and Kernel.SIN hash alike, so whichever fills the cache entry
    # must fill it with the sine family
    family_coefficients.cache_clear()
    want = s_alpha(1, 0.7, 1.3)
    family_coefficients.cache_clear()
    try:
        assert family_coefficients(1, "sin", False).phase_pattern is PhasePattern.COS_LIKE
        assert s_alpha(1, 0.7, 1.3) == want
        with pytest.raises(DomainError):
            family_coefficients(1, "bogus")
    finally:
        family_coefficients.cache_clear()


def test_family_reproduces_base_case():
    for x, zeta in [(0.3, 1.0), (1.0, 1.0), (2.0, 0.7)]:
        assert rel(s_alpha(0, x, zeta), s0(x, zeta)) < 2e-15
        assert rel(c_alpha(0, x, zeta), c0(x, zeta)) < 2e-15


def test_assembled_goldens():
    assert abs(s_alpha(2, 1.0, 1.0) - 0.25396602433678821) < 1e-9
    assert abs(c_alpha(1, 1.0, 1.0) - 0.38094903650518231) < 1e-9
    assert abs(s_alpha(3, 2.0, 1.0) - 0.029760113861121663) < 1e-9
    assert abs(c_alpha(3, 2.0, 1.0) - 0.036469173283107551) < 1e-9


def test_integration_by_parts_example():
    # cosine order 1 equals 3/2 times sine order 2
    assert rel(c_alpha(1, 1.0, 1.0), 1.5 * s_alpha(2, 1.0, 1.0)) < 1e-12


def test_domain_errors():
    with pytest.raises(DivergentIntegralError):
        s_alpha(1, 0.0, 1.0)
    with pytest.raises(DivergentIntegralError):
        c_alpha(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        s0(1.0, 0.0)
    with pytest.raises(DomainError):
        s0(-1.0, 1.0)
    with pytest.raises(DomainError):
        s_alpha(-1, 1.0, 1.0)


def test_printed_signs_differ_only_for_odd_orders():
    assert s_alpha(0, 1.0, 1.0) == s_alpha(0, 1.0, 1.0, as_printed=True)
    assert s_alpha(2, 1.0, 1.0) == s_alpha(2, 1.0, 1.0, as_printed=True)
    assert s_alpha(3, 2.0, 1.0) != s_alpha(3, 2.0, 1.0, as_printed=True)
    assert c_alpha(3, 2.0, 1.0) != c_alpha(3, 2.0, 1.0, as_printed=True)
    # the verbatim odd signs are wildly off the quadrature value
    assert abs(s_alpha(3, 2.0, 1.0, as_printed=True) - 0.029760113861121663) > 0.1


def _fresnel_assembly(alpha, x, zeta, kernel, as_printed):
    """The paper's form: rational part plus Fresnel coefficient times bracket."""
    fam = family_coefficients(alpha, kernel, as_printed)
    u = zeta * x
    return zeta ** (alpha - 0.5) * (fam.rational_value(u)
                                    + fam.fresnel_coeff * fresnel_bracket(u, fam.phase_pattern))


# (alpha, u) at and below the switch u = max(1, (alpha + 1/2)/4), then above it
_BELOW_SWITCH = [(alpha, u) for alpha in (0, 1, 2, 3, 5, 10)
                 for u in (1e-3, 0.5, max(1.0, 0.25 * (alpha + 0.5)))] + [(171, 3.0), (171, 42.875)]
_ABOVE_SWITCH = [(0, 1.5), (1, 40.0), (2, 7.0), (5, 2.0), (10, 900.0), (171, 50.0)]
# above the switch only the corrected value leaves the paper's forms
_PAPER_FORM_CALLS = ([(alpha, u, False) for alpha, u in _BELOW_SWITCH]
                     + [(alpha, u, True) for alpha, u in _BELOW_SWITCH + _ABOVE_SWITCH])


@pytest.mark.parametrize("kernel", [Kernel.SIN, Kernel.COS])
@pytest.mark.parametrize("alpha,u,as_printed", _PAPER_FORM_CALLS)
def test_paper_forms_run_below_the_switch_and_for_every_printed_call(alpha, u, as_printed,
                                                                      kernel):
    f = s_alpha if kernel is Kernel.SIN else c_alpha
    for x, zeta in ((u, 1.0), (0.5 * u, 2.0), (4.0 * u, 0.25)):
        got = f(alpha, x, zeta, as_printed=as_printed)
        assert got == _fresnel_assembly(alpha, x, zeta, kernel, as_printed), (x, zeta)


@given(st.integers(min_value=0, max_value=4),
       st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_scaling_is_structural(alpha, x, zeta):
    # evaluation happens in u = zeta*x, so the law is exact in floats
    lhs = s_alpha(alpha, x, zeta)
    rhs = zeta ** (alpha - 0.5) * s_alpha(alpha, zeta * x, 1.0)
    assert abs(lhs - rhs) <= 4 * math.ulp(max(abs(lhs), abs(rhs)))


NON_FINITE = {
    "s0.x": lambda v: s0(v),
    "c0.zeta": lambda v: c0(1.0, v),
    "s_alpha.x": lambda v: s_alpha(1, v, 1.0),
    "c_alpha.zeta": lambda v: c_alpha(2, 1.0, v),
    "s_alpha.alpha": lambda v: s_alpha(v, 1.0, 1.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(NON_FINITE))
def test_non_finite_input_is_domain_error(call, bad):
    # NaN passes every ordering check; unchecked, s_alpha(1, nan) stalls
    # the incomplete-gamma continued fraction
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE[call](bad)


def _gamma_ratio_solution(mp, alpha, kernel, as_printed):
    """The paper's closed solution of the family difference equation:
    (rational part, Fresnel coefficient, pattern), each coefficient a
    Gamma ratio at the working precision of ``mp``."""
    n, odd = divmod(alpha, 2)
    half = mp.mpf(1) / 2
    const = mp.sqrt(2) * mp.pi / 2
    sine = kernel is Kernel.SIN
    if not odd:
        den = mp.gamma(2 * n + half)
        off = half if sine else 3 * half
        pattern = PhasePattern.SIN_LIKE if sine else PhasePattern.COS_LIKE
        terms = [(-(2 * k + off), (-1) ** (n + 1 + k) * mp.gamma(2 * k + off) / den)
                 for k in range(n)]
        return terms, (-1) ** n * const / den, pattern
    den = mp.gamma(2 * n + 3 * half)
    if sine:
        lead = n if as_printed else n + 1
        terms = [(-(2 * k + 3 * half), (-1) ** (lead + k) * mp.gamma(2 * k + 3 * half) / den)
                 for k in range(n)]
        return terms, (-1) ** n * const / den, PhasePattern.COS_LIKE
    head = n + 1 if as_printed else n
    terms = [(-half, (-1) ** head * mp.sqrt(mp.pi) / den)] + [
        (-(2 * k + 5 * half), (-1) ** (n + 1 + k) * mp.gamma(2 * k + 5 * half) / den)
        for k in range(n)]
    return terms, (-1) ** (n + 1) * const / den, PhasePattern.SIN_LIKE


@pytest.mark.parametrize("as_printed", [False, True], ids=["corrected", "printed"])
@pytest.mark.parametrize("kernel", [Kernel.SIN, Kernel.COS])
def test_coefficients_match_the_gamma_ratio_solutions(kernel, as_printed):
    # the coefficients come from the difference equation; the closed
    # Gamma-ratio solutions, at 40 digits, are the independent reference
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for alpha in range(61):
            fam = family_coefficients(alpha, kernel, as_printed)
            terms, const, pattern = _gamma_ratio_solution(mp, alpha, kernel, as_printed)
            assert fam.phase_pattern is pattern, alpha
            assert [power for power, _ in fam.rational_part] == [float(p) for p, _ in terms]
            for (_, got), (_, want) in zip(fam.rational_part, terms):
                assert abs(got - want) <= 2e-15 * abs(want), (alpha, got, want)
            assert abs(fam.fresnel_coeff - const) <= 2e-15 * abs(const), alpha


@pytest.mark.parametrize("alpha", [171, 199])
def test_orders_past_the_gamma_range_match_mpmath(alpha):
    # Gamma(alpha + 1/2) overflows past alpha = 171; the difference
    # equation never forms it.  Reference: the Gamma pair
    # I_cos + i I_sin = e^-ix e^(i pi (1-p)/2) Gamma(1-p, -ix), p = alpha + 1/2
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for x in (0.5, 3.0):
            s, c = mpref.pair(alpha + 0.5, x, 40)
            assert abs(s_alpha(alpha, x) - s) <= 1e-14 * abs(s), x
            assert abs(c_alpha(alpha, x) - c) <= 1e-14 * abs(c), x


def test_high_order_is_built_without_recursion():
    # the CLI accepts any integer order; a build that recursed once per
    # step would pass Python's recursion limit here
    fam = family_coefficients(10_001, "cos")
    assert len(fam.rational_part) == 5001
    assert fam.rational_part[0][0] == -0.5


def test_float_order_is_coerced():
    # HalfPowerParams accepts an integral float; 2.0 and 2 share one cache
    # entry, so the float must be the one that fills it
    family_coefficients.cache_clear()
    try:
        assert s_alpha(2.0, 1.0) == s_alpha(2, 1.0)
        assert c_alpha(3.0, 2.0) == c_alpha(3, 2.0)
    finally:
        family_coefficients.cache_clear()
