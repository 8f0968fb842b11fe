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
    s0,
    s_alpha,
)
from oscint.half_power import PhasePattern

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


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
