"""Radical-pole transforms, including the arbitrated cosine tail."""

import math

import pytest

from oscint import (
    DomainError,
    UnsupportedError,
    pole_cos_transform,
    pole_head_cos_series,
    pole_head_sin_approx,
    pole_head_sin_series,
    pole_sin_transform,
    pole_tail_cos,
    pole_tail_sin,
)
from oscint import radical_pole as rp
from oscint.radical_pole import RadicalPoleParams


def test_tail_goldens():
    assert abs(pole_tail_sin(1.0) - 0.36178547627943458) < 1e-12
    assert abs(pole_tail_cos(1.0) - 0.65280425451173388) < 1e-12


def test_tail_large_c_trend():
    assert abs(pole_tail_sin(100.0)) < abs(pole_tail_sin(10.0))
    assert abs(pole_tail_cos(100.0)) < abs(pole_tail_cos(10.0))


def test_cos_tail_printed_form_is_wrong():
    # the verbatim expression (frozen value) diverges from the integral
    printed = pole_tail_cos(1.0, as_printed=True)
    assert abs(printed - 3.55123377495223979) < 1e-12
    assert abs(printed - pole_tail_cos(1.0)) > 2.0
    # and blows up as c -> 0 while the true value stays below pi/2
    assert pole_tail_cos(1e-4, as_printed=True) > 100.0
    assert abs(pole_tail_cos(1e-4)) < 0.5 * math.pi + 1e-9


def test_head_goldens():
    assert pole_head_sin_series(1.0, 0.0) == 0.0
    assert abs(pole_head_sin_series(1.0, 1.0) - 0.20146279818617942) < 1e-11
    assert abs(pole_head_cos_series(1.0, 1.0) - 0.72854189218190569) < 1e-11


def test_head_cos_small_c_is_arctan():
    # as c -> 0 the cosine head tends to arctan(gamma); at gamma=1 the
    # k=0 hypergeometric factor is exactly the pi/4 identity
    assert abs(pole_head_cos_series(1e-9, 1.0) - 0.25 * math.pi) < 1e-8


def test_transform_goldens():
    assert abs(pole_sin_transform(1.0, 2.0, 1.0) - 0.30070747442816873) < 5e-9
    assert abs(pole_cos_transform(1.0, 2.0, 1.0) - 0.18797132309594257) < 5e-9
    assert abs(pole_sin_transform(0.5, 4.0, 2.0) - 0.13429487690027575) < 5e-9
    assert abs(pole_cos_transform(0.5, 4.0, 2.0) - 0.052851538884076603) < 5e-9


def test_no_closed_form_outside_b_gt_a():
    with pytest.raises(UnsupportedError):
        pole_sin_transform(2.0, 1.0, 1.0)
    with pytest.raises(UnsupportedError):
        pole_cos_transform(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        RadicalPoleParams(-1.0, 2.0, 1.0)


def test_as_printed_propagates_into_assembly():
    ok = pole_sin_transform(1.0, 2.0, 1.0)
    bad = pole_sin_transform(1.0, 2.0, 1.0, as_printed=True)
    assert abs(ok - bad) > 0.1


def test_approx_head_sanity():
    assert pole_head_sin_approx(5.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        pole_head_sin_approx(5.0, 1.0001)
    # at large c and small gamma the approximation is tight
    c, g = 40.0, 0.3
    assert abs(pole_head_sin_approx(c, g) / pole_head_sin_series(c, g) - 1.0) < 2e-2


NON_FINITE = {
    "sin.a": lambda v: pole_sin_transform(v, 2.0, 1.0),
    "cos.b": lambda v: pole_cos_transform(1.0, v, 1.0),
    "cos.zeta": lambda v: pole_cos_transform(1.0, 2.0, v),
    "params.zeta": lambda v: RadicalPoleParams(1.0, 2.0, v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(NON_FINITE))
def test_non_finite_input_is_domain_error(call, bad):
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE[call](bad)


@pytest.mark.parametrize("c", [0.5, 5.0, 50.0])
@pytest.mark.parametrize("gamma", [1e-3, 1e-2])
def test_sin_head_series_is_relatively_accurate_at_small_gamma(gamma, c):
    # the printed {1 - 2F1} bracket cancels as gamma -> 0 (2.9e-10 relative
    # at gamma = 1e-3); the moment form keeps full precision
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = mpmath.quad(lambda x: mpmath.sin(c * x * x) / (x * x + 1), [0, gamma])
        err = abs((pole_head_sin_series(c, gamma) - want) / want)
    assert err <= 1e-14


@pytest.mark.parametrize("a,b,zeta", [(0.5, 2.0, 1.3), (0.9, 1.2, 1.9), (1.0, 1.5, 1.0),
                                      (36.0, 37.0, 0.01)])
@pytest.mark.parametrize("transform", [pole_sin_transform, pole_cos_transform])
def test_one_moment_table_and_one_tail_pass(count_calls, transform, a, b, zeta):
    counts = count_calls(rp, "hyp2f1", "fresnel_s", "fresnel_c")
    transform(a, b, zeta)
    gamma = RadicalPoleParams(a, b, zeta).gamma
    assert counts == {"hyp2f1": int(gamma <= 1), "fresnel_s": 1, "fresnel_c": 1}
