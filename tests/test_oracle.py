"""Quadrature oracle: goldens, divergence classification, robustness."""

import math

import pytest

import oscint.oracle as oracle
from oscint import (
    AccelerationStalledError,
    DivergentIntegralError,
    DomainError,
    HalfPower,
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    QuadraticPhase,
    RadicalPole,
    SeriesControl,
    ThreeRadical,
    TwoRadical,
    integrate_finite,
    integrate_semi_infinite,
)

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


def osc(weight, kernel=Kernel.SIN, zeta=1.0, ctl=None):
    spec = IntegrandSpec(weight, kernel, zeta)
    return integrate_semi_infinite(spec, ctl) if ctl else integrate_semi_infinite(spec)


def test_half_power_x0_trivial():
    rep = osc(HalfPower(0.0, 0.0))
    assert abs(rep.value - SQRT_HALF_PI) < 1e-9
    assert rep.abs_err_est < 1e-9
    assert rep.accelerated
    assert rep.zero_intervals_used > 3


def test_half_power_golden():
    # golden recorded to 1e-10 before the closed forms existed
    rep = osc(HalfPower(0.0, 1.0))
    assert abs(rep.value - 0.80952548174740884) < 1e-10


def test_two_radical_golden():
    rep = osc(TwoRadical(1.0, 2.0), Kernel.COS)
    assert abs(rep.value - 0.22773934152826046) < 1e-10


def test_three_radical_golden():
    rep = osc(ThreeRadical(1.0, 2.0, 3.0))
    assert abs(rep.value - 0.25841488335016015) < 1e-9


def test_log_half_power_golden():
    rep = osc(LogHalfPower(1.0))
    assert abs(rep.value - 0.39410320685967553) < 1e-9


def test_quadratic_phase_golden():
    rep = osc(QuadraticPhase(1.0, 0.5))
    assert abs(rep.value - 0.479462884253273437) < 1e-10


def test_error_estimates_are_honest():
    # against tighter recomputation rather than known values
    tight = SeriesControl(rel_tol=1e-14, max_terms=2000)
    for weight, kernel in [
        (HalfPower(0.0, 1.0), Kernel.SIN),
        (HalfPower(3.0, 0.5), Kernel.COS),
        (TwoRadical(0.5, 4.0), Kernel.SIN),
        (QuadraticPhase(2.0, 1.0), Kernel.COS),
    ]:
        rep = osc(weight, kernel)
        ref = osc(weight, kernel, ctl=tight)
        assert abs(rep.value - ref.value) <= rep.abs_err_est


def test_divergence_classification():
    # cos at x=0 diverges from exponent 1 up; sin only from exponent 2
    with pytest.raises(DivergentIntegralError):
        osc(HalfPower(0.5, 0.0), Kernel.COS)
    with pytest.raises(DivergentIntegralError):
        osc(HalfPower(1.5, 0.0), Kernel.SIN)
    rep = osc(HalfPower(1.0, 0.0), Kernel.SIN)     # t^-3/2 sin: convergent
    assert math.isfinite(rep.value)
    with pytest.raises(DivergentIntegralError):
        HalfPower(-0.5, 1.0)                        # no decay at infinity


def test_invalid_specs():
    with pytest.raises(DomainError):
        TwoRadical(0.0, 1.0)
    with pytest.raises(DomainError):
        IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, 0.0)
    with pytest.raises(DomainError):
        QuadraticPhase(1.0, 0.0)


def test_acceleration_budget():
    with pytest.raises(AccelerationStalledError):
        osc(HalfPower(0.0, 1.0), ctl=SeriesControl(rel_tol=1e-12, max_terms=1))


def test_integrate_finite_empty_and_golden():
    assert integrate_finite(lambda t: t, 2.0, 2.0).value == 0.0
    rep = integrate_finite(lambda z: math.sin(z * z) / math.sqrt(z * z + 1.0), 0.0, 1.0)
    assert abs(rep.value - 0.24903800968862944) < 1e-12
    assert rep.zero_intervals_used >= 1
    with pytest.raises(DomainError):
        integrate_finite(lambda t: t, 1.0, 0.0)


def test_lobe_count_insensitivity():
    # doubling the convergence demands must stay inside the error estimate
    base = osc(HalfPower(0.0, 0.1), Kernel.SIN, 0.5)
    finer = osc(HalfPower(0.0, 0.1), Kernel.SIN, 0.5,
                ctl=SeriesControl(rel_tol=1e-13, max_terms=1000))
    assert abs(base.value - finer.value) <= base.abs_err_est


NON_FINITE = {
    "HalfPower.alpha": lambda v: HalfPower(v, 1.0),
    "HalfPower.x": lambda v: HalfPower(1.0, v),
    "TwoRadical.a": lambda v: TwoRadical(v, 1.0),
    "TwoRadical.b": lambda v: TwoRadical(1.0, v),
    "RadicalPole.a": lambda v: RadicalPole(v, 1.0),
    "RadicalPole.b": lambda v: RadicalPole(1.0, v),
    "ThreeRadical.a": lambda v: ThreeRadical(v, 1.0, 2.0),
    "ThreeRadical.b": lambda v: ThreeRadical(1.0, v, 2.0),
    "ThreeRadical.c": lambda v: ThreeRadical(1.0, 2.0, v),
    "LogHalfPower.x": lambda v: LogHalfPower(v),
    "QuadraticPhase.scale": lambda v: QuadraticPhase(v, 0.5),
    "QuadraticPhase.power": lambda v: QuadraticPhase(1.0, v),
    "IntegrandSpec.zeta": lambda v: IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("param", sorted(NON_FINITE))
def test_non_finite_parameter_is_domain_error(param, bad):
    # NaN passes every ordering check; unchecked, it reaches the lobe loop,
    # which never meets its tolerance
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE[param](bad)


def test_first_quadrature_binds_scipy_quad(monkeypatch):
    import scipy.integrate

    monkeypatch.setattr(oracle, "quad", oracle._first_quad)
    integrate_finite(math.sin, 0.0, 1.0)
    assert oracle.quad is scipy.integrate.quad


def test_wrapper_installed_before_first_use_sees_every_call(monkeypatch):
    stub = oracle._first_quad
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[1:3])
        return stub(*args, **kwargs)

    monkeypatch.setattr(oracle, "quad", wrapper)
    rep = osc(HalfPower(0.0, 1.0))
    integrate_finite(math.sin, 0.0, 1.0)
    assert oracle.quad is wrapper
    assert len(calls) == rep.zero_intervals_used + 1
    assert calls[-1] == (0.0, 1.0)
