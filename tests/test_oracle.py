"""Quadrature oracle: goldens, divergence classification, robustness."""

import math
from itertools import islice

import numpy as np
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
        (LogHalfPower(2.0), Kernel.SIN),
        (ThreeRadical(0.5, 1.0, 2.0), Kernel.COS),
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


def test_string_kernels_coerce_and_others_are_domain_errors():
    # "sin" == Kernel.SIN, but every dispatch tests identity with the member
    want = osc(HalfPower(0.0, 1.0), Kernel.SIN).value
    spec = IntegrandSpec(HalfPower(0.0, 1.0), "sin")
    assert spec.kernel is Kernel.SIN
    assert integrate_semi_infinite(spec).value == want
    got = oracle.oscillatory_integral(lambda t: (t + 1.0) ** -0.5, "sin", 1.0).value
    assert abs(got - want) <= 1e-9
    assert list(islice(oracle.kernel_breakpoints("sin", 1.0), 2)) == [0.0, math.pi]
    for bad in ("bogus", None, 1):
        with pytest.raises(DomainError):
            IntegrandSpec(HalfPower(0.0, 1.0), bad)
    with pytest.raises(DomainError):
        oracle.oscillatory_integral(lambda t: (t + 1.0) ** -0.5, "bogus", 1.0)
    with pytest.raises(DomainError):
        next(oracle.kernel_breakpoints("bogus", 1.0))


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
    quadpack_lobes = _record_lobe_quad(monkeypatch)
    rep = osc(HalfPower(0.0, 1.0))
    integrate_finite(math.sin, 0.0, 1.0)
    assert oracle.quad is wrapper
    # every lobe QUADPACK integrates, plus the finite integral; the
    # batched lobes make no call
    assert len(calls) == len(quadpack_lobes) + 1
    assert 1 <= len(quadpack_lobes) < rep.zero_intervals_used
    assert calls[-1] == (0.0, 1.0)


# ---------------------------------------------------------------- batched lobes

def test_gk21_gauss_subset_is_leggauss_10():
    x, w = np.polynomial.legendre.leggauss(10)
    # the literal table lists the positive nodes, largest first
    assert np.max(np.abs(np.array(oracle._GK21_NODES[1::2]) - x[:4:-1])) <= 1e-15
    assert np.max(np.abs(np.array(oracle._G10_WEIGHTS) - w[:4:-1])) <= 1e-15
    _, nodes, weights = oracle._gk21()
    gauss = weights[:, 1] != 0.0
    assert np.max(np.abs(nodes[gauss] - x)) <= 1e-15
    assert np.max(np.abs(weights[gauss, 1] - w)) <= 1e-15


def test_gk21_is_exact_for_polynomials_up_to_degree_31():
    _, nodes, weights = oracle._gk21()
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights[:, 0] @ nodes ** k - exact) <= 1e-15
        if k < 20:
            assert abs(weights[:, 1] @ nodes ** k - exact) <= 1e-15


def _record_quad(monkeypatch):
    quad = oracle.quad
    calls = []
    monkeypatch.setattr(oracle, "quad", lambda *a, **k: calls.append(a[1:3]) or quad(*a, **k))
    return calls


def _quadpack_only(monkeypatch):
    """Route every lobe through QUADPACK, as with a scalar integrand only."""
    lobe_sum = oracle.lobe_sum
    monkeypatch.setattr(oracle, "lobe_sum",
                        lambda f, breakpoints, ctl, f_over=None: lobe_sum(f, breakpoints, ctl))


AGREEMENT_WEIGHTS = [HalfPower(1.0, 0.5), TwoRadical(0.5, 2.0), RadicalPole(0.7, 1.9),
                     ThreeRadical(0.4, 1.0, 2.5), LogHalfPower(1.5), QuadraticPhase(1.3, 0.5)]


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("weight", AGREEMENT_WEIGHTS, ids=lambda w: type(w).__name__)
def test_batched_lobes_agree_with_quadpack(monkeypatch, weight, kernel):
    batched = osc(weight, kernel, 0.8)
    _quadpack_only(monkeypatch)
    calls = _record_quad(monkeypatch)
    ref = osc(weight, kernel, 0.8)
    assert len(calls) == ref.zero_intervals_used
    assert abs(batched.value - ref.value) <= batched.abs_err_est + ref.abs_err_est


def _record_lobe_quad(monkeypatch):
    lobe_quad = oracle._lobe_quad
    lobes = []

    def recording(f, lo, hi, epsabs, epsrel):
        lobes.append((lo, hi))
        return lobe_quad(f, lo, hi, epsabs, epsrel)

    monkeypatch.setattr(oracle, "_lobe_quad", recording)
    return lobes


def test_tail_lobe_with_a_jump_goes_to_quadpack(monkeypatch):
    jump = 9.5 * math.pi          # inside the tenth lobe, [9 pi, 10 pi]

    def over(step):
        return lambda m: lambda t: m.sin(t) / (t + 1.0) * (1.0 + step * (t > jump))

    breakpoints = lambda: oracle.kernel_breakpoints(Kernel.SIN, 1.0)
    quadpack_lobes = _record_lobe_quad(monkeypatch)
    oracle.lobe_sum(over(0.0)(math), breakpoints(), f_over=over(0.0))
    smooth = list(quadpack_lobes)
    quadpack_lobes.clear()
    value, err, lobes, _ = oracle.lobe_sum(over(0.5)(math), breakpoints(), f_over=over(0.5))
    assert lobes > 10
    assert quadpack_lobes == smooth + [(9 * math.pi, 10 * math.pi)]
    ref, ref_err, _, _ = oracle.lobe_sum(over(0.5)(math), breakpoints())
    assert abs(value - ref) <= err + ref_err


def test_half_power_lobes_make_at_most_five_quadpack_calls(monkeypatch):
    # QUADPACK only for the first lobe, where the weight is steepest and
    # the GK21 test fails; the other 25, direct ones included, are batched
    calls = _record_quad(monkeypatch)
    rep = osc(HalfPower(0.0, 1.0))
    assert rep.zero_intervals_used == 26
    assert calls == [(0.0, math.pi)]


def test_smooth_weight_makes_no_quadpack_call(monkeypatch):
    # every lobe, the directly summed ones included, passes the GK21 test
    calls = _record_quad(monkeypatch)
    rep = osc(HalfPower(0.0, 10.0))
    assert rep.zero_intervals_used == 24
    assert calls == []


def _breakpoints_failing_after(n):
    yield from islice(oracle.kernel_breakpoints(Kernel.SIN, 1.0), n + 1)
    raise RuntimeError(f"more than {n} lobes requested")


CAP_INTEGRANDS = {
    "growing": lambda m: lambda t: t * m.sin(t),
    "nan": lambda m: lambda t: math.nan * m.sin(t),
}


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
@pytest.mark.parametrize("name", sorted(CAP_INTEGRANDS))
def test_direct_lobes_are_capped(name, batched):
    # lobe magnitudes that never decrease keep the series in its direct
    # phase; 10 * max_terms lobes end it
    over = CAP_INTEGRANDS[name]
    with pytest.raises(AccelerationStalledError, match="within 50 lobes"):
        oracle.lobe_sum(over(math), _breakpoints_failing_after(1000),
                        SeriesControl(max_terms=5), over if batched else None)


# --------------------------------------------------------- Euler accumulator

class _EulerReference:
    """Reference: the in-place van Wijngaarden table of the classic
    eulsum routine, rows overwritten by index with an explicit length."""

    def __init__(self):
        self._wksp = []
        self._n = 0
        self.total = 0.0

    def add(self, term):
        if self._n == 0:
            self._wksp.append(term)
            self._n = 1
            self.total = 0.5 * term
            return self.total
        wksp = self._wksp
        tmp = wksp[0]
        wksp[0] = term
        for j in range(self._n - 1):
            tmp, wksp[j + 1] = wksp[j + 1], 0.5 * (wksp[j] + tmp)
        nxt = 0.5 * (wksp[self._n - 1] + tmp)
        if len(wksp) == self._n:
            wksp.append(nxt)
        else:
            wksp[self._n] = nxt
        if abs(wksp[self._n]) <= abs(wksp[self._n - 1]):
            increment = 0.5 * wksp[self._n]
            self._n += 1
        else:
            increment = wksp[self._n]
        self.total += increment
        return increment


@pytest.mark.parametrize("seed", range(8))
def test_euler_accumulator_matches_reference_bitwise(seed):
    rng = np.random.default_rng(seed)
    # alternating terms with noisy power-law or geometric envelopes, so
    # both the growing and the shrinking branch of the table are taken
    k = np.arange(60)
    envelope = (k + 1.0) ** -rng.uniform(0.2, 3.0) if seed % 2 else rng.uniform(0.5, 0.95) ** k
    terms = ((-1.0) ** k * envelope * rng.uniform(0.5, 1.5, 60)).tolist()
    acc, ref = oracle._EulerAccumulator(), _EulerReference()
    for term in terms:
        assert acc.add(term).hex() == ref.add(term).hex()
        assert acc.total.hex() == ref.total.hex()
