"""Quadrature oracle: goldens, divergence classification, robustness."""

import math
import random
from fractions import Fraction
from itertools import islice
from operator import mul

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
from test_oracle_accuracy import reference

SQRT_HALF_PI = math.sqrt(0.5 * math.pi)
EPS = math.ulp(1.0)


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
    # each weight's rule, exception class and message exactly; TwoRadical and
    # RadicalPole share one validating base, which must keep each one's name
    for message, call in [
        ("TwoRadical constants must be > 0, got a=0.0 b=1.0", lambda: TwoRadical(0.0, 1.0)),
        ("TwoRadical b must be finite, got inf", lambda: TwoRadical(1.0, math.inf)),
        ("RadicalPole constants must be > 0, got a=1.0 b=0.0", lambda: RadicalPole(1.0, 0.0)),
        ("RadicalPole constants must be > 0, got a=-1.0 b=2.0", lambda: RadicalPole(-1.0, 2.0)),
        ("RadicalPole a must be finite, got nan", lambda: RadicalPole(math.nan, 1.0)),
        ("ThreeRadical constants must all be > 0", lambda: ThreeRadical(1.0, 2.0, 0.0)),
        ("LogHalfPower shift x must be > 0, got 0.0", lambda: LogHalfPower(0.0)),
        ("QuadraticPhase scale must be > 0, got 0.0", lambda: QuadraticPhase(0.0, 1.0)),
        ("QuadraticPhase power must be > 0, got -1.0", lambda: QuadraticPhase(1.0, -1.0)),
    ]:
        with pytest.raises(DomainError) as info:
            call()
        assert (type(info.value), str(info.value)) == (DomainError, message)


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
    with pytest.raises(AccelerationStalledError) as info:
        osc(HalfPower(0.0, 1.0), ctl=SeriesControl(rel_tol=1e-12, max_terms=1))
    assert (type(info.value), str(info.value)) == (
        AccelerationStalledError, "lobe series failed tolerance 1e-12 within 10 lobes")


def test_integrate_finite_empty_and_golden():
    assert integrate_finite(lambda t: t, 2.0, 2.0).value == 0.0
    rep = integrate_finite(lambda z: math.sin(z * z) / math.sqrt(z * z + 1.0), 0.0, 1.0)
    assert abs(rep.value - 0.24903800968862944) < 1e-12
    assert rep.zero_intervals_used >= 1
    with pytest.raises(DomainError):
        integrate_finite(lambda t: t, 1.0, 0.0)


def test_integrate_finite_meets_a_tolerance_below_quadpack_floor(monkeypatch):
    # 1e-14 is below QUADPACK's floor (50 eps ~ 1.1e-14); the raw
    # |K21 - G10| of the in-house rule has no such floor, so the rule is
    # asked for 1e-14 itself and meets it
    calls = []
    quad = oracle.quad
    monkeypatch.setattr(oracle, "quad", lambda *a, **k: calls.append(k["epsrel"]) or quad(*a, **k))
    rep = integrate_finite(math.sin, 0.0, 1.0, SeriesControl(rel_tol=1e-14))
    assert abs(rep.value - (1.0 - math.cos(1.0))) <= 1e-15
    assert rep.abs_err_est <= 1e-14 * rep.value
    integrate_finite(math.sin, 0.0, 1.0, SeriesControl(rel_tol=1e-10))
    assert calls == [1e-14, 1e-10]


def test_integrate_finite_of_a_complex_integrand_is_its_two_real_integrals():
    # e^(it) on [0, 1]: the real and imaginary parts are the cos and sin
    # integrals, each as the real rule gives it, and the error is on the modulus
    rep = integrate_finite(None, 0.0, 1.0, f_over=lambda m: lambda t: m.exp(1j * t))
    cos = integrate_finite(None, 0.0, 1.0, f_over=lambda m: m.cos)
    sin = integrate_finite(None, 0.0, 1.0, f_over=lambda m: m.sin)
    assert isinstance(rep.value, complex)
    assert rep.value.real == pytest.approx(cos.value, rel=1e-15, abs=0.0)
    assert rep.value.imag == pytest.approx(sin.value, rel=1e-15, abs=0.0)
    assert abs(rep.value - (math.sin(1.0) + 1j * (1.0 - math.cos(1.0)))) <= 2e-16
    assert rep.abs_err_est <= 1e-12 * abs(rep.value)


def test_integrate_finite_real_report_is_unchanged():
    # a real integrand keeps a Python float value, bit for bit as before
    # the rule took complex integrands
    for f_over, value, err in ((lambda m: m.cos, "0x1.aed548f090ceep-1", "0x1.8p-55"),
                               (lambda m: m.sin, "0x1.d6bafe095f2e9p-2", "0x1.68p-55")):
        rep = integrate_finite(None, 0.0, 1.0, f_over=f_over)
        assert type(rep.value) is float
        assert (rep.value, rep.abs_err_est, rep.zero_intervals_used) == (
            float.fromhex(value), float.fromhex(err), 8)
    rep = integrate_finite(lambda z: math.sin(z * z) / math.sqrt(z * z + 1.0), 0.0, 3.0)
    assert (rep.value, rep.abs_err_est) == (float.fromhex("0x1.0c7902aab1c90p-1"),
                                            float.fromhex("0x1.5p-54"))


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


@pytest.mark.parametrize("zeta", [0.0, -1.0])
def test_non_positive_frequency_is_domain_error(zeta):
    # zeta = 0 divided by zero; zeta < 0 ran the lobes backward from the
    # origin and returned a meaningless value
    with pytest.raises(DomainError, match="zeta > 0"):
        next(oracle.kernel_breakpoints(Kernel.SIN, zeta))
    with pytest.raises(DomainError, match="zeta > 0"):
        oracle.oscillatory_integral(lambda t: 1.0 / (t + 1.0), Kernel.SIN, zeta)


def test_quadrature_is_the_in_house_rule_and_stays_bound():
    # the fallback is this module's own array rule, and no call rebinds
    # it (test_imports checks, in a fresh interpreter, that no oracle
    # command loads scipy)
    rule = oracle.quad
    assert rule.__module__ == "oscint.oracle"
    integrate_finite(math.sin, 0.0, 1.0)
    osc(HalfPower(0.0, 0.0))
    assert oracle.quad is rule


def test_wrapper_installed_before_first_use_sees_every_call(monkeypatch):
    rule = oracle.quad
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[1:3])
        return rule(*args, **kwargs)

    monkeypatch.setattr(oracle, "quad", wrapper)
    rep = osc(HalfPower(0.0, 0.0))
    integrate_finite(math.sin, 0.0, 1.0)
    assert oracle.quad is wrapper
    # every caller looks the rule up as the module global, so the wrapper
    # sees each call: the end piece of the first lobe at the singular
    # origin, the only piece that fails the GK21 test, then the finite
    # integral; the batched lobes make no call
    assert rep.zero_intervals_used > 3
    assert calls == [(0.0, oracle._FIRST_LOBE_CUTS[0] * math.pi), (0.0, 1.0)]


# ---------------------------------------------------------------- batched lobes

def test_gk21_gauss_subset_is_leggauss_10():
    x, w = np.polynomial.legendre.leggauss(10)
    # the literal table lists the positive nodes, largest first
    assert np.max(np.abs(np.array(oracle._GK21_NODES[1::2]) - x[:4:-1])) <= 1e-15
    assert np.max(np.abs(np.array(oracle._G10_WEIGHTS) - w[:4:-1])) <= 1e-15
    _, nodes, weights, _ = oracle._gk21()
    gauss = weights[:, 1] != 0.0
    assert np.max(np.abs(nodes[gauss] - x)) <= 1e-15
    assert np.max(np.abs(weights[gauss, 1] - w)) <= 1e-15


def test_gk21_is_exact_for_polynomials_up_to_degree_31():
    _, nodes, weights, _ = oracle._gk21()
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
    """Route every lobe through the fallback rule, as with a scalar
    integrand only: the array integrand is handed over as a float one."""
    lobe_sum = oracle.lobe_sum
    monkeypatch.setattr(oracle, "lobe_sum",
                        lambda f, breakpoints, ctl, f_over=None:
                        lobe_sum(f if f_over is None else f_over(math), breakpoints, ctl))


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


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("weight", AGREEMENT_WEIGHTS, ids=lambda w: type(w).__name__)
def test_accelerated_series_stops_within_24_lobes(weight, kernel):
    # the rule starts its stop test at order 17 (where 2 / (3 + sqrt 8)^n
    # meets the default 1e-12) and stops when two orders agree
    assert osc(weight, kernel, 0.8).zero_intervals_used <= 24


def test_tail_lobe_with_a_jump_goes_to_quadpack(monkeypatch):
    # "quadpack" names the fallback rule, ``quad``, which took over from it
    jump = 9.5 * math.pi          # inside the tenth lobe, [9 pi, 10 pi]

    def over(step):
        return lambda m: lambda t: m.sin(t) / (t + 1.0) * (1.0 + step * (t > jump))

    breakpoints = lambda: oracle.kernel_breakpoints(Kernel.SIN, 1.0)
    fallback = _record_quad(monkeypatch)
    oracle.lobe_sum(over(0.0)(math), breakpoints(), f_over=over(0.0))
    smooth = list(fallback)
    fallback.clear()
    value, err, lobes, _ = oracle.lobe_sum(over(0.5)(math), breakpoints(), f_over=over(0.5))
    assert lobes > 10
    assert fallback == smooth + [(9 * math.pi, 10 * math.pi)]
    ref, ref_err, _, _ = oracle.lobe_sum(over(0.5)(math), breakpoints())
    assert abs(value - ref) <= err + ref_err


def test_e_it_lobe_with_a_jump_goes_to_quad_as_one_complex_lobe(monkeypatch):
    # the private e^(it) kernel sums C + iS in one series over the sine zeros;
    # a lobe that fails its test goes to quad with the complex integrand.  The
    # reference splits the jump off: I(0) + I(9.5 pi) / 2, I(s) of 1/(t + 1) from s
    weight = lambda m: lambda t: 1.0 / (t + 1.0)
    jump = lambda m: lambda t: (1.0 + 0.5 * (t > 9.5 * math.pi)) / (t + 1.0)
    fallback = _record_quad(monkeypatch)
    value, err, _, _ = oracle.lobe_sum(None, oracle.kernel_breakpoints(Kernel.SIN, 1.0),
                                       f_over=oracle._Phase(jump, oracle._EXP, 1.0, 1))
    assert fallback == [(9 * math.pi, 10 * math.pi)]
    parts = [oracle.oscillatory_integral(None, kernel, 1.0, start, g_over=weight)
             for kernel in (Kernel.COS, Kernel.SIN) for start in (0.0, 9.5 * math.pi)]
    c, c_jump, s, s_jump = (rep.value for rep in parts)
    assert abs(value - complex(c + 0.5 * c_jump, s + 0.5 * s_jump)) <= err + sum(
        rep.abs_err_est for rep in parts)


def test_the_e_it_kernel_stays_private():
    # Kernel keeps its two members, and no caller can name e^(it) as a kernel
    assert list(Kernel) == [Kernel.SIN, Kernel.COS]
    with pytest.raises(DomainError):
        IntegrandSpec(HalfPower(0.0, 1.0), "exp")
    t = np.linspace(0.0, 7.0, 5)
    assert np.array_equal(oracle._trig(oracle._EXP, np)(t), np.exp(1j * t))


@pytest.mark.parametrize("kernel", list(Kernel))
def test_half_power_lobes_make_no_fallback_call(monkeypatch, kernel):
    # the first lobe, where the weight is steepest, fails the GK21 test as
    # a whole; cut into pieces graded toward the origin, it settles in the
    # block with the other lobes
    calls = _record_quad(monkeypatch)
    rep = osc(HalfPower(0.0, 1.0), kernel)
    assert rep.zero_intervals_used == (19 if kernel is Kernel.SIN else 20)
    assert calls == []


def _record_block_rows(monkeypatch):
    """The piece count of every batched GK21 evaluation."""
    rule = oracle._gk21_rule
    rows = []
    monkeypatch.setattr(oracle, "_gk21_rule", lambda fv, x, scale: rows.append(len(x)) or rule(fv, x, scale))
    return rows


# the first block's graded pieces: the first lobe cut in 9, the second halved
GRADED_PIECES = len(oracle._FIRST_LOBE_CUTS) + 1 + 2


@pytest.mark.parametrize("kernel", list(Kernel))
def test_first_block_holds_the_lobes_the_tolerance_needs(monkeypatch, kernel):
    # at rel_tol 1e-12 the rule starts at order n0 = 17; the first block
    # holds n0 + 4 lobes, the graded first two and n0 + 2 whole ones, and
    # the integral needs no other
    rows = _record_block_rows(monkeypatch)
    rep = osc(HalfPower(0.0, 1.0), kernel)
    assert rows == [GRADED_PIECES + 17 + 2]
    assert rep.zero_intervals_used <= 17 + 4


def test_first_block_grows_with_the_tolerance(monkeypatch):
    # rel_tol 1e-14 starts the rule at order 19: two lobes more
    rows = _record_block_rows(monkeypatch)
    osc(HalfPower(0.0, 1.0))
    osc(HalfPower(0.0, 1.0), ctl=SeriesControl(rel_tol=1e-14))
    assert rows[1] == rows[0] + 2


@pytest.mark.parametrize("x, value, bound, lobes", [
    (0.2973751452588066, -0.001540198573883642357209309, 2.9e-13, 24),
    (0.28698290819168554, -0.01189614368184339681135613, 5.1e-14, 23),
])
def test_integral_past_the_first_block_keeps_its_value(monkeypatch, x, value, bound, lobes):
    # oracle-grid integrals that outran a first block of 21 lobes, against
    # 40-digit mpmath on the rotated contour; their lobe counts are those
    # of a fixed 32-lobe block.  Both values cancel to 1e-3 and 1e-2 of
    # their lobes, and the bounds are what the 32-lobe block's values met
    rows = _record_block_rows(monkeypatch)
    rep = osc(LogHalfPower(x))
    assert len(rows) == 2
    assert rep.zero_intervals_used == lobes
    assert abs(rep.value - value) <= bound * abs(value)


def _settled(block):
    """(integral, error) of each lobe of a block from ``_block_lobes``, in
    order; a lobe marked for ``quad`` is integrated as it is reached."""
    values, errs, _, _ = block
    for value, err in zip(values, errs):
        yield err()[:2] if value is None else (value, err)


# steep first lobes: weights over a math module (at p = 2.625 and
# 3.375 the cut lobes come nearest their tolerance)
GRADED_WEIGHTS = {
    "HalfPower(4.7, 0.126)": lambda m: lambda t: (t + 0.126) ** -5.2,
    "HalfPower(2.125, 0.0327)": lambda m: lambda t: (t + 0.0327) ** -2.625,
    "HalfPower(2.875, 0.0079)": lambda m: lambda t: (t + 0.0079) ** -3.375,
    "HalfPower(2.5, 0.05)": lambda m: lambda t: (t + 0.05) ** -3.0,
    "HalfPower(0, 0.01)": lambda m: lambda t: (t + 0.01) ** -0.5,
    "TwoRadical(0.05, 0.3)": lambda m: lambda t: 1.0 / m.sqrt((t + 0.05) * (t + 0.3)),
    "LogHalfPower(0.05)": lambda m: lambda t: m.log(t + 0.05) / m.sqrt(t + 0.05),
}


@pytest.mark.parametrize("kernel, table", [pytest.param(k, t, id=k.value + "-table" * t)
                                           for t in (False, True) for k in Kernel])
@pytest.mark.parametrize("name", sorted(GRADED_WEIGHTS))
def test_cut_lobes_meet_the_tolerance_of_a_whole_lobe(name, kernel, table):
    # the pieces of the first two lobes share the tolerance quad holds a
    # lobe to, max(epsabs, epsabs |lobe|); each is not given all of it.
    # The first block comes from the phase table for the integrand object
    # itself, and from the zero stream for the same integrand as a plain
    # function
    epsabs = 1e-14
    phase = oracle._Phase(GRADED_WEIGHTS[name], kernel, 1.0, 1)
    breakpoints = islice(oracle.kernel_breakpoints(kernel, 1.0), 1, None)
    # a first block of 21 lobes, as at the default tolerance
    block = oracle._block_lobes(phase if table else phase.__call__, 0.0, breakpoints, epsabs, 21)
    for value, err in islice(_settled(block), 2):
        assert err <= max(epsabs, epsabs * abs(value)) * (1.0 + 1e-9)


def test_failed_lobe_is_marked_and_integrated_only_when_called(monkeypatch):
    # a jump inside the tenth lobe: in the first block from the zero stream
    # that lobe alone is marked, None with the quad call as its error, and
    # nothing is integrated until that call is made
    over = lambda m: lambda t: m.sin(t) / (t + 1.0) * (1.0 + 0.5 * (t > 9.5 * math.pi))
    zeros = islice(oracle.kernel_breakpoints(Kernel.SIN, 1.0), 1, None)
    calls = _record_quad(monkeypatch)
    values, errs, _, _ = oracle._block_lobes(over, 0.0, zeros, 1e-14, 21)
    assert len(values) == len(errs) == 21
    assert [j for j, v in enumerate(values) if v is None] == [9]
    assert calls == []
    value, err = errs[9]()[:2]
    assert calls == [(9 * math.pi, 10 * math.pi)]
    assert abs(value) > 0.0 and 0.0 <= err <= 1e-14 * max(1.0, abs(value))


@pytest.mark.parametrize("seed", range(4))
def test_graded_lobe_passes_exactly_when_every_piece_is_within_its_part(monkeypatch, seed):
    # the lobe's tolerance, parted among its pieces as epsabs max(1, |value|)
    # own / sum(own), own the larger of a piece's length share and |K21|;
    # differences adding up to less than half of epsabs min(shares) /
    # (1 + sum |K21|) pass in the block without the parts being formed.  One
    # difference just below that bound, or just either side of its own part,
    # must be judged as the parts judge it: quad takes its piece exactly when
    # it is above its part.  The rule's arrays are the test's own
    rng = random.Random(seed)
    epsabs = 1e-14
    calls, rule = [], []
    monkeypatch.setattr(oracle, "quad", lambda fv, a, b, **k: calls.append((a, b)) or (0.0, 0.0))
    monkeypatch.setattr(oracle, "_gk21_rule", lambda fv, x, scale: rule[0])
    for _ in range(400):
        lo = rng.choice([0.0, rng.uniform(0.0, 50.0)])
        zeros = [lo + rng.uniform(0.01, 10.0) * k for k in (1, 2)]
        _, graded = oracle._first_layout(lo, zeros)
        for g, shares in enumerate(graded):
            kron = [rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-12, 12) for _ in shares]
            own = [max(share, abs(k)) for share, k in zip(shares, kron)]
            parts = [epsabs * max(1.0, abs(sum(kron))) / sum(own) * w for w in own]
            bound = 0.5 * epsabs * min(shares) / (1.0 + sum(map(abs, kron)))
            j = rng.randrange(len(shares))
            for diff_j in (bound * 0.9999, parts[j] * 0.999, parts[j] * 1.001):
                diff = [0.0] * len(shares)
                diff[j] = diff_j
                # the other cut lobe's pieces are 0 and pass
                blank = [[0.0] * len(s) for s in graded]
                rule[:] = [tuple(np.array(sum(blank[:g] + [lobe] + blank[g + 1:], []))
                                 for lobe in (kron, diff))]
                values, errs, _, _ = oracle._block_lobes(lambda m: None, lo, iter(zeros), epsabs, 2)
                assert values[1 - g] == 0.0
                assert (values[g] is not None) or diff_j >= bound
                calls.clear()
                value, err = (values[g], errs[g]) if values[g] is not None else errs[g]()
                assert (calls == []) == (diff_j <= parts[j])
                if not calls:
                    assert (value, err) == (sum(kron), diff_j)


# ----------------------------------------------------------- the phase table

def _count_trig(monkeypatch):
    """The names of numpy's sin and cos at every call of either."""
    calls = []
    for name in ("sin", "cos"):
        f = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    return calls


def _integrand_of(monkeypatch, weight, kernel, zeta):
    """(integrand over a math module, zero stream) that
    ``integrate_semi_infinite`` hands ``lobe_sum`` for ``weight``."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(oracle, "lobe_sum", lambda f, breakpoints, ctl, f_over=None:
                  seen.append((f_over, breakpoints)) or (0.0, 0.0, 0, False))
        osc(weight, kernel, zeta)
    return seen[0]


@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("weight", [HalfPower(0.0, 1.0), TwoRadical(0.5, 2.0),
                                    QuadraticPhase(1.3, 0.5)], ids=lambda w: type(w).__name__)
def test_first_block_takes_its_kernel_from_the_table(monkeypatch, weight, kernel):
    # once the table is built, an integral from 0 that needs no later
    # block evaluates no sine or cosine
    osc(weight, kernel, 0.8)
    calls = _count_trig(monkeypatch)
    assert osc(weight, kernel, 0.8).zero_intervals_used <= 21
    assert calls == []


@pytest.mark.parametrize("zeta", [0.3, 0.8, 2.5])
@pytest.mark.parametrize("kernel", list(Kernel))
@pytest.mark.parametrize("weight", AGREEMENT_WEIGHTS, ids=lambda w: type(w).__name__)
def test_table_block_agrees_with_the_stream_block(monkeypatch, weight, kernel, zeta):
    # the first block from the table, and from the zero stream for the same
    # integrand as a plain function, lobe by lobe: within the sum of their
    # errors, the rounding lobe_sum adds for a lobe, 4 eps |lobe|, and the
    # stream's own: its kernel argument is rounded at each node, by up to
    # eps j pi in lobe j, where the table reduces it exactly
    phase, zeros = _integrand_of(monkeypatch, weight, kernel, zeta)
    assert isinstance(phase, oracle._Phase)
    zeros = list(islice(zeros, 1, 22))
    table = _settled(oracle._block_lobes(phase, 0.0, iter(zeros), 1e-14, 21))
    stream = _settled(oracle._block_lobes(phase.__call__, 0.0, iter(zeros), 1e-14, 21))
    pairs = list(zip(table, stream, strict=True))
    assert len(pairs) == 21
    for j, ((a, da), (b, db)) in enumerate(pairs, 1):
        assert abs(a - b) <= da + db + (4.0 + j * math.pi) * EPS * abs(a)


@pytest.mark.parametrize("kernel", list(Kernel))
def test_integral_from_a_later_start_takes_the_stream(monkeypatch, kernel):
    # a nonzero start evaluates its kernel at the zeros of the stream, and
    # its integral is the one from 0 less the finite range before it
    g_over = lambda m: lambda t: 1.0 / m.sqrt((t + 0.5) * (t + 2.0))
    whole = oracle.oscillatory_integral(None, kernel, 0.8, 0.0, g_over=g_over)
    calls = _count_trig(monkeypatch)
    rest = oracle.oscillatory_integral(None, kernel, 0.8, 2.0, g_over=g_over)
    assert calls
    head = integrate_finite(None, 0.0, 2.0, f_over=lambda m: lambda t:
                            g_over(m)(t) * oracle._trig(kernel, m)(0.8 * t))
    assert (abs(whole.value - head.value - rest.value)
            <= whole.abs_err_est + head.abs_err_est + rest.abs_err_est)


@pytest.mark.parametrize("start", [1e15, math.nextafter(1000.0 * math.pi, 0.0)])
def test_first_lobe_whose_cuts_round_to_its_start(start):
    # 2^-8 of the first lobe is below half an ulp of the start, far out or a
    # few ulps below a zero, so its first pieces have length share 0
    g = lambda t: 1.0 / (t + 1.0)
    got = oracle.oscillatory_integral(None, Kernel.SIN, 1.0, start, g_over=lambda m: g)
    want = oracle.oscillatory_integral(g, Kernel.SIN, 1.0, start)
    assert abs(got.value - want.value) <= got.abs_err_est + want.abs_err_est


def test_frequencies_share_a_table_and_a_tolerance_has_its_own():
    misses = lambda: oracle._phase_table.cache_info().misses
    oracle._phase_table.cache_clear()
    osc(HalfPower(0.0, 1.0), Kernel.SIN, 0.3)
    osc(HalfPower(0.0, 1.0), Kernel.SIN, 2.5)
    osc(TwoRadical(0.5, 2.0), Kernel.SIN, 0.8)
    assert misses() == 1
    osc(HalfPower(0.0, 1.0), Kernel.SIN, 0.8, SeriesControl(rel_tol=1e-14))
    assert misses() == 2
    # another kernel, and the quadratic phase, have tables of their own
    osc(HalfPower(0.0, 1.0), Kernel.COS, 0.8)
    osc(QuadraticPhase(1.3, 0.5), Kernel.SIN)
    assert misses() == 4


@pytest.mark.parametrize("p, kernel", [(0.7, Kernel.COS), (0.9, Kernel.COS), (0.97, Kernel.COS),
                                       (1.9, Kernel.SIN)])
def test_singular_origin_is_extrapolated(p, kernel):
    # t^-p kernel(t) at x = 0: the end piece at the origin falls back, and
    # its error shrinks only like length^(1 - p) (cos) or length^(2 - p)
    # (sin) under bisection; Wynn's epsilon algorithm on the level sums
    # recovers Gamma(1 - p) cos or sin of (1 - p) pi/2 to its estimate.
    # At p = 0.97 the neighbours of the end piece, bisected for rounding
    # noise below their length share, would spoil the level sums
    trig = math.cos if kernel is Kernel.COS else math.sin
    exact = math.gamma(1.0 - p) * trig(0.5 * math.pi * (1.0 - p))
    rep = osc(HalfPower(p - 0.5, 0.0), kernel)
    assert abs(rep.value - exact) <= rep.abs_err_est <= 1e-12 * exact


def _record_quad_outcomes(monkeypatch):
    """Per QUADPACK call: (integrand evaluations, its warning or None)."""
    quad = oracle.quad
    outcomes = []

    def recording(*args, **kwargs):
        res = quad(*args, **kwargs)
        outcomes.append((res[2]["neval"], res[3] if len(res) > 3 else None))
        return res

    monkeypatch.setattr(oracle, "quad", recording)
    return outcomes


def test_fallback_lobe_is_settled_without_the_round_off_exit(monkeypatch):
    # HalfPower(0, 1) needs no fallback; at the singular origin of
    # HalfPower(0, 0) the end piece of the first lobe falls back, and
    # bisection toward t = 0 settles by extrapolation, well inside the
    # piece limit
    outcomes = _record_quad_outcomes(monkeypatch)
    osc(HalfPower(0.0, 1.0))
    assert outcomes == []
    for kernel in Kernel:
        rep = osc(HalfPower(0.0, 0.0), kernel)
        assert abs(rep.value - SQRT_HALF_PI) <= rep.abs_err_est <= 1e-13
    assert len(outcomes) == 2
    for neval, warning in outcomes:
        assert neval <= 21 * 20
        assert warning is None


def test_no_fallback_lobe_ends_at_the_round_off_exit(monkeypatch):
    # steep first lobes of magnitude ~1: asked for epsrel 1e-14, QUADPACK
    # ended nine calls in this set at its round-off exit; no call of the
    # in-house rule may end at its piece limit
    outcomes = _record_quad_outcomes(monkeypatch)
    warned = []
    for weight in AGREEMENT_WEIGHTS + [HalfPower(2.5, 0.05), TwoRadical(0.05, 0.3),
                                       LogHalfPower(0.05)]:
        for kernel in Kernel:
            outcomes.clear()
            osc(weight, kernel, 0.8)
            warned += [(weight, kernel, w) for _, w in outcomes if w is not None]
    assert warned == []


@pytest.mark.parametrize("x", [0.05, 0.1, 0.3])
def test_log_half_power_sine_at_small_x_meets_mpmath(monkeypatch, x):
    # ln(t + x) changes sign inside the first lobe, so the integral of |f|
    # exceeds |value|: QUADPACK's first lobe ended at its round-off exit
    outcomes = _record_quad_outcomes(monkeypatch)
    rep = osc(LogHalfPower(x))
    assert abs(rep.value - reference(LogHalfPower(x), 1.0)[Kernel.SIN]) <= rep.abs_err_est
    assert all(warning is None for _, warning in outcomes)


def test_smooth_weight_makes_no_quadpack_call(monkeypatch):
    # every lobe, the directly summed ones included, passes the GK21 test
    calls = _record_quad(monkeypatch)
    rep = osc(HalfPower(0.0, 10.0))
    assert rep.zero_intervals_used == 19
    assert calls == []


def _breakpoints_failing_after(n):
    yield from islice(oracle.kernel_breakpoints(Kernel.SIN, 1.0), n + 1)
    raise RuntimeError(f"more than {n} lobes requested")


CAP_INTEGRANDS = {
    "growing": lambda m: lambda t: t * m.sin(t),
}


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
@pytest.mark.parametrize("name", sorted(CAP_INTEGRANDS))
def test_direct_lobes_are_capped(name, batched):
    # lobe magnitudes that never decrease keep the series in its direct
    # phase; 10 * max_terms lobes end it
    over = CAP_INTEGRANDS[name]
    with pytest.raises(AccelerationStalledError,
                       match="^lobe magnitudes did not start decreasing within 50 lobes$"):
        oracle.lobe_sum(over(math), _breakpoints_failing_after(1000),
                        SeriesControl(max_terms=5), over if batched else None)


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
def test_series_stops_at_the_rule_highest_order(monkeypatch, batched):
    # lobe magnitudes that oscillate themselves are no moment sequence, so
    # the rule never settles; the sum raises at its highest order, long
    # before the lobe cap
    orders = []
    weights = oracle._crvz_weights
    monkeypatch.setattr(oracle, "_crvz_weights", lambda n: orders.append(n) or weights(n))
    over = lambda m: lambda t: m.sin(t) * (1.0 + 0.5 * m.cos(0.37 * t))
    with pytest.raises(AccelerationStalledError,
                       match="^lobe series failed tolerance 1e-12 by CRVZ order 40$"):
        oracle.lobe_sum(over(math), _breakpoints_failing_after(60),
                        f_over=over if batched else None)
    assert orders[-1] == max(orders) == oracle._CRVZ_MAX_ORDER


# breakpoints of a finite stream, and the CRVZ orders the sum then forms:
# a stream without even a lower limit ends it at once, 2 lobes end it in
# the direct phase (which needs 3), 7 lobes in the accelerated phase,
# after one total of order 5 (the first at 1e-4)
EXHAUSTED = {"empty": (0, []), "direct": (3, []), "accelerated": (8, [5])}


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
@pytest.mark.parametrize("phase", sorted(EXHAUSTED))
def test_finite_breakpoint_stream_is_exhausted(monkeypatch, phase, batched):
    points, want = EXHAUSTED[phase]
    orders = []
    weights = oracle._crvz_weights
    monkeypatch.setattr(oracle, "_crvz_weights", lambda n: orders.append(n) or weights(n))
    over = lambda m: lambda t: m.sin(t) / (t + 1.0)
    breakpoints = islice(oracle.kernel_breakpoints(Kernel.SIN, 1.0), points)
    with pytest.raises(AccelerationStalledError, match="^breakpoint stream exhausted$"):
        oracle.lobe_sum(over(math), breakpoints, SeriesControl(rel_tol=1e-4),
                        over if batched else None)
    assert orders == want


def test_unknown_weight_is_domain_error():
    with pytest.raises(DomainError, match="^unknown weight "):
        integrate_semi_infinite(IntegrandSpec(object(), Kernel.SIN))


def _nan_beyond(jump):
    def over(m):
        if m is math:
            return lambda t: math.sin(t) / (t + 1.0) if t <= jump else math.nan
        return lambda t: m.where(t <= jump, m.sin(t) / (t + 1.0), math.nan)
    return over


# integrand over a math module, and its first non-finite lobe: in the
# direct phase, in the accelerated phase, and a lobe that overflows
NAN_INTEGRANDS = {
    "first": (lambda m: lambda t: math.nan * m.sin(t), 1),
    "tenth": (_nan_beyond(9.5 * math.pi), 10),
    "nineteenth": (_nan_beyond(18 * math.pi), 19),
    "overflow": (lambda m: lambda t: 1e308 * m.sin(t), 1),
}


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
@pytest.mark.parametrize("name", sorted(NAN_INTEGRANDS))
def test_nan_lobe_stops_the_sum(monkeypatch, name, batched):
    # a non-finite lobe can never converge: the sum stops at that lobe
    # instead of integrating up to the lobe cap, and without a warning
    over, lobe = NAN_INTEGRANDS[name]
    calls = _record_quad(monkeypatch)
    with pytest.raises(AccelerationStalledError, match=f"not finite at lobe {lobe}$"):
        oracle.lobe_sum(over(math), oracle.kernel_breakpoints(Kernel.SIN, 1.0),
                        f_over=over if batched else None)
    # the last call of the fallback rule lies in that lobe: the whole lobe
    # on the scalar path, where the rule integrates every lobe, one of its
    # pieces failing the GK21 test when batched (the first lobe is cut)
    lo, hi = calls[-1]
    assert (lobe - 1) * math.pi <= lo < hi <= lobe * math.pi
    if not batched:
        assert calls[-1] == ((lobe - 1) * math.pi, lobe * math.pi)


@pytest.mark.parametrize("batched", [False, True], ids=["quadpack", "batched"])
@pytest.mark.parametrize("lobe", [20, 21])
def test_lobes_past_the_stop_are_not_integrated(monkeypatch, lobe, batched):
    # sin(t)/(t + 1) stops at 19 lobes; NaN from lobe 20 or 21 on changes
    # nothing.  Batched, those lobes fail the GK21 test in the first block,
    # and the sum stops before it would hand them to the fallback rule
    over, clean = _nan_beyond((lobe - 1) * math.pi), _nan_beyond(math.inf)
    breakpoints = lambda: oracle.kernel_breakpoints(Kernel.SIN, 1.0)
    want = oracle.lobe_sum(clean(math), breakpoints(), f_over=clean if batched else None)
    calls = _record_quad(monkeypatch)
    got = oracle.lobe_sum(over(math), breakpoints(), f_over=over if batched else None)
    assert got == want and got[2] == 19
    assert len(calls) == (0 if batched else 19)


# ------------------------------------- the fallback rule against QUADPACK

def _weight_over(rng):
    """A seeded in-grid weight over a math module."""
    x, p = rng.uniform(0.05, 10.0), rng.randint(0, 5) + 0.5
    a = rng.uniform(0.05, 1.0)
    b = a + rng.uniform(0.2, 3.5)
    return rng.choice([lambda m: lambda t: (t + x) ** -p,
                       lambda m: lambda t: 1.0 / m.sqrt((t + a) * (t + b)),
                       lambda m: lambda t: 1.0 / (m.sqrt(t + a) * (t + b)),
                       lambda m: lambda t: m.log(t + x) / m.sqrt(t + x)])


def _lobe_cases(seed, n):
    """(f over a math module, lo, hi): the first, second and fifth lobes
    of seeded weights under either kernel."""
    rng = random.Random(seed)
    cases = []
    for i in range(n):
        w, kernel, zeta = _weight_over(rng), rng.choice(list(Kernel)), rng.uniform(0.25, 2.0)
        edges = list(islice(oracle.kernel_breakpoints(kernel, zeta), 6))
        k = (0, 1, 4)[i % 3]

        def over(m, w=w, kernel=kernel, zeta=zeta):
            g, trig = w(m), oracle._trig(kernel, m)
            return lambda t: g(t) * trig(zeta * t)
        cases.append((over, edges[k], edges[k + 1]))
    return cases


def _head_cases(seed, n):
    """(f over a math module, 0, gamma): radical heads of both families at
    the phases c gamma^2 in (25, 40] that the closed forms integrate."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        kernel, power = rng.choice(list(Kernel)), rng.choice([0.5, 1.0])
        gamma = rng.uniform(1.0, 6.0)
        c = rng.uniform(25.0, 40.0) / gamma ** 2

        def over(m, kernel=kernel, c=c, power=power):
            trig = oracle._trig(kernel, m)
            return lambda z: trig(c * z * z) * (z * z + 1.0) ** -power
        cases.append((over, 0.0, gamma))
    return cases


CROSS_CASES = _lobe_cases(16, 24) + _head_cases(17, 12)


@pytest.mark.parametrize("case", range(len(CROSS_CASES)))
def test_fallback_rule_agrees_with_quadpack(case):
    # scipy is a test extra: QUADPACK, asked for 100 eps relative (the
    # finest it can meet), is an independent adaptive rule with its own
    # error estimate; full output returns its round-off exit as a message
    # (some lobes of the log weight end there) instead of a warning
    from scipy.integrate import quad as quadpack

    over, lo, hi = CROSS_CASES[case]
    res = oracle.quad(over(np), lo, hi, epsabs=1e-15, epsrel=1e-13)
    assert len(res) == 3
    ref, ref_err = quadpack(over(math), lo, hi, epsabs=1e-15, epsrel=100 * EPS, limit=200,
                            full_output=1)[:2]
    assert abs(res[0] - ref) <= res[1] + ref_err


def test_fallback_rule_stops_at_a_level_that_bisects_no_piece():
    # The integrand is nonzero only at the first (Kronrod-only) node of
    # each piece, set so that a piece of length l has |K21 - G10| = D(l),
    # chosen for tolerance 1 on [0, 1]: on [0, 1/4] D = 1.2 l, above the
    # length share, down to l = 1/256, below 1/200, where D = 0.95/200,
    # under the 1/200 floor; on [1/4, 1] D = 0.95 l.  The 64 + 6 pieces
    # then sum to 1.0165 with none above its share and 0.89 away from
    # the ends (no extrapolation), so a further level would bisect
    # nothing and change nothing.
    _, nodes, weights, _ = oracle._gk21()
    w0 = weights[0, 0]
    evals = []

    def fv(t):
        evals.append(t.shape[0])
        assert len(evals) <= 10, "no progress: the same level again"
        half = (t[:, -1] - t[:, 0]) / (2.0 * nodes[-1])
        length = 2.0 * half
        left = t[:, 10] < 0.25
        d = np.where(left, np.where(length < 1 / 200, 0.95 / 200, 1.2 * length), 0.95 * length)
        out = np.zeros_like(t)
        out[:, 0] = d / (half * w0)
        return out

    res = oracle.quad(fv, 0.0, 1.0, epsabs=1.0, epsrel=0.0)
    assert len(res) == 4 and "above the tolerance" in res[3]
    assert res[2]["last"] == 64 + 6
    assert abs(res[1] - (64 * 0.95 / 200 + 6 * 0.95 / 8)) <= 1e-12
    assert evals == [8, 4, 8, 16, 32, 64]


# ---------------------------------------------- Cohen-Villegas-Zagier rule

def _exact_crvz_weights(n):
    """Algorithm 1 of Cohen, Rodriguez Villegas & Zagier in exact rationals,
    with d = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 from the binomial expansion."""
    d = sum(math.comb(n, j) * 3 ** (n - j) * 8 ** (j // 2) for j in range(0, n + 1, 2))
    b, c = Fraction(-1), Fraction(-d)
    weights = []
    for k in range(n):
        c = b - c
        weights.append((-1) ** k * c / d)
        b = (k + n) * (k - n) * b / ((k + Fraction(1, 2)) * (k + 1))
    return weights


def _crvz_bound(n):
    return 2.0 / (3.0 + math.sqrt(8.0)) ** n


def test_crvz_weights_are_the_exact_recurrence_rounded():
    for n in range(1, oracle._CRVZ_MAX_ORDER + 1):
        exact = _exact_crvz_weights(n)
        assert all(0 < w <= 1 for w in exact)
        assert oracle._crvz_weights(n) == tuple(float(w) for w in exact)


@pytest.mark.parametrize("series", [
    (lambda k: 1.0 / (k + 1), math.log(2.0)),
    (lambda k: 1.0 / (2 * k + 1), 0.25 * math.pi),
], ids=["ln2", "pi_over_4"])
def test_crvz_rule_meets_its_bound_on_classic_series(series):
    term, want = series
    for n in range(2, 41):
        terms = [(-1) ** k * term(k) for k in range(n)]
        got = sum(map(mul, oracle._crvz_weights(n), terms))
        assert abs(got - want) <= (_crvz_bound(n) + 4 * EPS) * want


@pytest.mark.parametrize("seed", range(8))
def test_crvz_rule_meets_its_bound_on_moment_sequences(seed):
    # a_k = sum_i p_i x_i^k, the moments of a positive measure on [0, 1]:
    # sum_k (-1)^k a_k = sum_i p_i / (1 + x_i), and the n-term rule is
    # within 2 / (3 + sqrt 8)^n of it, plus the rounding of its n products
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    x, p = rng.uniform(0.0, 1.0, m).tolist(), rng.uniform(0.1, 1.0, m).tolist()
    want = math.fsum(pi / (1.0 + xi) for pi, xi in zip(p, x))
    for n in range(2, 41):
        terms = [(-1) ** k * math.fsum(pi * xi ** k for pi, xi in zip(p, x)) for k in range(n)]
        products = list(map(mul, oracle._crvz_weights(n), terms))
        rounding = 4 * EPS * math.fsum(map(abs, products))
        assert abs(sum(products) - want) <= _crvz_bound(n) * want + rounding
