"""Two-radical transforms: tails, heads, assembly, approximations."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    ConvergenceError,
    DomainError,
    IntegrandSpec,
    Kernel,
    RadicalPole,
    SeriesControl,
    TwoRadical,
    approx_cos_transform,
    approx_sin_transform,
    cos_transform,
    head_cos_approx,
    head_cos_series,
    head_sin_approx,
    head_sin_series,
    integrate_semi_infinite,
    pole_head_cos_series,
    pole_head_sin_series,
    pole_cos_transform,
    pole_sin_transform,
    sin_transform,
    tail_cos,
    tail_sin,
)
from oscint import radical_pole as rp
from oscint import two_radical as tr
from oscint.two_radical import TwoRadicalParams

import mpref

J0_1 = 0.76519768655796655
Y0_1 = 0.088256964215676958


def test_tail_formulas_at_c2():
    # c=2 puts the Bessel argument at 1, where goldens are frozen
    want_sin = 0.25 * math.pi * (math.sin(1.0) * Y0_1 + math.cos(1.0) * J0_1)
    want_cos = 0.25 * math.pi * (math.sin(1.0) * J0_1 - math.cos(1.0) * Y0_1)
    assert abs(tail_sin(2.0) - want_sin) < 1e-12
    assert abs(tail_cos(2.0) - want_cos) < 1e-12


def test_tail_domain():
    with pytest.raises(DomainError):
        tail_sin(0.0)
    with pytest.raises(DomainError):
        tail_cos(-1.0)


def test_heads_trivial_and_golden():
    assert head_sin_series(1.0, 0.0) == 0.0
    assert head_cos_series(1.0, 0.0) == 0.0
    assert abs(head_sin_series(1.0, 1.0) - 0.24903800968862944) < 1e-11
    assert abs(head_cos_series(1.0, 1.0) - 0.80787037287786862) < 1e-11


def test_head_series_budget():
    with pytest.raises(ConvergenceError):
        head_sin_series(100.0, 1.0)         # phase too large for doubles
    with pytest.raises(ConvergenceError):
        head_cos_series(2.0, 1.0, SeriesControl(rel_tol=1e-12, max_terms=1))


def test_head_approx_trivials():
    assert head_sin_approx(5.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        head_sin_approx(5.0, 1.2)
    with pytest.raises(DomainError):
        head_cos_approx(0.0, 0.5)


def test_head_cos_approx_printed_coefficient():
    # verbatim prefactor is -g/c, corrected is -g/(4c)
    c, g = 10.0, 0.5
    diff = head_cos_approx(c, g, as_printed=True) - head_cos_approx(c, g)
    want = -(g / c - g / (4.0 * c)) * math.sin(c * g * g)
    assert abs(diff - want) < 1e-15


def test_transform_goldens():
    assert abs(sin_transform(1.0, 2.0, 1.0) - 0.49826494947386386) < 5e-9
    assert abs(cos_transform(1.0, 2.0, 1.0) - 0.22773934152826046) < 5e-9


def test_equal_constants_route():
    # a = b collapses to a single pole handled via generalized si/ci
    assert abs(sin_transform(1.0, 1.0, 1.0) - 0.62144962423581336) < 1e-9
    want = (math.cos(1.0) * (0.5 * math.pi - 0.94608307036718301)
            + math.sin(1.0) * 0.33740392290096813)
    assert abs(sin_transform(1.0, 1.0, 1.0) - want) < 1e-9


def test_swap_symmetry_exact():
    assert sin_transform(2.0, 1.0, 1.0) == sin_transform(1.0, 2.0, 1.0)
    assert cos_transform(4.0, 0.5, 2.0) == cos_transform(0.5, 4.0, 2.0)


def test_params_canonicalization():
    p = TwoRadicalParams(3.0, 1.0, 1.0)
    assert (p.a, p.b) == (1.0, 3.0)
    assert p.gamma == math.sqrt(0.5)
    with pytest.raises(DomainError):
        TwoRadicalParams(1.0, -2.0, 1.0)


def test_gamma_above_one_uses_pfaff_route():
    # b < 2a puts the hypergeometric argument outside the unit disk; the
    # heads' moments then recur upward from atan/asinh instead
    p = TwoRadicalParams(1.0, 1.5, 1.0)
    assert p.gamma > 1
    v = sin_transform(1.0, 1.5, 1.0)
    q = sin_transform(1.0, 1.5, 1.0, heads_by_quadrature=True)
    assert abs(v - q) < 1e-10 * max(1.0, abs(v))


def test_approx_transform_requires_small_gamma():
    with pytest.raises(DomainError):
        approx_sin_transform(1.0, 1.5, 1.0)      # gamma = sqrt(2) > 1
    v = approx_cos_transform(0.5, 4.0, 2.0)      # gamma = 0.378
    assert abs(v - cos_transform(0.5, 4.0, 2.0)) < 0.05


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=40, deadline=None)
def test_swap_symmetry_property(a, b):
    assert sin_transform(a, b, 1.0) == sin_transform(b, a, 1.0)


NON_FINITE = {
    "sin.a": lambda v: sin_transform(v, 2.0, 1.0),
    "cos.b": lambda v: cos_transform(1.0, v, 1.0),
    "sin.zeta": lambda v: sin_transform(1.0, 2.0, v),
    "approx.b": lambda v: approx_sin_transform(0.5, v, 1.0),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", sorted(NON_FINITE))
def test_non_finite_input_is_domain_error(call, bad):
    with pytest.raises(DomainError, match="finite"):
        NON_FINITE[call](bad)


def test_nan_head_arguments_are_domain_errors():
    with pytest.raises(DomainError):
        head_sin_series(math.nan, 0.5)
    with pytest.raises(DomainError):
        head_cos_series(1.0, math.nan)
    with pytest.raises(DomainError):
        head_sin_approx(math.nan, 0.5)


@pytest.mark.parametrize("a,b,zeta", [(0.5, 2.0, 1.3), (0.9, 1.2, 1.9), (1.0, 1.5, 1.0),
                                      (36.0, 37.0, 0.01)])
@pytest.mark.parametrize("transform", [sin_transform, cos_transform])
def test_one_moment_table_and_one_tail_pass(count_calls, transform, a, b, zeta):
    # one 2F1 seeds the downward recurrence for gamma <= 1; above, the
    # closed-form m_0 seeds it upward and no 2F1 runs at all
    counts = count_calls(tr, "hyp2f1", "bessel_j0", "bessel_y0")
    transform(a, b, zeta)
    gamma = TwoRadicalParams(a, b, zeta).gamma
    assert counts == {"hyp2f1": int(gamma <= 1), "bessel_j0": 1, "bessel_y0": 1}


def _head_accuracy_grid():
    # gamma log-uniform over [0.02, 40] plus both sides of the switch between
    # downward (gamma <= 1) and upward recurrence; one phase c gamma^2 in
    # each tolerance band
    rng = random.Random(20261018)
    gammas = [math.exp(rng.uniform(math.log(0.02), math.log(40.0))) for _ in range(24)]
    out = []
    for gamma in gammas + [1.0 - 1e-9, 1.0, 1.0 + 1e-9]:
        out.append((gamma, math.exp(rng.uniform(math.log(1e-3), math.log(10.0))), 1e-12))
        out.append((gamma, rng.uniform(10.0, 25.0), 1e-5))
    # where the seed's 2F1 is shortest: c up to 7 at gamma 0.05 to 0.3 puts its
    # depth at the floor of 8 digits, the rest left to the recurrence's damping
    for gamma in (0.05, 0.1, 0.2, 0.3):
        out += [(gamma, c * gamma * gamma, 1e-14) for c in (1.0, 3.0, 7.0)]
    return out


@pytest.mark.parametrize("power,heads", [
    (0.5, (head_sin_series, head_cos_series)),
    (1.0, (pole_head_sin_series, pole_head_cos_series)),
], ids=["two-radical", "radical-pole"])
def test_head_series_against_mpmath(power, heads):
    mpmath = pytest.importorskip("mpmath")
    worst = []
    with mpmath.workdps(30):
        for gamma, phase, tol in _head_accuracy_grid():
            if phase > 12.0:
                # past the phase guard the series is refused
                for head in heads:
                    with pytest.raises(ConvergenceError, match="too large"):
                        head(phase / (gamma * gamma), gamma)
                continue
            # at the phase drawn, and the series at the phase's c as rounded to double
            ref = mpref.head(mpmath.mpf(phase) / mpmath.mpf(gamma) ** 2, gamma, power, 30)
            c = phase / (gamma * gamma)
            for head, want in zip(heads, ref):
                err = float(abs((head(c, gamma) - want) / want))
                worst.append((err / tol, head.__name__, gamma, phase, err))
    assert max(worst)[0] <= 1.0, max(worst)


@pytest.mark.parametrize("transforms, weight", [
    ((sin_transform, cos_transform), TwoRadical),
    ((pole_sin_transform, pole_cos_transform), RadicalPole),
], ids=["two-radical", "radical-pole"])
def test_wide_transforms_past_the_phase_guard_meet_the_oracle(transforms, weight):
    # wide-stratum points at phase zeta a = c gamma^2 in [13, 24], where the
    # head series lost up to 9e-5; the heads are now integrated
    rng = random.Random(20261019)
    tight = SeriesControl(1e-14, 2000)
    for _ in range(12):
        zeta = rng.uniform(0.5, 2.0)
        a = rng.uniform(13.0, 24.0) / zeta
        b = a + rng.uniform(0.2, 3.5)
        for transform, kernel in zip(transforms, Kernel):
            ref = integrate_semi_infinite(IntegrandSpec(weight(a, b), kernel, zeta), tight)
            assert abs(transform(a, b, zeta) - ref.value) <= 1e-10 * abs(ref.value), (a, b, zeta)


def _table_top_loop(x, ctl):
    # the table's last index, or inf where the cap comes before the bound falls
    cap, floor = 2 * ctl.max_terms - 1, 1e-3 * ctl.rel_tol * min(1.0, x)
    bound, j = 1.0, 0
    while j < cap and (j <= x or bound >= floor):
        j += 1
        bound *= x / j
    return min(j + 1, cap) if j > x and bound < floor else math.inf


@pytest.mark.parametrize("ctl", [SeriesControl(), SeriesControl(1e-15, 4000),
                                 SeriesControl(1e-6, 500), SeriesControl(1e-12, 4)],
                         ids=["default", "tight", "loose", "capped"])
def test_cached_table_length_covers_the_loop(ctl):
    # the cached length is read at x rounded up to 1/16: never shorter than
    # the loop's at x, never longer than the loop's 1/16 further on; a table
    # the cap stops (None, the heads' stall) is one the loop's cap stops there
    rng = random.Random(20261018)
    xs = [k / 512 for k in range(1, 25 * 512 + 1)]
    xs += [10.0 ** rng.uniform(-14.0, 1.4) for _ in range(2000)]
    capped = 0
    for x in xs:
        top = tr._table_top(x, ctl)
        capped += top is None
        top = math.inf if top is None else top
        assert _table_top_loop(x, ctl) <= top <= _table_top_loop(x + 1.0 / 16.0, ctl), x
    assert (capped > 0) == (ctl.max_terms == 4)


_WEIGHTS = [((sin_transform, cos_transform), TwoRadical),
            ((pole_sin_transform, pole_cos_transform), RadicalPole)]


@pytest.mark.parametrize("transforms, weight", _WEIGHTS, ids=["two-radical", "radical-pole"])
def test_in_grid_transforms_near_unit_gamma_against_mpmath(transforms, weight):
    # at gamma^2 = a/(b-a) near 1 the downward moment recurrence does not
    # damp the error of the top moment's 2F1, so that 2F1 is summed to 1e-17,
    # and tail - head cancels, so both heads run to the table's top: at the
    # closed-grid wide point first below (gamma^2 = 0.9922) a two-radical
    # cosine whose head stopped at rel_tol was 1.3e-13 off
    rng = random.Random(20261018)
    worst, points = [], [(2.4928, 5.0052, 0.98746)]
    for _ in range(24):
        a = rng.uniform(0.2, 1.0)
        points.append((a, a + a / rng.uniform(0.9, 1.1), rng.uniform(0.25, 2.0)))
    for a, b, zeta in points:
        ref = map(float, mpref.contour(weight(a, b), zeta, 40))
        for transform, want in zip(transforms, ref):
            worst.append((abs(transform(a, b, zeta) - want) / abs(want), transform.__name__, a, b))
    assert max(worst)[0] <= 1e-14, max(worst)


@pytest.mark.parametrize("transforms, weight", _WEIGHTS, ids=["two-radical", "radical-pole"])
def test_contour_route_past_the_phase_guard_against_mpmath(transforms, weight):
    # past the guard both transforms come from one GK21 pass over the
    # rotated contour, where nothing cancels, so they hold double precision
    rng = random.Random(20261020)
    worst = []
    for _ in range(10):
        zeta = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        a = rng.uniform(12.5, 40.0) / zeta
        b = a + rng.uniform(0.2, 3.5)
        ref = map(float, mpref.contour(weight(a, b), zeta, 30))
        for transform, want in zip(transforms, ref):
            err = abs(transform(a, b, zeta) - want) / abs(want)
            worst.append((err, transform.__name__, a, b, zeta))
    assert max(worst)[0] <= 1e-14, max(worst)


def test_one_principal_root_of_the_product_is_the_contour_branch(monkeypatch):
    # on t = i s / zeta with s >= 0 each factor t + a has its argument in
    # [0, pi/2), so the two arguments sum below pi: the principal root of
    # the product is the product of the principal roots, and both continue
    # the real weight onto the contour
    weights = []
    contour = tr._contour
    monkeypatch.setattr(tr, "_contour",
                        lambda i, w, *rest: weights.append(w) or contour(i, w, *rest))
    sin_transform(20.0, 21.0, 1.0)
    rng = random.Random(20261021)
    for _ in range(500):
        a = math.exp(rng.uniform(-5.0, 5.0))
        b = a + math.exp(rng.uniform(-5.0, 3.0))
        t = 1j * rng.uniform(0.0, 40.0) / math.exp(rng.uniform(-3.0, 3.0))
        args = cmath.phase(t + a), cmath.phase(t + b)
        assert 0.0 <= min(args) and max(args) < 0.5 * math.pi and sum(args) < math.pi
        w = weights[0](cmath, a, b, t)
        assert abs(w - 1.0 / cmath.sqrt((t + a) * (t + b))) <= 1e-15 * abs(w), (a, b, t)


def test_contour_route_holds_at_extreme_scales():
    # the contour is taken at (zeta a, zeta b, 1), so neither weight leaves
    # double precision on it; two-radical transforms depend on zeta a and
    # zeta b alone, and at zeta a = 1e200 a sine is w(0)/zeta to all digits
    for a, b, zeta in ((2e-199, 3e-199, 1e200), (1e-300, 2e-300, 1.3e301)):
        for transform in (sin_transform, cos_transform):
            want = transform(zeta * a, zeta * b, 1.0)
            assert transform(a, b, zeta) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert sin_transform(1e200, 2e200, 1.0) == pytest.approx(2.0 ** -0.5 * 1e-200, rel=1e-15)
    assert pole_sin_transform(1e200, 2e200, 1.0) == pytest.approx(0.5e-300, rel=1e-15)


def _finite_calls(monkeypatch):
    """The (lo, hi) of every ``integrate_finite`` call the radical families make."""
    calls = []
    for module in (tr, rp):
        real = module.integrate_finite
        monkeypatch.setattr(module, "integrate_finite",
                            lambda *a, real=real, **k: calls.append(a[1:3]) or real(*a, **k))
    return calls


@pytest.mark.parametrize("transform", [sin_transform, cos_transform,
                                       pole_sin_transform, pole_cos_transform])
def test_integrate_finite_calls_per_route(monkeypatch, transform):
    calls = _finite_calls(monkeypatch)

    def count(*args, **kwargs):
        calls.clear()
        transform(*args, **kwargs)
        return len(calls)

    assert count(20.0, 21.5, 0.75) == 1           # past the guard: one contour pass
    assert calls == [(0.0, tr._CONTOUR_END)]
    assert count(2.0, 3.5, 0.75) == 0             # in grid: the head series
    assert count(20.0, 21.5, 0.75, heads_by_quadrature=True) == 1    # one complex head pair


@pytest.mark.parametrize("transform", [sin_transform, cos_transform,
                                       pole_sin_transform, pole_cos_transform])
def test_warm_contour_builds_no_first_level_node_matrix(count_calls, transform):
    # the rotated contour always integrates [0, _CONTOUR_END] and settles in
    # quad's first level, whose pieces and nodes it takes from the cache
    from oscint import oracle

    transform(20.0, 21.5, 0.75)
    misses = oracle._quad_start.cache_info().misses
    built = count_calls(oracle, "_nodes")
    for a in (14.0, 25.0, 39.0):
        transform(a, a + 1.7, 1.1)
    assert built == {"_nodes": 0}
    assert oracle._quad_start.cache_info().misses == misses


def test_approximation_tier_past_the_double_range_is_a_domain_error():
    # c = zeta (b - a) is subnormal: the endpoint terms gamma/(k c) and the
    # Fresnel root sqrt(pi / 2c) once gave inf or NaN
    for f, args in ((approx_sin_transform, (1e-30, 1e-20, 1e-290)),
                    (approx_cos_transform, (1e-300, 1e-20, 1e-300)),
                    (rp.approx_pole_cos_transform, (1e-300, 1e-20, 1e-300)),
                    (head_sin_approx, (1e-320, 1e-140)),
                    (head_cos_approx, (1e-320, 1e-140))):
        with pytest.raises(DomainError, match="double precision"):
            f(*args)
    # the printed pole cosine tail's spurious sqrt(2 pi / c) at subnormal c
    with pytest.raises(DomainError, match="must be finite"):
        pole_cos_transform(1e-300, 1e-20, 1e-300, as_printed=True)


def test_approximation_tier_makes_one_head_call_per_transform(count_calls):
    counts = [count_calls(module, "_head_approx") for module in (tr, rp)]
    for f in (approx_sin_transform, approx_cos_transform,
              rp.approx_pole_sin_transform, rp.approx_pole_cos_transform):
        f(1.0, 3.0, 2.0)
    assert counts == [{"_head_approx": 2}, {"_head_approx": 2}]


def test_pole_as_printed_past_the_guard_keeps_tail_minus_head(monkeypatch):
    # errata RP-COS-TAIL shows the verbatim cosine tail, so as_printed keeps
    # tail - head with the quadrature heads, bit for bit
    calls = _finite_calls(monkeypatch)
    assert pole_sin_transform(15.0, 16.5, 1.0, as_printed=True) == -1.2298735185917495
    assert pole_cos_transform(15.0, 16.5, 1.0, as_printed=True) == -1.4533822593267272
    assert pole_sin_transform(20.0, 20.5, 2.0, as_printed=True) == -6.102993642955001
    assert pole_cos_transform(20.0, 20.5, 2.0, as_printed=True) == -5.467355868257794
    assert len(calls) == 4


@pytest.mark.parametrize("transform", [sin_transform, cos_transform,
                                       pole_sin_transform, pole_cos_transform])
def test_series_stall_falls_back_to_one_quadrature_pair(monkeypatch, transform):
    # three terms per kernel cannot sum the heads at phase 9: the series
    # stalls in grid and both heads come from one complex quadrature
    ctl = SeriesControl(1e-12, 3)
    calls = _finite_calls(monkeypatch)
    value = transform(9.0, 10.5, 1.0, ctl)
    assert calls == [(0.0, math.sqrt(6.0))]         # gamma = sqrt(a / (b - a))
    assert value == transform(9.0, 10.5, 1.0, ctl, heads_by_quadrature=True)
