"""Identity and oracle-agreement grids, runnable as one suite.

Each group re-derives a family of invariants numerically (difference
equations, integration-by-parts pairs, scaling, decomposition and
cross-representation identities, oracle agreement).  A check function
yields one (name, measured error, tolerance) row per case; ``run`` turns
the rows into ``CheckResult`` values under the ``GROUPS`` key of the
function, so a group is named only there.  A row passes when its error is
below its tolerance, so a NaN error fails, and its margin is error /
tolerance; ``selfcheck --json`` reports each group's worst margin, so drift
shows before anything fails.  The CLI ``selfcheck`` subcommand and the
acceptance tests both run these.

An oracle-agreement row's tolerance is the oracle's own error estimate,
floored at 1e-12 of the value.  Every other tolerance is within 100x of
its group's worst measured error, unless a comment names the method that
sets it.

Everything here is deterministic: fixed grids, no randomness.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import namedtuple
from functools import partial

from . import half_power as hp
from . import lommel as lm
from . import radical_pole as rp
from . import two_radical as tr
from .control import DEFAULT_CONTROL, SeriesControl
from .errata import find as find_erratum
from .errors import DomainError, Kernel, Record
from .oracle import (
    HalfPower,
    IntegrandSpec,
    LogHalfPower,
    QuadraticPhase,
    RadicalPole,
    TwoRadical,
    integrate_finite,
    integrate_semi_infinite,
    oscillatory_integral,
)
from .special_functions import (bessel_j0, fresnel_c, fresnel_s, gamma_real, gen_ci, gen_si,
                                hyp2f1, upper_incomplete_gamma)
# dual-path checks need the raw series and fraction routes
from .special_functions import (_climb, _gamma_form, _gamma_form_holds, _gamma_series,
                                _gauss_series, _legendre_cf_backward, _phased_gamma, _zpow_exp)

__all__ = ["CheckResult", "GROUPS", "run", "group_names"]

_J0_FIRST_ZERO = 2.404825557695773


class CheckResult(Record, namedtuple("CheckResult", "group name error tolerance")):
    """One row: a measured error against its tolerance.  Its margin is error /
    tolerance, and inf for a NaN error, so that a plain max finds it."""

    __slots__ = ()

    @property
    def passed(self):
        return self.error < self.tolerance      # strict, and a NaN error fails

    @property
    def margin(self):
        return self.error / self.tolerance if self.error == self.error else math.inf


def _rel(got, want):
    scale = max(abs(got), abs(want), 1e-300)
    return abs(got - want) / scale


def _worst(parts):
    """The (error, tolerance) part of a row nearest failing: a failing part,
    a NaN error included, before any passing one."""
    return max(parts, key=lambda part: part[0] / part[1] if part[0] < part[1] else math.inf)


def _oracle(*spec):
    return integrate_semi_infinite(IntegrandSpec(*spec))


def _oracle_tol(report):
    return max(1e-12 * abs(report.value), report.abs_err_est)


# --------------------------------------------------------------------------
# special functions
# --------------------------------------------------------------------------

def check_fresnel_derivatives():
    # the central difference sets the limit: its truncation, h^2 (pi z)^2 / 6, is 4e-9 at z = 5
    h = 1e-5
    for z in [0.0, 0.5, 1.0, 1.5, 1.6, 2.0, 3.0, 4.0, 5.0]:
        ds = (fresnel_s(z + h) - fresnel_s(z - h)) / (2 * h)
        dc = (fresnel_c(z + h) - fresnel_c(z - h)) / (2 * h)
        yield f"z={z}", *_worst(((abs(ds - math.sin(0.5 * math.pi * z * z)), 1e-8),
                                 (abs(dc - math.cos(0.5 * math.pi * z * z)), 1e-8)))
    # branch agreement at the series/continued-fraction switch
    from .special_functions import _fresnel_series, _fresnel_tail
    s_a, c_a = _fresnel_series(1.6)
    s_b, c_b = _fresnel_tail(1.6)
    yield "branch switch at 1.6", *_worst(((abs(s_a - s_b), 1e-14), (abs(c_a - c_b), 1e-14)))
    yield "first J0 zero", abs(bessel_j0(_J0_FIRST_ZERO)), 4e-15


def check_gamma_recurrences():
    for x in [0.3, 0.5, 1.7, 2.5, 4.5, 9.5]:
        yield f"Gamma(x+1)=xGamma(x) at {x}", _rel(gamma_real(x + 1.0), x * gamma_real(x)), 1e-14
    for a in [-1.5, -0.5, 0.5, 1.5]:
        for im in [0.5, 1.0, 5.0]:
            for sign in [1.0, -1.0]:
                z = complex(0.0, sign * im)
                lhs = upper_incomplete_gamma(a + 1.0, z)
                rhs = a * upper_incomplete_gamma(a, z) + _zpow_exp(a, z)
                yield f"incGamma rec a={a} z={z}", abs(lhs - rhs) / max(abs(lhs), abs(rhs)), 2e-14
                conj_sym = abs(upper_incomplete_gamma(a, z.conjugate())
                               - upper_incomplete_gamma(a, z).conjugate())
                scale = abs(upper_incomplete_gamma(a, z))
                # exact by construction (0 measured), at the recurrence's tolerance
                yield f"conj symmetry a={a} z={z}", conj_sym / scale, 2e-14


def check_gamma_routes():
    """Gamma(a, +-iu): the series route and the backward continued fraction
    agree on both sides of the |z| = 3 switch, orders on both sides of the
    lift into (-1/2, 1/2], at integers and down to the transforms' low orders;
    from u = 3 the phase-free Gamma form, -i u^a / D, matches the phase times Gamma;
    the printed S_{mu,1/2}, a cosine transform, matches the verbatim printed formula."""
    for a in [-40.5, -12.5, -5.5, -4.0, -2.25, -1.0, -0.5, 0.0, 1.0 / 3.0, 2.0 / 3.0]:
        for u in [2.95, 3.0, 3.05]:
            for sign in [1.0, -1.0]:
                z = complex(0.0, sign * u)
                series = _gamma_series(a, z, DEFAULT_CONTROL)
                fraction = _zpow_exp(a, z) / _legendre_cf_backward(a, z, DEFAULT_CONTROL)
                yield f"a={a:.4g} z={z}", abs(series - fraction) / abs(fraction), 1e-13
    for a, u in itertools.product([0.5, -0.5, -3.5, -10.5, -40.5, -100.5, -171.5],
                                  [3.0, 3.05, 30.0, 3e3]):
        phase = cmath.rect(1.0, -0.5 * math.pi * (1.0 - a)) * cmath.rect(1.0, -u)
        r = _rel(_phased_gamma(upper_incomplete_gamma, a, u, DEFAULT_CONTROL),
                 phase * upper_incomplete_gamma(a, complex(0.0, -u)))
        yield f"phase-free a={a:.4g} u={u:.4g}", r, 1e-13
    for mu, z in itertools.product([-20.5, -2.3, 0.2, 0.9, 1.3, 1.7, 2.3], [0.3, 2.5, 3.5, 1e3]):
        alpha = 0.5 - mu        # errata LOM-GAMMA-ORDER: Gamma(-alpha, .), verbatim
        verbatim = cmath.rect(1.0, -0.5 * math.pi * alpha) * cmath.rect(1.0, -z)
        r = _rel(lm.lommel_s_half(mu, z, as_printed=True) * math.sqrt(z),
                 (verbatim * upper_incomplete_gamma(-alpha, complex(0.0, -z))).real)
        yield f"printed mu={mu:.4g} z={z:.4g}", r, 1e-12


def check_exponent_switch():
    """(t+u)^-p transforms: the climb and the Gamma form agree on both sides
    of the switch u = max(1, p/4), and the route changes between them."""
    for p in [1.0 / 3.0, 0.5, 1.0, 2.5, 5.5, 10.5, 20.5]:
        below, above = 0.99 * max(1.0, 0.25 * p), 1.01 * max(1.0, 0.25 * p)
        # the number of sides on the wrong route, which must be none
        yield (f"p={p:.4g} switch in [{below:.4g}, {above:.4g}]",
               float(_gamma_form_holds(p, below) + (not _gamma_form_holds(p, above))), 1.0)
        for u, kernel in itertools.product((below, above), Kernel):
            r = _rel(*(route(kernel, p, u, upper_incomplete_gamma, DEFAULT_CONTROL)
                       for route in (_climb, _gamma_form)))
            yield f"{kernel.value} p={p:.4g} u={u:.4g}", r, 1e-13


def check_hyp2f1():
    for (a, b, c) in [(0.5, 0.5, 1.5), (1.0, 0.5, 1.5), (0.5, 3.5, 4.5), (1.0, 2.5, 3.5)]:
        direct = _gauss_series(a, b, c, -0.9, SeriesControl(1e-15, 4000))
        via_pfaff = hyp2f1(a, b, c, -0.9)
        yield f"Pfaff vs direct ({a},{b};{c};-0.9)", _rel(direct, via_pfaff), 1e-11
    yield ("arcsinh value at -1",
           _rel(hyp2f1(0.5, 0.5, 1.5, -1.0), math.log(1.0 + math.sqrt(2.0))), 1e-11)
    yield "arctan value at -1", _rel(hyp2f1(1.0, 0.5, 1.5, -1.0), 0.25 * math.pi), 1e-11


def check_gen_si_additivity():
    for alpha in [0.5, 0.0, -0.5]:
        for z, z2 in [(0.5, 2.0), (1.0, 3.0)]:
            parts = []
            for trig, gen in ((math.sin, gen_si), (math.cos, gen_ci)):
                mid = integrate_finite(lambda t: trig(t) * t ** (alpha - 1.0), z, z2).value
                parts.append((abs(gen(alpha, z) - (mid + gen(alpha, z2))), 1e-14))
            yield f"alpha={alpha} [{z},{z2}]", *_worst(parts)


# --------------------------------------------------------------------------
# half-power family
# --------------------------------------------------------------------------

_HP_US = [0.5, 1.0, 2.0, 10.0]
_HALF_POWERS = ((Kernel.SIN, hp.s_alpha), (Kernel.COS, hp.c_alpha))


def _hp_rhs(kernel, alpha, u):
    """Right-hand side of the half-power difference equation and ODE."""
    if kernel is Kernel.SIN:
        return u ** -(alpha + 0.5)
    return (alpha + 0.5) * u ** -(alpha + 1.5)


def check_difference_equations():
    for alpha in range(6):
        for u in _HP_US:
            fac = (alpha + 0.5) * (alpha + 1.5)
            for kernel, f in _HALF_POWERS:
                lhs = fac * f(alpha + 2, u, 1.0) + f(alpha, u, 1.0)
                r = _rel(lhs, _hp_rhs(kernel, alpha, u))
                yield f"{kernel.value} alpha={alpha} u={u}", r, 1e-13


def check_interrelations():
    for alpha in range(6):
        for u in _HP_US:
            want = u ** -(alpha + 0.5) - (alpha + 0.5) * hp.c_alpha(alpha + 1, u, 1.0)
            yield f"S from C: alpha={alpha} u={u}", _rel(hp.s_alpha(alpha, u, 1.0), want), 1e-12
            want = (alpha + 0.5) * hp.s_alpha(alpha + 1, u, 1.0)
            yield f"C from S: alpha={alpha} u={u}", _rel(hp.c_alpha(alpha, u, 1.0), want), 1e-12


def check_scaling():
    # a 4-ulp law: the rounding of the power zeta^(alpha - 1/2) and of its product
    for alpha in [0, 1, 3]:
        for x in [0.5, 2.0]:
            for zeta in [0.5, 3.0]:
                for kernel, f in _HALF_POWERS:
                    lhs = f(alpha, x, zeta)
                    rhs = zeta ** (alpha - 0.5) * f(alpha, zeta * x, 1.0)
                    ulps = abs(lhs - rhs) / max(math.ulp(max(abs(lhs), abs(rhs))), 5e-324)
                    yield f"{kernel.value} alpha={alpha} x={x} zeta={zeta}", ulps, 4.0


def check_ode_residual():
    # the central difference sets the limit, from u >= 1: below that its
    # h^2 S'''' / 12 truncation term itself exceeds 1e-5 for alpha >= 1
    h = 1e-3
    for alpha in [0, 1, 2]:
        for u in [1.0, 2.0, 5.0]:
            for kernel, f in _HALF_POWERS:
                d2 = (f(alpha, u - h, 1.0) - 2.0 * f(alpha, u, 1.0)
                      + f(alpha, u + h, 1.0)) / (h * h)
                resid = abs(d2 + f(alpha, u, 1.0) - _hp_rhs(kernel, alpha, u))
                yield f"{kernel.value} alpha={alpha} u={u}", resid, 1e-5


def check_derivative_relation():
    # the central difference at h = 1e-5 sets the limit
    h = 1e-5
    for alpha in [0, 1, 2]:
        for u in [0.5, 1.0, 2.0]:
            for kernel, f in _HALF_POWERS:
                fd = (f(alpha, u + h, 1.0) - f(alpha, u - h, 1.0)) / (2 * h)
                want = -(alpha + 0.5) * f(alpha + 1, u, 1.0)
                yield f"{kernel.value} alpha={alpha} u={u}", abs(fd - want), 1e-7


def check_half_power_oracle():
    for x in [0.1, 1.0, 10.0]:
        for zeta in [0.5, 1.0, 2.0]:
            for kernel, f0 in ((Kernel.SIN, hp.s0), (Kernel.COS, hp.c0)):
                o = _oracle(HalfPower(0.0, x), kernel, zeta)
                yield (f"{kernel.value[0]}0 x={x} zeta={zeta}", abs(f0(x, zeta) - o.value),
                       _oracle_tol(o))
    for alpha in range(1, 6):
        for x in [0.5, 1.0, 2.0]:
            for kernel, f in _HALF_POWERS:
                o = _oracle(HalfPower(alpha, x), kernel)
                yield (f"{kernel.value[0]}_alpha alpha={alpha} x={x}",
                       abs(f(alpha, x, 1.0) - o.value), _oracle_tol(o))


# --------------------------------------------------------------------------
# oracle self-consistency
# --------------------------------------------------------------------------

def check_oracle_ibp():
    for alpha in [0.0, 1.0, 2.0]:
        for x in [0.5, 1.0, 2.0]:
            s_a = _oracle(HalfPower(alpha, x), Kernel.SIN).value
            c_a1 = _oracle(HalfPower(alpha + 1.0, x), Kernel.COS).value
            want = x ** -(alpha + 0.5) - (alpha + 0.5) * c_a1
            yield f"sin side alpha={alpha} x={x}", _rel(s_a, want), 5e-14
            c_a = _oracle(HalfPower(alpha, x), Kernel.COS).value
            s_a1 = _oracle(HalfPower(alpha + 1.0, x), Kernel.SIN).value
            want = (alpha + 0.5) * s_a1
            yield f"cos side alpha={alpha} x={x}", _rel(c_a, want), 5e-14


def check_oracle_robustness():
    specs = [
        IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, 1.0),
        IntegrandSpec(HalfPower(2.0, 0.5), Kernel.COS, 2.0),
        IntegrandSpec(TwoRadical(1.0, 2.0), Kernel.COS, 1.0),
        IntegrandSpec(RadicalPole(1.0, 2.0), Kernel.SIN, 1.0),
        IntegrandSpec(QuadraticPhase(1.0, 0.5), Kernel.SIN),
        IntegrandSpec(LogHalfPower(1.0), Kernel.SIN, 1.0),
    ]
    base_ctl = DEFAULT_CONTROL
    tight = SeriesControl(rel_tol=0.5 * base_ctl.rel_tol, max_terms=base_ctl.max_terms)
    for spec in specs:
        r1 = integrate_semi_infinite(spec, base_ctl)
        r2 = integrate_semi_infinite(spec, tight)
        yield (f"{type(spec.weight).__name__} {spec.kernel.value}", abs(r1.value - r2.value),
               r1.abs_err_est)


# --------------------------------------------------------------------------
# two-radical family
# --------------------------------------------------------------------------

def check_radical_head_moments():
    # the engine's one pass (moment recurrence and both heads' Horner sums, at
    # the seed depth it picks) against the direct sums over one 2F1 per index,
    # summed to below double rounding, so only the recurrence is measured
    ctl = SeriesControl(1e-17, 4000)
    for p in (0.5, 1.0):
        for gamma in (0.3, 0.99, 1.0, 1.01, 2.0):
            g2 = gamma * gamma
            for phase in (0.5, 4.0):
                c = phase / g2
                x, term, want = c * g2, gamma, 0j      # x: the phase the engine sums at
                for j in range(tr._table_top(x, ctl) + 1):
                    want += term * hyp2f1(p, j + 0.5, j + 1.5, -g2, ctl) / (2 * j + 1)
                    term *= 1j * x / (j + 1)
                got = tr._head_series(hyp2f1, p, c, gamma, ctl, "head series")
                yield f"p={p} gamma={gamma} x={phase}", *_worst(
                    ((_rel(got[0], want.imag), 1e-13), (_rel(got[1], want.real), 1e-13)))


# per radical family: (sin, cos) tails, series heads and transforms, weight power, oracle weight
_Radical = namedtuple("_Radical", "tails heads power transforms weight")
_RADICAL = {
    "two-radical": _Radical((tr.tail_sin, tr.tail_cos), (tr.head_sin_series, tr.head_cos_series),
                            0.5, (tr.sin_transform, tr.cos_transform), TwoRadical),
    "radical-pole": _Radical((rp.pole_tail_sin, rp.pole_tail_cos),
                             (rp.pole_head_sin_series, rp.pole_head_cos_series),
                             1.0, (rp.pole_sin_transform, rp.pole_cos_transform), RadicalPole),
}
_KERNELS = (Kernel.SIN, Kernel.COS)
_RADICAL_GRID = [(a, b, zeta)
                 for a in (0.5, 1.0)
                 for b in (1.5, 2.0, 4.0)
                 for zeta in (0.5, 1.0, 2.0)]


def check_radical_tails(family):
    row = _RADICAL[family]
    for c in [0.5, 1.0, 2.0, 5.0, 50.0]:
        for kernel, tail in zip(_KERNELS, row.tails):
            o = _oracle(QuadraticPhase(c, row.power), kernel)
            yield f"{kernel.value} c={c}", abs(tail(c) - o.value), _oracle_tol(o)


def check_radical_heads(family):
    row = _RADICAL[family]
    for c in [0.5, 1.0, 5.0]:
        for gamma in [0.3, 0.7, 1.0]:
            quad = tr._head_quad(integrate_finite, row.power, c, gamma, DEFAULT_CONTROL)
            for kernel, head, q in zip(_KERNELS, row.heads, quad):
                yield (f"{kernel.value} c={c} gamma={gamma}",
                       abs(head(c, gamma) - q) / max(1.0, abs(q)), 5e-15)


def check_radical_decomposition(family):
    row = _RADICAL[family]
    for c in [0.5, 1.0, 5.0]:
        for gamma in [0.3, 0.7, 1.0]:
            quad = tr._head_quad(integrate_finite, row.power, c, gamma, DEFAULT_CONTROL)
            for kernel, tail, head, q in zip(_KERNELS, row.tails, row.heads, quad):
                closed = tail(c) - head(c, gamma)
                oracle = _oracle(QuadraticPhase(c, row.power), kernel).value - q
                yield f"{kernel.value} c={c} gamma={gamma}", _rel(closed, oracle), 5e-13


def check_radical_assembly(family):
    row = _RADICAL[family]
    for a, b, zeta in _RADICAL_GRID:
        for kernel, transform in zip(_KERNELS, row.transforms):
            o = _oracle(row.weight(a, b), kernel, zeta)
            yield (f"{kernel.value} a={a} b={b} zeta={zeta}", abs(transform(a, b, zeta) - o.value),
                   _oracle_tol(o))


def check_radical_derivative(family):
    # d/db of the weight (t+a)^-1/2 (t+b)^-q, q the weight power, lands on
    # -q (t+a)^-1/2 (t+b)^-(q+1); the central difference at h = 1e-5 sets the limit
    power, sin_transform = _RADICAL[family].power, _RADICAL[family].transforms[0]
    a, b, zeta = 1.0, 2.0, 1.0
    h = 1e-5
    fd = (sin_transform(a, b + h, zeta) - sin_transform(a, b - h, zeta)) / (2 * h)
    g = lambda t: 1.0 / (math.sqrt(t + a) * (t + b) ** (power + 1.0))
    want = -power * oscillatory_integral(g, Kernel.SIN, zeta).value
    yield f"d/db at ({a},{b},{zeta})", abs(fd - want), 1e-10


def check_contour_switch():
    """The contour past the guard against quadrature heads at rel_tol 1e-14: |I_cos + i I_sin|
    within 1e-12, as the cosine alone carries tail - head's cancellation (3e-12 at phase 40)."""
    for family, phase in itertools.product(_RADICAL, (12.5, 20.0, 40.0)):
        (s, c), (qs, qc) = ([f(2.0 * phase, 2.0 * phase + 1.5, 0.5, SeriesControl(1e-14), quad)
                             for f in _RADICAL[family].transforms] for quad in (False, True))
        yield f"{family} phase={phase}", abs(complex(c - qc, s - qs)) / abs(complex(qc, qs)), 1e-12


def check_approximation_trends():
    gamma = 0.5
    cs = [5.0, 10.0, 20.0, 40.0]

    def errs(approx, series):
        vals = []
        for c in cs:
            ref = series(c, gamma)
            vals.append(abs(approx(c, gamma) / ref - 1.0))
        return vals

    corrected = errs(tr.head_cos_approx, tr.head_cos_series)
    cases = [
        ("two-radical sin", errs(tr.head_sin_approx, tr.head_sin_series), None),
        ("two-radical cos (corrected)", corrected, "TR-COS-APPROX-TREND"),
        ("radical-pole sin", errs(rp.pole_head_sin_approx, rp.pole_head_sin_series), None),
        ("radical-pole cos", errs(rp.pole_head_cos_approx, rp.pole_head_cos_series),
         "RP-COS-APPROX-TREND"),
    ]
    for name, e, erratum in cases:
        # the worst step's error ratio: the trend improves below 1, and a
        # registered, uncorrected erratum excuses one that does not
        worst, _ = _worst((later / earlier, 1.0) for earlier, later in zip(e, e[1:]))
        excused = erratum is not None and not find_erratum(erratum).corrected
        yield name, worst, math.inf if excused else 1.0
    # the corrected cosine coefficient must beat the printed one everywhere
    printed = errs(partial(tr.head_cos_approx, as_printed=True), tr.head_cos_series)
    yield "corrected cos beats printed", *_worst((a / b, 1.0) for a, b in zip(corrected, printed))


# --------------------------------------------------------------------------
# Lommel bridge
# --------------------------------------------------------------------------

def check_lommel_recurrence():
    # residual measured against the largest ingredient: at mu = -1/2 and
    # -3/2 the coefficient (mu+1)^2 - 1/4 vanishes and both sides cancel
    # to zero, so a plain relative comparison would divide rounding noise
    # by itself
    for mu in [-2.5, -1.5, -0.5, 0.0]:
        for z in [0.5, 1.0, 2.0, 5.0]:
            power = z ** (mu + 1.5)
            shifted = math.sqrt(z) * lm.lommel_s_half(mu + 2.0, z)
            rhs = ((mu + 1.0) ** 2 - 0.25) * math.sqrt(z) * lm.lommel_s_half(mu, z)
            scale = max(abs(power), abs(shifted), abs(rhs))
            yield f"mu={mu} z={z}", abs(power - shifted - rhs) / scale, 1e-14


_GENERAL = ((Kernel.SIN, lm.general_sin_transform), (Kernel.COS, lm.general_cos_transform))


def check_lommel_three_way():
    for n in [0, 1]:
        for m in [1, 2, 3]:
            p = 2 * n + 1.0 / m
            for x in [0.5, 1.0, 2.0]:
                for zeta in [0.5, 1.0]:
                    for kernel, general in _GENERAL:
                        o = _oracle(HalfPower(p - 0.5, x), kernel, zeta)
                        gam = general(n, m, x, zeta)
                        sic = lm.si_ci_representation(n, m, x, zeta, kernel)
                        tol = _oracle_tol(o)
                        pairs = (gam, o.value), (sic, o.value), (gam, sic)
                        yield (f"{kernel.value} n={n} m={m} x={x} zeta={zeta}",
                               *_worst((abs(v - w), tol) for v, w in pairs))


def check_lommel_reduction():
    for n, m in [(0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]:
        for x in [0.5, 1.0, 2.0]:
            for zeta in [0.5, 1.0]:
                pre = lm.pre_reduction_values(n, m, x, zeta)
                yield f"n={n} m={m} x={x} zeta={zeta}", *_worst(
                    (_rel(pre[(kernel, plus_one)], general(n, m, x, zeta, plus_one=plus_one)),
                     5e-13) for plus_one in (False, True) for kernel, general in _GENERAL)


def check_log_integral():
    # both closed-form routes: the 2F2 series below x = 3, the fraction's order
    # derivative from 3 up, where the 2F2 series cancels (1.6e-3 off at x = 40);
    # the Richardson difference in the order at h = 1e-4 rounds to about 1e-12
    for x in [0.5, 1.0, 2.0, 5.0, 20.0, 150.0]:
        closed = lm.log_weighted_sin_integral(x)
        o = _oracle(LogHalfPower(x), Kernel.SIN)
        fd = lm.log_weighted_sin_integral_fd(x)
        yield f"x={x}", *_worst(((abs(closed - o.value), _oracle_tol(o)),
                                 (abs(closed - fd), 1e-10)))


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_RADICAL_CHECKS = (("tails", check_radical_tails), ("heads", check_radical_heads),
                   ("decomposition", check_radical_decomposition),
                   ("assembly", check_radical_assembly), ("derivative", check_radical_derivative))
GROUPS = {
    "fresnel-derivatives": check_fresnel_derivatives,
    "gamma-recurrences": check_gamma_recurrences,
    "gamma-routes": check_gamma_routes,
    "exponent-switch": check_exponent_switch,
    "hyp2f1-transform": check_hyp2f1,
    "gen-si-additivity": check_gen_si_additivity,
    "difference-equations": check_difference_equations,
    "interrelations": check_interrelations,
    "scaling": check_scaling,
    "ode-residual": check_ode_residual,
    "derivative-relation": check_derivative_relation,
    "half-power-oracle": check_half_power_oracle,
    "oracle-ibp": check_oracle_ibp,
    "oracle-robustness": check_oracle_robustness,
    "radical-head-moments": check_radical_head_moments,
    **{f"two-radical-{key}": partial(check, "two-radical") for key, check in _RADICAL_CHECKS},
    "contour-switch": check_contour_switch,
    "approximation-trends": check_approximation_trends,
    **{f"radical-pole-{key}": partial(check, "radical-pole") for key, check in _RADICAL_CHECKS},
    "lommel-recurrence": check_lommel_recurrence,
    "lommel-three-way": check_lommel_three_way,
    "lommel-reduction": check_lommel_reduction,
    "log-integral": check_log_integral,
}


def group_names():
    return list(GROUPS)


def run(only=None):
    """Run all (or the named) groups, each once and in first-seen order; returns a
    flat list of CheckResult, whose ``passed`` is the one pass rule."""
    names = list(dict.fromkeys(only or GROUPS))
    for name in names:
        if name not in GROUPS:
            raise DomainError(f"unknown selfcheck group {name!r}; known: {', '.join(GROUPS)}")
    return [CheckResult(group, *row) for group in names for row in GROUPS[group]()]
