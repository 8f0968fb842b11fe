"""Direct-quadrature evaluation of every oscillatory integral in the library.

The semi-infinite integrals are computed by partitioning the axis at the
zeros of the oscillating kernel, integrating each lobe, and accelerating
the resulting alternating lobe series with a van Wijngaarden / Euler
transformation.  When the caller also gives the integrand in vector
form, every lobe, the directly summed first ones and the accelerated
rest, comes from one stream integrated in blocks of 32 by one numpy
evaluation of the fixed 21-point Gauss-Kronrod rule; a lobe whose
Kronrod-Gauss difference fails the tolerance (in practice one of the
first two, where the weight is steepest) goes to adaptive Gauss-Kronrod
quadrature (QUADPACK via scipy), which otherwise integrates every lobe.  A typical
integral takes one block.  This module deliberately knows nothing about
the closed forms it arbitrates: the only ingredients are elementary
functions and lobe quadrature, so agreement with a closed form is
meaningful evidence.

scipy is imported on the first quadrature and numpy on the first block,
not with this module: the closed forms import ``Kernel`` and
``integrate_finite`` from here, and importing scipy costs most of a cold
``oscint eval``.  The module global ``quad`` starts as a stub that loads
scipy's ``quad`` and rebinds the global to it, so from then on every
call goes straight to QUADPACK.

Euler transformation was chosen over Levin-u: the lobe magnitudes here
have monotone envelopes (weights are eventually monotone), for which the
plain Euler table already converges geometrically (~1e-12 within 25-40
lobes on the worst t^(-1/2) decay), and it is simpler and exactly
reproducible term by term.  Lobes are summed strictly in order, so a
result is independent of how they were batched.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable, Union

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import (
    AccelerationStalledError,
    DivergentIntegralError,
    DomainError,
    MaxSubdivisionsError,
)

__all__ = [
    "Kernel",
    "HalfPower",
    "TwoRadical",
    "RadicalPole",
    "ThreeRadical",
    "LogHalfPower",
    "QuadraticPhase",
    "IntegrandSpec",
    "QuadratureReport",
    "integrate_semi_infinite",
    "integrate_finite",
    "oscillatory_integral",
    "kernel_breakpoints",
    "lobe_sum",
]


class Kernel(str, Enum):
    SIN = "sin"
    COS = "cos"


def _as_kernel(kernel):
    """``kernel`` as a Kernel member: "sin" and "cos" coerce, anything else
    is a DomainError.  Every dispatch tests ``kernel is Kernel.SIN``, so an
    uncoerced string would silently select the cosine branch."""
    if type(kernel) is Kernel:
        return kernel
    try:
        return Kernel(kernel)
    except (ValueError, TypeError):
        raise DomainError(f"kernel must be 'sin' or 'cos', got {kernel!r}") from None


def _trig(kernel, m):
    """The kernel's function in the math module ``m`` (math or numpy)."""
    return m.sin if kernel is Kernel.SIN else m.cos


def _first_quad(*args, **kwargs):
    """scipy's ``quad``, loaded on first use.

    Rebinds the global ``quad`` to scipy's function only while it is
    still this stub, so a wrapper installed there meanwhile (a tracer)
    stays in place and keeps seeing every call.
    """
    global quad
    from scipy.integrate import quad as scipy_quad
    if quad is _first_quad:
        quad = scipy_quad
    return scipy_quad(*args, **kwargs)


quad = _first_quad


# --------------------------------------------------------------------------
# integrand descriptions
# --------------------------------------------------------------------------

def _require_finite(owner, **params):
    """Raise DomainError naming the first non-finite parameter.

    The closed forms call this only when ``math.isfinite`` of the sum of
    their parameters fails, which costs far less than this call: a
    finite sum proves every term finite, and a sum that merely
    overflows passes here.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{owner} {name} must be finite, got {value}")


@dataclass(frozen=True)
class HalfPower:
    """Weight (t + x)^-(alpha + 1/2) on [0, inf)."""

    alpha: float
    x: float = 0.0

    def __post_init__(self):
        _require_finite("HalfPower", alpha=self.alpha, x=self.x)
        if self.x < 0:
            raise DomainError(f"HalfPower shift x must be >= 0, got {self.x}")
        if not self.alpha + 0.5 > 0:
            raise DivergentIntegralError(
                f"HalfPower exponent alpha+1/2 = {self.alpha + 0.5} must be > 0 "
                "for convergence at infinity")


@dataclass(frozen=True)
class TwoRadical:
    """Weight 1/(sqrt(t+a) sqrt(t+b))."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite("TwoRadical", a=self.a, b=self.b)
        if self.a <= 0 or self.b <= 0:
            raise DomainError(f"TwoRadical constants must be > 0, got a={self.a} b={self.b}")


@dataclass(frozen=True)
class RadicalPole:
    """Weight 1/(sqrt(t+a) (t+b))."""

    a: float
    b: float

    def __post_init__(self):
        _require_finite("RadicalPole", a=self.a, b=self.b)
        if self.a <= 0 or self.b <= 0:
            raise DomainError(f"RadicalPole constants must be > 0, got a={self.a} b={self.b}")


@dataclass(frozen=True)
class ThreeRadical:
    """Weight 1/(sqrt(t+a) sqrt(t+b) sqrt(t+c)).

    Oracle-only: the library has no closed form for three distinct
    constants; this spec exists so such integrals can still be evaluated.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_finite("ThreeRadical", a=self.a, b=self.b, c=self.c)
        if min(self.a, self.b, self.c) <= 0:
            raise DomainError("ThreeRadical constants must all be > 0")


@dataclass(frozen=True)
class LogHalfPower:
    """Weight ln(t + x)/sqrt(t + x)."""

    x: float

    def __post_init__(self):
        _require_finite("LogHalfPower", x=self.x)
        if self.x <= 0:
            raise DomainError(f"LogHalfPower shift x must be > 0, got {self.x}")


@dataclass(frozen=True)
class QuadraticPhase:
    """Integrand kernel(scale * z^2) * (z^2 + 1)^-power on [0, inf).

    The quadratic-phase pieces of the radical decompositions: power=1/2
    for the two-radical family, power=1 for the radical-pole family.
    """

    scale: float
    power: float

    def __post_init__(self):
        _require_finite("QuadraticPhase", scale=self.scale, power=self.power)
        if self.scale <= 0:
            raise DomainError(f"QuadraticPhase scale must be > 0, got {self.scale}")
        if self.power <= 0:
            raise DomainError(f"QuadraticPhase power must be > 0, got {self.power}")


Weight = Union[HalfPower, TwoRadical, RadicalPole, ThreeRadical, LogHalfPower, QuadraticPhase]


@dataclass(frozen=True)
class IntegrandSpec:
    """One oscillatory integrand: weight function times sin/cos kernel.

    ``zeta`` is the kernel frequency for the linear-phase weights; a
    QuadraticPhase weight carries its own frequency (``scale``) and
    ignores ``zeta``.
    """

    weight: Weight
    kernel: Kernel
    zeta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_kernel(self.kernel))
        _require_finite("IntegrandSpec", zeta=self.zeta)
        if self.zeta <= 0:
            raise DomainError(f"frequency zeta must be > 0, got {self.zeta}")


@dataclass(frozen=True)
class QuadratureReport:
    value: float
    abs_err_est: float
    zero_intervals_used: int
    accelerated: bool

    def __post_init__(self):
        if not math.isfinite(self.value) or not math.isfinite(self.abs_err_est):
            raise ArithmeticError("quadrature produced a non-finite result")


# --------------------------------------------------------------------------
# Euler-accelerated lobe summation
# --------------------------------------------------------------------------

class _EulerAccumulator:
    """Progressive van Wijngaarden Euler transformation.

    Terms of a (near-)alternating series are fed one at a time; ``total``
    tracks the transformed sum and ``add`` returns the increment just
    applied, whose magnitude is the working convergence signal.  Each
    term starts the next row of averaged differences,
    new[0] = term, new[j+1] = (new[j] + old[j]) / 2.
    """

    def __init__(self):
        self._row = []
        # -0.0 is the exact additive identity: the first total is 0.5 * term
        self.total = -0.0

    def add(self, term):
        new = [term]
        for prev in self._row:
            new.append(0.5 * (new[-1] + prev))
        if len(new) > 1 and abs(new[-1]) > abs(new[-2]):
            # the newest difference grew: apply it whole and keep the row short
            increment = new.pop()
        else:
            increment = 0.5 * new[-1]
        self._row = new
        self.total += increment
        return increment


def _lobe_quad(f, lo, hi, epsabs, epsrel):
    res = quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    return res[0], res[1]


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): the
# non-negative nodes, largest first, and their Kronrod weights.  The
# nodes at odd positions are those of the embedded 10-point Gauss rule,
# whose weights are _G10_WEIGHTS.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_GK21_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208794700070, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_G10_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# lobes per numpy evaluation: one block holds the ~26 lobes of a typical
# integral; the unused rest of the last block is dropped
_BLOCK = 32


@functools.cache
def _gk21():
    """(numpy, the 21 nodes, their (Kronrod, Gauss) weight columns)."""
    import numpy as np

    x = np.array(_GK21_NODES)
    gauss = np.zeros(11)
    gauss[1::2] = _G10_WEIGHTS
    w = np.stack((_GK21_WEIGHTS, gauss), axis=1)
    # mirror the table: nodes -x0 .. -x9, 0, x9 .. x0
    return np, np.concatenate((-x, x[-2::-1])), np.concatenate((w, w[-2::-1]))


def _quad_lobes(f, lo, his, epsabs):
    """(integral, abs error) of each lobe [lo, h0], [h0, h1], ... by QUADPACK."""
    for hi in his:
        yield _lobe_quad(f, lo, hi, epsabs, epsabs)
        lo = hi


def _block_lobes(f, f_over, lo, his, epsabs):
    """Like ``_quad_lobes``, integrating _BLOCK lobes per GK21 evaluation.

    ``f_over(numpy)`` is the integrand on arrays.  A lobe is accepted
    when |K21 - G10| <= max(epsabs, epsabs |K21|), and the difference is
    its error estimate; any other lobe goes to QUADPACK with ``f``.
    """
    np, nodes, weights = _gk21()
    fv = f_over(np)
    while True:
        block = list(islice(his, _BLOCK))
        if not block:
            return
        edges = [lo] + block
        e = np.array(edges)
        mid = 0.5 * (e[1:] + e[:-1])
        half = 0.5 * (e[1:] - e[:-1])
        # IEEE results without warnings, as on the scalar path; a non-finite
        # lobe fails the test below and goes to QUADPACK
        with np.errstate(all="ignore"):
            kg = (fv(mid[:, None] + half[:, None] * nodes) @ weights) * half[:, None]
        kron = kg[:, 0].tolist()
        diff = np.abs(kg[:, 0] - kg[:, 1]).tolist()
        for i, (piece, err) in enumerate(zip(kron, diff)):
            if err <= max(epsabs, epsabs * abs(piece)):
                yield piece, err
            else:
                yield _lobe_quad(f, edges[i], edges[i + 1], epsabs, epsabs)
        lo = block[-1]


def lobe_sum(f, breakpoints, ctl: SeriesControl = DEFAULT_CONTROL, f_over=None):
    """Integrate ``f`` over [b0, inf) split at an increasing breakpoint stream.

    The first element of ``breakpoints`` is the lower limit; subsequent
    elements are the kernel zeros.  Early lobes are summed directly until
    their magnitudes have decreased twice in a row (weights need not be
    monotone near the origin, e.g. a logarithmic factor); the remaining
    alternating series is Euler-transformed.  ``f_over``, if given,
    builds ``f`` over a math module: ``f_over(math)`` behaves as ``f``
    and ``f_over(numpy)`` takes arrays.  With it every lobe, direct or
    accelerated, comes from one stream integrated in blocks by a fixed
    Gauss-Kronrod rule, and QUADPACK takes only the lobes that fail its
    error test (in practice one of the first two, where the weight is
    steepest); without it QUADPACK integrates every lobe.  At most ``10 * ctl.max_terms`` lobes are
    integrated.

    Returns (value, abs_err_est, lobes_used, accelerated).
    """
    epsabs = max(1e-14, 0.01 * ctl.rel_tol)
    max_lobes = 10 * ctl.max_terms
    it = iter(breakpoints)
    lo = next(it)
    if f_over is None:
        lobes = _quad_lobes(f, lo, it, epsabs)
    else:
        lobes = _block_lobes(f, f_over, lo, it, epsabs)
    quad_err = 0.0
    direct = []
    prev_mag = math.inf
    decreases = 0
    for piece, perr in lobes:
        quad_err += perr
        direct.append(piece)
        if len(direct) >= max_lobes:
            raise AccelerationStalledError(
                f"lobe magnitudes did not start decreasing within {max_lobes} lobes")
        if abs(piece) <= prev_mag:
            decreases += 1
        else:
            decreases = 0
        prev_mag = abs(piece)
        if decreases >= 2 and len(direct) >= 3:
            break
    else:
        raise AccelerationStalledError("breakpoint stream exhausted")
    acc = _EulerAccumulator()
    head = math.fsum(direct[:-1])
    acc.add(direct[-1])
    nlobes = len(direct)
    converged = 0
    for piece, perr in lobes:
        quad_err += perr
        nlobes += 1
        increment = acc.add(piece)
        partial = head + acc.total
        if abs(increment) <= max(ctl.rel_tol * abs(partial), 1e-15):
            converged += 1
            if converged >= 2:
                err = quad_err + 2.0 * abs(increment) + 1e-16 * abs(partial)
                return partial, err, nlobes, True
        else:
            converged = 0
        if nlobes >= max_lobes:
            raise AccelerationStalledError(
                f"lobe series failed tolerance {ctl.rel_tol} within {max_lobes} lobes")
    raise AccelerationStalledError("breakpoint stream exhausted")


def kernel_breakpoints(kernel: Kernel, zeta: float, start: float = 0.0):
    """Yield ``start`` followed by the zeros of kernel(zeta*t) above it."""
    kernel = _as_kernel(kernel)
    yield start
    if kernel is Kernel.SIN:
        k = math.floor(start * zeta / math.pi) + 1
        while True:
            yield k * math.pi / zeta
            k += 1
    else:
        k = math.floor(start * zeta / math.pi + 0.5) + 1
        while True:
            yield (k - 0.5) * math.pi / zeta
            k += 1


def _quadratic_breakpoints(kernel: Kernel, scale: float, start: float = 0.0):
    """Zeros of kernel(scale * z^2) above ``start``, plus ``start`` itself."""
    yield start
    s2 = start * start * scale / math.pi
    if kernel is Kernel.SIN:
        k = math.floor(s2) + 1
        while True:
            yield math.sqrt(k * math.pi / scale)
            k += 1
    else:
        k = math.floor(s2 + 0.5) + 1
        while True:
            yield math.sqrt((k - 0.5) * math.pi / scale)
            k += 1


def _kernel_times(g, trig, zeta):
    return lambda t: g(t) * trig(zeta * t)


def oscillatory_integral(g, kernel: Kernel, zeta: float, start: float = 0.0,
                         ctl: SeriesControl = DEFAULT_CONTROL,
                         g_over=None) -> QuadratureReport:
    """Integral of g(t) * kernel(zeta*t) over [start, inf) by lobe summation.

    ``g_over``, if given, builds the weight over a math module:
    ``g_over(math)`` is ``g`` and ``g_over(numpy)`` takes arrays, which
    lets ``lobe_sum`` batch the accelerated lobes.
    """
    kernel = _as_kernel(kernel)
    f = _kernel_times(g, _trig(kernel, math), zeta)
    f_over = None
    if g_over is not None:
        f_over = lambda m: _kernel_times(g_over(m), _trig(kernel, m), zeta)
    value, err, lobes, accelerated = lobe_sum(
        f, kernel_breakpoints(kernel, zeta, start), ctl, f_over)
    return QuadratureReport(value, err, lobes, accelerated)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _check_half_power_convergence(w: HalfPower, kernel: Kernel):
    # At x=0 the origin decides: cos*t^-p integrable iff p < 1, sin*t^-p iff p < 2.
    p = w.alpha + 0.5
    if w.x == 0.0:
        if kernel is Kernel.COS and p >= 1.0:
            raise DivergentIntegralError(
                f"cos kernel with exponent {p} >= 1 diverges at the origin for x=0")
        if kernel is Kernel.SIN and p >= 2.0:
            raise DivergentIntegralError(
                f"sin kernel with exponent {p} >= 2 diverges at the origin for x=0")


def integrate_semi_infinite(spec: IntegrandSpec,
                            ctl: SeriesControl = DEFAULT_CONTROL) -> QuadratureReport:
    """Evaluate the semi-infinite oscillatory integral described by ``spec``.

    Each weight is written once, over a math module ``m``: ``math`` for
    the QUADPACK lobes, ``numpy`` for the batched ones.
    """
    w = spec.weight
    if isinstance(w, QuadraticPhase):
        c, p = w.scale, w.power

        def f_over(m):
            trig = _trig(spec.kernel, m)
            return lambda z: trig(c * z * z) * (z * z + 1.0) ** -p

        value, err, lobes, accelerated = lobe_sum(
            f_over(math), _quadratic_breakpoints(spec.kernel, c), ctl, f_over)
        return QuadratureReport(value, err, lobes, accelerated)

    if isinstance(w, HalfPower):
        _check_half_power_convergence(w, spec.kernel)
        p, x = w.alpha + 0.5, w.x
        g_over = lambda m: lambda t: (t + x) ** -p
    elif isinstance(w, TwoRadical):
        a, b = w.a, w.b
        g_over = lambda m: lambda t: 1.0 / m.sqrt((t + a) * (t + b))
    elif isinstance(w, RadicalPole):
        a, b = w.a, w.b
        g_over = lambda m: lambda t: 1.0 / (m.sqrt(t + a) * (t + b))
    elif isinstance(w, ThreeRadical):
        a, b, c = w.a, w.b, w.c
        g_over = lambda m: lambda t: 1.0 / m.sqrt((t + a) * (t + b) * (t + c))
    elif isinstance(w, LogHalfPower):
        x = w.x
        g_over = lambda m: lambda t: m.log(t + x) / m.sqrt(t + x)
    else:
        raise DomainError(f"unknown weight {w!r}")
    return oscillatory_integral(g_over(math), spec.kernel, spec.zeta, 0.0, ctl, g_over)


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     ctl: SeriesControl = DEFAULT_CONTROL) -> QuadratureReport:
    """Adaptive Gauss-Kronrod integral of ``f`` on the finite range [lo, hi]."""
    if lo > hi:
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return QuadratureReport(0.0, 0.0, 0, False)
    res = quad(f, lo, hi, epsabs=1e-15, epsrel=ctl.rel_tol, limit=200, full_output=1)
    value, abserr, info = res[0], res[1], res[2]
    if len(res) > 3:
        raise MaxSubdivisionsError(f"quadrature on [{lo}, {hi}]: {res[3]}")
    if abserr > ctl.rel_tol * abs(value) + 1e-13:
        raise MaxSubdivisionsError(
            f"quadrature on [{lo}, {hi}] reached error {abserr:.2e}, "
            f"above the requested {ctl.rel_tol:.2e} relative")
    return QuadratureReport(value, abserr, int(info["last"]), False)
