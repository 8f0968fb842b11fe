"""Direct-quadrature evaluation of every oscillatory integral in the library.

The semi-infinite integrals are computed by partitioning the axis at the
zeros of the oscillating kernel, integrating each lobe with adaptive
Gauss-Kronrod quadrature (QUADPACK via scipy), and accelerating the
resulting alternating lobe series with a van Wijngaarden / Euler
transformation.  This module deliberately knows nothing about the closed
forms it arbitrates: the only ingredients are elementary functions and
lobe quadrature, so agreement with a closed form is meaningful evidence.

scipy is imported on the first quadrature, not with this module: the
closed forms import ``Kernel`` and ``integrate_finite`` from here, and
importing scipy costs most of a cold ``oscint eval``.  The module global
``quad`` starts as a stub that loads scipy's ``quad`` and rebinds the
global to it, so from then on every call goes straight to QUADPACK.

Euler transformation was chosen over Levin-u: the lobe magnitudes here
have monotone envelopes (weights are eventually monotone), for which the
plain Euler table already converges geometrically (~1e-12 within 25-40
lobes on the worst t^(-1/2) decay), and it is simpler and exactly
reproducible term by term.  Lobes are summed strictly in order, so a
result is independent of any internal parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
    applied, whose magnitude is the working convergence signal.
    """

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


def _lobe_quad(f, lo, hi, epsabs, epsrel):
    res = quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    return res[0], res[1]


def lobe_sum(f, breakpoints, ctl: SeriesControl = DEFAULT_CONTROL):
    """Integrate ``f`` over [b0, inf) split at an increasing breakpoint stream.

    The first element of ``breakpoints`` is the lower limit; subsequent
    elements are the kernel zeros.  Early lobes are summed directly until
    their magnitudes have decreased twice in a row (weights need not be
    monotone near the origin, e.g. a logarithmic factor); the remaining
    alternating series is Euler-transformed.

    Returns (value, abs_err_est, lobes_used, accelerated).
    """
    epsabs = max(1e-14, 0.01 * ctl.rel_tol)
    max_lobes = 10 * ctl.max_terms
    it = iter(breakpoints)
    lo = next(it)
    quad_err = 0.0
    direct = []
    head = 0.0
    acc = None
    nlobes = 0
    prev_mag = math.inf
    decreases = 0
    converged = 0
    increment = math.inf
    for hi in it:
        piece, perr = _lobe_quad(f, lo, hi, epsabs, epsabs)
        quad_err += perr
        lo = hi
        nlobes += 1
        if acc is None:
            direct.append(piece)
            if abs(piece) <= prev_mag:
                decreases += 1
            else:
                decreases = 0
            prev_mag = abs(piece)
            if decreases >= 2 and nlobes >= 3:
                acc = _EulerAccumulator()
                head = math.fsum(direct[:-1])
                increment = acc.add(direct[-1])
            continue
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


def oscillatory_integral(g, kernel: Kernel, zeta: float, start: float = 0.0,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> QuadratureReport:
    """Integral of g(t) * kernel(zeta*t) over [start, inf) by lobe summation."""
    trig = math.sin if kernel is Kernel.SIN else math.cos
    f = lambda t: g(t) * trig(zeta * t)
    value, err, lobes, accelerated = lobe_sum(f, kernel_breakpoints(kernel, zeta, start), ctl)
    return QuadratureReport(value, err, lobes, accelerated)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _half_power_weight(alpha, x):
    p = alpha + 0.5
    return lambda t: (t + x) ** -p


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
    """Evaluate the semi-infinite oscillatory integral described by ``spec``."""
    w = spec.weight
    if isinstance(w, QuadraticPhase):
        trig = math.sin if spec.kernel is Kernel.SIN else math.cos
        c, p = w.scale, w.power
        f = lambda z: trig(c * z * z) * (z * z + 1.0) ** -p
        value, err, lobes, accelerated = lobe_sum(
            f, _quadratic_breakpoints(spec.kernel, c), ctl)
        return QuadratureReport(value, err, lobes, accelerated)

    if isinstance(w, HalfPower):
        _check_half_power_convergence(w, spec.kernel)
        g = _half_power_weight(w.alpha, w.x)
    elif isinstance(w, TwoRadical):
        a, b = w.a, w.b
        g = lambda t: 1.0 / math.sqrt((t + a) * (t + b))
    elif isinstance(w, RadicalPole):
        a, b = w.a, w.b
        g = lambda t: 1.0 / (math.sqrt(t + a) * (t + b))
    elif isinstance(w, ThreeRadical):
        a, b, c = w.a, w.b, w.c
        g = lambda t: 1.0 / math.sqrt((t + a) * (t + b) * (t + c))
    elif isinstance(w, LogHalfPower):
        x = w.x
        g = lambda t: math.log(t + x) / math.sqrt(t + x)
    else:
        raise DomainError(f"unknown weight {w!r}")
    return oscillatory_integral(g, spec.kernel, spec.zeta, 0.0, ctl)


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
