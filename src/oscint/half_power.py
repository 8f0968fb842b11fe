"""Closed forms for semi-infinite Fourier transforms with weight (t+x)^-(a+1/2).

The base (alpha = 0) sine and cosine transforms are Fresnel-integral
expressions in the scaled variable u = zeta*x.  Every nonnegative integer
alpha is then reached by a two-term structure

    zeta^(alpha - 1/2) * [ F(u) + c * bracket(u) ]

where F is a finite sum of half-integer powers of u, c is a Gamma-ratio
constant, and bracket(u) is one of the two Fresnel combinations below.
The coefficients solve first-order difference equations in alpha; they
are generated here from the closed Gamma-ratio solutions and asserted
against one recurrence step at construction time, so a transcription
error in either form cannot survive import.

Two printed coefficient signs in the odd families fail that recurrence
check (and direct quadrature); the corrected signs ship by default and
the verbatim ones are available with ``as_printed=True``.  See the
errata registry.

All evaluation happens in u and is multiplied by zeta^(alpha-1/2), which
makes the frequency-scaling law structural rather than numerical.  For
u below ~1e-3 the bracket arguments fall deep inside the Maclaurin
branch of the Fresnel functions, which is exact to machine precision
there, so no separate small-u expansion is required.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

from .errors import (DivergentIntegralError, DomainError, Kernel, Record, _as_kernel,
                     _require_finite)
from .special_functions import fresnel_c, fresnel_s

_SQRT2_PI_HALF = math.log(math.sqrt(2.0) * math.pi / 2.0)


class PhasePattern(Enum):
    """Which Fresnel combination multiplies the family constant."""

    SIN_LIKE = "sin-like"   # cos(u){1-2S} - sin(u){1-2C}
    COS_LIKE = "cos-like"   # cos(u){1-2C} + sin(u){1-2S}


class HalfPowerParams(Record):
    __slots__ = ("zeta", "x", "alpha")

    def __init__(self, zeta: float, x: float, alpha: int):
        if not math.isfinite(zeta + x + alpha):
            _require_finite("HalfPowerParams", zeta=zeta, x=x, alpha=alpha)
        if zeta <= 0:
            raise DomainError(f"frequency zeta must be > 0, got {zeta}")
        if x < 0:
            raise DomainError(f"shift x must be >= 0, got {x}")
        if alpha < 0 or alpha != int(alpha):
            raise DomainError(f"alpha must be a nonnegative integer, got {alpha}")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)


class FamilyCoefficients(Record):
    """rational_part: ((power, coeff), ...) with value sum(coeff * u**power)."""

    __slots__ = ("rational_part", "fresnel_coeff", "phase_pattern")

    def __init__(self, rational_part: tuple, fresnel_coeff: float,
                 phase_pattern: PhasePattern):
        object.__setattr__(self, "rational_part", rational_part)
        object.__setattr__(self, "fresnel_coeff", fresnel_coeff)
        object.__setattr__(self, "phase_pattern", phase_pattern)

    def rational_value(self, u):
        return math.fsum(coeff * u ** power for power, coeff in self.rational_part)


def fresnel_bracket(u: float, pattern: PhasePattern) -> float:
    """The two Fresnel combinations entering every assembled transform."""
    try:
        r = math.sqrt(2.0 * u / math.pi)
    except ValueError:
        raise DomainError(f"fresnel_bracket needs u >= 0, got {u}") from None
    s = 1.0 - 2.0 * fresnel_s(r)
    c = 1.0 - 2.0 * fresnel_c(r)
    if pattern is PhasePattern.SIN_LIKE:
        return math.cos(u) * s - math.sin(u) * c
    return math.cos(u) * c + math.sin(u) * s


def _gamma_ratio(num, den):
    return math.exp(math.lgamma(num) - math.lgamma(den))


def _build_family(alpha, kernel, as_printed):
    n, odd = divmod(alpha, 2)
    if not odd:
        den = 2 * n + 0.5
        const = (-1) ** n * math.exp(_SQRT2_PI_HALF - math.lgamma(den))
        pattern, off = ((PhasePattern.SIN_LIKE, 0.5) if kernel is Kernel.SIN
                        else (PhasePattern.COS_LIKE, 1.5))
        terms = tuple(
            (-(2 * k + off), (-1) ** (n + 1) * (-1) ** k * _gamma_ratio(2 * k + off, den))
            for k in range(n))
        return FamilyCoefficients(terms, const, pattern)

    den = 2 * n + 1.5
    if kernel is Kernel.SIN:
        pattern = PhasePattern.COS_LIKE
        const = (-1) ** n * math.exp(_SQRT2_PI_HALF - math.lgamma(den))
        lead_sign = n if as_printed else n + 1    # printed sign fails the recurrence
        terms = tuple(
            (-(2 * k + 1.5), (-1) ** lead_sign * (-1) ** k * _gamma_ratio(2 * k + 1.5, den))
            for k in range(n))
        return FamilyCoefficients(terms, const, pattern)

    pattern = PhasePattern.SIN_LIKE
    const = (-1) ** (n + 1) * math.exp(_SQRT2_PI_HALF - math.lgamma(den))
    head_sign = n + 1 if as_printed else n        # printed sign contradicts the seed
    head = (-0.5, (-1) ** head_sign * math.sqrt(math.pi) / math.gamma(den))
    terms = (head,) + tuple(
        (-(2 * k + 2.5), (-1) ** (n + 1) * (-1) ** k * _gamma_ratio(2 * k + 2.5, den))
        for k in range(n))
    return FamilyCoefficients(terms, const, pattern)


def _check_recurrence(alpha, kernel):
    """One step of the family difference equation, as a polynomial identity.

    (alpha+1/2)(alpha+3/2) X_{alpha+2}(u) + X_alpha(u) must equal
    u^-(alpha+1/2) for the sine family and (alpha+1/2) u^-(alpha+3/2) for
    the cosine family, where X bundles the rational part and the Fresnel
    constant (whose own recurrence has zero right-hand side).
    """
    lo = _build_family(alpha, kernel, False)
    hi = _build_family(alpha + 2, kernel, False)
    fac = (alpha + 0.5) * (alpha + 1.5)
    resid = abs(fac * hi.fresnel_coeff + lo.fresnel_coeff)
    if resid > 1e-12 * abs(lo.fresnel_coeff):
        raise AssertionError(
            f"fresnel-coefficient recurrence failed at alpha={alpha} {kernel}: {resid}")
    combined = {}
    for power, coeff in hi.rational_part:
        combined[round(2 * power)] = combined.get(round(2 * power), 0.0) + fac * coeff
    for power, coeff in lo.rational_part:
        combined[round(2 * power)] = combined.get(round(2 * power), 0.0) + coeff
    off, scale = (0.5, 1.0) if kernel is Kernel.SIN else (1.5, alpha + 0.5)
    rhs = {round(2 * -(alpha + off)): scale}
    for key in set(combined) | set(rhs):
        want = rhs.get(key, 0.0)
        got = combined.get(key, 0.0)
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            raise AssertionError(
                f"rational-part recurrence failed at alpha={alpha} {kernel}, "
                f"power {key / 2}: {got} vs {want}")


@lru_cache(maxsize=None)
def family_coefficients(alpha: int, kernel: Kernel = Kernel.SIN,
                        as_printed: bool = False) -> FamilyCoefficients:
    """Coefficients of the assembled transform of order ``alpha``.

    Corrected-sign coefficients are verified against the difference
    equation before being returned; ``as_printed`` skips that check (the
    verbatim odd-family signs do not satisfy it).
    """
    if alpha < 0 or alpha != int(alpha):
        raise DomainError(f"alpha must be a nonnegative integer, got {alpha}")
    # coerced inside the cache: "sin" and Kernel.SIN share one entry
    kernel = _as_kernel(kernel)
    if not as_printed:
        _check_recurrence(alpha, kernel)
    return _build_family(alpha, kernel, as_printed)


def s0(x: float, zeta: float = 1.0) -> float:
    """Sine transform of (t+x)^-1/2: the base Fresnel closed form."""
    HalfPowerParams(zeta, x, 0)
    return math.sqrt(math.pi / (2.0 * zeta)) * fresnel_bracket(zeta * x, PhasePattern.SIN_LIKE)


def c0(x: float, zeta: float = 1.0) -> float:
    """Cosine transform of (t+x)^-1/2; x=0 returns the convergent limit."""
    HalfPowerParams(zeta, x, 0)
    return math.sqrt(math.pi / (2.0 * zeta)) * fresnel_bracket(zeta * x, PhasePattern.COS_LIKE)


def _assembled(alpha, x, zeta, kernel, as_printed):
    HalfPowerParams(zeta, x, alpha)
    if x == 0.0 and alpha > 0:
        raise DivergentIntegralError(
            f"x=0 with alpha={alpha}: the assembled closed form is singular there "
            "(only alpha=0 is available at x=0)")
    fam = family_coefficients(alpha, kernel, as_printed)
    u = zeta * x
    value_u = fam.rational_value(u) + fam.fresnel_coeff * fresnel_bracket(u, fam.phase_pattern)
    return zeta ** (alpha - 0.5) * value_u


def s_alpha(alpha: int, x: float, zeta: float = 1.0, as_printed: bool = False) -> float:
    """Sine transform of (t+x)^-(alpha+1/2) for integer alpha >= 0."""
    return _assembled(alpha, x, zeta, Kernel.SIN, as_printed)


def c_alpha(alpha: int, x: float, zeta: float = 1.0, as_printed: bool = False) -> float:
    """Cosine transform of (t+x)^-(alpha+1/2) for integer alpha >= 0."""
    return _assembled(alpha, x, zeta, Kernel.COS, as_printed)
