"""Closed forms for semi-infinite Fourier transforms with weight (t+x)^-(a+1/2).

The base (alpha = 0) sine and cosine transforms are Fresnel-integral
expressions in the scaled variable u = zeta*x.  Every nonnegative integer
alpha is then reached by a two-term structure

    zeta^(alpha - 1/2) * [ F(u) + c * bracket(u) ]

where F is a finite sum of half-integer powers of u, c is a constant,
and bracket(u) is one of the two Fresnel combinations below.  The
coefficients are built by their first-order difference equations in
alpha from the order-0 and order-1 seeds; the paper's closed Gamma-ratio
solutions are the tests' independent reference.  Two printed signs in
the odd families fail those equations (and direct quadrature); the
corrected ones ship by default, the verbatim ones with
``as_printed=True`` (see the errata registry).

All evaluation happens in u and is multiplied by zeta^(alpha-1/2), which
makes the frequency-scaling law structural rather than numerical.  The
Fresnel forms are the integration-by-parts recurrence unrolled, exact to
1.3e-15 up to u = max(1, p/4), p = alpha + 1/2, and losing like e^u
beyond (6e-10 at alpha = 2 and u = 100, 1.8 at alpha = 10).  Above that
switch of ``special_functions`` the corrected value is the Gamma form
the Lommel family takes there, within 2.5e-14 of mpmath for p <= 10.5
(3e-13 at alpha = 171).  At and below the switch, and for every
``as_printed`` call, the paper's forms run.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import lru_cache

from .errors import (DivergentIntegralError, DomainError, Kernel, Record, _as_kernel,
                     _finite_power, _require_finite)
from .special_functions import (_gamma_form_holds, _power_transform, fresnel_c, fresnel_s,
                                upper_incomplete_gamma)


class PhasePattern(Enum):
    """Which Fresnel combination multiplies the family constant."""

    SIN_LIKE = "sin-like"   # cos(u){1-2S} - sin(u){1-2C}
    COS_LIKE = "cos-like"   # cos(u){1-2C} + sin(u){1-2S}


def _require_order(owner, alpha):
    """The order rule: alpha finite, then a nonnegative integer."""
    if not math.isfinite(alpha):
        _require_finite(owner, alpha=alpha)
    if alpha < 0 or alpha != int(alpha):
        raise DomainError(f"alpha must be a nonnegative integer, got {alpha}")


class HalfPowerParams(Record, namedtuple("HalfPowerParams", "zeta x alpha")):
    __slots__ = ()

    def __new__(cls, zeta: float, x: float, alpha: int):
        if not math.isfinite(zeta + x + alpha):
            _require_finite("HalfPowerParams", zeta=zeta, x=x, alpha=alpha)
        if zeta <= 0:
            raise DomainError(f"frequency zeta must be > 0, got {zeta}")
        if x < 0:
            raise DomainError(f"shift x must be >= 0, got {x}")
        _require_order("HalfPowerParams", alpha)
        return tuple.__new__(cls, (zeta, x, alpha))


class FamilyCoefficients(Record, namedtuple("FamilyCoefficients",
                                            "rational_part fresnel_coeff phase_pattern")):
    """rational_part: ((power, coeff), ...) with value sum(coeff * u**power)."""

    __slots__ = ()

    def rational_value(self, u):
        try:
            return math.fsum(coeff * u ** power for power, coeff in self.rational_part)
        except (OverflowError, ZeroDivisionError):
            raise DomainError(f"rational part at u={u} leaves double precision") from None


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


# the order-0 and order-1 seeds: (rational part, Fresnel coefficient, pattern)
_SEEDS = {
    (Kernel.SIN, 0): ((), math.sqrt(0.5 * math.pi), PhasePattern.SIN_LIKE),
    (Kernel.COS, 0): ((), math.sqrt(0.5 * math.pi), PhasePattern.COS_LIKE),
    (Kernel.SIN, 1): ((), math.sqrt(2.0 * math.pi), PhasePattern.COS_LIKE),
    (Kernel.COS, 1): (((-0.5, 2.0),), -math.sqrt(2.0 * math.pi), PhasePattern.SIN_LIKE),
}


@lru_cache(maxsize=None)
def family_coefficients(alpha: int, kernel: Kernel = Kernel.SIN,
                        as_printed: bool = False) -> FamilyCoefficients:
    """Coefficients of the assembled transform of order ``alpha``, built
    from the seed of alpha's parity by the difference equation

        f_j X_(j+2) + X_j = u^-(j+1/2) (sine), (j+1/2) u^-(j+3/2) (cosine),

    f_j = (j+1/2)(j+3/2), where X bundles the rational part and the
    Fresnel coefficient (whose own equation is homogeneous).
    """
    _require_order("family_coefficients", alpha)
    # coerced inside the cache: "sin" and Kernel.SIN share one entry
    kernel = _as_kernel(kernel)
    alpha = int(alpha)
    sine = kernel is Kernel.SIN
    seed, fresnel_coeff, pattern = _SEEDS[kernel, alpha % 2]
    # from the top step down: step j adds the right-hand side over f_j,
    # and every later step k divides it by -f_k
    terms, scale = [], 1.0
    for j in range(alpha - 2, -1, -2):
        f = (j + 0.5) * (j + 1.5)
        terms.append((-(j + 0.5), scale / f) if sine else (-(j + 1.5), scale / (j + 1.5)))
        scale /= -f
    terms = [(power, coeff * scale) for power, coeff in seed] + terms[::-1]
    if as_printed and alpha % 2:
        # HP-ODD-SIN-SIGN negates the whole rational part, HP-ODD-COS-SIGN the u^-1/2 term
        n = len(terms) if sine else 1
        terms[:n] = [(power, -coeff) for power, coeff in terms[:n]]
    return FamilyCoefficients(tuple(terms), fresnel_coeff * scale, pattern)


def s0(x: float, zeta: float = 1.0) -> float:
    """Sine transform of (t+x)^-1/2: the base Fresnel closed form."""
    return _assembled(0, x, zeta, Kernel.SIN, False)


def c0(x: float, zeta: float = 1.0) -> float:
    """Cosine transform of (t+x)^-1/2; x=0 returns the convergent limit."""
    return _assembled(0, x, zeta, Kernel.COS, False)


def _assembled(alpha, x, zeta, kernel, as_printed):
    HalfPowerParams(zeta, x, alpha)
    if x == 0.0 and alpha > 0:
        raise DivergentIntegralError(
            f"x=0 with alpha={alpha}: the assembled closed form is singular there "
            "(only alpha=0 is available at x=0)")
    u = zeta * x
    if not as_printed and _gamma_form_holds(alpha + 0.5, u):
        value_u = _power_transform(kernel, alpha + 0.5, u, upper_incomplete_gamma)
    else:
        fam = family_coefficients(alpha, kernel, as_printed)
        value_u = fam.rational_value(u) + fam.fresnel_coeff * fresnel_bracket(u, fam.phase_pattern)
    return _finite_power("half-power", zeta, alpha - 0.5, value_u)


def s_alpha(alpha: int, x: float, zeta: float = 1.0, as_printed: bool = False) -> float:
    """Sine transform of (t+x)^-(alpha+1/2) for integer alpha >= 0."""
    return _assembled(alpha, x, zeta, Kernel.SIN, as_printed)


def c_alpha(alpha: int, x: float, zeta: float = 1.0, as_printed: bool = False) -> float:
    """Cosine transform of (t+x)^-(alpha+1/2) for integer alpha >= 0."""
    return _assembled(alpha, x, zeta, Kernel.COS, as_printed)
