"""Fourier transforms with weight 1/(sqrt(t+a) sqrt(t+b)), and the
quadratic-phase head/tail engine shared with ``radical_pole``.

Substituting t + a = (b-a) z^2 folds both radical weights into
integrals of kernel(c z^2) (z^2+1)^-p over [gamma, inf), with
c = zeta*(b-a) and gamma = sqrt(a/(b-a)): p = 1/2 here, p = 1 for the
pole weight 1/(sqrt(t+a)(t+b)).  Each is a known infinite-range tail on
[0, inf) (here Bessel J0/Y0 at c/2) minus a finite head on [0, gamma].
The engine below is written once for both p:

* the head series sum_k (-c^2 gamma^4)^k / j! * m_j/(2j+1), with j = 2k+1
  for the sine kernel and j = 2k for the cosine, over the moments
  m_j = 2F1(p, j+1/2; j+3/2; -gamma^2), i.e. (2j+1) gamma^-(2j+1) times
  the integral of z^2j (z^2+1)^-p on [0, gamma];
* one phase guard (c gamma^2 <= 25) and one fallback to quadrature
  heads when a series is refused or stalls;
* the leading-order heads for gamma <= 1, with coefficient k = 2/p;
* the assembly: prefactor times (tail - head), rotated by the phase a*zeta.

The integrand is symmetric in a and b, so parameters are canonicalized
to b > a; equal constants degenerate to a single pole and are evaluated
through the generalized sine/cosine integrals instead.

The printed cosine head approximation carries a wrong prefactor
(-gamma/c instead of -gamma/(4c), confirmed against the series and
quadrature); the corrected coefficient is the default and the verbatim
form sits behind ``as_printed=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import ConvergenceError, DomainError
from .oracle import _require_finite, integrate_finite
from .special_functions import (
    bessel_j0,
    bessel_y0,
    fresnel_c,
    fresnel_s,
    gen_ci,
    gen_si,
    hyp2f1,
)

__all__ = [
    "TwoRadicalParams",
    "tail_sin",
    "tail_cos",
    "head_sin_series",
    "head_cos_series",
    "head_sin_approx",
    "head_cos_approx",
    "sin_transform",
    "cos_transform",
    "approx_sin_transform",
    "approx_cos_transform",
]

# beyond this phase the alternating factorial series loses > ~10 digits
_MAX_PHASE = 25.0


@dataclass(frozen=True)
class TwoRadicalParams:
    """Parameters with b > a canonicalization (integrand is a<->b symmetric)."""

    a: float
    b: float
    zeta: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.a + self.b + self.zeta):
            _require_finite("TwoRadicalParams", a=self.a, b=self.b, zeta=self.zeta)
        if self.a <= 0 or self.b <= 0 or self.zeta <= 0:
            raise DomainError(
                f"need a, b, zeta > 0, got a={self.a} b={self.b} zeta={self.zeta}")
        if self.b < self.a:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def degenerate(self):
        return self.a == self.b

    @property
    def c(self):
        """Reduced frequency zeta*(b-a)."""
        return self.zeta * (self.b - self.a)

    @property
    def gamma(self):
        return math.sqrt(self.a / (self.b - self.a))


def tail_sin(c: float) -> float:
    """Integral of sin(c z^2)/sqrt(z^2+1) over [0, inf)."""
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    h = 0.5 * c
    return 0.25 * math.pi * (math.sin(h) * bessel_y0(h) + math.cos(h) * bessel_j0(h))


def tail_cos(c: float) -> float:
    """Integral of cos(c z^2)/sqrt(z^2+1) over [0, inf)."""
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    h = 0.5 * c
    return 0.25 * math.pi * (math.sin(h) * bessel_j0(h) - math.cos(h) * bessel_y0(h))


def _head_series(hyp, p, odd, c, gamma, ctl, name):
    """Sine (``odd`` = 1) or cosine (0) head of weight power ``p`` by series.

    ``hyp`` is the calling family's own module binding of ``hyp2f1``, so
    calls stay attributed to that family when bindings are traced.
    """
    if not (c > 0 and gamma >= 0):
        raise DomainError(f"need c > 0 and gamma >= 0, got c={c} gamma={gamma}")
    if gamma == 0:
        return 0.0
    phase = c * gamma * gamma
    if phase > _MAX_PHASE:
        raise ConvergenceError(
            f"head series phase c*gamma^2 = {phase:.3g} too large for double precision")
    g2 = gamma * gamma
    base = -(c * c) * (g2 * g2)
    term = 1.0          # (-c^2 g^4)^k / j!
    total = 0.0
    for k in range(ctl.max_terms):
        j = 2 * k + odd
        piece = term / (2 * j + 1) * hyp(p, j + 0.5, j + 1.5, -g2, ctl)
        total += piece
        if abs(piece) < ctl.rel_tol * abs(total):
            return c * gamma * g2 * total if odd else gamma * total
        term *= base / ((j + 1) * (j + 2))
    raise ConvergenceError(f"{name} stalled at c={c}, gamma={gamma}")


def head_sin_series(c: float, gamma: float,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of sin(c z^2)/sqrt(z^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 0.5, 1, c, gamma, ctl, "head_sin_series")


def head_cos_series(c: float, gamma: float,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of cos(c z^2)/sqrt(z^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 0.5, 0, c, gamma, ctl, "head_cos_series")


def _head_approx(kernel_is_sin, c, gamma, k, front_k=None):
    """Leading-order head for gamma <= 1 with k = 2/p; ``front_k``
    replaces k in the endpoint term gamma/(k c)."""
    if not c > 0:
        raise DomainError(f"need c > 0, got {c}")
    if not 0 <= gamma <= 1:
        raise DomainError(f"approximation requires 0 <= gamma <= 1, got {gamma}")
    w = gamma * math.sqrt(2.0 * c / math.pi)
    root = math.sqrt(0.5 * math.pi / c)
    front = gamma / ((front_k or k) * c)
    if kernel_is_sin:
        return front * math.cos(c * gamma * gamma) + root * (fresnel_s(w) - fresnel_c(w) / (k * c))
    return -front * math.sin(c * gamma * gamma) + root * (fresnel_s(w) / (k * c) + fresnel_c(w))


def head_sin_approx(c: float, gamma: float) -> float:
    """Leading-order head for gamma <= 1; error shrinks with growing c."""
    return _head_approx(True, c, gamma, 4.0)


def head_cos_approx(c: float, gamma: float, as_printed: bool = False) -> float:
    """Leading-order cosine head for gamma <= 1.

    The corrected prefactor -gamma/(4c) is the default; ``as_printed``
    restores the verbatim -gamma/c (see errata TR-COS-APPROX).
    """
    return _head_approx(False, c, gamma, 4.0, 1.0 if as_printed else None)


def _head_quad(kernel_is_sin, c, gamma, ctl):
    kern = math.sin if kernel_is_sin else math.cos
    return integrate_finite(lambda z: kern(c * z * z) / math.sqrt(z * z + 1.0),
                            0.0, gamma, ctl).value


def _assemble(p, prefactor, tails, heads, quad, ctl, quadrature, approx):
    """(sin, cos) transforms: ``prefactor`` times (tail - head), rotated by
    the phase a*zeta.

    ``tails`` is the (sin, cos) pair on [0, inf); ``heads`` the family's
    (sin, cos) leading-order pair when ``approx`` is set, else its series
    pair, replaced by ``quad(kernel_is_sin, c, gamma, ctl)`` when
    ``quadrature`` is set or a series raises ConvergenceError.
    """
    c, g = p.c, p.gamma
    if approx:
        if g > 1:
            raise DomainError(
                f"approximation tier requires gamma <= 1, got gamma={g:.4g}")
        hs, hc = heads[0](c, g), heads[1](c, g)
    elif not quadrature:
        try:
            hs, hc = heads[0](c, g, ctl), heads[1](c, g, ctl)
        except ConvergenceError:
            quadrature = True
    if quadrature:
        hs, hc = quad(True, c, g, ctl), quad(False, c, g, ctl)
    ts = tails[0] - hs
    tc = tails[1] - hc
    phase = p.a * p.zeta
    return (prefactor * (math.cos(phase) * ts - math.sin(phase) * tc),
            prefactor * (math.cos(phase) * tc + math.sin(phase) * ts))


def _degenerate(kernel_is_sin, a, zeta, ctl):
    # a == b: weight collapses to 1/(t+a)
    u = zeta * a
    si = gen_si(0.0, u, ctl)
    ci = gen_ci(0.0, u, ctl)
    if kernel_is_sin:
        return math.cos(u) * si - math.sin(u) * ci
    return math.cos(u) * ci + math.sin(u) * si


def _transform(a, b, zeta, ctl, heads_by_quadrature, approx, as_printed):
    p = TwoRadicalParams(a, b, zeta)
    if p.degenerate:
        return (_degenerate(True, p.a, zeta, ctl), _degenerate(False, p.a, zeta, ctl))
    heads = ((head_sin_approx, lambda c, g: head_cos_approx(c, g, as_printed)) if approx
             else (head_sin_series, head_cos_series))
    return _assemble(p, 2.0, (tail_sin(p.c), tail_cos(p.c)), heads, _head_quad, ctl,
                     heads_by_quadrature, approx)


def sin_transform(a: float, b: float, zeta: float = 1.0,
                  ctl: SeriesControl = DEFAULT_CONTROL,
                  heads_by_quadrature: bool = False) -> float:
    """Integral of sin(zeta t)/(sqrt(t+a) sqrt(t+b)) over [0, inf).

    ``heads_by_quadrature`` replaces the hypergeometric head series with
    adaptive quadrature (the CLI's "series"-vs-"closed-form" split); the
    series route falls back to quadrature on its own if it stalls.
    """
    return _transform(a, b, zeta, ctl, heads_by_quadrature, False, False)[0]


def cos_transform(a: float, b: float, zeta: float = 1.0,
                  ctl: SeriesControl = DEFAULT_CONTROL,
                  heads_by_quadrature: bool = False) -> float:
    """Integral of cos(zeta t)/(sqrt(t+a) sqrt(t+b)) over [0, inf)."""
    return _transform(a, b, zeta, ctl, heads_by_quadrature, False, False)[1]


def approx_sin_transform(a: float, b: float, zeta: float = 1.0,
                         as_printed: bool = False) -> float:
    """Assembly with the leading-order heads; requires gamma <= 1."""
    return _transform(a, b, zeta, DEFAULT_CONTROL, False, True, as_printed)[0]


def approx_cos_transform(a: float, b: float, zeta: float = 1.0,
                         as_printed: bool = False) -> float:
    """Assembly with the leading-order heads; requires gamma <= 1."""
    return _transform(a, b, zeta, DEFAULT_CONTROL, False, True, as_printed)[1]
