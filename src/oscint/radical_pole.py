"""Fourier transforms with weight 1/(sqrt(t+a) (t+b)), b > a.

The quadratic-phase engine of ``two_radical`` with weight power p = 1: the
z-integrals carry a simple pole weight 1/(z^2+1), so this module supplies the
tails (by the Gamma form past the Fresnel switch, which never calls a Gamma
binding there, from one Fresnel pair below it and for the printed cosine), its own
``hyp2f1`` and ``integrate_finite`` bindings for the p = 1 head moments, quadrature
heads and contour, its weight and the prefactor 2/sqrt(b-a); its parameters are the
engine's base record plus this prefactor and one rule.  The integrand is NOT
symmetric in a and b, so b > a is required; other orderings have no closed form
here and callers are pointed at the quadrature oracle.

Oracle arbitration notes (details in the errata registry):

* the printed infinite-range cosine formula carries a spurious
  +sqrt(2*pi/c) term and wrong bracket signs (it diverges as c -> 0+
  while the integral stays below pi/2); the corrected form derived
  through the complementary-error-function route is the default and
  matches quadrature at every tested c.  ``as_printed=True`` restores
  the verbatim expression.
* the printed sine head series, with its (2k+1)!(4k+1) denominator and
  {1 - 2F1} bracket, is correct as printed, but {1 - 2F1} cancels at
  small gamma; the engine sums the equivalent moment form instead.
"""

from __future__ import annotations

import math

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import DomainError, UnsupportedError, _from_oracle, _require_finite
from .special_functions import _FRESNEL_SWITCH, _phased_gamma, fresnel_c, fresnel_s, hyp2f1
from .two_radical import _RadicalParams, _assemble, _head_approx, _head_series

integrate_finite = _from_oracle(globals(), "integrate_finite")

_ROOT_PI_8 = math.sqrt(0.125 * math.pi)


class RadicalPoleParams(_RadicalParams):
    __slots__ = ()

    @staticmethod
    def _unordered(a, b):
        raise UnsupportedError(
            f"closed form requires b > a strictly (got a={a}, b={b}); "
            "evaluate via the quadrature oracle instead")

    @property
    def prefactor(self):
        return 2.0 / math.sqrt(self.b - self.a)


def _pole_tails(c, as_printed=False):
    """(sin, cos) integrals of kernel(c x^2)/(x^2+1) over [0, inf), past the Fresnel
    switch (Im, Re) of (sqrt(pi)/2) e^-ic Gamma(1/2, -ic) unless ``as_printed``."""
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    w = math.sqrt(2.0 * c / math.pi)
    if w > _FRESNEL_SWITCH and not as_printed:      # c > 4.02: the fraction's route, no binding
        v = _ROOT_PI_8 * _phased_gamma(None, 0.5, c, DEFAULT_CONTROL)
        return v.real + v.imag, v.real - v.imag
    s, fc = fresnel_s(w), fresnel_c(w)
    sn, cs = math.sin(c), math.cos(c)
    tail_sin = 0.5 * math.pi * (sn * (s + fc - 1.0) - cs * (s - fc))
    if as_printed:
        spurious = math.sqrt(2.0 * math.pi / c)
        _require_finite("pole_tail_cos", printed_term=spurious)
        return tail_sin, 0.5 * math.pi * (cs * (s + fc + 1.0) + sn * (s - fc)) + spurious
    return tail_sin, 0.5 * math.pi * (cs * (1.0 - s - fc) + sn * (fc - s))


def pole_tail_sin(c: float) -> float:
    """Integral of sin(c x^2)/(x^2+1) over [0, inf)."""
    return _pole_tails(c)[0]


def pole_tail_cos(c: float, as_printed: bool = False) -> float:
    """Integral of cos(c x^2)/(x^2+1) over [0, inf).

    Default is the oracle-validated corrected form; ``as_printed``
    reproduces the verbatim (wrong) expression, errata RP-COS-TAIL.
    """
    return _pole_tails(c, as_printed)[1]


def pole_head_sin_series(c: float, gamma: float,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of sin(c x^2)/(x^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 1.0, c, gamma, ctl, "pole_head_sin_series")[0]


def pole_head_cos_series(c: float, gamma: float,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of cos(c x^2)/(x^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 1.0, c, gamma, ctl, "pole_head_cos_series")[1]


def pole_head_sin_approx(c: float, gamma: float) -> float:
    """Leading-order sine head for gamma <= 1."""
    return _head_approx(c, gamma, 2.0)[0]


def pole_head_cos_approx(c: float, gamma: float) -> float:
    """Leading-order cosine head for gamma <= 1 (correct as printed, but
    its error oscillates with sin(c gamma^2); see errata RP-COS-APPROX-TREND)."""
    return _head_approx(c, gamma, 2.0)[1]


def _transform(a, b, zeta, ctl, heads_by_quadrature, approx, as_printed):
    p = RadicalPoleParams(a, b, zeta)
    approx_heads = (lambda c, g: _head_approx(c, g, 2.0)) if approx else None
    tails = (lambda c: _pole_tails(c, True)) if as_printed else _pole_tails
    weight = None if as_printed else lambda m, a, b, t: 1.0 / (m.sqrt(t + a) * (t + b))
    return _assemble(p, p.prefactor, tails, weight, hyp2f1, 1.0, approx_heads, integrate_finite,
                     ctl, heads_by_quadrature)


def pole_sin_transform(a: float, b: float, zeta: float = 1.0,
                       ctl: SeriesControl = DEFAULT_CONTROL,
                       heads_by_quadrature: bool = False,
                       as_printed: bool = False) -> float:
    """Integral of sin(zeta t)/(sqrt(t+a)(t+b)) over [0, inf), b > a."""
    return _transform(a, b, zeta, ctl, heads_by_quadrature, False, as_printed)[0]


def pole_cos_transform(a: float, b: float, zeta: float = 1.0,
                       ctl: SeriesControl = DEFAULT_CONTROL,
                       heads_by_quadrature: bool = False,
                       as_printed: bool = False) -> float:
    """Integral of cos(zeta t)/(sqrt(t+a)(t+b)) over [0, inf), b > a."""
    return _transform(a, b, zeta, ctl, heads_by_quadrature, False, as_printed)[1]


def approx_pole_sin_transform(a: float, b: float, zeta: float = 1.0) -> float:
    """Assembly with the leading-order heads; requires gamma <= 1."""
    return _transform(a, b, zeta, DEFAULT_CONTROL, False, True, False)[0]


def approx_pole_cos_transform(a: float, b: float, zeta: float = 1.0) -> float:
    """Assembly with the leading-order heads; requires gamma <= 1."""
    return _transform(a, b, zeta, DEFAULT_CONTROL, False, True, False)[1]
