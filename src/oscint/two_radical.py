"""Fourier transforms with weight 1/(sqrt(t+a) sqrt(t+b)), and the
quadratic-phase head/tail engine shared with ``radical_pole``.

Substituting t + a = (b-a) z^2 folds both radical weights into
integrals of kernel(c z^2) (z^2+1)^-p over [gamma, inf), with
c = zeta*(b-a) and gamma = sqrt(a/(b-a)): p = 1/2 here, p = 1 for the
pole weight 1/(sqrt(t+a)(t+b)).  Each is a known infinite-range tail on
[0, inf) (here one Bessel J0/Y0 pair at h = c/2 for both kernels, and past
the Bessel switch the Hankel sums P + Q and P - Q alone) minus a finite head
on [0, gamma].
The engine below is written once for both p, and each route yields the
(sin, cos) pair from one evaluation; only the public functions pick one:

* both heads as gamma (Im, Re) T_0, T_0 = sum_j (ix)^j/j! m_j/(2j+1) with
  x = c gamma^2 (odd j the sine, even j the cosine), over the moments
  m_j = 2F1(p, j+1/2; j+3/2; -gamma^2), i.e. (2j+1) gamma^-(2j+1) times
  the integral of z^2j (z^2+1)^-p on [0, gamma];
* one pass per transform over m_J..m_0, to the table's top J (x^J/J! below
  rel_tol min(1, x)/1000): Horner's rule T_j = m_j/(2j+1) + ix/(j+1) T_(j+1)
  takes each moment as the three-term relation between neighbours gives it,
  for gamma <= 1 downward from one 2F1 at j = J in the same loop, for
  gamma > 1 from a list filled upward from the closed-form m_0 (no 2F1 at
  all), each the stable direction; no head stops early, and a table that
  the cap 2 max_terms - 1 ends before its bound falls is the series' stall;
* the seed's 2F1 summed to 10^-d, d = 17 + log10(gamma^(2(J-1)) e^c) held
  to [8, 17]: an error in m_J reaches the sine head at most that factor
  times over, relative, so the seed is summed only as deep as it shows;
  J grows with the phase, so it is cached per phase rounded up to a
  multiple of 1/16 (bounded LRU); the seed is Pfaff's 2F1 series, half as
  long as the direct one (c - b = 1 against b = J + 1/2), and the pass
  reads (2j+3-2p)/(2j+3) per p, 2j+1 and j+1 from tables grown first;
* one phase guard (c gamma^2 = zeta a <= 12) and, where a series stalls or
  is not wanted, both heads as (Im, Re) of one integral of e^(i c z^2)
  (z^2+1)^-p on [0, gamma] by the family's own ``integrate_finite`` binding;
* past the guard, where tail - head cancels, one smooth integral through
  that binding: cos + i sin = (i/zeta) times the integral of e^-s w(i s/zeta)
  over [0, inf) (Huybrechs & Vandewalle, SIAM J. Numer. Anal. 44 (2006)
  1026-1048); there arg(t + a) is in [0, pi/2), so principal roots continue
  w, and this weight takes one root of the product (the arguments sum below pi);
* both leading-order heads for gamma <= 1 from one Fresnel pair, k = 2/p;
* the assembly: prefactor times (tail - head), rotated by the phase a*zeta.

Both weights' rules (finite a, b, zeta > 0) and c, gamma sit in one base
record, ``_RadicalParams``.  This integrand is symmetric in a and b, so
parameters are canonicalized to b > a; equal constants degenerate to a
single pole and are evaluated through generalized sine/cosine integrals.

The printed cosine head approximation carries a wrong prefactor
(-gamma/c instead of -gamma/(4c), confirmed against the series and
quadrature); the corrected coefficient is the default and the verbatim
form sits behind ``as_printed=True``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import ConvergenceError, DomainError, Record, _require_finite
from .oracle import integrate_finite
from .special_functions import (
    bessel_j0,
    bessel_y0,
    fresnel_c,
    fresnel_s,
    gen_ci,
    gen_si,
    hyp2f1,
    _BESSEL_SWITCH,
    _grown,
    _hankel_pq,
)

# beyond this phase the rotated contour takes over: the alternating series
# loses digits like e^(c gamma^2), to a worst transform error of 1.3e-10 at
# phase 11-12 on 3,000 seeded points against the contour (2.6e-8 at 16)
_MAX_PHASE = 12.0
_CONTOUR_END = 40.0         # e^-40 < 5e-18, and |w| on the contour <= w(0)
_HEAD_TERMS = []            # (2j + 1, j + 1) as floats, to the longest top + 1
_LOG10_E = math.log10(math.e)
_moment_ratios = lru_cache(maxsize=16)(lambda p: [])    # (2j+3-2p)/(2j+3) per power p


class _RadicalParams(Record, namedtuple("_RadicalParams", "a b zeta")):
    """Finite a, b, zeta > 0 of either radical weight, with c and gamma; a
    subclass's ``_unordered`` settles b <= a."""

    __slots__ = ()

    def __new__(cls, a: float, b: float, zeta: float = 1.0):
        if not math.isfinite(a + b + zeta):
            _require_finite(cls.__name__, a=a, b=b, zeta=zeta)
        if a <= 0 or b <= 0 or zeta <= 0:
            raise DomainError(
                f"need a, b, zeta > 0, got a={a} b={b} zeta={zeta}")
        if b <= a:
            a, b = cls._unordered(a, b)
        return tuple.__new__(cls, (a, b, zeta))

    @property
    def c(self):
        """Reduced frequency zeta*(b-a)."""
        return self.zeta * (self.b - self.a)

    @property
    def gamma(self):
        return math.sqrt(self.a / (self.b - self.a))


class TwoRadicalParams(_RadicalParams):
    """Parameters with b > a canonicalization (integrand is a<->b symmetric)."""

    __slots__ = ()

    @staticmethod
    def _unordered(a, b):
        return b, a

    @property
    def degenerate(self):
        return self.a == self.b


def _tails(c):
    """(sin, cos) integrals of kernel(c z^2)/sqrt(z^2+1) over [0, inf),
    (pi/4)(sin h Y0 + cos h J0, sin h J0 - cos h Y0) at h = c/2: past the
    Bessel switch exactly (P + Q, P - Q) sqrt(pi/h)/4 from the Hankel sums,
    with no sine or cosine of h; below (or at an overflowed h, which the
    Bessel pair refuses) from one J0/Y0 pair."""
    if c <= 0:
        raise DomainError(f"need c > 0, got {c}")
    h = 0.5 * c
    if _BESSEL_SWITCH < h < math.inf:
        p, q = _hankel_pq(h)
        r = 0.25 * math.sqrt(math.pi / h)
        return r * (p + q), r * (p - q)
    j0, y0 = bessel_j0(h), bessel_y0(h)
    s, co = math.sin(h), math.cos(h)
    return 0.25 * math.pi * (s * y0 + co * j0), 0.25 * math.pi * (s * j0 - co * y0)


def tail_sin(c: float) -> float:
    """Integral of sin(c z^2)/sqrt(z^2+1) over [0, inf)."""
    return _tails(c)[0]


def tail_cos(c: float) -> float:
    """Integral of cos(c z^2)/sqrt(z^2+1) over [0, inf)."""
    return _tails(c)[1]


@lru_cache(maxsize=64)
def _seed_control(digits, max_terms):
    """The top moment's 2F1 stops at 10^-digits, digits = 17 + log10 of the
    bound g2^(top-1) e^c, within [8, 17]: an error e in m_top reaches m_j as at
    most g2^(top-j) e, and T_0 weighs m_j by x^j/j! = c^j g2^j/j!, so it reaches
    the sine head (about x/3 at small x) as at most g2^(top-1) e^c e relative.
    At g2 near 1 nothing else damps it on the way to m_0."""
    return SeriesControl(10.0 ** -digits, max_terms)


def _table_top(x, ctl):
    """Last moment index for phase x, or None where the cap stops the table
    first: terms are bounded by x^j/j! (0 < m_j <= 1), so stop past j > x
    once that is below rel_tol * min(1, x) / 1000, and at 2 max_terms - 1
    (max_terms per kernel).  The index grows with x, so it is read for x
    rounded up to a multiple of 1/16: a longer table only adds terms below
    the bound."""
    return _table_length(math.ceil(16.0 * x) / 16.0, ctl.rel_tol, ctl.max_terms)


@lru_cache(maxsize=1024)
def _table_length(x, rel_tol, max_terms):
    cap, floor = 2 * max_terms - 1, 1e-3 * rel_tol * min(1.0, x)
    bound, j = 1.0, 0
    while j <= x or bound >= floor:
        if j == cap:
            return None
        j += 1
        bound *= x / j
    return min(j + 1, cap)


def _head_series(hyp, p, c, gamma, ctl, name):
    """(sin, cos) heads of weight power ``p`` by series: gamma (Im, Re) T_0 by
    one Horner pass over the moments (module docstring), each from the next
    by m_j + (2j+3-2p)/(2j+3) g2 m_(j+1) = (1+g2)^(1-p) (integration by parts)
    for g2 <= 1, from the one before for g2 > 1 (closed-form m_0 = atan(gamma)/
    gamma at p = 1, else asinh(gamma)/gamma).  ``hyp`` is the calling family's
    own module binding of ``hyp2f1``, so calls stay attributed to that family
    when bindings are traced.
    """
    if not (c > 0 and gamma >= 0):
        raise DomainError(f"need c > 0 and gamma >= 0, got c={c} gamma={gamma}")
    if gamma == 0:
        return 0.0, 0.0
    g2 = gamma * gamma
    x = c * g2
    if x > _MAX_PHASE:
        if x == math.inf:
            _require_finite(name, c=c, gamma=gamma)
        raise ConvergenceError(
            f"head series phase c*gamma^2 = {x:.3g} too large for double precision")
    if (top := _table_top(x, ctl)) is None:
        raise ConvergenceError(f"{name} stalled at c={c}, gamma={gamma}")
    lead = (1.0 + g2) ** (1.0 - p)
    if len(_HEAD_TERMS) <= top:
        _grown(_HEAD_TERMS, top + 1, lambda j: (2 * j + 1.0, j + 1.0))
    if g2 > 1.0:
        m = [(math.atan(gamma) if p == 1.0 else math.asinh(gamma)) / gamma]
        for j in range(top):
            m.append((lead - m[j]) * (2 * j + 3) / ((2 * j + 3 - 2 * p) * g2))
        re = im = 0.0
        for j in range(top, -1, -1):
            d, n = _HEAD_TERMS[j]
            y = x / n
            re, im = m[j] / d - y * im, y * re
        return gamma * im, gamma * re
    if len(ratios := _moment_ratios(p)) < top:
        _grown(ratios, top, lambda j: (2 * j + 3 - 2 * p) / (2 * j + 3))
    digits = math.floor(17.0 + (top - 1) * math.log10(g2) + c * _LOG10_E)
    v = hyp(p, top + 0.5, top + 1.5, -g2, _seed_control(min(17, max(8, digits)), ctl.max_terms))
    re, im = v / _HEAD_TERMS[top][0], 0.0
    for j in range(top - 1, -1, -1):
        v = lead - ratios[j] * g2 * v
        d, n = _HEAD_TERMS[j]
        y = x / n
        re, im = v / d - y * im, y * re
    return gamma * im, gamma * re


def head_sin_series(c: float, gamma: float,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of sin(c z^2)/sqrt(z^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 0.5, c, gamma, ctl, "head_sin_series")[0]


def head_cos_series(c: float, gamma: float,
                    ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of cos(c z^2)/sqrt(z^2+1) on [0, gamma], by series."""
    return _head_series(hyp2f1, 0.5, c, gamma, ctl, "head_cos_series")[1]


def _head_approx(c, gamma, k, front_k=None):
    """(sin, cos) leading-order heads for gamma <= 1 with k = 2/p; ``front_k``
    replaces k in the cosine's endpoint term gamma/(k c)."""
    if not 0 < c < math.inf:
        raise DomainError(f"need finite c > 0, got {c}")
    if not 0 <= gamma <= 1:
        raise DomainError(f"approximation requires 0 <= gamma <= 1, got {gamma}")
    w = gamma * math.sqrt(2.0 * c / math.pi)
    root = math.sqrt(0.5 * math.pi / c)
    s, fc = fresnel_s(w), fresnel_c(w)
    hs = gamma / (k * c) * math.cos(c * gamma * gamma) + root * (s - fc / (k * c))
    hc = -gamma / ((front_k or k) * c) * math.sin(c * gamma * gamma) + root * (s / (k * c) + fc)
    if not (math.isfinite(hs) and math.isfinite(hc)):
        raise DomainError(f"approximate heads at c={c}, gamma={gamma} leave double precision")
    return hs, hc


def head_sin_approx(c: float, gamma: float) -> float:
    """Leading-order head for gamma <= 1; error shrinks with growing c."""
    return _head_approx(c, gamma, 4.0)[0]


def head_cos_approx(c: float, gamma: float, as_printed: bool = False) -> float:
    """Leading-order cosine head for gamma <= 1.

    The corrected prefactor -gamma/(4c) is the default; ``as_printed``
    restores the verbatim -gamma/c (see errata TR-COS-APPROX).
    """
    return _head_approx(c, gamma, 4.0, 1.0 if as_printed else None)[1]


def _head_quad(integrate, power, c, gamma, ctl):
    """(sin, cos) integrals of kernel(c z^2) (z^2+1)^-power on [0, gamma]: (Im, Re)
    of one ``integrate`` call on e^(i c z^2) (z^2+1)^-power."""
    f_over = lambda m: lambda z: m.exp(1j * (c * z * z)) / (z * z + 1.0) ** power
    v = integrate(None, 0.0, gamma, ctl, f_over).value
    return v.imag, v.real


def _contour(integrate, weight, p, power, ctl):
    """The contour pair from one ``integrate`` call: zeta^(power - 1/2) times the
    pair at (zeta a, zeta b, 1), where |weight(m, a, b, i s)| <= weight at s = 0 < 1/12."""
    za, zb = p.zeta * p.a, p.zeta * p.b
    f_over = lambda m: lambda s: m.exp(-s) * weight(m, za, zb, 1j * s)
    v = p.zeta ** (power - 0.5) * integrate(None, 0.0, _CONTOUR_END, ctl, f_over).value
    return v.real, -v.imag


def _assemble(p, prefactor, tails, weight, hyp, power, approx_heads, integrate, ctl, quadrature):
    """(sin, cos) transforms: ``prefactor`` times (tail - head), rotated by
    the phase a*zeta; by default past the phase guard ``_contour`` of ``weight``.

    ``tails`` gives the (sin, cos) pair on [0, inf) at c.  The heads are the
    family's leading-order pair ``approx_heads(c, gamma)`` when given, else
    both series of weight power ``power`` from one moment pass (``hyp`` as
    in ``_head_series``), replaced by the ``_head_quad`` pair through
    ``integrate``, the family's own ``integrate_finite`` binding, when
    ``quadrature`` is set or the series raises ConvergenceError.
    """
    c, g = p.c, p.gamma
    if _MAX_PHASE < c * (g * g) < math.inf and weight and not (approx_heads or quadrature):
        return _contour(integrate, weight, p, power, ctl)
    tails = tails(c)
    if approx_heads:
        hs, hc = approx_heads(c, g)
    elif not quadrature:
        try:
            hs, hc = _head_series(hyp, power, c, g, ctl, "head series")
        except ConvergenceError:
            quadrature = True
    if quadrature:
        hs, hc = _head_quad(integrate, power, c, g, ctl)
    ts, tc = tails[0] - hs, tails[1] - hc
    cs, sn = math.cos(p.a * p.zeta), math.sin(p.a * p.zeta)
    return prefactor * (cs * ts - sn * tc), prefactor * (cs * tc + sn * ts)


def _degenerate(a, zeta, ctl):
    # a == b: weight collapses to 1/(t+a); one si/ci pair serves both kernels
    u = zeta * a
    si, ci = gen_si(0.0, u, ctl), gen_ci(0.0, u, ctl)
    return math.cos(u) * si - math.sin(u) * ci, math.cos(u) * ci + math.sin(u) * si


def _warm(ctl):
    """Build what these routes take from caches on first use: the e^(it) phase
    table of the (gen_si, gen_ci) pair, which Lommel's series shares, and
    ``quad``'s first level on the contour's range, past the phase guard."""
    gen_si(0.0, 1.0, ctl)
    integrate_finite(None, 0.0, _CONTOUR_END, ctl, lambda m: lambda s: m.exp(-s))


def _transform(a, b, zeta, ctl, heads_by_quadrature, approx, as_printed):
    p = TwoRadicalParams(a, b, zeta)
    if p.degenerate:
        return _degenerate(p.a, zeta, ctl)
    front_k = 1.0 if as_printed else None
    approx_heads = (lambda c, g: _head_approx(c, g, 4.0, front_k)) if approx else None
    # one root of the product, two where it would overflow (|t| <= 40 on the contour)
    weight = lambda m, a, b, t: 1.0 / (m.sqrt((t + a) * (t + b)) if b < 1e154
                                       else m.sqrt(t + a) * m.sqrt(t + b))
    return _assemble(p, 2.0, _tails, weight, hyp2f1, 0.5, approx_heads, integrate_finite, ctl,
                     heads_by_quadrature)


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
