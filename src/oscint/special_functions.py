"""Self-contained special functions backing the closed-form transforms.

Everything here is scalar double precision built on the stdlib ``math`` /
``cmath`` (plus the package's own lobe quadrature for the generalized
sine/cosine integrals); scipy.special is deliberately not used, so the
closed forms and the quadrature oracle share no special-function code.

Evaluation strategies:

* Fresnel S/C: Maclaurin series for |z| <= 1.6; beyond that the
  auxiliary decomposition is evaluated through the incomplete-gamma
  continued fraction at argument -i*pi*z^2/2 (convergent, unlike the
  divergent asymptotic series, which cannot reach 1e-12 near the switch
  point).  Both branches agree to ~1e-15 at the switch.
* Bessel J0/Y0: ascending series for z <= 14, Hankel asymptotic sums
  truncated at their smallest term beyond.  The split sits at 14.0, where
  both branches deliver ~3e-12 absolute; at the classical 8.0 the
  asymptotic branch would only reach ~2e-8.  An argument that overflowed
  to inf (or NaN) is a DomainError, checked on the Hankel branch only.
* Upper incomplete gamma, complex second argument: Legendre continued
  fraction (modified Lentz) for |z| >= max(1, a+1), Taylor series for the
  lower function otherwise; a <= 0 reached by downward recurrence, with
  integer a routed through the exponential-integral log series.
* Gauss 2F1 on the axis z <= 0: direct series inside the disk, Pfaff
  transformation for z < -1/2 (argument maps into (0,1)).
* 2F2(1/2,1/2;3/2,3/2;ix): direct complex series (entire).

Complex values are plain Python ``complex``.
"""

from __future__ import annotations

import cmath
import math

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import ConvergenceError, DomainError, PoleError
from .oracle import Kernel, kernel_breakpoints, lobe_sum

__all__ = [
    "EULER_GAMMA",
    "fresnel_s",
    "fresnel_c",
    "bessel_j0",
    "bessel_y0",
    "gamma_real",
    "upper_incomplete_gamma",
    "hyp2f1",
    "hyp2f2_half",
    "gen_si",
    "gen_ci",
]

EULER_GAMMA = 0.5772156649015328606

_FRESNEL_SWITCH = 1.6
_BESSEL_SWITCH = 14.0
_INTERNAL = SeriesControl(rel_tol=1e-15, max_terms=800)


# --------------------------------------------------------------------------
# incomplete gamma
# --------------------------------------------------------------------------

def _legendre_cf(a, z, ctl):
    """Gamma(a, z) by the Legendre continued fraction, modified Lentz.

    Reliable for |z| >= max(1, a+1) away from the negative real axis,
    including the imaginary axis (slower there, ~150 iterations at |z|=1).
    """
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, ctl.max_terms + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = complex(tiny)
        c = b + an / c
        if abs(c) < tiny:
            c = complex(tiny)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < ctl.rel_tol:
            return h * cmath.exp(-z + a * cmath.log(z))
    raise ConvergenceError(
        f"incomplete-gamma continued fraction stalled at a={a}, z={z}")


def _lower_series(a, z, ctl):
    """gamma(a, z), lower function, by its Taylor-type series.

    Valid for a > 0 or non-integer a (the denominators a, a+1, ... must
    not vanish).
    """
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(ctl.max_terms):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * ctl.rel_tol:
            return total * cmath.exp(-z + a * cmath.log(z))
    raise ConvergenceError(f"incomplete-gamma series stalled at a={a}, z={z}")


def _exp1_series(z, ctl):
    """Gamma(0, z) by the logarithmic series, for |z| small."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(1, ctl.max_terms + 1):
        term *= -z / k
        piece = -term / k
        total += piece
        if abs(piece) < abs(total) * ctl.rel_tol + 1e-300:
            return -EULER_GAMMA - cmath.log(z) + total
    raise ConvergenceError(f"exponential-integral series stalled at z={z}")


def upper_incomplete_gamma(a: float, z: complex,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Upper incomplete gamma Gamma(a, z), principal branch.

    ``z`` may be complex (the transforms use purely imaginary arguments);
    z = 0 requires a > 0.  Satisfies Gamma(a+1,z) = a Gamma(a,z) +
    z^a e^-z and Gamma(a, conj z) = conj Gamma(a, z).

    Orders within 1e-8 of a non-positive integer are snapped to it: the
    function is entire in ``a``, but the downward recurrence divides by
    a - k and turns 0/0 there, so the snapped route is far more accurate
    than the literal one.
    """
    z = complex(z)
    if a < 0.5 and abs(a - round(a)) < 1e-8:
        a = float(round(a))
    if z == 0:
        if a <= 0:
            raise DomainError(f"Gamma(a, 0) needs a > 0, got a={a}")
        return complex(gamma_real(a))
    if abs(z) >= max(1.0, a + 1.0):
        out = _legendre_cf(a, z, ctl)
    elif a > 0:
        out = complex(gamma_real(a)) - _lower_series(a, z, ctl)
    elif a == round(a):
        # integer a <= 0: descend from Gamma(0, z)
        out = _exp1_series(z, ctl)
        b = 0.0
        while b > a:
            b -= 1.0
            out = (out - cmath.exp(b * cmath.log(z) - z)) / b
    else:
        # non-integer a < 0: lift into (0, 1), then descend
        mlift = int(math.floor(-a)) + 1
        abar = a + mlift
        if abs(z) >= max(1.0, abar + 1.0):
            out = _legendre_cf(abar, z, ctl)
        else:
            out = complex(gamma_real(abar)) - _lower_series(abar, z, ctl)
        b = abar
        for _ in range(mlift):
            b -= 1.0
            out = (out - cmath.exp(b * cmath.log(z) - z)) / b
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ConvergenceError(f"Gamma({a}, {z}) evaluated non-finite")
    return out


def gamma_real(x: float) -> float:
    """Gamma function of a real argument; poles raise."""
    if x <= 0 and x == round(x):
        raise PoleError(f"Gamma pole at x={x}")
    return math.gamma(x)


# --------------------------------------------------------------------------
# Fresnel integrals
# --------------------------------------------------------------------------

def _fresnel_series(z):
    """(S, C) by the Maclaurin series; accurate for |z| <~ 2."""
    x = 0.5 * math.pi * z * z
    x2 = x * x
    cs = 0.0
    ss = 0.0
    term_c = 1.0
    term_s = 1.0
    for k in range(60):
        cs += term_c / (4 * k + 1)
        ss += term_s / (4 * k + 3)
        term_c *= -x2 / ((2 * k + 1) * (2 * k + 2))
        term_s *= -x2 / ((2 * k + 2) * (2 * k + 3))
        if abs(term_c) < 1e-17 * abs(cs) and abs(term_s) < 1e-17 * abs(ss):
            break
    return z * x * ss, z * cs


def _fresnel_tail(z):
    """(S, C) for z above the switch, via Gamma(1/2, -i pi z^2 / 2).

    C(z) + iS(z) = e^{i pi/4} (sqrt(pi) - Gamma(1/2, -i pi z^2/2)) / sqrt(2 pi).
    """
    w = complex(0.0, -0.5 * math.pi * z * z)
    g = _legendre_cf(0.5, w, _INTERNAL)
    val = cmath.exp(0.25j * math.pi) * (math.sqrt(math.pi) - g) / math.sqrt(2.0 * math.pi)
    return val.imag, val.real


def fresnel_s(z: float) -> float:
    """Fresnel sine integral: integral of sin(pi t^2 / 2) from 0 to z."""
    if z < 0:
        return -fresnel_s(-z)
    if z <= _FRESNEL_SWITCH:
        return _fresnel_series(z)[0]
    return _fresnel_tail(z)[0]


def fresnel_c(z: float) -> float:
    """Fresnel cosine integral: integral of cos(pi t^2 / 2) from 0 to z."""
    if z < 0:
        return -fresnel_c(-z)
    if z <= _FRESNEL_SWITCH:
        return _fresnel_series(z)[1]
    return _fresnel_tail(z)[1]


# --------------------------------------------------------------------------
# Bessel J0 / Y0
# --------------------------------------------------------------------------

def _j0_series(z):
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


def _y0_series(z):
    q = 0.25 * z * z
    term = 1.0
    hk = 0.0
    total = 0.0
    sign = 1.0
    for k in range(1, 200):
        term *= q / (k * k)
        hk += 1.0 / k
        piece = sign * hk * term
        total += piece
        sign = -sign
        if abs(piece) < 1e-17 * abs(total) + 1e-300:
            break
    return (2.0 / math.pi) * ((math.log(0.5 * z) + EULER_GAMMA) * _j0_series(z) + total)


def _hankel_pq(z):
    """P and Q sums of the order-zero Hankel expansion, stopped at the
    smallest term."""
    eight_z = 8.0 * z
    terms = [1.0]
    t = 1.0
    j = 0
    while j < 60:
        j += 1
        t *= (2 * j - 1) ** 2 / (j * eight_z)
        if t >= terms[-1]:
            break
        terms.append(t)
    p = 0.0
    q = 0.0
    for j, t in enumerate(terms):
        if j % 2 == 0:
            p += (-1) ** (j // 2) * t
        else:
            q += (-1) ** ((j + 1) // 2) * t
    return p, q


def _require_finite_argument(z):
    # an overflowed argument (or NaN) reaches here, past the series switch
    if not math.isfinite(z):
        raise DomainError(f"Bessel argument overflows double precision: {z}")


def bessel_j0(z: float) -> float:
    """Bessel function of the first kind, order zero, z >= 0."""
    if z < 0:
        raise DomainError(f"bessel_j0 needs z >= 0, got {z}")
    if z <= _BESSEL_SWITCH:
        return _j0_series(z)
    _require_finite_argument(z)
    p, q = _hankel_pq(z)
    w = z - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * z)) * (p * math.cos(w) - q * math.sin(w))


def bessel_y0(z: float) -> float:
    """Bessel function of the second kind, order zero, z > 0."""
    if z <= 0:
        raise DomainError(f"bessel_y0 needs z > 0, got {z}")
    if z <= _BESSEL_SWITCH:
        return _y0_series(z)
    _require_finite_argument(z)
    p, q = _hankel_pq(z)
    w = z - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * z)) * (p * math.sin(w) + q * math.cos(w))


# --------------------------------------------------------------------------
# hypergeometric
# --------------------------------------------------------------------------

def _gauss_series(a, b, c, z, ctl):
    term = 1.0
    total = 1.0
    for k in range(ctl.max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        total += term
        if abs(term) < ctl.rel_tol * abs(total):
            return total
    raise ConvergenceError(f"2F1 series stalled at ({a},{b};{c};{z})")


def hyp2f1(a: float, b: float, c: float, z: float,
           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Gauss hypergeometric function on the axis z <= 0.

    Inside the disk the defining series is summed directly; for z < -1/2
    a Pfaff transformation maps the argument to z/(z-1) in (0, 1), where
    the series converges for every z <= 0 the radical transforms produce.
    """
    if c <= 0 and c == round(c):
        raise PoleError(f"2F1 pole at c={c}")
    if z > 0:
        raise DomainError(f"hyp2f1 supports z <= 0 only, got z={z}")
    if z == 0:
        return 1.0
    if z >= -0.5:
        return _gauss_series(a, b, c, z, ctl)
    w = z / (z - 1.0)
    if abs(c - b) <= abs(c - a):
        return (1.0 - z) ** (-a) * _gauss_series(a, c - b, c, w, ctl)
    return (1.0 - z) ** (-b) * _gauss_series(c - a, b, c, w, ctl)


def hyp2f2_half(x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """2F2(1/2,1/2;3/2,3/2; ix): entire, summed directly."""
    term = complex(1.0)
    total = complex(1.0)
    iz = complex(0.0, x)
    for k in range(ctl.max_terms):
        term *= (0.5 + k) ** 2 / ((1.5 + k) ** 2 * (k + 1.0)) * iz
        total += term
        if abs(term) < ctl.rel_tol * abs(total):
            return total
    raise ConvergenceError(
        f"2F2 series exceeded {ctl.max_terms} terms at |x|={abs(x)}; "
        "the argument is too large for double-precision summation")


# --------------------------------------------------------------------------
# generalized sine / cosine integrals
# --------------------------------------------------------------------------

def _gen_trig_tail(kernel, alpha, z, ctl):
    if alpha >= 1:
        raise DomainError(f"generalized trig integral needs alpha < 1, got {alpha}")
    if z <= 0:
        raise DomainError(f"generalized trig integral needs z > 0, got {z}")
    e = alpha - 1.0

    def f_over(m):
        trig = m.sin if kernel is Kernel.SIN else m.cos
        return lambda t: trig(t) * t ** e

    value, _, _, _ = lobe_sum(f_over(math), kernel_breakpoints(kernel, 1.0, z), ctl, f_over)
    return value


def gen_si(alpha: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized sine integral: integral of sin(t) t^(alpha-1) over [z, inf)."""
    return _gen_trig_tail(Kernel.SIN, alpha, z, ctl)


def gen_ci(alpha: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized cosine integral: integral of cos(t) t^(alpha-1) over [z, inf)."""
    return _gen_trig_tail(Kernel.COS, alpha, z, ctl)
