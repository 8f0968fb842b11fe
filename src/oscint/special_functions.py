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
  point).  Both branches agree to ~1e-15 at the switch.  One private
  function computes the (S, C) pair and memoises its last argument, so
  a caller reading S and then C at the same z sums one branch once.
* Bessel J0/Y0: ascending series for z <= 14, Hankel asymptotic sums
  truncated at their smallest term beyond.  The split sits at 14.0, where
  both branches deliver ~3e-12 absolute; at the classical 8.0 the
  asymptotic branch would only reach ~2e-8.  An argument that overflowed
  to inf (or NaN) is a DomainError, checked on the Hankel branch only.
  The J0 series memoises its last argument, so Y0's series reuses the
  J0 that the caller has just summed at the same z.
* Upper incomplete gamma, complex second argument, to about 1e-16 on
  the imaginary axis:
  - |z| >= max(3, a+1): the even-contracted Legendre continued fraction,
    summed backward from an a-priori depth ceil(240/|z|) + 16 where that
    depth is verified (Re z >= 0 and -8 <= a <= 1, which covers every
    Lommel transform of exponent p <= 8); elsewhere the same fraction by
    modified Lentz, stopped at rel_tol.
  - below: a > 1/2 as Gamma(a) minus the lower series; a <= 1/2 lifted
    into (-1/2, 1/2], evaluated in Temme's form (smooth through a = 0,
    where it is the E1 series) and brought down by the recurrence,
    whose divisors then have modulus at least 1/2.  Both series run to
    about 1e-16, capped by max_terms.
  (Gil, Segura & Temme, Numerical Methods for Special Functions, SIAM
  2007, ch. 6; DLMF 8.7, 8.9.)
* Gauss 2F1 on the axis z <= 0: direct series inside the disk, Pfaff
  transformation for z < -1/2 (argument maps into (0,1)).
* 2F2(1/2,1/2;3/2,3/2;ix): direct complex series (entire).

Complex values are plain Python ``complex``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

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
# incomplete gamma: series below |z| = 3, backward fraction above
_GAMMA_SWITCH = 3.0
_SERIES_TOL = 1e-16
_CF_DEPTH_SCALE = 240.0
_CF_DEPTH_PAD = 16
_CF_MIN_ORDER = -8.0
# c_2 ... c_22 of 1/Gamma(x) = sum_k c_k x^k (DLMF 5.7.1), highest first:
# the Horner sum is (1/Gamma(1+a) - 1)/a
_RGAMMA_TAYLOR = (
    5.100370287454475979e-13, -3.6968056186422057082e-12, 7.782263439905071254e-12,
    1.0434267116911005105e-10, -1.1812745704870201446e-9, 5.0020076444692229301e-9,
    6.1160951044814158179e-9, -2.0563384169776071035e-7, 1.1330272319816958824e-6,
    -1.2504934821426706573e-6, -2.0134854780788238656e-5, 1.2805028238811618615e-4,
    -2.1524167411495097282e-4, -1.1651675918590651121e-3, 7.2189432466630995424e-3,
    -9.6219715278769735621e-3, -4.2197734555544336748e-2, 1.665386113822914895e-1,
    -4.2002635034095235529e-2, -6.5587807152025388108e-1, 5.7721566490153286061e-1,
)


# --------------------------------------------------------------------------
# incomplete gamma
# --------------------------------------------------------------------------

def _legendre_cf(a, z, ctl):
    """Gamma(a, z) by the Legendre continued fraction, modified Lentz.

    The route for inputs outside the verified backward depth (Re z < 0,
    or a outside [_CF_MIN_ORDER, 1]); stops at ``ctl.rel_tol``.  Its
    iteration count grows without bound toward the negative real axis.
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
            return h * _zpow_exp(a, z)
    raise ConvergenceError(
        f"incomplete-gamma continued fraction stalled at a={a}, z={z}")


def _legendre_cf_backward(a, z, ctl):
    """Gamma(a, z) by the same even-contracted Legendre fraction, summed
    bottom-up, t = a_i / (b_i + t), from the a-priori depth
    ceil(_CF_DEPTH_SCALE / |z|) + _CF_DEPTH_PAD.

    The depth is verified for Re z >= 0, |z| >= 3 and
    _CF_MIN_ORDER <= a <= 1: there it is at least the modified-Lentz
    count at a 1e-16 stopping tolerance.
    """
    n = math.ceil(_CF_DEPTH_SCALE / abs(z)) + _CF_DEPTH_PAD
    if n > ctl.max_terms:
        raise ConvergenceError(
            f"incomplete-gamma continued fraction needs {n} terms at a={a}, z={z}, "
            f"over max_terms={ctl.max_terms}")
    b = z + (2 * n + 1 - a)      # b_n = z + 2n + 1 - a
    t = 0j
    for i in range(n, 0, -1):
        t = i * (a - i) / (b + t)
        b -= 2.0
    return _zpow_exp(a, z) / (b + t)


def _zpow_exp(a, z):
    """z^a e^-z, principal branch; two factors, so that a large |Im z|
    reaches the phase exactly instead of through a rounded sum."""
    return cmath.exp(-z) * cmath.exp(a * cmath.log(z))


def _lower_series(a, z, ctl):
    """gamma(a, z), lower function, by its Taylor-type series summed to
    about 1e-16.  Used for a > 1/2, where Gamma(a) - gamma(a, z) does not
    cancel badly below |z| = 3.
    """
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(ctl.max_terms):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * _SERIES_TOL:
            return total * _zpow_exp(a, z)
    raise ConvergenceError(f"incomplete-gamma series stalled at a={a}, z={z}")


def _small_order_series(a, z, ctl):
    """(Gamma(a, z), z^a) for |a| <= 1/2 and |z| < 3, in Temme's form

        Gamma(a, z) = (Gamma(1+a) - 1)/a - (z^a - 1)/a
                      - z^a sum_{k>=1} (-z)^k / (k! (a+k)),

    both divided differences evaluated without cancellation (a Taylor
    polynomial of 1/Gamma(1+a), a complex expm1), so the value is smooth
    through a = 0, where it is the exponential-integral series of E1(z).
    """
    q = 0.0
    for c in _RGAMMA_TAYLOR:
        q = q * a + c
    log_z = cmath.log(z)
    w = a * log_z
    ex = math.expm1(w.real)
    s_half = math.sin(0.5 * w.imag)
    zpow_m1 = complex(ex * math.cos(w.imag) - 2.0 * s_half * s_half,
                      (ex + 1.0) * math.sin(w.imag))
    term = 1.0 + 0.0j
    total = 0.0j
    for k in range(1, ctl.max_terms + 1):
        term *= -z / k
        piece = term / (a + k)
        total += piece
        if abs(piece) < abs(total) * _SERIES_TOL:
            zpow = zpow_m1 + 1.0
            head = -q / (1.0 + a * q) - (zpow_m1 / a if a else log_z)
            return head - zpow * total, zpow
    raise ConvergenceError(f"incomplete-gamma series stalled at a={a}, z={z}")


def _gamma_series(a, z, ctl):
    """Gamma(a, z) by the series route, below the continued-fraction switch.

    a > 1/2: Gamma(a) minus the lower series.  a <= 1/2: Temme's form at
    the order lifted into (-1/2, 1/2], then the downward recurrence
    Gamma(b-1, z) = (Gamma(b, z) - z^(b-1) e^-z)/(b-1), whose divisors have
    modulus at least 1/2, so orders near a non-positive integer lose
    nothing.
    """
    if a > 0.5:
        return complex(gamma_real(a)) - _lower_series(a, z, ctl)
    lift = int(math.floor(0.5 - a))
    b = a + lift
    out, zpow = _small_order_series(b, z, ctl)
    if lift:
        p = zpow * cmath.exp(-z)       # z^b e^-z, divided by z per step
        for _ in range(lift):
            p /= z
            b -= 1.0
            out = (out - p) / b
    return out


def upper_incomplete_gamma(a: float, z: complex,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Upper incomplete gamma Gamma(a, z), principal branch.

    ``z`` may be complex (the transforms use purely imaginary arguments);
    z = 0 requires a > 0.  Satisfies Gamma(a+1,z) = a Gamma(a,z) +
    z^a e^-z and Gamma(a, conj z) = conj Gamma(a, z).

    Series route for |z| < max(3, a+1), the continued fraction above
    (backward from a fixed depth where that depth is verified, modified
    Lentz elsewhere).
    """
    z = complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise DomainError(f"Gamma(a, z) needs finite a and z, got a={a}, z={z}")
    if z == 0 and a <= 0:
        raise DomainError(f"Gamma(a, 0) needs a > 0, got a={a}")
    try:
        if z == 0:
            out = complex(gamma_real(a))
        elif abs(z) < max(_GAMMA_SWITCH, a + 1.0):
            out = _gamma_series(a, z, ctl)
        elif z.real >= 0 and _CF_MIN_ORDER <= a <= 1.0:
            out = _legendre_cf_backward(a, z, ctl)
        else:
            out = _legendre_cf(a, z, ctl)
    except OverflowError:                # Gamma(a) past the double range
        out = complex(math.inf)
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
    g = _legendre_cf_backward(0.5, w, DEFAULT_CONTROL)
    val = cmath.exp(0.25j * math.pi) * (math.sqrt(math.pi) - g) / math.sqrt(2.0 * math.pi)
    return val.imag, val.real


@lru_cache(maxsize=1)
def _fresnel_pair(z):
    """(S(z), C(z)) by the branch for |z|; both are odd.  Memoised for one
    argument: every caller reads S and C at the same z, one after the
    other."""
    s, c = _fresnel_series(abs(z)) if abs(z) <= _FRESNEL_SWITCH else _fresnel_tail(abs(z))
    return (-s, -c) if z < 0 else (s, c)


def fresnel_s(z: float) -> float:
    """Fresnel sine integral: integral of sin(pi t^2 / 2) from 0 to z."""
    return _fresnel_pair(z)[0]


def fresnel_c(z: float) -> float:
    """Fresnel cosine integral: integral of cos(pi t^2 / 2) from 0 to z."""
    return _fresnel_pair(z)[1]


# --------------------------------------------------------------------------
# Bessel J0 / Y0
# --------------------------------------------------------------------------

def _j0_series(z):
    """J0 by its ascending series."""
    q = 0.25 * z * z
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


@lru_cache(maxsize=1)
def _j0_small(z):
    """_j0_series memoised for one argument: Y0's series reuses the J0
    that bessel_j0 has just summed at the same z."""
    return _j0_series(z)


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
    return (2.0 / math.pi) * ((math.log(0.5 * z) + EULER_GAMMA) * _j0_small(z) + total)


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
        return _j0_small(z)
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
