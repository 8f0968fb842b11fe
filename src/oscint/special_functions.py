"""Self-contained special functions backing the closed-form transforms.

Everything here is scalar double precision built on the stdlib ``math`` /
``cmath`` (plus the package's own lobe quadrature for the generalized
sine/cosine integrals, loaded on their first call); scipy.special is
deliberately not used, so the closed forms and the quadrature oracle share
no special-function code.

Evaluation strategies:

* Fresnel S/C: Maclaurin series for |z| <= 1.6; beyond that the
  auxiliary functions f, g (DLMF 7.5), f - ig from the phase-free Gamma
  form at order 1/2 and u = pi z^2/2 >= 4.02, one backward fraction
  (convergent, unlike the divergent asymptotic series, which cannot reach
  1e-12 near the switch point).  Both branches agree to ~1e-15 at the
  switch; NaN and inf fall past it and are a DomainError there, and past
  2^55/pi S and C are 1/2, their correctly rounded value.  One private
  function computes the (S, C) pair and memoises its last argument, so a
  caller reading S and then C at the same z sums one branch once.
* Bessel J0/Y0: ascending series for z <= 14, Hankel asymptotic sums
  truncated at their smallest term beyond (within 2e-14 absolute from 14;
  the series loses up to 8e-12 just below 14, Y0(14) 6.2e-12, and the sums
  would only reach ~2e-8 at the classical 8.0).  An argument that overflowed
  to inf (or NaN) is a DomainError, checked on the Hankel branch only.
  One ascending loop sums J0 and Y0 together, bitwise as two separate
  series would, and the pair is memoised for its last argument, so a
  caller reading J0 and then Y0 at the same z sums one series once.
* Upper incomplete gamma, complex second argument, to about 1e-16 on the
  imaginary axis (Gil, Segura & Temme, Numerical Methods for Special
  Functions, SIAM 2007, ch. 6; DLMF 8.7, 8.9):
  - |z| >= max(3, a+1), Re z >= 0: Gamma = z^a e^-z / D, D the even-contracted Legendre
    fraction summed backward from one depth, ceil((190 + 12 min(-a, |z|) [a < 0] + 48 (a-1)
    [a > 1])/|z|) + 4, fitted to the need at 1.1e-16: a <= 1 on the imaginary axis (peak
    near |z| = -a), a in (1, 171.5] on the half-plane (peak by the real axis at a+1).
    The Gamma form at order a, e^(-i pi (1-a)/2) e^(-iu) Gamma(a, -iu), is -i u^a / D (the
    sine at a = 1 - p, the cosine p Re at a = -p).  The same loop can carry dD/da at the
    same depth; the form's order derivative, -i u^a (ln u - D'/D)/D, gives the
    ln(t+u)-weighted transforms.  Re z < 0: modified Lentz, stopped at two ulps.
  - below: a > 1/2 as Gamma(a) minus the lower series; a <= 1/2 lifted into
    (-1/2, 1/2], in Temme's form (smooth through a = 0, where it is the E1
    series) and brought down by the recurrence, whose divisors have modulus at
    least 1/2.  Both series run to about 1e-16, capped by max_terms.
* Gauss 2F1 on the axis z <= 0: Pfaff's series in z/(z-1) (DLMF 15.8.1),
  with whichever of a, b is nearer c replaced by c minus it, for z < -1/2
  and on [-1/2, 0) where that shrinks the parameter (then every term ratio
  shrinks, so the sum is shorter); the direct series elsewhere.
* 2F2(1/2,1/2;3/2,3/2;ix): direct complex series (entire), summed by the
  2F1 series' own loop over a table of term ratios.  Its terms cancel as |x|
  grows; sum |term| is the same series at |x|, and where eps sum |term| passes
  rel_tol |sum| (from |x| = 14.4 at the default) it raises ConvergenceError.

Each series loop reads its index- and shape-only numbers (divisors, term
ratios, H_k, the fraction's i(a-i) per order a) from a table complete before
it runs (the Fresnel and Bessel rows are tuples built at import), except the
ratio series, whose reach is unknown until its sum settles: its table grows
while it sums.  They hold the floats the loops formed, so no value changes.

Complex values are plain Python ``complex``.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import accumulate

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import (_EXP, ConvergenceError, DomainError, Kernel, PoleError, _finite_power,
                     _from_oracle, _Phase, _require_finite)

kernel_breakpoints = _from_oracle(globals(), "kernel_breakpoints")
lobe_sum = _from_oracle(globals(), "lobe_sum")

EULER_GAMMA = 0.5772156649015328606

_FRESNEL_SWITCH = 1.6
_FRESNEL_HALF = 2.0 ** 55 / math.pi     # beyond, |S - 1/2|, |C - 1/2| < 1/(pi z) < 2^-55
_BESSEL_SWITCH = 14.0
# incomplete gamma: series below |z| = 3, backward fraction above
_GAMMA_SWITCH = 3.0
_SERIES_TOL = 1e-16
_EPS = 2.0 ** -52       # the spacing of doubles at 1
_EXP_NORMAL = (-708.39, 709.78)     # e^x is a normal double between these
# modified Lentz stops at |delta - 1| < _LENTZ_TOL.  delta - 1 moves in
# ulps of 1 (1.1e-16 below, 2.2e-16 above), so a bound under one ulp
# would demand delta == 1 exactly; this one admits two ulps (2 eps = 4.44e-16).
_LENTZ_TOL = 4.5e-16
# fraction depth ceil((K + F min(-a, u) [a < 0] + R (a - 1) [a > 1])/u) + M: (K, F, R, M)
_CF_DEPTH = (190.0, 12.0, 48.0, 4)
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


_FRESNEL_TERMS = tuple((4 * k + 1.0, 4 * k + 3.0, (2 * k + 1.0) * (2 * k + 2),
                        (2 * k + 2.0) * (2 * k + 3)) for k in range(60))    # the loop's cap
_BESSEL_TERMS = tuple(zip((k * k + 0.0 for k in range(1, 200)),     # (k^2, H_k), k < 200
                          accumulate(1.0 / k for k in range(1, 200))))  # H_(k-1) + 1/k
_F22_RATIOS = []        # (1/2+k)^2 / ((3/2+k)^2 (k+1))
_cf_numerators = lru_cache(maxsize=64)(lambda a: [])  # complex i(a-i) per a: float/complex is slow
_gauss_ratios = lru_cache(maxsize=256)(lambda a, b, c: [])  # 2F1 term ratios per shape (a, b, c)


def _grown(table, n, entry):
    """``table`` grown to at least n entries by entry(k) in one slice store: a
    racing thread's entries are replaced by equal ones, never duplicated."""
    k = len(table)
    table[k:n] = [entry(i) for i in range(k, n)]
    return table


# --------------------------------------------------------------------------
# incomplete gamma
# --------------------------------------------------------------------------

def _legendre_cf(a, z, ctl):
    """Gamma(a, z) by the Legendre continued fraction, modified Lentz.

    The route for Re z < 0, where the backward depth does not hold; no transform
    reaches it (they take Gamma on the imaginary axis).  Stops at ``_LENTZ_TOL``,
    a few ulps, capped by ``ctl.max_terms``; its count grows without bound toward
    the negative real axis.
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
        if abs(delta - 1.0) < _LENTZ_TOL:
            return h * _zpow_exp(a, z)
    raise ConvergenceError(
        f"incomplete-gamma continued fraction stalled at a={a}, z={z}")


def _legendre_cf_backward(a, z, ctl, order_derivative=False):
    """The denominator D of the same even-contracted Legendre fraction, Gamma(a, z)
    = z^a e^-z / D for Re z >= 0, |z| >= max(3, a+1), summed bottom-up, t = a_i / (b_i + t),
    from the depth ``_CF_DEPTH`` fitted to the need at 1.1e-16: a <= 1 on the imaginary axis,
    peaking near u = -a (u = 3: 71 steps at a = -3.5), within 1e-14 of Lentz off it; a in
    (1, 171.5] anywhere, peaking at |z| = a+1 by the real axis.  b_0 = z + 1 - a is formed afresh.

    ``order_derivative``: the pair (D, dD/da) from one loop at the same depth.  With
    a_i = i(a - i) and b_i = z + 2i + 1 - a, a_i' = i and b_i' = -1, so with s = b_i + t
    the step is t = a_i / s, t' = (i + t (1 - t')) / s, and D' = t' - 1."""
    u = abs(z)
    k, f, r, m = _CF_DEPTH
    n = math.ceil((k + (f * min(-a, u) if a < 0 else r * (a - 1.0) if a > 1.0 else 0.0)) / u) + m
    if n > ctl.max_terms:
        raise ConvergenceError(
            f"incomplete-gamma continued fraction needs {n} terms at a={a}, z={z}, "
            f"over max_terms={ctl.max_terms}")
    if len(nums := _cf_numerators(a)) < n:
        _grown(nums, n, lambda i: complex((i + 1) * (a - (i + 1))))
    b, t = z + (2 * n + 1 - a), 0j      # b_n = z + 2n + 1 - a
    if order_derivative:
        dt = 0j
        for i, num in zip(range(n, 0, -1), nums[n - 1::-1]):
            s = b + t
            t = num / s
            dt = (i + t * (1.0 - dt)) / s
            b -= 2.0
        return z + (1.0 - a) + t, dt - 1.0
    for num in nums[n - 1::-1]:
        t = num / (b + t)
        b -= 2.0
    return z + (1.0 - a) + t


def _zpow_exp(a, z):
    """z^a e^-z, principal branch; two factors, so that a large |Im z|
    reaches the phase exactly instead of through a rounded sum.  Where either
    factor is not a normal double (e^-800 underflowed), one magnitude
    exp(a ln|z| - Re z) times the two unit phases: rounding that sum costs digits."""
    w = a * cmath.log(z)
    if _EXP_NORMAL[0] < w.real < _EXP_NORMAL[1] and _EXP_NORMAL[0] < -z.real < _EXP_NORMAL[1]:
        return cmath.exp(-z) * cmath.exp(w)
    return math.exp(w.real - z.real) * cmath.rect(1.0, -z.imag) * cmath.rect(1.0, w.imag)


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
    term, total, step = 1.0 + 0.0j, 0.0j, -z
    for k in range(1, ctl.max_terms + 1):
        term *= step / k
        piece = term / (a + k)
        total += piece
        if abs(piece) <= abs(total) * _SERIES_TOL:     # <=: a term may underflow
            zpow = zpow_m1 + 1.0 if ex >= -0.5 else cmath.exp(w)   # ex + 1 loses z^a below
            head = -q / (1.0 + a * q) - (zpow_m1 / a if a else log_z)
            return head - zpow * total, zpow
    raise ConvergenceError(f"incomplete-gamma series stalled at a={a}, z={z}")


def _gamma_series(a, z, ctl):
    """Gamma(a, z) by the series route, below the continued-fraction switch.

    a > 1/2: Gamma(a) minus the lower series.  a <= 1/2: Temme's form at
    the order lifted into (-1/2, 1/2], then the downward recurrence
    Gamma(b-1, z) = (Gamma(b, z) - z^(b-1) e^-z)/(b-1), whose divisors have
    modulus at least 1/2, so orders near a non-positive integer lose
    nothing.  The steps count against ``ctl.max_terms``.
    """
    if a > 0.5:
        return complex(math.gamma(a)) - _lower_series(a, z, ctl)
    lift = int(math.floor(0.5 - a))
    if lift > ctl.max_terms:
        raise ConvergenceError(f"incomplete-gamma order a={a} needs {lift} recurrence "
                               f"steps, over max_terms={ctl.max_terms}")
    b = a + lift
    out, zpow = _small_order_series(b, z, ctl)
    if lift:
        p = zpow * cmath.exp(-z)       # z^b e^-z, divided by z per step
        for _ in range(lift):
            p /= z
            b -= 1.0
            out = (out - p) / b
    return out


def _gamma_fraction(a, z):
    """Gamma(a, z)'s route, z != 0: None below |z| = max(3, a+1), the series; above,
    whether the backward fraction's depth holds (Re z >= 0) or Lentz runs."""
    return None if abs(z) < (a + 1.0 if a > 2.0 else _GAMMA_SWITCH) else z.real >= 0


def upper_incomplete_gamma(a: float, z: complex,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """Upper incomplete gamma Gamma(a, z), principal branch.

    ``z`` may be complex (the transforms use purely imaginary arguments);
    z = 0 requires a > 0.  Satisfies Gamma(a+1,z) = a Gamma(a,z) +
    z^a e^-z and Gamma(a, conj z) = conj Gamma(a, z).

    Series route for |z| < max(3, a+1), the continued fraction above:
    backward from a fixed depth for Re z >= 0, modified Lentz for Re z < 0.
    """
    z = complex(z)
    if not (math.isfinite(a) and cmath.isfinite(z)):
        raise DomainError(f"Gamma(a, z) needs finite a and z, got a={a}, z={z}")
    if z == 0 and a <= 0:
        raise DomainError(f"Gamma(a, 0) needs a > 0, got a={a}")
    try:
        if z == 0:
            out = complex(math.gamma(a))
        elif (backward := _gamma_fraction(a, z)) is None:
            out = _gamma_series(a, z, ctl)
        elif backward:
            d = _legendre_cf_backward(a, z, ctl)
            try:
                out = _zpow_exp(a, z) / d
            except OverflowError:       # z^a e^-z past the double range, Gamma(a, z) perhaps not
                out = _zpow_exp(a - 1.0, z) * (z / d)
        else:
            out = _legendre_cf(a, z, ctl)
    except OverflowError:                # Gamma(a) past the double range
        out = complex(math.inf)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise ConvergenceError(f"Gamma({a}, {z}) evaluated non-finite")
    return out


def gamma_real(x: float) -> float:
    """Gamma function of a real argument; poles, and values past the double
    range (x above about 171.6), raise."""
    if not 0 < x < math.inf:
        _require_finite("gamma_real", x=x)
        if x == round(x):
            raise PoleError(f"Gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"Gamma({x}) leaves double precision") from None


# --------------------------------------------------------------------------
# (t+u)^-p transforms: sin t and cos t times (t+u)^-p, integrated over [0, inf)
# --------------------------------------------------------------------------

def _phased_gamma(gamma, a, z, ctl, order_derivative=False):
    """exp(-i pi (1-a)/2) exp(-iz) Gamma(a, -iz), z >= 0: at a = 1-p, Re is the sine
    transform of (t+z)^-p, sqrt(z) S_{1/2-p,1/2}(z), and -Im the cosine.  On the backward
    fraction's route the phases cancel, Gamma(a, -iz) = z^a e^(-i pi a/2) e^(iz) / D:
    -i z^a / D, and ``gamma`` is not called.  Below, the caller's ``gamma`` times the
    phase as two unit factors, not one exponential of the rounded (pi (1-a) + 2z)/2.

    ``order_derivative``: d/da of the form, -i z^a (ln z - D'/D) / D, whose Re and -Im
    are the sine and cosine transforms of ln(t+z) (t+z)^-p (d/da = -d/dp), from one
    fraction loop; None below the fraction's route, where no binding gives it.  Divided
    by D twice, not by D^2, which overflows at z = 1e300.  Past z^a's range, z^(a-1) (z/D)."""
    _require_finite_argument("Gamma form", z)
    w = complex(0.0, -z)
    if _gamma_fraction(a, w):
        if order_derivative:
            d, dd = _legendre_cf_backward(a, w, ctl, True)
            return math.pow(z, a) * -1j * (math.log(z) - dd / d) / d
        try:                    # math.pow raises before the fraction is summed
            return math.pow(z, a) * -1j / _legendre_cf_backward(a, w, ctl)
        except OverflowError:
            return _finite_power("the Gamma form", z, a - 1.0) * (
                z * -1j / _legendre_cf_backward(a, w, ctl))
    if order_derivative:
        return None
    phase = cmath.rect(1.0, -0.5 * math.pi * (1.0 - a)) * cmath.rect(1.0, -z)
    return phase * gamma(a, w, ctl)


def _gamma_form_holds(p, u):
    """The switch: the Gamma form above u = max(1, p/4), where the climb and
    the Fresnel forms start to lose like e^u; below, it loses (to 5e+2)."""
    return u > max(1.0, 0.25 * p)


def _gamma_form(kernel, p, u, gamma, ctl):
    """The sine from Gamma(1-p, -iu), the cosine as p times the sine of order
    p+1, from Gamma(-p, -iu): the order-p cosine loses up to 1.3e-10 at large u."""
    if kernel is Kernel.SIN:
        return _phased_gamma(gamma, 1.0 - p, u, ctl).real
    return p * _phased_gamma(gamma, -p, u, ctl).real


def _climb(kernel, p, u, gamma, ctl):
    """(S_r, C_r) from one Gamma call at a base order r, raised to p by parts,
    S_(r+1) = C_r/r and C_(r+1) = u^-r/r - S_r/r (DLMF 8.8.2): nothing cancels
    at small u.  r = p - ceil(p) + 1, or r + 1 where u^r > 1/e: C_r = r S_(r+1)
    loses eps/r, S_(r+1) one order up eps ln(1/u).  For p <= 1 the order
    p + 1 is the Gamma form."""
    steps = math.ceil(p) - 1
    r = p - steps
    if u ** r * math.e > 1.0:
        if not steps:
            return _gamma_form(kernel, p, u, gamma, ctl)
        r, steps = r + 1.0, steps - 1
    if steps > ctl.max_terms:
        raise ConvergenceError(f"exponent p={p} needs {steps} recurrence steps, "
                               f"over max_terms={ctl.max_terms}")
    w = _phased_gamma(gamma, 1.0 - r, u, ctl)
    s, c = w.real, -w.imag
    try:
        for _ in range(steps):
            s, c, r = c / r, u ** -r / r - s / r, r + 1.0
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"u^-{r} at u={u} leaves double precision") from None
    return s if kernel is Kernel.SIN else c


def _power_transform(kernel, p, u, gamma, ctl=DEFAULT_CONTROL):
    """The transform for u >= 0 by the switch's route (the Gamma form at p <= 0,
    S_{mu,1/2} at mu >= 1/2), by the caller's ``upper_incomplete_gamma``."""
    if p <= 0 or _gamma_form_holds(p, u):
        return _gamma_form(kernel, p, u, gamma, ctl)
    return _climb(kernel, p, u, gamma, ctl)


def _log_gamma_form(u, ctl):
    """d/da of the Gamma form at a = 1/2: Re the sine and -Im the cosine transform of
    ln(t+u)/sqrt(t+u), u >= 3; None below, off the backward fraction's route."""
    return _phased_gamma(None, 0.5, u, ctl, order_derivative=True)


# --------------------------------------------------------------------------
# Fresnel integrals
# --------------------------------------------------------------------------

def _require_finite_argument(name, z):
    # an overflowed argument (or NaN) reaches here, past the series switch
    if not math.isfinite(z):
        why = "is not finite" if math.isnan(z) else "overflows double precision"
        raise DomainError(f"{name} argument {why}: {z}")


def _fresnel_series(z):
    """(S, C) by the Maclaurin series; accurate for |z| <~ 2."""
    x = 0.5 * math.pi * z * z
    step = -(x * x)
    cs = ss = 0.0
    term_c = term_s = 1.0
    for d_c, d_s, r_c, r_s in _FRESNEL_TERMS:
        cs += term_c / d_c
        ss += term_s / d_s
        term_c *= step / r_c
        term_s *= step / r_s
        if abs(term_c) < 1e-17 * abs(cs) and abs(term_s) < 1e-17 * abs(ss):
            break
    return z * x * ss, z * cs


def _fresnel_tail(z):
    """(S, C) for z above the switch from the auxiliary functions f, g (DLMF 7.5),
    f - ig = e^(-i pi/4) e^(-iu) Gamma(1/2, -iu) / sqrt(2 pi) at u = pi z^2/2: the
    phase-free Gamma form, u >= 4.02 being on the backward fraction's route."""
    _require_finite_argument("Fresnel", z)
    if z > _FRESNEL_HALF:
        return 0.5, 0.5
    u = 0.5 * math.pi * z * z
    w = _phased_gamma(None, 0.5, u, DEFAULT_CONTROL) / math.sqrt(2.0 * math.pi)
    f, g, cu, su = w.real, -w.imag, math.cos(u), math.sin(u)
    return 0.5 - f * cu - g * su, 0.5 + f * su - g * cu


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

@lru_cache(maxsize=1)
def _bessel_pair(z):
    """(J0(z), Y0(z)), memoised for one argument: every caller reads J0
    and Y0 at the same z, one after the other.

    Up to _BESSEL_SWITCH by one ascending series:
    J0 = sum t_k and Y0 = (2/pi)((log(z/2) + gamma) J0 - sum_{k>=1} H_k t_k),
    t_k = (-z^2/4)^k / k!^2, H_k the harmonic numbers, summed until both
    stopping tests hold.  A term past a sum's own test is below a tenth of
    an ulp of it and leaves it unchanged, so each sum keeps the bits of a
    series of its own.  Y0(0) is -inf.  Beyond the switch by the Hankel
    expansion, sqrt(2/(pi z)) (P cos w - Q sin w, P sin w + Q cos w) with
    w = z - pi/4, from one pair of sums P, Q.
    """
    if not z <= _BESSEL_SWITCH:
        _require_finite_argument("Bessel", z)
        p, q = _hankel_pq(z)
        w = z - 0.25 * math.pi
        r = math.sqrt(2.0 / (math.pi * z))
        return r * (p * math.cos(w) - q * math.sin(w)), r * (p * math.sin(w) + q * math.cos(w))
    step = -0.25 * z * z
    term, j0, ysum = 1.0, 1.0, 0.0
    for kk, hk in _BESSEL_TERMS:
        term *= step / kk
        j0 += term
        piece = -hk * term
        ysum += piece
        if abs(term) < 1e-17 * abs(j0) and abs(piece) < 1e-17 * abs(ysum) + 1e-300:
            break
    return j0, ((2.0 / math.pi) * ((math.log(0.5 * z) + EULER_GAMMA) * j0 + ysum)
                if z else -math.inf)


def _hankel_pq(z):
    """P and Q sums of the order-zero Hankel expansion, stopped at the smallest
    term; term j, of sign (-1)^ceil(j/2), goes to P at even j, to Q at odd j."""
    eight_z = 8.0 * z
    p, q, t = 1.0, 0.0, 1.0
    for j in range(1, 61):
        nxt = t * ((2 * j - 1) ** 2 / (j * eight_z))
        if nxt >= t:
            break
        t = nxt
        if j % 2:
            q += t if j % 4 == 3 else -t
        else:
            p += t if j % 4 == 0 else -t
    return p, q


def bessel_j0(z: float) -> float:
    """Bessel function of the first kind, order zero, z >= 0."""
    if z < 0:
        raise DomainError(f"bessel_j0 needs z >= 0, got {z}")
    return _bessel_pair(z)[0]


def bessel_y0(z: float) -> float:
    """Bessel function of the second kind, order zero, z > 0."""
    if z <= 0:
        raise DomainError(f"bessel_y0 needs z > 0, got {z}")
    return _bessel_pair(z)[1]


# --------------------------------------------------------------------------
# hypergeometric
# --------------------------------------------------------------------------

def _ratio_series(ratios, entry, shape, z, one, ctl):
    """``one`` + sum_k term_k, term_k = term_(k-1) ratios[k] z, to a term below rel_tol
    of the sum, or None past max_terms; ``ratios`` grows by entry(k, *shape) on first
    read (a shape, not a closure: a call builds no function)."""
    term = total = one
    rel_tol = ctl.rel_tol
    for k in range(ctl.max_terms):
        try:
            r = ratios[k]
        except IndexError:
            r = _grown(ratios, k + 1, lambda i: entry(i, *shape))[k]
        term *= r * z
        total += term
        if abs(term) < rel_tol * abs(total):
            return total
    return None


def _gauss_ratio(k, a, b, c):
    return (a + k) * (b + k) / ((c + k) * (k + 1.0))


def _gauss_series(a, b, c, z, ctl):
    total = _ratio_series(_gauss_ratios(a, b, c), _gauss_ratio, (a, b, c), z, 1.0, ctl)
    if total is None:
        # a NaN or infinite a or b stalls the series; Pfaff leaves that one as given
        _require_finite("hyp2f1", a=a, b=b)
        raise ConvergenceError(f"2F1 series stalled at ({a},{b};{c};{z})")
    return total


def hyp2f1(a: float, b: float, c: float, z: float,
           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Gauss hypergeometric function on the axis z <= 0.

    The defining series, or a Pfaff transformation to z/(z-1) in (0, 1):
    for z < -1/2, where it converges for every z <= 0, and on [-1/2, 0)
    where its series is the shorter one (module docstring).
    """
    if not 0 < c < math.inf:
        _require_finite("hyp2f1", c=c)
        if c == round(c):
            raise PoleError(f"2F1 pole at c={c}")
    if not -math.inf < z <= 0:
        raise DomainError(f"hyp2f1 supports finite z <= 0 only, got z={z}")
    if z == 0:
        return 1.0
    swap_b = abs(c - b) <= abs(c - a)
    if z >= -0.5 and not (abs(c - b) < abs(b) if swap_b else abs(c - a) < abs(a)):
        return _gauss_series(a, b, c, z, ctl)
    w = z / (z - 1.0)
    if swap_b:
        return (1.0 - z) ** (-a) * _gauss_series(a, c - b, c, w, ctl)
    return (1.0 - z) ** (-b) * _gauss_series(c - a, b, c, w, ctl)


def _f22_ratio(k):
    return (0.5 + k) ** 2 / ((1.5 + k) ** 2 * (k + 1.0))


def hyp2f2_half(x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> complex:
    """2F2(1/2,1/2;3/2,3/2; ix): entire, summed directly.

    Every term ratio is positive, so sum |term| is the same series at the real
    argument |x|.  Where eps sum |term| passes rel_tol |sum| the sum has cancelled
    past the tolerance (from |x| = 14.4 at the default) and it raises."""
    total = _ratio_series(_F22_RATIOS, _f22_ratio, (), complex(0.0, x), complex(1.0), ctl)
    if total is None:
        _require_finite("hyp2f2_half", x=x)
        raise ConvergenceError(
            f"2F2 series exceeded {ctl.max_terms} terms at |x|={abs(x)}; "
            "the argument is too large for double-precision summation")
    size = _ratio_series(_F22_RATIOS, _f22_ratio, (), abs(x), 1.0, ctl)
    if _EPS * size > ctl.rel_tol * abs(total):
        raise ConvergenceError(
            f"2F2 series cancels to {_EPS * size / abs(total):.1e} at |x|={abs(x)}, "
            f"over rel_tol={ctl.rel_tol}")
    return total


# --------------------------------------------------------------------------
# generalized sine / cosine integrals
# --------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _gen_trig_pair(alpha, z, ctl):
    """(gen_si, gen_ci, the lobe sum's absolute error estimate, which bounds either's error
    and any rotation's of the two) at (alpha, z), memoised for one argument as callers read
    both: with t = s + z, cos z S + sin z C and cos z C - sin z S, S and C the integrals of
    sin s and cos s times w(s) = (s + z)^(alpha - 1) over [0, inf) (DLMF 6.2's f and g at
    alpha = 0).

    C + iS, the integral of e^(is) w(s), is one lobe sum over the sine zeros, its first
    block from the oracle's e^(it) phase table.  Its k-th lobe is (-1)^k a_k with
    a_k = int_0^pi e^(ir) w(k pi + r) dr; w is completely monotone, w = int e^(-s sigma)
    dnu(sigma), so a_k = int x^k (1 + x)(sigma + i)/(sigma^2 + 1) dnu(sigma), x = e^(-pi sigma):
    Re a_k and Im a_k are each the moments of a positive measure on (0, 1], and the CRVZ
    bound the oracle states holds for each part.  Both parts carry the rounding of lobes of
    size |C + iS|, so where |C| << |S| (alpha near 1, z >> 1) C is good to about a few
    eps |S| / |C| relative (8e-12 at alpha = 0.994, z = 130)."""
    # NaN fails both tests; past 2^52 half-periods doubles z are 2 or more apart
    if not -math.inf < alpha < 1:
        raise DomainError(f"generalized trig integral needs finite alpha < 1, got {alpha}")
    if not 0 < z / math.pi < 2.0 ** 52:
        raise DomainError(f"generalized trig integral needs 0 < z / pi < 2^52, where its "
                          f"half-periods leave double precision, got z = {z}")
    weight = lambda m: lambda s: (s + z) ** (alpha - 1.0)
    cs, err = lobe_sum(None, kernel_breakpoints(Kernel.SIN, 1.0), ctl,
                       _Phase(weight, _EXP, 1.0, 1))[:2]
    s, c = cs.imag, cs.real
    cz, sz = math.cos(z), math.sin(z)
    return cz * s + sz * c, cz * c - sz * s, err


def gen_si(alpha: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized sine integral: integral of sin(t) t^(alpha-1) over [z, inf), shifted to 0."""
    return _gen_trig_pair(alpha, z, ctl)[0]


def gen_ci(alpha: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Generalized cosine integral: integral of cos(t) t^(alpha-1) over [z, inf), shifted to 0."""
    return _gen_trig_pair(alpha, z, ctl)[1]
