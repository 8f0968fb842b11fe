"""General-exponent transforms through Lommel functions of the second kind.

Only the second index 1/2 appears.  S_{mu,1/2} is the sine transform,
continued past mu = 1/2 by its incomplete-gamma realization

    sqrt(x) S_{1/2-alpha,1/2}(x)
        = integral of sin(t)/(t+x)^alpha over [0, inf)
        = Re[ exp(+i(pi*alpha + 2x)/2) Gamma(1-alpha, ix) ],

a conjugate-symmetric combination: from x = max(3, a+1) up, a = 1 - alpha,
the backward Gamma fraction's -i x^a / D at every order, the continuation's
too; below, one Gamma call at -ix (Gamma(a, conj z) = conj Gamma(a, z)
bitwise).  The verbatim printed identity uses Gamma(-alpha, .); that
fails the defining integral (errata LOM-GAMMA-ORDER) and the corrected
order 1-alpha ships as default, with ``as_printed=True`` available: exactly
the cosine transform of (t+x)^-(alpha+1), evaluated as that transform.

On top of that definition sit: the sine/cosine transforms for exponents
2n + 1/m and 2n + 1 + 1/m (both the reduced summary forms and the
pre-reduction forms related by the Lommel recurrence), the logarithmic
integral obtained as the order-derivative at exponent 1/2 (closed form
via 2F2 below x = 3, from x = 3 up the order derivative of the backward
Gamma fraction, plus a finite-difference fallback for regression), and the
equivalent representation through generalized sine/cosine integrals.
The transforms, S_{mu,1/2} among them, take the realization only above
u = zeta x = max(1, p/4), the switch ``special_functions`` holds for
every (t+x)^-p weight: at small u it is wrong by up to 5e+2.  Below, the
sine and cosine pair at a base order in (0, 2] is climbed to p by
integration by parts, within 3e-15 of mpmath there.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import (ConvergenceError, DomainError, Kernel, Record, _as_kernel, _finite_power,
                     _require_finite)
from .special_functions import (EULER_GAMMA, _log_gamma_form, _power_transform, gen_ci, gen_si,
                                hyp2f2_half, upper_incomplete_gamma)


class LommelOrder(Record, namedtuple("LommelOrder", "mu exponent_alpha")):
    """First Lommel index mu and the integrand exponent it encodes."""

    __slots__ = ()

    def __new__(cls, mu: float, exponent_alpha: float):
        if not math.isfinite(mu + exponent_alpha):
            _require_finite("LommelOrder", mu=mu, exponent_alpha=exponent_alpha)
        if abs(mu + exponent_alpha - 0.5) > 1e-12:
            raise DomainError(
                f"inconsistent order: mu + alpha must be 1/2, got {mu} + {exponent_alpha}")
        if exponent_alpha <= 0:
            raise DomainError(
                f"defining integral diverges for exponent alpha = {exponent_alpha} <= 0")
        return tuple.__new__(cls, (mu, exponent_alpha))

    @classmethod
    def from_mu(cls, mu):
        return cls(mu, 0.5 - mu)

    @classmethod
    def from_exponent(cls, alpha):
        return cls(0.5 - alpha, alpha)


class GeneralExponent(Record, namedtuple("GeneralExponent", "n m")):
    """Exponent family 2n + 1/m (or 2n + 1 + 1/m with plus_one)."""

    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if not math.isfinite(n + m):
            _require_finite("GeneralExponent", n=n, m=m)
        if n < 0 or n != int(n):
            raise DomainError(f"n must be a nonnegative integer, got {n}")
        if m < 1 or m != int(m):
            raise DomainError(f"m must be a positive integer, got {m}")
        return tuple.__new__(cls, (n, m))

    def exponent(self, plus_one=False):
        return 2 * self.n + 1.0 / self.m + (1.0 if plus_one else 0.0)


def lommel_s_half(mu: float, z: float, ctl: SeriesControl = DEFAULT_CONTROL,
                  as_printed: bool = False) -> float:
    """Lommel function of the second kind S_{mu,1/2}(z), z > 0.

    For mu < 1/2 the sine transform of (t+z)^(mu-1/2) over sqrt(z), by the
    transforms' route; for mu >= 1/2 the incomplete-gamma realization, whose
    continuation the Lommel recurrence (mu + 2) needs; ``as_printed`` (errata
    LOM-GAMMA-ORDER) the cosine transform of (t+z)^(mu-3/2) over sqrt(z).
    """
    if not math.isfinite(mu):
        _require_finite("lommel_s_half", mu=mu)
    if z <= 0:
        raise DomainError(f"lommel_s_half needs z > 0, got {z}")
    value = _transform(Kernel.SIN, 0.5 - mu, z, ctl, as_printed) / math.sqrt(z)
    if not math.isfinite(value):
        raise DomainError(f"S_({mu},1/2)({z}) leaves double precision")
    return value


def _transform(kernel, p, u, ctl, as_printed=False):
    """The (t+u)^-p transform by the route ``special_functions`` picks; as printed, i times
    the Gamma form at order -p: for the sine the cosine at p + 1, for the cosine p times
    that at p + 2."""
    if not as_printed:
        return _power_transform(kernel, p, u, upper_incomplete_gamma, ctl)
    if kernel is Kernel.SIN:
        return _power_transform(Kernel.COS, p + 1.0, u, upper_incomplete_gamma, ctl)
    return p * _power_transform(Kernel.COS, p + 2.0, u, upper_incomplete_gamma, ctl)


def _scaled_shift(owner, x, zeta, p=0.0):
    """u = zeta x, once p, x and zeta are finite and x, zeta > 0."""
    if not math.isfinite(p + x + zeta):
        _require_finite(owner, p=p, x=x, zeta=zeta)
    if x <= 0:
        raise DomainError(f"need x > 0, got {x}")
    if zeta <= 0:
        raise DomainError(f"need zeta > 0, got {zeta}")
    return zeta * x


def _exponent_transform(kernel, p, x, zeta, ctl, as_printed=False):
    """Integral of sin or cos (zeta t)/(t+x)^p over [0, inf), p, x, zeta > 0:
    zeta^(p-1) times ``_transform`` at u = zeta x, ``as_printed`` or not."""
    u = _scaled_shift(f"{kernel.value}_exponent_transform", x, zeta, p)
    if p <= 0:
        raise DomainError(f"need exponent p > 0, got {p}")
    scale = _finite_power("lommel", zeta, p - 1.0)
    value = scale * _transform(kernel, p, u, ctl, as_printed)
    if not math.isfinite(value):
        raise DomainError(f"transform at p={p}, x={x}, zeta={zeta} leaves double precision")
    return value


def sin_exponent_transform(p: float, x: float, zeta: float = 1.0,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of sin(zeta t)/(t+x)^p over [0, inf), any real p > 0, x > 0."""
    return _exponent_transform(Kernel.SIN, p, x, zeta, ctl)


def cos_exponent_transform(p: float, x: float, zeta: float = 1.0,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of cos(zeta t)/(t+x)^p over [0, inf), any real p > 0, x > 0."""
    return _exponent_transform(Kernel.COS, p, x, zeta, ctl)


def general_sin_transform(n: int, m: int, x: float, zeta: float = 1.0,
                          plus_one: bool = False,
                          ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Sine transform for exponent 2n+1/m (or 2n+1+1/m with plus_one)."""
    p = GeneralExponent(n, m).exponent(plus_one)
    return sin_exponent_transform(p, x, zeta, ctl)


def general_cos_transform(n: int, m: int, x: float, zeta: float = 1.0,
                          plus_one: bool = False,
                          ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Cosine transform for exponent 2n+1/m (or 2n+1+1/m with plus_one)."""
    p = GeneralExponent(n, m).exponent(plus_one)
    return cos_exponent_transform(p, x, zeta, ctl)


def _bracket(left, right, ctl):
    """left - right of a printed form that cancels: a pre-reduction bracket,
    u^(1-q) - sqrt(u) S_{3/2-q,1/2}(u) or u^-q - sqrt(u) S_{1/2-q,1/2}(u), whose sides
    agree to O(u^-2), or a rotation of the (gen_si, gen_ci) pair, whose cosine cancels
    like u; ConvergenceError where the cancellation factor (|left| + |right|)/|left -
    right| times 2^-52 passes ``ctl.rel_tol``."""
    diff = left - right
    factor = (abs(left) + abs(right)) / abs(diff) if diff else math.inf
    if factor * 2.0 ** -52 > ctl.rel_tol:
        raise ConvergenceError(f"printed form cancels by a factor {factor:.3g}, "
                               f"past rel_tol {ctl.rel_tol}")
    return diff


def pre_reduction_values(n: int, m: int, x: float, zeta: float = 1.0,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> dict:
    """The four transforms in their pre-reduction shape.

    These are the forms carrying the bracketed 1/(zeta x)^... -
    sqrt(zeta x) S_... structure; the Lommel recurrence collapses them to
    the reduced forms returned by general_{sin,cos}_transform, and the
    two must agree identically.  Keys: (kernel, plus_one).  q = 2n + 1/m
    must differ from 1 (the pre-reduction cosine forms divide by q - 1).
    Each bracket cancels like u^-2, so where it loses more than ``ctl.rel_tol``
    (q = 1/9 at u = 7.9e3, q = 2.5 at u = 1e4) it raises ``ConvergenceError``.
    """
    q = GeneralExponent(n, m).exponent(False)
    if abs(q - 1.0) < 1e-12:
        raise DomainError("pre-reduction forms are singular at exponent q = 1")
    u = _scaled_shift("pre_reduction_values", x, zeta)
    ru = math.sqrt(u)
    scale, scale_plus = _finite_power("lommel", zeta, q - 1.0), _finite_power("lommel", zeta, q)
    s_lo = lommel_s_half(-(q - 0.5), u, ctl)
    sin_base = scale * ru * s_lo
    bracket_lo = _bracket(_finite_power("lommel", u, -(q - 1.0)),
                          ru * lommel_s_half(-(q - 1.5), u, ctl), ctl)
    cos_base = scale / (q - 1.0) * bracket_lo
    sin_plus = scale_plus / ((q - 1.0) * q) * bracket_lo
    cos_plus = scale_plus / q * _bracket(_finite_power("lommel", u, -q), ru * s_lo, ctl)
    return {
        (Kernel.SIN, False): sin_base,
        (Kernel.COS, False): cos_base,
        (Kernel.SIN, True): sin_plus,
        (Kernel.COS, True): cos_plus,
    }


def log_weighted_sin_integral(x: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Integral of ln(t+x) sin(t)/(t+x)^(1/2) over [0, inf), x > 0.

    The closed form is the negative of the order-derivative of the exponent
    family at 1/2.  From x = 3 up, the backward Gamma fraction's route, it is
    Im[sqrt(x) (ln x - D'/D)/D] with D = D(1/2, -ix) and D' = dD/da from one
    fraction loop (within 4e-16 of mpmath to x = 1e5).  Below, as printed,
    through 2F2(1/2,1/2;3/2,3/2;ix), whose series cancels as x grows: 1.1e-12
    off at x = 3, 1.6e-3 at 40.
    """
    x = _scaled_shift("log_weighted_sin_integral", x, 1.0)
    if (w := _log_gamma_form(x, ctl)) is not None:
        return w.real
    rx = math.sqrt(x)
    f22 = hyp2f2_half(x, ctl)
    deriv = (-rx * math.log(x) * lommel_s_half(0.0, x, ctl)
             - 0.5 * math.pi ** 1.5 * math.sin(x + 0.25 * math.pi)
             + math.sqrt(math.pi) * (EULER_GAMMA + math.log(4.0 * x)) * math.cos(x + 0.25 * math.pi)
             + 4.0 * rx * (math.sin(x) * f22.real - math.cos(x) * f22.imag))
    return -deriv


def log_weighted_sin_integral_fd(x: float, h: float = 1e-4,
                                 ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Finite-difference fallback for the logarithmic integral.

    Differentiates the exponent family numerically at exponent 1/2, by
    Richardson's combination (4 D_h - D_2h)/3 of the central differences at
    h and 2h; regression anchor for both routes of the closed form.
    """
    if not math.isfinite(x + h):
        _require_finite("log_weighted_sin_integral_fd", x=x, h=h)
    if x <= 0:
        raise DomainError(f"need x > 0, got {x}")
    central = lambda k: (sin_exponent_transform(0.5 + k * h, x, 1.0, ctl)
                         - sin_exponent_transform(0.5 - k * h, x, 1.0, ctl)) / (2.0 * k * h)
    return -(4.0 * central(1.0) - central(2.0)) / 3.0


def si_ci_representation(n: int, m: int, x: float, zeta: float = 1.0,
                         kernel: Kernel = Kernel.SIN,
                         ctl: SeriesControl = DEFAULT_CONTROL,
                         as_printed: bool = False) -> float:
    """Exponent-2n+1/m transforms through generalized sine/cosine integrals.

    The printed sine form pairs cos(zeta x) with a bare sin(x); the
    corrected sin(zeta x) ships by default (errata LOM-SICI-PHASE).  Each
    form rotates the pair by u = zeta x through ``_bracket``: the cosine,
    about p u^(-p-1) from parts of about u^-p, cancels like u, and raises
    ``ConvergenceError`` where that loses more than ``ctl.rel_tol``.
    """
    u = _scaled_shift("si_ci_representation", x, zeta)
    kernel = _as_kernel(kernel)
    p = GeneralExponent(n, m).exponent(False)
    a_trig = 1.0 - p
    si = gen_si(a_trig, u, ctl)
    ci = gen_ci(a_trig, u, ctl)
    scale = _finite_power("lommel", zeta, p - 1.0)
    if kernel is Kernel.SIN:
        sin_arg = x if as_printed else u
        return scale * _bracket(math.cos(u) * si, math.sin(sin_arg) * ci, ctl)
    return scale * _bracket(math.cos(u) * ci, -math.sin(u) * si, ctl)
