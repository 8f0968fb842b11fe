"""mpmath references for the tests and tools, one function per mathematical idea.

Each function evaluates at the caller's working digits ``dps``.  Floats convert exactly,
so an order is formed in mpmath from the float the library was given: 1 - mpf(p), not
mpf(1 - p), whose rounding reads as a 1e-8 cosine error at u = 5e7.  An mpmath argument
is used as given, which is how a caller names an order exactly (``1 - mpf(alpha)``).
A transform pair is ``Parts(sin, cos)``: I_cos + i I_sin is the integral of
e^(i zeta t) w(t) over [0, inf).  Compare a continued fraction through ``fraction``'s D,
not through Gamma, whose double prefactor z^a e^-z alone rounds to |a ln z| eps; and give
tiny arguments more digits (60 do not resolve Gamma(-2, -iz) at z = 1e-100).
"""

from collections import namedtuple

import mpmath as mp

Parts = namedtuple("Parts", "sin cos")


def rel(value, want):
    """|value - want| relative to the larger of the two (to 1e-300 at zero)."""
    return abs(value - want) / max(abs(value), abs(want), 1e-300)


def gamma(a, z, dps):
    """Gamma(a, z)."""
    with mp.workdps(dps):
        return mp.gammainc(a, z)


def fraction(a, z, dps, derivative=False):
    """D = z^a e^-z / Gamma(a, z), or its derivative in a."""
    with mp.workdps(dps):
        w = mp.mpc(z)
        d = lambda b: w ** b * mp.exp(-w) / mp.gammainc(b, w)
        return mp.diff(d, a) if derivative else d(a)


def _phased(a, z):
    """e^(i pi a/2) Gamma(a, -iz), the integral of e^(it) t^(a-1) over [z, inf)."""
    return mp.exp(0.5j * mp.pi * a) * mp.gammainc(a, -1j * z)


def pair(p, x, dps, zeta=1, derivative=False):
    """Parts of (t+x)^-p, zeta^(p-1) e^(i pi (1-p)/2) e^-iu Gamma(1-p, -iu) at u = zeta x,
    or their derivative in p (minus the parts of ln(t+x) (t+x)^-p).  At zeta = 1 the sine
    is sqrt(x) S_{1/2-p,1/2}(x), the paper's printed Lommel order alpha is the cosine at
    p = alpha + 1, the a = b two-radical weight is p = 1, and the pole tail
    e^-ic Gamma(1/2, -ic) is e^(-i pi/4) (cos + i sin) at p = 1/2."""
    with mp.workdps(dps):
        zeta, p = mp.mpf(zeta), mp.mpf(p)
        u = zeta * mp.mpf(x)
        # two phase factors: one exponential of their sum loses the order's part at large u
        f = lambda q: zeta ** (q - 1) * mp.exp(-1j * u) * _phased(1 - q, u)
        v = mp.diff(f, p) if derivative else f(p)
        return Parts(v.imag, v.real)


def gen_trig(alpha, z, dps):
    """Parts(gen_si, gen_ci): e^(i pi alpha/2) Gamma(alpha, -iz), the pair at p = 1 - alpha
    rotated by z, at the order alpha itself."""
    with mp.workdps(dps):
        v = _phased(mp.mpf(alpha), mp.mpf(z))
        return Parts(v.imag, v.real)


def head(c, gamma, power, dps):
    """Parts of the integral of e^(icz^2) (z^2+1)^-power over [0, gamma]: Gauss-Legendre on
    pieces of about one oscillation, cut where the weight bends (z = 1/4, 1, 4)."""
    with mp.workdps(dps):
        c, g, p = mp.mpf(c), mp.mpf(gamma), mp.mpf(power)
        n = 2 + int(c * g * g / 4)
        cuts = {g * k / n for k in range(n + 1)} | {mp.mpf(k) for k in (0.25, 1, 4) if k < g}
        v = mp.quad(lambda z: mp.expj(c * z * z) * (z * z + 1) ** -p, sorted(cuts),
                    method="gauss-legendre")
        return Parts(v.imag, v.real)


# the oracle's weights by class name, each radical a product of principal roots: the
# continuation into the first quadrant
WEIGHTS = {
    "HalfPower": lambda w, t: (t + w.x) ** -(mp.mpf(w.alpha) + 0.5),
    "TwoRadical": lambda w, t: 1 / (mp.sqrt(t + w.a) * mp.sqrt(t + w.b)),
    "RadicalPole": lambda w, t: 1 / (mp.sqrt(t + w.a) * (t + w.b)),
    "ThreeRadical": lambda w, t: 1 / (mp.sqrt(t + w.a) * mp.sqrt(t + w.b) * mp.sqrt(t + w.c)),
    "LogHalfPower": lambda w, t: mp.log(t + w.x) / mp.sqrt(t + w.x),
}


def contour(weight, zeta, dps):
    """Parts of an oracle weight on the rotated contour t = is/zeta:
    I_cos + i I_sin = (i/zeta) times the integral of e^-s w(is/zeta) over [0, inf)."""
    w = WEIGHTS[type(weight).__name__]
    with mp.workdps(dps):
        z = mp.mpf(zeta)
        v = 1j / z * mp.quad(lambda s: mp.exp(-s) * w(weight, 1j * s / z), [0, mp.inf])
        return Parts(v.imag, v.real)
