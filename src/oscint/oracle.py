"""Direct-quadrature evaluation of every oscillatory integral in the library.

The semi-infinite integrals are computed by partitioning the axis at the
zeros of the oscillating kernel, integrating each lobe, and accelerating
the alternating lobe series, all with one 21-point Gauss-Kronrod rule
(GK21, QUADPACK's qk21) applied by numpy to many pieces at once.  The
lobes of an integrand in vector form come in blocks of one evaluation:
the first holds the lobes the tolerance needs (21 at the default), its
first lobe cut into pieces graded toward its lower end and its second
halved; each later block 8.  A block is taken in one straight pass from
its two lists: the lobe tests, a scan for the direct head, then only the
CRVZ orders.  A ``_Phase`` integrand from 0 takes the first block from a
table cached in units of (pi/freq)^(1/power), evaluating only the weight.
A lobe or piece failing its Kronrod-Gauss test goes to ``quad``, the
adaptive rule, when the sum reaches it, as do finite ranges and the
lobes of an integrand on floats.  Knowing nothing of the closed forms,
the module is an independent check.

numpy is imported on the first quadrature, not with this module, and a
closed form loads the module only when it first calls one of its stand-ins
(``errors._from_oracle``): radicals past the phase guard take
``integrate_finite``, and ``gen_si``/``gen_ci`` sum ``_Phase`` lobes from
0 with ``lobe_sum`` over ``kernel_breakpoints``.  ``Kernel``,
``_Phase`` and the kernel vocabulary live in ``errors``.  Every caller looks
``quad`` up as a module global, so a tracer installed there sees every call.

The accelerated lobes are summed by the rule of Cohen, Rodriguez
Villegas & Zagier (CRVZ; Experimental Math. 9 (2000) 3-12),
S_n = sum_(k<n) w_(n,k) L_k.  For a completely monotone weight w,
|L_k| = int_0^h |kernel| w(s + kh) ds (h a half-period) is completely
monotone in k, a Hausdorff moment sequence, and S_n is within
2 / (3 + sqrt 8)^n ~ 5.83^-n of the sum, relative to it, at any decay
rate.  (t + x)^-p, the radical weights, gen_si/gen_ci's t^(alpha - 1)
(one complex sum over an e^(it) table, the real and the imaginary parts
of its lobes each such a sequence) and the quadratic phase in u = c z^2
are completely monotone; ln(t + x)/sqrt(t + x) is not, and only the
empirical stop guards it.
A series not settled at the rule's highest order (bound ~2e-31) raises.
Lobes are summed in order, so a result is independent of batching.

The error of a piece is its raw |K21 - G10|.  For a smooth integrand
that overstates the error of K21 by orders of magnitude; QUADPACK scales
the difference down instead (Piessens et al., *QUADPACK*, Springer
1983), and so must refuse any request below 50 eps times the integral
of |f| on a piece.  The raw difference has no such floor beyond its own
rounding, a few eps times the integral of |f|, so a request of 1e-14 is
met as asked.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import accumulate, chain, islice, pairwise, repeat
from operator import le, mul
from typing import Callable, Optional

from .control import DEFAULT_CONTROL, SeriesControl
from .errors import (
    _EXP,
    AccelerationStalledError,
    ConvergenceError,
    DivergentIntegralError,
    DomainError,
    Kernel,
    MaxSubdivisionsError,
    Record,
    _Phase,
    _as_kernel,
    _require_finite,
    _trig,
)


# --------------------------------------------------------------------------
# integrand descriptions
# --------------------------------------------------------------------------

class HalfPower(Record, namedtuple("HalfPower", "alpha x")):
    """Weight (t + x)^-(alpha + 1/2) on [0, inf)."""

    __slots__ = ()

    def __new__(cls, alpha: float, x: float = 0.0):
        _require_finite("HalfPower", alpha=alpha, x=x)
        if x < 0:
            raise DomainError(f"HalfPower shift x must be >= 0, got {x}")
        if not alpha + 0.5 > 0:
            raise DivergentIntegralError(
                f"HalfPower exponent alpha+1/2 = {alpha + 0.5} must be > 0 "
                "for convergence at infinity")
        return tuple.__new__(cls, (alpha, x))


class _Radicals(Record, namedtuple("_Radicals", "a b")):
    """Weights of two finite constants a, b > 0; the closed forms keep their
    own copy of this rule."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        _require_finite(cls.__name__, a=a, b=b)
        if a <= 0 or b <= 0:
            raise DomainError(f"{cls.__name__} constants must be > 0, got a={a} b={b}")
        return tuple.__new__(cls, (a, b))


class TwoRadical(_Radicals):
    """Weight 1/(sqrt(t+a) sqrt(t+b))."""

    __slots__ = ()


class RadicalPole(_Radicals):
    """Weight 1/(sqrt(t+a) (t+b))."""

    __slots__ = ()


class ThreeRadical(Record, namedtuple("ThreeRadical", "a b c")):
    """Weight 1/(sqrt(t+a) sqrt(t+b) sqrt(t+c)).

    Oracle-only: the library has no closed form for three distinct
    constants; this spec exists so such integrals can still be evaluated.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float, c: float):
        _require_finite("ThreeRadical", a=a, b=b, c=c)
        if min(a, b, c) <= 0:
            raise DomainError("ThreeRadical constants must all be > 0")
        return tuple.__new__(cls, (a, b, c))


class LogHalfPower(Record, namedtuple("LogHalfPower", "x")):
    """Weight ln(t + x)/sqrt(t + x)."""

    __slots__ = ()

    def __new__(cls, x: float):
        _require_finite("LogHalfPower", x=x)
        if x <= 0:
            raise DomainError(f"LogHalfPower shift x must be > 0, got {x}")
        return tuple.__new__(cls, (x,))


class QuadraticPhase(Record, namedtuple("QuadraticPhase", "scale power")):
    """Integrand kernel(scale * z^2) * (z^2 + 1)^-power on [0, inf).

    The quadratic-phase pieces of the radical decompositions: power=1/2
    for the two-radical family, power=1 for the radical-pole family.
    """

    __slots__ = ()

    def __new__(cls, scale: float, power: float):
        _require_finite("QuadraticPhase", scale=scale, power=power)
        if scale <= 0:
            raise DomainError(f"QuadraticPhase scale must be > 0, got {scale}")
        if power <= 0:
            raise DomainError(f"QuadraticPhase power must be > 0, got {power}")
        return tuple.__new__(cls, (scale, power))


class IntegrandSpec(Record, namedtuple("IntegrandSpec", "weight kernel zeta")):
    """One oscillatory integrand: weight function times sin/cos kernel.

    ``zeta`` is the kernel frequency for the linear-phase weights; a
    QuadraticPhase weight carries its own frequency (``scale``) and
    ignores ``zeta``.
    """

    __slots__ = ()

    def __new__(cls, weight: Record, kernel: Kernel, zeta: float = 1.0):
        kernel = _as_kernel(kernel)
        _require_finite("IntegrandSpec", zeta=zeta)
        if zeta <= 0:
            raise DomainError(f"frequency zeta must be > 0, got {zeta}")
        return tuple.__new__(cls, (weight, kernel, zeta))


class QuadratureReport(Record, namedtuple(
        "QuadratureReport", "value abs_err_est zero_intervals_used accelerated")):
    """An integral's value, complex for a complex integrand, and its error."""

    __slots__ = ()

    def __new__(cls, value: float, abs_err_est: float, zero_intervals_used: int,
                accelerated: bool):
        if not math.isfinite(abs(value)) or not math.isfinite(abs_err_est):
            raise ConvergenceError("quadrature produced a non-finite result")
        return tuple.__new__(cls, (value, abs_err_est, zero_intervals_used, accelerated))


# --------------------------------------------------------------------------
# Cohen-Villegas-Zagier acceleration of the alternating lobe series
# --------------------------------------------------------------------------

# the n-term rule's relative error bound is 2 / (3 + sqrt 8)^n
_CRVZ_LOG_RATE = math.log(3.0 + math.sqrt(8.0))
_CRVZ_MAX_ORDER = 40        # the highest order used; its bound is ~2e-31


@functools.cache
def _crvz_weights(n):
    """Weights w_0 .. w_(n-1) of the n-term CRVZ rule, for terms L_k that
    already alternate in sign: the paper's Algorithm 1 in integers, where
    d = ((3+sqrt 8)^n + (3-sqrt 8)^n)/2 is the Chebyshev value T_n(3), so
    each weight, in (0, 1], is one correctly rounded division."""
    d_prev, d = 3, 1            # T_-1(3), T_0(3)
    for _ in range(n):
        d_prev, d = d, 6 * d - d_prev
    b, c = -1, -d
    weights = []
    for k in range(n):
        c = b - c
        weights.append((c if k % 2 == 0 else -c) / d)
        b = 2 * b * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return tuple(weights)


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21): the
# non-negative nodes, largest first, and their Kronrod weights.  The
# nodes at odd positions are those of the embedded 10-point Gauss rule,
# whose weights are _G10_WEIGHTS.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_GK21_WEIGHTS = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208794700070, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_G10_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# lobes per numpy evaluation after the first block, which ``lobe_sum``
# sizes from its tolerance; the unused rest of the last block is dropped
_NEXT_BLOCK = 8
# the first block's cuts of the first lobe, as fractions of its length
# from its lower end; the second lobe is halved
_FIRST_LOBE_CUTS = tuple(2.0 ** -k for k in range(8, 0, -1))
# ``quad``: equal pieces of its first level, and its piece limit
_QUAD_START = 8
_QUAD_LIMIT = 200
# level sums the epsilon algorithm extrapolates at an endpoint singularity
_EPSILON_TERMS = 9


@functools.cache
def _gk21():
    """(numpy, the 21 nodes, their (Kronrod, Gauss) weight columns, those for (re, im) pairs)."""
    import numpy as np

    x = np.array(_GK21_NODES)
    gauss = np.array([0.0, *chain.from_iterable((g, 0.0) for g in _G10_WEIGHTS)])
    w = np.stack((_GK21_WEIGHTS, gauss), axis=1)
    # mirror the table: nodes -x0 .. -x9, 0, x9 .. x0
    w = np.concatenate((w, w[-2::-1]))
    return np, np.concatenate((-x, x[-2::-1])), w, np.kron(w, np.eye(2))


def _gk21_rule(fv, x, scale):
    """(K21, |K21 - G10|) of each row of the node matrix ``x``: the array
    integrand ``fv`` at the 21 nodes of one piece, times ``scale``, the
    half-widths as a column or one factor.  Every GK21 sum is taken here."""
    np, _, w, pairs = _gk21()
    # IEEE results without warnings: a non-finite piece fails every test
    with np.errstate(all="ignore"):
        f = fv(x)
        # a complex f as one real product of its (re, im) pairs: a complex one faults in BLAS
        kg = ((f.view(float) @ pairs).view(complex) if f.dtype.kind == "c" else f @ w) * scale
        return kg[:, 0], np.abs(kg[:, 0] - kg[:, 1])


def _nodes(a, b):
    """(node matrix, half-widths as a column) of the pieces [a, b], numpy arrays."""
    half = 0.5 * (b - a)[:, None]
    return (0.5 * (a + b))[:, None] + half * _gk21()[1], half


@functools.lru_cache(maxsize=32)
def _quad_start(lo, hi):
    """``quad``'s first level on [lo, hi], read-only: (a, b, node matrix, half-widths)."""
    e = lo + (hi - lo) / _QUAD_START * _gk21()[0].arange(_QUAD_START + 1.0)
    e[-1] = hi
    x, half = _nodes(e[:-1], e[1:])
    e.flags.writeable = x.flags.writeable = half.flags.writeable = False   # callers share them
    return e[:-1], e[1:], x, half


def _elementwise(f):
    """The array integrand of ``f``, given on floats only: ``f`` at each
    element.  Every scalar-only caller reaches the rule through it."""
    np = _gk21()[0]
    return lambda t: np.fromiter(map(f, t.ravel().tolist()), float, t.size).reshape(t.shape)


def _epsilon(s):
    """Wynn's epsilon-algorithm limit of the sequence ``s``: the last
    entry of the highest even column of its table."""
    prev, cur = [0.0] * (len(s) + 1), list(s)
    best = cur[-1]
    for col in range(1, len(s)):
        diffs = [y - x for x, y in zip(cur, cur[1:])]
        if 0.0 in diffs:
            # two equal entries: the column has converged
            return best
        prev, cur = cur, [p + 1.0 / dy for p, dy in zip(prev[1:], diffs)]
        if col % 2 == 0:
            best = cur[-1]
    return best


def quad(fv, lo, hi, epsabs, epsrel):
    """Adaptive GK21 integral of the array integrand ``fv`` on [lo, hi].

    The first level cuts [lo, hi] into _QUAD_START equal pieces.  Each
    next level bisects every piece whose |K21 - G10| is above its length
    share of the tolerance max(epsabs, epsrel |value|), all in one
    evaluation, until the differences sum to within the tolerance or
    are not finite (bisection cannot mend an overflow or a NaN).  No
    share is below 1/_QUAD_LIMIT of the tolerance: _QUAD_LIMIT such
    pieces still meet it, and near an endpoint singularity the length
    share of a tiny piece falls below the rounding of its difference,
    which bisection cannot lower.  Shares of pieces that short add up
    to more than the tolerance, so a level can fail it with no piece
    above its share; bisection then stops there.  ``_quad_start`` keeps
    the first level's nodes for each [lo, hi].

    At an integrable endpoint singularity f ~ (t - lo)^(s - 1) the
    error of the end piece falls only like its length^s, so levels at
    which every other piece has settled form a sequence whose error is
    a sum of geometric terms; Wynn's epsilon algorithm extrapolates the
    last _EPSILON_TERMS of them (QUADPACK's qags does the same with its
    qelg), and its value is taken when four successive extrapolations
    agree within the tolerance.

    Returns (value, abs error, {"neval": evaluations, "last": pieces}),
    plus a fourth item, a message, when the tolerance is not met: the
    next level would exceed _QUAD_LIMIT pieces, or would bisect none.
    """
    np = _gk21()[0]
    a, b, x, half = _quad_start(lo, hi)
    k, d = _gk21_rule(fv, x, half)
    neval = 21 * _QUAD_START
    sums, limits = [], []
    while True:
        value, err = k.sum().item(), float(d.sum())
        tol = max(epsabs, epsrel * abs(value))
        info = {"neval": neval, "last": len(a)}
        if not tol < err < math.inf:
            return value, err, info
        rest = float(d[(a != lo) & (b != hi)].sum())
        if rest <= 0.5 * tol:
            sums.append(value)
            limits.append(_epsilon(sums[-_EPSILON_TERMS:]))
            if len(limits) >= 4:
                ext = limits[-1]
                ext_err = sum(abs(ext - x) for x in limits[-4:-1]) + rest
                if ext_err <= tol:
                    return ext, ext_err, info
                if ext_err < err:
                    value, err = ext, ext_err
        else:
            sums.clear()
            limits.clear()
        split = d > tol * np.maximum((b - a) / (hi - lo), 1.0 / _QUAD_LIMIT)
        n = int(np.count_nonzero(split))
        if n == 0 or len(a) + n > _QUAD_LIMIT:
            # the better of the level sum and its extrapolation
            return value, err, info, (
                f"the error {err:.2e} is above the tolerance {tol:.2e} at {len(a)} pieces")
        m = 0.5 * (a[split] + b[split])
        ca = np.concatenate((a[split], m))
        cb = np.concatenate((m, b[split]))
        ck, cd = _gk21_rule(fv, *_nodes(ca, cb))
        neval += 42 * n
        keep = ~split
        a, b = np.concatenate((a[keep], ca)), np.concatenate((b[keep], cb))
        k, d = np.concatenate((k[keep], ck)), np.concatenate((d[keep], cd))


def _graded_lobe(f_over, edge, i, shares, kron, diff, epsabs):
    """(value, error) of a cut lobe failing ``_block_lobes``' quick test: the sums of its pieces'
    K21s ``kron`` and differences ``diff`` (from ``edge(i)``, length shares ``shares``), each
    above its part of max(epsabs, epsabs |value|), parted as max(share, |K21|), by quad."""
    # a NaN K21 keeps its piece's share, as max would; an overflow fails every part
    own = [x if x > share else share for share, x in zip(shares, map(abs, kron))]
    scale = epsabs * max(1.0, abs(sum(kron))) / sum(own)
    for j, w in enumerate(own):
        if not diff[j] <= scale * w:
            kron[j], diff[j] = quad(f_over(_gk21()[0]), edge(i + j), edge(i + j + 1),
                                    epsabs=scale * w, epsrel=0.0)[:2]
    return sum(kron), sum(diff)


def _first_layout(lo, block):
    """(edges, the graded lobes' pieces' length shares) of a first block from
    ``lo`` to the zeros ``block``: lobe 1 cut at _FIRST_LOBE_CUTS, 2 halved."""
    w = block[0] - lo
    edges = [lo] + [lo + c * w for c in _FIRST_LOBE_CUTS] + block[:1]
    graded = [[(b - a) / w for a, b in pairwise(edges)]]
    for a, b in pairwise(block[:2]):
        edges.append(0.5 * (a + b))
        graded.append([(edges[-1] - a) / (b - a), (b - edges[-1]) / (b - a)])
    return edges + block[1:], graded


@functools.cache
def _phase_table(kernel, power, first):
    """The first block of ``first`` lobes of a ``_Phase`` integrand from 0
    in units of its scale, where its zeros are (k - shift)^(1/power): (node
    matrix u, kernel(pi u^power) times the half-widths, edges, the graded
    lobes' length shares).  The kernel is (-1)^k sin(pi f) (e^(i pi f) for _EXP) at
    u^power + shift = k + f, |f| <= 1/2, f from nodes in numpy's extended precision."""
    np = _gk21()[0]
    shift = 0.5 if kernel is Kernel.COS else 0.0
    edges, graded = _first_layout(0.0, [(k - shift) ** (1.0 / power) for k in range(1, first + 1)])
    e = np.array(edges, np.longdouble)
    u, half = _nodes(e[:-1], e[1:])
    v = u ** power + shift
    k = np.rint(v)
    f = np.pi * (v - k).astype(float)
    table = np.where(k % 2, -1.0, 1.0) * (np.exp(1j * f) if kernel is _EXP else np.sin(f))
    table *= half.astype(float)
    u = u.astype(float)
    u.flags.writeable = table.flags.writeable = False       # every caller shares them
    return u, table, tuple(edges), tuple(map(tuple, graded))


def _block_lobes(f_over, lo, his, epsabs, first):
    """The next block of lobes [lo, h0], [h0, h1], ... of ``f_over`` (``his`` the zeros),
    ``first`` in a first block, else _NEXT_BLOCK, from one GK21 evaluation read once into
    two lists and tested in place: (integrals, errors, upper end, zeros left), or None
    with no zero left.  A first block (``_phase_table``'s for a ``_Phase`` from 0) cuts
    two lobes: each passes if every |K21 - G10| is at most epsabs/2 times its share over
    1 + sum |K21|, else it is None with ``_graded_lobe`` as its error.  A whole lobe
    passes within max(epsabs, epsabs |K21|), else it is None with its ``quad`` call."""
    np = _gk21()[0]
    if first and lo == 0.0 and isinstance(f_over, _Phase):
        s, g = (math.pi / f_over.freq) ** (1.0 / f_over.power), f_over.weight(np)
        u, table, edges, graded = _phase_table(f_over.kernel, f_over.power, first)
        kron, diff = _gk21_rule(lambda t: g(t) * table, s * u, s)
        edge, his = (lambda j: s * edges[j]), islice(his, first, None)
    else:
        block = list(islice(his, first or _NEXT_BLOCK))
        if not block:
            return None
        edges, graded = _first_layout(lo, block) if first else ([lo, *block], ())
        edge, e = edges.__getitem__, np.array(edges)
        kron, diff = _gk21_rule(f_over(np), *_nodes(e[:-1], e[1:]))
    kron, diff, i = kron.tolist(), diff.tolist(), sum(map(len, graded))
    if not sum(diff[i:]) <= epsabs:     # differences that add up to at most epsabs all pass
        for j in range(i, len(kron)):
            if not diff[j] <= max(epsabs, epsabs * abs(kron[j])):
                kron[j], diff[j] = None, functools.partial(
                    quad, f_over(np), edge(j), edge(j + 1), epsabs, epsabs)
    for shares in reversed(graded):     # each cut lobe's pieces, i to n, become one lobe
        n, i = i, i - len(shares)
        p, d = kron[i:n], diff[i:n]
        # a part is about epsabs share / (1 + sum |K21|) or more: below half, pass (share may be 0)
        value, err = ((sum(p), sum(d)) if all(map(le, d, map(mul, shares, repeat(
            0.5 * epsabs / (1.0 + sum(map(abs, p))))))) else
            (None, functools.partial(_graded_lobe, f_over, edge, i, shares, p, d, epsabs)))
        kron[i:n], diff[i:n] = [value], [err]
    return kron, diff, edge(len(edges) - 1), his


@functools.lru_cache(maxsize=16)
def _sizes(ctl):
    """``lobe_sum``'s epsabs, lobe cap and first CRVZ order n0 (its bound meets rel_tol)."""
    return (max(1e-14, 0.01 * ctl.rel_tol), 10 * ctl.max_terms,
            min(max(2, math.ceil(math.log(2.0 / ctl.rel_tol) / _CRVZ_LOG_RATE)), _CRVZ_MAX_ORDER))


def lobe_sum(f, breakpoints, ctl: SeriesControl = DEFAULT_CONTROL, f_over=None):
    """Integrate ``f`` over [b0, inf) split at an increasing breakpoint stream.

    The first element of ``breakpoints`` is the lower limit; subsequent elements are
    the kernel zeros.  Early lobes are summed directly until their magnitudes have
    decreased twice in a row (weights need not be monotone near the origin, e.g. a
    logarithmic factor); the remaining alternating series is summed by the CRVZ rule
    (module docstring), from the order whose bound meets ``ctl.rel_tol`` until two
    orders in a row agree to max(rel_tol |S|, 1e-15).  The error estimate adds twice
    their difference and 4 eps sum |lobe| to the lobe errors.  With no such pair by
    order ``_CRVZ_MAX_ORDER`` the series raises instead.
    The integrand is given once: as ``f``, on floats, or as ``f_over``, which builds it
    over a math module (``f_over(numpy)`` takes read-only arrays; ``f`` is then None).
    Each block (``_block_lobes``; one lobe for ``quad`` with ``f``) is taken in one
    straight pass up to a marked lobe (None), which the next pass integrates first: a
    scan of the magnitudes finds the rule's first term, and the same pass sums the
    direct lobes and steps only the orders.  Magnitudes and errors add in lobe order by
    ``sum``, as CPython up to 3.11 adds floats (3.12 compensates, and would move the
    bits).  At most ``10 * ctl.max_terms`` lobes are reached; a NaN lobe or a sum that
    overflows ends the series there.

    Returns (value, abs_err_est, lobes_used, accelerated).
    """
    epsabs, max_lobes, n0 = _sizes(ctl)
    it = iter(breakpoints)
    lo = next(it, None)         # None for an empty stream, which yields no lobe
    values, errs, mass = [], [], 0.0   # the lobes so far; |lobe| summed over those reached
    reached, done, prev = 0, False, math.inf    # prev: the last order, none yet
    start = head = None     # start: the rule's first lobe; head: the sum of those before
    while True:
        if f_over is None:      # a lobe on floats, for quad when the sum reaches it
            hi = next(it, None)
            block = hi if hi is None else ([None], [functools.partial(
                quad, _elementwise(f), lo, hi, epsabs, epsabs)], hi, it)
        else:   # n0 + 4 lobes first: the usual 3 direct ones and the rule's orders n0 .. n0 + 2
            block = _block_lobes(f_over, lo, it, epsabs, 0 if values else n0 + 4)
        if block is None:
            break
        block, block_errs, lo, it = block
        if values:
            values += block
            errs += block_errs
        else:       # the first block's lists become the sum's
            values, errs = block, block_errs
        end = min(len(values), max_lobes)
        while reached < end:
            if values[reached] is None:
                values[reached], errs[reached] = errs[reached]()[:2]    # quad returns more
            nxt = end
            try:    # a pass over the lobes from ``reached``: a marked one (None) ends it
                if start is None:
                    # two steps that did not rise, from the third lobe on: the rule's first term
                    for j in range(max(2, reached), min(end, max_lobes - 1)):
                        if abs(values[j]) <= abs(values[j - 1]) <= abs(values[j - 2]):
                            start, nxt = j, j + 1
                            break
                    if start is not None and sum(map(abs, values[reached:nxt]), mass) < math.inf:
                        # the direct lobes, e^(it) ones complex; this pass steps the orders on
                        head = values[:start]
                        head = (math.fsum(head) if type(head[0]) is not complex else complex(
                            math.fsum(h.real for h in head), math.fsum(h.imag for h in head)))
                        mass, reached, nxt = math.fsum(map(abs, values[:nxt])), nxt, end
                if head is not None:
                    for nxt in range(max(start + n0 - 1, reached + 1), end + 1):
                        last, prev = prev, head + sum(map(mul, _crvz_weights(nxt - start),
                                                          values[start:nxt]))
                        done = abs(prev - last) <= max(ctl.rel_tol * abs(prev), 1e-15)
                        if done or nxt - start >= _CRVZ_MAX_ORDER:
                            break
                total = sum(map(abs, values[reached:nxt]), mass)
            except TypeError:
                nxt = values.index(None, reached)
                total = sum(map(abs, values[reached:nxt]), mass)
            if not total < math.inf:
                # a NaN lobe, or a sum that overflows, can never converge: stop at its lobe
                reached += sum(map(math.isfinite, accumulate(map(abs, values[reached:nxt]),
                                                              initial=mass)))
                raise AccelerationStalledError(f"the lobe sum is not finite at lobe {reached}")
            mass, reached = total, nxt
            if done:
                return (prev, sum(errs[:reached]) + 2.0 * abs(prev - last) + math.ulp(4.0) * mass,
                        reached, True)
            if start is not None and reached - start >= _CRVZ_MAX_ORDER:
                raise AccelerationStalledError(
                    f"lobe series failed tolerance {ctl.rel_tol} by CRVZ order {_CRVZ_MAX_ORDER}")
        if reached >= max_lobes:
            raise AccelerationStalledError(
                f"lobe magnitudes did not start decreasing within {max_lobes} lobes"
                if start is None else
                f"lobe series failed tolerance {ctl.rel_tol} within {max_lobes} lobes")
    raise AccelerationStalledError("breakpoint stream exhausted")


def kernel_breakpoints(kernel: Kernel, zeta: float, start: float = 0.0):
    """Yield ``start`` followed by the zeros of kernel(zeta*t) above it."""
    kernel = _as_kernel(kernel)
    # the zeros are (k - shift) pi / zeta for integers k
    shift = 0.0 if kernel is Kernel.SIN else 0.5
    first = start * zeta / math.pi + shift
    if not (zeta > 0 and math.isfinite(first)):
        raise DomainError(f"need zeta > 0 and a finite zeta * start, got {zeta}, {start}")
    if first >= 2.0 ** 52:
        # past 2^52 half-periods consecutive zeros round to the same double
        raise DomainError(f"zeta * start / pi = {first} leaves double precision")
    yield start
    k = math.floor(first) + 1
    while True:
        yield (k - shift) * math.pi / zeta
        k += 1


def oscillatory_integral(g, kernel: Kernel, zeta: float, start: float = 0.0,
                         ctl: SeriesControl = DEFAULT_CONTROL,
                         g_over=None) -> QuadratureReport:
    """Integral of g(t) * kernel(zeta*t) over [start, inf) by lobe summation.

    ``g_over``, if given, builds the weight over a math module in place
    of ``g`` (then None): ``g_over(numpy)`` takes arrays, which lets
    ``lobe_sum`` batch the lobes, and from ``start`` = 0 take the first
    block's nodes and kernel values from its cached table.

    ``g`` should be completely monotone, as every weight of the library
    is (module docstring).  Lobe magnitudes that oscillate themselves,
    e.g. under g(t) = (1 + cos(0.37 t) / 2) / (1 + t / 1000), never settle
    the CRVZ rule: the call raises ``AccelerationStalledError`` at the
    rule's highest order, ``_CRVZ_MAX_ORDER``.
    """
    kernel = _as_kernel(kernel)
    # the namedtuple's own __new__, without its Python-level frame
    phase = tuple.__new__(_Phase, ((lambda m: g) if g_over is None else g_over, kernel, zeta, 1))
    f, f_over = (phase(math), None) if g_over is None else (None, phase)
    return QuadratureReport(*lobe_sum(f, kernel_breakpoints(kernel, zeta, start), ctl, f_over))


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

# each weight over a math module ``m``: its function of t (of z for QuadraticPhase)
_WEIGHT_OVER = {
    HalfPower: lambda w, m: lambda t: (t + w.x) ** -(w.alpha + 0.5),
    TwoRadical: lambda w, m: lambda t: 1.0 / m.sqrt((t + w.a) * (t + w.b)),
    RadicalPole: lambda w, m: lambda t: 1.0 / (m.sqrt(t + w.a) * (t + w.b)),
    ThreeRadical: lambda w, m: lambda t: 1.0 / m.sqrt((t + w.a) * (t + w.b) * (t + w.c)),
    LogHalfPower: lambda w, m: lambda t: m.log(t + w.x) / m.sqrt(t + w.x),
    QuadraticPhase: lambda w, m: lambda z: (z * z + 1.0) ** -w.power,
}


def integrate_semi_infinite(spec: IntegrandSpec,
                            ctl: SeriesControl = DEFAULT_CONTROL) -> QuadratureReport:
    """Evaluate the semi-infinite oscillatory integral described by ``spec``.

    Each weight is written once in ``_WEIGHT_OVER``, over a math module
    ``m``, for ``lobe_sum`` to evaluate over numpy: a QuadraticPhase
    weight times kernel(scale z^2), over the square roots of the kernel's
    zeros, and every other weight through ``oscillatory_integral``.
    """
    w, kernel = spec.weight, spec.kernel
    weight_over = _WEIGHT_OVER.get(type(w))
    if weight_over is None:
        raise DomainError(f"unknown weight {w!r}")
    g_over = functools.partial(weight_over, w)
    if isinstance(w, QuadraticPhase):
        zeros = map(math.sqrt, kernel_breakpoints(kernel, w.scale))
        return QuadratureReport(*lobe_sum(None, zeros, ctl, _Phase(g_over, kernel, w.scale, 2)))
    if isinstance(w, HalfPower) and w.x == 0.0:
        # the origin decides: cos t^-p is integrable iff p < 1, sin t^-p iff p < 2
        p, limit = w.alpha + 0.5, 2 if kernel is Kernel.SIN else 1
        if p >= limit:
            raise DivergentIntegralError(f"{kernel.value} kernel with exponent {p} >= {limit} "
                                         "diverges at the origin for x=0")
    return oscillatory_integral(None, kernel, spec.zeta, 0.0, ctl, g_over)


def integrate_finite(f: Optional[Callable[[float], float]], lo: float, hi: float,
                     ctl: SeriesControl = DEFAULT_CONTROL, f_over=None) -> QuadratureReport:
    """Adaptive Gauss-Kronrod integral of ``f`` on the finite range [lo, hi].

    ``quad`` is asked for ``ctl.rel_tol`` relative, on the modulus, with
    1e-15 absolute slack.  The integrand is given once, as for
    ``lobe_sum``: as ``f``, evaluated element by element, or as
    ``f_over``, with ``f`` None, whose values may be complex.  A tolerance
    not met within ``quad``'s piece limit raises ``MaxSubdivisionsError``.
    """
    if not math.isfinite(hi - lo):
        raise DomainError(f"need a finite range, got [{lo}, {hi}]")
    if lo > hi:
        raise DomainError(f"need lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return QuadratureReport(0.0, 0.0, 0, False)
    fv = _elementwise(f) if f_over is None else f_over(_gk21()[0])
    res = quad(fv, lo, hi, epsabs=1e-15, epsrel=ctl.rel_tol)
    if len(res) > 3:
        raise MaxSubdivisionsError(f"quadrature on [{lo}, {hi}]: {res[3]}")
    return QuadratureReport(res[0], res[1], res[2]["last"], False)
