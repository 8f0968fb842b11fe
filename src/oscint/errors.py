"""Exception hierarchy shared by all transform families.

Domain problems (bad parameters, integrals that do not exist) are
``ValueError`` subclasses; budget exhaustion in series, continued
fractions or quadrature is a ``RuntimeError`` subclass, so callers can
distinguish "you asked for something meaningless" from "the requested
accuracy was not reached".

The module also holds what every other submodule shares, because they
all import this one anyway: ``Record``, the named-tuple mixin of every
parameter, weight and report record, and the kernel vocabulary --
``Kernel``, its coercion ``_as_kernel``, ``_EXP`` (the private kernel
e^(it)), ``_trig`` (the kernel's function in ``math`` or ``numpy``),
``_Phase`` (weight times kernel, an integrand whose lobes from 0 the
oracle takes from a table), the finite-parameter check
``_require_finite`` and ``_finite_power``, the frequency scaling of a
closed form.  The closed forms take these from here, not from the
quadrature oracle, and hold each oracle function they call as a stand-in
from ``_from_oracle``, so a closed form that sums no lobes never loads it.
"""

import math
from collections import namedtuple
from enum import Enum


class DomainError(ValueError):
    """Parameters violate a documented precondition."""


class DivergentIntegralError(DomainError):
    """The requested integral (or its closed form) does not exist."""


class UnsupportedError(DomainError):
    """No closed form is offered for these parameters; use the oracle."""


class PoleError(DomainError):
    """Evaluation at a pole of the function."""


class ConvergenceError(RuntimeError):
    """A series or continued fraction failed to converge within budget."""


class AccelerationStalledError(ConvergenceError):
    """The accelerated lobe series failed tolerance within its lobes or orders."""


class MaxSubdivisionsError(ConvergenceError):
    """Adaptive quadrature exhausted its subdivision limit."""


class Record:
    """Mixin of the library's immutable value records.

    A record class derives from this mixin and from
    ``collections.namedtuple``, in that order, declares ``__slots__ = ()``
    and checks its arguments in ``__new__``, which ends with
    ``tuple.__new__(cls, values)``.  The named tuple supplies the fields,
    read-only and read in C, the ``Name(field=value, ...)`` repr, and
    copying and pickling through ``__new__``, so both check again.  The
    mixin makes records of different classes unequal (a record never
    equals a plain tuple), keeps the tuple's hash, and sends ``_make``,
    and so ``_replace``, through the class's own rules.
    """

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return other.__class__ is not self.__class__ or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Kernel(str, Enum):
    SIN = "sin"
    COS = "cos"


def _as_kernel(kernel):
    """``kernel`` as a Kernel member: "sin" and "cos" coerce, anything else
    is a DomainError.  Every dispatch tests ``kernel is Kernel.SIN``, so an
    uncoerced string would silently select the cosine branch."""
    if type(kernel) is Kernel:
        return kernel
    try:
        return Kernel(kernel)
    except (ValueError, TypeError):
        raise DomainError(f"kernel must be 'sin' or 'cos', got {kernel!r}") from None


# e^(it): the kernel of the one complex lobe sum C + iS behind gen_si/gen_ci,
# over numpy only.  Its zeros are the sine's; no public call can select it.
_EXP = object()


def _trig(kernel, m):
    """The kernel's function in the math module ``m`` (math or numpy; numpy for _EXP)."""
    if kernel is _EXP:
        return lambda t: m.exp(1j * t)
    return m.sin if kernel is Kernel.SIN else m.cos


class _Phase(namedtuple("_Phase", "weight kernel freq power")):
    """The integrand weight(t) kernel(freq t^power), ``weight`` over a math
    module: called with a math module it is the integrand over it.  In
    units of its scale (pi / freq)^(1/power) its zeros are fixed."""

    __slots__ = ()

    def __call__(self, m):
        g, trig, freq = self.weight(m), _trig(self.kernel, m), self.freq
        if self.power == 1:
            return lambda t: g(t) * trig(freq * t)
        return lambda t: g(t) * trig(freq * t * t)


def _require_finite(owner, **params):
    """Raise DomainError naming the first non-finite parameter.

    The closed forms call this only when ``math.isfinite`` of the sum of
    their parameters fails, which costs far less than this call: a
    finite sum proves every term finite, and a sum that merely
    overflows passes here.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise DomainError(f"{owner} {name} must be finite, got {value}")


def _finite_power(owner, base, exponent, factor=1.0):
    """``base ** exponent * factor``, or a DomainError when it leaves double precision."""
    try:
        value = base ** exponent * factor
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{owner} at scale {base} ** {exponent} leaves double precision")
    return value


def _from_oracle(namespace, name):
    """A stand-in for ``oscint.oracle``'s function ``name``, held as ``name`` in
    the module globals ``namespace``.  Its first call imports the oracle, binds
    whatever ``oscint.oracle`` holds as ``name`` at that moment (a tracer's or
    a test's replacement there included) and rebinds ``namespace[name]`` to it,
    but only while that is still this stand-in: a global replaced before then
    stays replaced.  Concurrent first calls import under the import lock and
    store the same object."""
    def stand_in(*args, **kwargs):
        from . import oracle

        fn = getattr(oracle, name)
        if namespace.get(name) is stand_in:
            namespace[name] = fn
        return fn(*args, **kwargs)
    return stand_in
