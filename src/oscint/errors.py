"""Exception hierarchy shared by all transform families.

Domain problems (bad parameters, integrals that do not exist) are
``ValueError`` subclasses; budget exhaustion in series, continued
fractions or quadrature is a ``RuntimeError`` subclass, so callers can
distinguish "you asked for something meaningless" from "the requested
accuracy was not reached".

The module also holds what every other submodule shares, because they
all import this one anyway: ``Record``, the immutable base of every
parameter, weight and report record, and the kernel vocabulary --
``Kernel``, its coercion ``_as_kernel``, ``_trig`` (the kernel's function
in ``math`` or ``numpy``), the finite-parameter check ``_require_finite``
and ``_finite_power``, the frequency scaling of a closed form.  The
closed forms take these from here, not from the quadrature oracle.
"""

import math
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
    """Base of the library's immutable value records.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  This base supplies what a
    frozen dataclass would: equality and hashing over the field values
    (records of different classes never compare equal), a
    ``Name(field=value, ...)`` repr, copying and pickling by
    reconstruction, and an ``AttributeError`` on assignment or deletion.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _trig(kernel, m):
    """The kernel's function in the math module ``m`` (math or numpy)."""
    return m.sin if kernel is Kernel.SIN else m.cos


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
