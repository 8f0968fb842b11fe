"""Exception hierarchy shared by all transform families.

Domain problems (bad parameters, integrals that do not exist) are
``ValueError`` subclasses; budget exhaustion in series, continued
fractions or quadrature is a ``RuntimeError`` subclass, so callers can
distinguish "you asked for something meaningless" from "the requested
accuracy was not reached".

The module also holds ``Record``, the immutable base of every parameter,
weight and report record, because every other submodule imports this
one anyway.
"""


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
    """The accelerated lobe series failed tolerance within its lobe budget."""


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
