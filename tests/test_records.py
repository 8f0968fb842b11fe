"""The public record classes: construction, equality, hashing, repr, immutability,
and the named tuple each one is."""

import copy
import pickle

import pytest

from oscint import (
    Erratum,
    FamilyCoefficients,
    GeneralExponent,
    HalfPower,
    HalfPowerParams,
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    LommelOrder,
    PhasePattern,
    QuadraticPhase,
    QuadratureReport,
    RadicalPole,
    RadicalPoleParams,
    SeriesControl,
    ThreeRadical,
    TwoRadical,
    TwoRadicalParams,
)
from oscint.errors import DomainError, UnsupportedError
from oscint.selfcheck import CheckResult

# class, field names, positional values, trailing defaults, a different valid value set
RECORDS = [
    (SeriesControl, ("rel_tol", "max_terms"), (1e-10, 300), (1e-12, 500), (1e-8, 300)),
    (HalfPowerParams, ("zeta", "x", "alpha"), (1.5, 2.0, 3), (), (1.5, 2.0, 4)),
    (FamilyCoefficients, ("rational_part", "fresnel_coeff", "phase_pattern"),
     (((-0.5, 2.0),), 1.25, PhasePattern.SIN_LIKE), (),
     (((-0.5, 2.0),), 1.25, PhasePattern.COS_LIKE)),
    (TwoRadicalParams, ("a", "b", "zeta"), (0.5, 1.5, 2.0), (1.0,), (0.5, 1.75, 2.0)),
    (RadicalPoleParams, ("a", "b", "zeta"), (0.5, 1.5, 2.0), (1.0,), (0.5, 1.5, 2.5)),
    (LommelOrder, ("mu", "exponent_alpha"), (-1.5, 2.0), (), (-2.5, 3.0)),
    (GeneralExponent, ("n", "m"), (1, 3), (), (2, 3)),
    (HalfPower, ("alpha", "x"), (1.5, 2.0), (0.0,), (2.5, 2.0)),
    (TwoRadical, ("a", "b"), (0.5, 1.5), (), (0.5, 2.5)),
    (RadicalPole, ("a", "b"), (0.5, 1.5), (), (0.75, 1.5)),
    (ThreeRadical, ("a", "b", "c"), (0.5, 1.5, 2.5), (), (0.5, 1.5, 3.5)),
    (LogHalfPower, ("x",), (2.0,), (), (3.0,)),
    (QuadraticPhase, ("scale", "power"), (2.0, 0.5), (), (2.0, 1.0)),
    (IntegrandSpec, ("weight", "kernel", "zeta"), (HalfPower(1.0, 2.0), Kernel.COS, 1.5),
     (1.0,), (HalfPower(1.0, 2.0), Kernel.SIN, 1.5)),
    (QuadratureReport, ("value", "abs_err_est", "zero_intervals_used", "accelerated"),
     (0.5, 1e-15, 26, True), (), (0.5, 1e-15, 27, True)),
    (Erratum, ("ident", "where", "corrected", "printed", "resolution"),
     ("ID", "module.function", True, "printed form", "corrected form"), (),
     ("ID", "module.function", False, "printed form", "corrected form")),
    (CheckResult, ("group", "name", "error", "tolerance"), ("group", "name", 1e-15, 1e-12), (),
     ("group", "name", 2e-15, 1e-12)),
]


def _values(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


@pytest.mark.parametrize("cls,fields,args,defaults,other", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_behaviour(cls, fields, args, defaults, other):
    obj = cls(*args)
    assert _values(obj, fields) == args
    assert tuple(obj) == args and obj._fields == fields
    assert cls(**dict(zip(fields, args))) == obj
    required = args[:len(args) - len(defaults)]
    assert _values(cls(*required), fields) == required + defaults

    twin = cls(*args)
    assert twin == obj and twin is not obj
    assert hash(twin) == hash(obj)
    assert cls(*other) != obj
    assert obj != args and len({obj, twin, cls(*other)}) == 2
    assert args != obj and not args == obj

    assert repr(obj) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in zip(fields, args))})"

    for field in fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, args[0])
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert _values(obj, fields) == args
    assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        obj.not_a_field = args[0]

    assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


def test_records_of_different_classes_never_compare_equal():
    assert TwoRadical(0.5, 1.5) != RadicalPole(0.5, 1.5)
    assert TwoRadicalParams(0.5, 1.5) != RadicalPoleParams(0.5, 1.5)


def test_two_radical_params_canonicalise_a_below_b():
    p = TwoRadicalParams(b=0.5, a=1.5, zeta=2.0)
    assert (p.a, p.b, p.zeta) == (0.5, 1.5, 2.0)
    assert p == TwoRadicalParams(0.5, 1.5, 2.0)
    assert repr(p) == "TwoRadicalParams(a=0.5, b=1.5, zeta=2.0)"
    assert pickle.loads(pickle.dumps(p)) == p


def test_replace_and_make_run_the_class_rules():
    with pytest.raises(DomainError):
        HalfPower(1.0, 2.0)._replace(x=-1.0)
    with pytest.raises(DomainError):
        HalfPower._make((1.0, -1.0))
    with pytest.raises(DomainError):
        SeriesControl()._replace(max_terms=0)
    with pytest.raises(UnsupportedError):
        RadicalPoleParams(0.5, 1.5)._replace(a=2.5)
    p = TwoRadicalParams(0.5, 1.5, 2.0)
    assert p._replace(a=2.5) == TwoRadicalParams._make((2.5, 1.5, 2.0)) == (
        TwoRadicalParams(1.5, 2.5, 2.0))
    assert IntegrandSpec._make((HalfPower(1.0), "sin")).kernel is Kernel.SIN
