"""Extreme-input gate: every public closed form and special function, on a
fixed grid of finite arguments from 1e-300 to 1e300, returns a finite
value or raises DomainError or ConvergenceError -- never another
exception, and never inf or NaN.  The oracle and the records are out of
scope.

The file also holds a structural gate: the radical engine works in
(sin, cos) pairs, so neither radical module imports the kernel vocabulary;
only the public functions pick a kernel, by indexing the pair.
"""

import ast
import cmath
import itertools
from pathlib import Path

import pytest

import oscint
from oscint import ConvergenceError, DomainError, Kernel, PhasePattern

SRC = Path(oscint.__file__).resolve().parent

GRID = (1e-300, 1e-100, 1e-20, 1e-5, 1.0, 7.0, 1e20, 1e100, 1e300)
PAIRS = list(itertools.product(GRID, repeat=2))
TRIPLES = list(itertools.product(GRID, repeat=3))
ORDERED = [(a, b, zeta) for a, b, zeta in TRIPLES if b > a]     # radical-pole needs b > a
SIGNED = GRID + tuple(-v for v in GRID)

ALPHAS = (0, 1, 3, 10)                  # half-power orders
EXPONENTS = (1.0 / 3.0, 0.5, 2.5, 10.5)  # (t+x)^-p
ORDERS = ((0, 1), (0, 2), (1, 3))       # (n, m): exponents 1, 1/2, 7/3
MUS = (-2.5, -0.5, 0.0, 0.5)            # Lommel first index
GAMMA_ORDERS = (-5.5, -1.0, 0.0, 1.0 / 3.0, 0.5, 2.5)
TRIG_ALPHAS = (-0.5, 0.0, 0.5)
SHAPES = ((0.5, 0.5, 1.5), (1.0, 0.5, 1.5), (0.5, 3.5, 4.5), (1.0, 3.5, 4.5))


def _radical_cases(family, names, triples):
    module = getattr(oscint, family)
    for name, kwargs in names:
        yield f"{family}.{name} {kwargs}", getattr(module, name), triples, kwargs


def _cases():
    """(label, function, argument tuples, keyword arguments) per public callable."""
    from oscint import half_power, lommel, radical_pole, special_functions, two_radical

    printed = ({}, {"as_printed": True})
    for f in (half_power.s0, half_power.c0):
        yield f.__name__, f, PAIRS, {}
    for f, kwargs in itertools.product((half_power.s_alpha, half_power.c_alpha), printed):
        yield f"{f.__name__} {kwargs}", f, [(al, *xz) for al in ALPHAS for xz in PAIRS], kwargs
    yield "fresnel_bracket", half_power.fresnel_bracket, list(
        itertools.product(GRID, PhasePattern)), {}

    for f in (lommel.sin_exponent_transform, lommel.cos_exponent_transform):
        yield f.__name__, f, [(p, *xz) for p in EXPONENTS for xz in PAIRS], {}
    for f, plus_one in itertools.product((lommel.general_sin_transform,
                                          lommel.general_cos_transform), (False, True)):
        yield (f"{f.__name__} plus_one={plus_one}", f,
               [(*nm, *xz) for nm in ORDERS for xz in PAIRS], {"plus_one": plus_one})
    yield ("pre_reduction_values", lommel.pre_reduction_values,
           [(*nm, *xz) for nm in ORDERS[1:] for xz in PAIRS], {})      # q = 1 is singular
    # as_printed changes the sine alone
    for kernel, kwargs in ((Kernel.SIN, printed[0]), (Kernel.SIN, printed[1]), (Kernel.COS, {})):
        yield (f"si_ci_representation {kernel.value} {kwargs}", lommel.si_ci_representation,
               [(*nm, *xz, kernel) for nm in ORDERS for xz in PAIRS], kwargs)
    for kwargs in printed:
        yield (f"lommel_s_half {kwargs}", lommel.lommel_s_half,
               list(itertools.product(MUS, GRID)), kwargs)
    for f in (lommel.log_weighted_sin_integral, lommel.log_weighted_sin_integral_fd):
        yield f.__name__, f, [(x,) for x in GRID], {}

    yield from _radical_cases("two_radical", [
        ("sin_transform", {}), ("cos_transform", {}),
        ("sin_transform", {"heads_by_quadrature": True}),
        ("cos_transform", {"heads_by_quadrature": True}),
        ("approx_sin_transform", {}), ("approx_cos_transform", {}),
        ("approx_cos_transform", {"as_printed": True})], TRIPLES)
    yield from _radical_cases("radical_pole", [
        ("pole_sin_transform", {}), ("pole_cos_transform", {}),
        ("pole_sin_transform", {"heads_by_quadrature": True}),
        ("pole_cos_transform", {"heads_by_quadrature": True}),
        ("pole_sin_transform", {"as_printed": True}),
        ("pole_cos_transform", {"as_printed": True}),
        ("approx_pole_sin_transform", {}), ("approx_pole_cos_transform", {})], ORDERED)
    for f in (two_radical.tail_sin, two_radical.tail_cos,
              radical_pole.pole_tail_sin, radical_pole.pole_tail_cos):
        yield f.__name__, f, [(c,) for c in GRID], {}
    yield "pole_tail_cos as_printed", radical_pole.pole_tail_cos, [(c,) for c in GRID], printed[1]
    for f in (two_radical.head_sin_series, two_radical.head_cos_series,
              two_radical.head_sin_approx, two_radical.head_cos_approx,
              radical_pole.pole_head_sin_series, radical_pole.pole_head_cos_series,
              radical_pole.pole_head_sin_approx, radical_pole.pole_head_cos_approx):
        yield f.__name__, f, PAIRS, {}
    yield "head_cos_approx as_printed", two_radical.head_cos_approx, PAIRS, {"as_printed": True}

    sf = special_functions
    for f in (sf.fresnel_s, sf.fresnel_c, sf.hyp2f2_half):
        yield f.__name__, f, [(z,) for z in SIGNED], {}
    for f in (sf.bessel_j0, sf.bessel_y0, sf.gamma_real):
        yield f.__name__, f, [(z,) for z in GRID], {}
    yield ("upper_incomplete_gamma", sf.upper_incomplete_gamma,
           [(a, complex(0.0, v)) for a in GAMMA_ORDERS for v in SIGNED], {})
    yield ("hyp2f1", sf.hyp2f1, [(*shape, -z) for shape in SHAPES for z in GRID], {})
    for f in (sf.gen_si, sf.gen_ci):
        yield f.__name__, f, list(itertools.product(TRIG_ALPHAS, GRID)), {}


CASES = {label: (f, args, kwargs) for label, f, args, kwargs in _cases()}


def _finite(value):
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return isinstance(value, (float, complex)) and cmath.isfinite(value)


@pytest.mark.parametrize("label", sorted(CASES))
def test_finite_value_or_domain_or_convergence_error(label):
    f, args, kwargs = CASES[label]
    bad = []
    for a in args:
        try:
            value = f(*a, **kwargs)
        except (DomainError, ConvergenceError):
            continue
        except Exception as exc:            # any other exception is a finding
            bad.append((a, f"{type(exc).__name__}: {exc}"))
        else:
            if not _finite(value):
                bad.append((a, repr(value)))
    assert not bad, bad[:5]


def test_every_public_closed_form_is_gated():
    # every public function outside the oracle and the records, except
    # the coefficient table of the half-power family and the control reader
    gated = {f for f, _, _ in CASES.values()}
    skip = {"oracle", "errors", "errata", "control"}
    public = {getattr(oscint, name) for name, module in oscint._SUBMODULE.items()
              if module not in skip and callable(getattr(oscint, name))
              and not isinstance(getattr(oscint, name), type)}
    assert public - gated == {oscint.family_coefficients}


def _names(source):
    """Every imported name, variable and attribute name in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_gate_sees_imports_and_attributes():
    source = "from .errors import Kernel\nimport oscint.errors\nerrors._trig(k, m)\n"
    assert {"Kernel", "_trig"} <= _names(source)


@pytest.mark.parametrize("module", ["two_radical", "radical_pole"])
def test_radical_engine_names_no_kernel(module):
    assert not _names((SRC / f"{module}.py").read_text()) & {"Kernel", "_trig"}
