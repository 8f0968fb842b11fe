"""Structural gates: the closed forms take only named quadrature helpers
from the oracle, the kernel vocabulary from ``errors``, and Gamma(a, z)
only through ``upper_incomplete_gamma``; every record stores its fields
in its named tuple.

Each module's source is parsed, not imported, so a gate sees every
``from .oracle import`` and ``import oscint.oracle`` however it is
reached, and every use of a name.  The allowlists may only shrink; the one
entry added since lets ``_phased_gamma`` sum the backward fraction itself,
because a variant that kept every Gamma-form call on
``upper_incomplete_gamma`` measured no reliable closed-grid gain.
"""

import ast
import importlib
from collections import namedtuple
from pathlib import Path

import pytest

import oscint
from oscint import errors, oracle

SRC = Path(oscint.__file__).resolve().parent

# the names each closed-form module may import from ``oracle``
ORACLE_ALLOWED = {
    "half_power": set(),
    "lommel": set(),
    "two_radical": {"integrate_finite"},
    "radical_pole": {"integrate_finite"},
    "special_functions": {"kernel_breakpoints", "lobe_sum"},
}


def _oracle_imports(source):
    """Names ``source`` imports from the oracle; "oracle" for the module itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, "oracle"), (0, "oscint.oracle")):
                names |= {alias.name for alias in node.names}
            elif (node.level, node.module) in ((1, None), (0, "oscint")):
                names |= {"oracle" for alias in node.names if alias.name == "oracle"}
        elif isinstance(node, ast.Import):
            names |= {"oracle" for alias in node.names if alias.name == "oscint.oracle"}
    return names


@pytest.mark.parametrize("module", sorted(ORACLE_ALLOWED))
def test_closed_forms_import_only_allowed_oracle_names(module):
    assert _oracle_imports((SRC / f"{module}.py").read_text()) <= ORACLE_ALLOWED[module]


def test_gate_sees_every_import_form():
    source = ("from .oracle import Kernel\nfrom . import oracle, errors\n"
              "import oscint.oracle\nfrom oscint.oracle import lobe_sum\n")
    assert _oracle_imports(source) == {"Kernel", "oracle", "lobe_sum"}


def test_kernel_vocabulary_lives_in_errors():
    assert oscint.Kernel is oracle.Kernel is errors.Kernel
    assert errors.Kernel.__module__ == "oscint.errors"
    for name in ("_as_kernel", "_trig", "_require_finite"):
        assert getattr(oracle, name) is getattr(errors, name)


# the routes upper_incomplete_gamma picks between, and the (module, function)
# pairs that may name them; "<module>" is a module's top level, its imports
GAMMA_ROUTES = {"_gamma_series", "_legendre_cf_backward", "_legendre_cf"}
GAMMA_ROUTES_ALLOWED = {
    ("special_functions", "upper_incomplete_gamma"),
    # the Gamma form on the fraction's route: -i u^(1-alpha) / D with no phase.
    # Keeping every call on upper_incomplete_gamma (fitted depth or an exact
    # prefactor on the axis) measured no reliable closed-grid gain; skipping the
    # two phases that cancel, and the caller's binding, did
    ("special_functions", "_phased_gamma"),
    ("selfcheck", "<module>"),              # the gamma-routes group compares two
    ("selfcheck", "check_gamma_routes"),
}
# the modules that reach the Gamma form only through _power_transform
POWER_TRANSFORM_ONLY = ("half_power", "lommel")


def _uses(source, names):
    """(top-level function or class, name) for each use of ``names`` in
    ``source``: a name, an attribute or an imported alias."""
    found = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used = {alias.name.rpartition(".")[2] for alias in node.names}
            else:
                continue
            found |= {(owner, name) for name in used & names}
    return found


def test_only_upper_incomplete_gamma_picks_a_gamma_route():
    found = {(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner, _ in _uses(path.read_text(), GAMMA_ROUTES)}
    assert found <= GAMMA_ROUTES_ALLOWED


def test_the_fraction_threshold_is_one_predicate():
    # both pickers of the backward fraction, upper_incomplete_gamma and the Gamma
    # form, ask _gamma_fraction, the one place the switch max(3, a + 1) is written;
    # the backward loop is written once: only it reads the fraction's numerators
    source = (SRC / "special_functions.py").read_text()
    assert {owner for owner, _ in _uses(source, {"_GAMMA_SWITCH"})} == {"<module>", "_gamma_fraction"}
    assert {owner for owner, _ in _uses(source, {"_gamma_fraction"})} == {
        "upper_incomplete_gamma", "_phased_gamma"}
    assert {owner for owner, _ in _uses(source, {"_cf_numerators"})} == {
        "<module>", "_legendre_cf_backward"}


def test_the_printed_gamma_order_stays_in_lommel():
    # errata LOM-GAMMA-ORDER lives in the module that owns it: no function in
    # special_functions takes or names an as_printed flag
    source = (SRC / "special_functions.py").read_text()
    assert not [node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.arg) and node.arg == "as_printed"]
    assert not _uses(source, {"as_printed"})


def test_radical_pole_holds_no_gamma_binding():
    # its Gamma form is past the Fresnel switch, c > 4.02, on the backward
    # fraction's route, which never calls a binding
    assert not _uses((SRC / "radical_pole.py").read_text(), {"upper_incomplete_gamma"})


def test_the_backward_fraction_reads_one_depth_rule():
    # one depth constant for every direction, and no selector on Re z
    source = (SRC / "special_functions.py").read_text()
    fraction = next(node for node in ast.parse(source).body
                    if getattr(node, "name", None) == "_legendre_cf_backward")
    constants = {node.id for node in ast.walk(fraction)
                 if isinstance(node, ast.Name) and node.id.startswith("_CF")}
    assert constants == {"_CF_DEPTH"}
    assert not [node for node in ast.walk(fraction)
                if isinstance(node, ast.Attribute) and node.attr == "real"]
    assert {owner for owner, _ in _uses(source, {"_CF_DEPTH"})} == {
        "<module>", "_legendre_cf_backward"}


@pytest.mark.parametrize("module", POWER_TRANSFORM_ONLY)
def test_transform_modules_import_no_phased_gamma(module):
    assert not _uses((SRC / f"{module}.py").read_text(), {"_phased_gamma"})


def test_use_gate_sees_every_form():
    source = ("from .special_functions import _legendre_cf as cf\n"
              "def f():\n    return sf._gamma_series(1, 2)\n"
              "class C:\n    def g(self):\n        return _legendre_cf_backward\n")
    assert _uses(source, GAMMA_ROUTES) == {("<module>", "_legendre_cf"), ("f", "_gamma_series"),
                                           ("C", "_legendre_cf_backward")}


# the field descriptor of a named tuple, read in C
_TUPLE_FIELD = type(namedtuple("_Probe", "x").x)


def _records(cls=errors.Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_no_module_stores_an_attribute_by_hand():
    # object.__setattr__ would store a field beside the record's named tuple
    assert not [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
                for owner, _ in _uses(path.read_text(), {"__setattr__"})]


def test_every_record_is_a_named_tuple_on_the_record_mixin():
    for path in sorted(SRC.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            importlib.import_module(f"oscint.{path.stem}")
    records = list(_records())
    assert {"CheckResult", "Erratum", "RadicalPoleParams", "SeriesControl"} <= {
        cls.__name__ for cls in records}
    for cls in records:
        assert cls.__dict__.get("__slots__") == (), cls
        assert cls._fields and all(type(getattr(cls, f)) is _TUPLE_FIELD
                                   for f in cls._fields), cls
        assert cls.__hash__ is tuple.__hash__, cls
    # the named tuple supplies repr, pickling and immutability
    assert set(vars(errors.Record)) == {"__module__", "__doc__", "__slots__", "__eq__",
                                        "__ne__", "__hash__", "_make"}


# every cold closed-form eval compiles oracle.py (special_functions imports it),
# so it may not grow; nodes, unlike lines, do not move when code is reflowed
ORACLE_AST_NODES = 5034


def test_oracle_stays_within_its_node_cap():
    source = (SRC / "oracle.py").read_text()
    assert sum(1 for _ in ast.walk(ast.parse(source))) <= ORACLE_AST_NODES


# selfcheck.py held 5,473 nodes while each group wrote its own pass test and
# detail string; with one (name, error, tolerance) row it may not grow back
SELFCHECK_AST_NODES = 5000


def test_selfcheck_stays_within_its_node_cap():
    source = (SRC / "selfcheck.py").read_text()
    assert sum(1 for _ in ast.walk(ast.parse(source))) <= SELFCHECK_AST_NODES
