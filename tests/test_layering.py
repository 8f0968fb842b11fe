"""Structural gate: the closed forms take only named quadrature helpers
from the oracle, and the kernel vocabulary from ``errors``.

Each closed-form module's source is parsed, not imported, so the gate
sees every ``from .oracle import`` and ``import oscint.oracle`` however
it is reached.  The allowlist may only shrink.
"""

import ast
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
