"""The package's name table, ``oscint._SUBMODULE``, is the one declaration
of the public API: ``import oscint``, ``dir``, ``oscint.__all__`` and
``from oscint import *`` all read it, so no submodule keeps a second list.

The submodules are parsed, not imported, so the gate sees every
assignment wherever it sits.
"""

import ast
from pathlib import Path

import oscint

SRC = Path(oscint.__file__).resolve().parent


def _assigns_all(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            return True
    return False


def test_gate_sees_every_assignment_form():
    for source in ("__all__ = []\n", "__all__: list = []\n", "__all__ += ['x']\n",
                   "if True:\n    __all__ = ('x',)\n"):
        assert _assigns_all(source), source
    assert not _assigns_all("names = ['__all__']\n")


def test_no_named_submodule_declares_its_own_public_names():
    modules = sorted(set(oscint._SUBMODULE.values()))
    assert [m for m in modules if _assigns_all((SRC / f"{m}.py").read_text())] == []
