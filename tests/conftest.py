"""Shared fixtures, and ``tools/`` on ``sys.path`` for the mpmath references
(``import mpref``)."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "tools"))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, *names)`` wraps each named module binding with a
    counter and returns the live ``{name: calls}`` dict."""

    def install(module, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return counts

    return install
