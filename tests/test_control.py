"""Series-control plumbing."""

import numpy as np
import pytest

from oscint import DomainError, SeriesControl, control_from_env
from oscint.control import ENV_REL_TOL


def test_defaults():
    ctl = SeriesControl()
    assert ctl.rel_tol == 1e-12
    assert ctl.max_terms == 500


def test_validation():
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesControl(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    # any integer type is taken, and kept as an int
    assert type(SeriesControl(max_terms=np.int64(40)).max_terms) is int


def test_env_override(monkeypatch):
    monkeypatch.delenv(ENV_REL_TOL, raising=False)
    assert control_from_env().rel_tol == 1e-12
    monkeypatch.setenv(ENV_REL_TOL, "1e-9")
    assert control_from_env().rel_tol == 1e-9
    # explicit argument wins over the environment
    assert control_from_env(rel_tol=1e-7).rel_tol == 1e-7
    assert control_from_env(max_terms=42).max_terms == 42


@pytest.mark.parametrize("bad", [{"rel_tol": float("nan")}, {"rel_tol": float("inf")},
                                 {"rel_tol": -1.0}, {"max_terms": 0},
                                 {"max_terms": 2.5}, {"max_terms": 1000.0},
                                 {"max_terms": float("inf")}, {"max_terms": "500"}],
                         ids=["nan", "inf", "negative", "no-terms", "fractional-terms",
                              "float-terms", "infinite-terms", "text-terms"])
def test_invalid_control_is_domain_error(bad):
    # an infinite tolerance would stop every series after its first term; a
    # non-integer term cap once constructed and failed later in range()
    with pytest.raises(DomainError, match=next(iter(bad))):
        SeriesControl(**bad)


def test_unparsable_env_is_domain_error(monkeypatch):
    monkeypatch.setenv(ENV_REL_TOL, "abc")
    with pytest.raises(DomainError, match=ENV_REL_TOL):
        control_from_env()
    # an explicit tolerance never reads the environment
    assert control_from_env(rel_tol=1e-9).rel_tol == 1e-9
