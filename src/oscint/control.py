"""Truncation control for every infinite series and continued fraction.

A single ``SeriesControl`` instance is threaded through the library; all
expansions stop once the relative tail drops below ``rel_tol``, with
``max_terms`` as a hard guard.

Complex quantities (incomplete gamma with imaginary argument, the
``2F2`` backend) are plain Python ``complex`` values throughout.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple

from .errors import DomainError, Record


class SeriesControl(Record, namedtuple("SeriesControl", "rel_tol max_terms")):
    """Relative tolerance and term cap for series truncation."""

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-12, max_terms: int = 500):
        if not 0.0 < rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and > 0, got {rel_tol}")
        if not (hasattr(max_terms, "__index__") and max_terms >= 1):
            raise DomainError(f"max_terms must be an integer >= 1, got {max_terms!r}")
        return tuple.__new__(cls, (rel_tol, operator.index(max_terms)))


DEFAULT_CONTROL = SeriesControl()

ENV_REL_TOL = "OSCINT_REL_TOL"


def control_from_env(rel_tol=None, max_terms=None):
    """Build a SeriesControl, honouring the OSCINT_REL_TOL env override.

    Explicit arguments win over the environment, which wins over the
    library defaults.
    """
    if rel_tol is None:
        env = os.environ.get(ENV_REL_TOL)
        try:
            rel_tol = float(env) if env else DEFAULT_CONTROL.rel_tol
        except ValueError:
            raise DomainError(f"{ENV_REL_TOL} must be a number, got {env!r}") from None
    if max_terms is None:
        max_terms = DEFAULT_CONTROL.max_terms
    return SeriesControl(rel_tol=rel_tol, max_terms=max_terms)
