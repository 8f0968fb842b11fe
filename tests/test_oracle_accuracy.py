"""The oracle against 30-digit mpmath references on the rotated contour
(``mpref.contour``)."""

import random

import pytest

from oscint import (
    HalfPower,
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    RadicalPole,
    ThreeRadical,
    TwoRadical,
    integrate_semi_infinite,
)

import mpref


def reference(weight, zeta):
    """{Kernel.SIN: I_sin, Kernel.COS: I_cos} at 30 digits, as floats."""
    ref = mpref.contour(weight, zeta, 30)
    return {kernel: float(getattr(ref, kernel.value)) for kernel in Kernel}


def _in_grid(seed, n):
    """``n`` seeded (weight, zeta) points over the in-grid ranges, the
    five weight types in turn; the log weight is taken at zeta = 1."""
    rng = random.Random(seed)
    points = []
    for i in range(n):
        zeta, x, alpha = rng.uniform(0.25, 2.0), rng.uniform(0.05, 10.0), rng.randint(0, 5)
        a = rng.uniform(0.05, 1.0)
        b = a + rng.uniform(0.2, 3.5)
        c = b + rng.uniform(0.2, 3.5)
        weight = (HalfPower(float(alpha), x), TwoRadical(a, b), RadicalPole(a, b),
                  ThreeRadical(a, b, c), LogHalfPower(x))[i % 5]
        points.append((weight, 1.0 if isinstance(weight, LogHalfPower) else zeta))
    return points


POINTS = _in_grid(12, 12)


@pytest.mark.parametrize("weight, zeta", POINTS,
                         ids=[f"{i}-{type(w).__name__}" for i, (w, _) in enumerate(POINTS)])
def test_in_grid_oracle_meets_mpmath(weight, zeta):
    ref = reference(weight, zeta)
    for kernel in Kernel:
        rep = integrate_semi_infinite(IntegrandSpec(weight, kernel, zeta))
        err = abs(rep.value - ref[kernel])
        assert err <= 1e-12 * abs(ref[kernel]), (kernel, rep, ref[kernel])
        assert err <= rep.abs_err_est, (kernel, rep, ref[kernel])


@pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
def test_tiny_transform_is_relatively_accurate(kernel):
    # both transforms of (t + 50)^-8.5 are ~1e-15: a stop on an absolute
    # increment alone returns them with relative errors of 1e-3 to 1e-2
    weight = HalfPower(8.0, 50.0)
    ref = reference(weight, 1.0)[kernel]
    value = integrate_semi_infinite(IntegrandSpec(weight, kernel, 1.0)).value
    assert abs(value - ref) <= 1e-11 * abs(ref)
