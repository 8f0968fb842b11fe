"""The oracle against 30-digit mpmath references.

For a weight w analytic in the first quadrant and decaying there, the
contour t = i s / zeta turns both transforms into one exponentially
damped integral:

    I_cos + i I_sin = (i / zeta) * integral_0^inf e^(-s) w(i s / zeta) ds.

Each radical is written as a product of separately principal roots,
which is the continuation of the real weight into the first quadrant.
"""

import random

import mpmath as mp
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

WEIGHTS = {
    HalfPower: lambda w, t: (t + w.x) ** -(mp.mpf(w.alpha) + 0.5),
    TwoRadical: lambda w, t: 1 / (mp.sqrt(t + w.a) * mp.sqrt(t + w.b)),
    RadicalPole: lambda w, t: 1 / (mp.sqrt(t + w.a) * (t + w.b)),
    ThreeRadical: lambda w, t: 1 / (mp.sqrt(t + w.a) * mp.sqrt(t + w.b) * mp.sqrt(t + w.c)),
    LogHalfPower: lambda w, t: mp.log(t + w.x) / mp.sqrt(t + w.x),
}


def reference(weight, zeta):
    """{Kernel.SIN: I_sin, Kernel.COS: I_cos} at 30 digits, as floats."""
    w = WEIGHTS[type(weight)]
    with mp.workdps(30):
        z = mp.mpf(zeta)
        total = 1j / z * mp.quad(lambda s: mp.exp(-s) * w(weight, 1j * s / z), [0, mp.inf])
        return {Kernel.SIN: float(total.imag), Kernel.COS: float(total.real)}


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
