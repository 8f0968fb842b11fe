"""The quadrature oracle on its own.

Every closed form in the library is validated against this engine: the
integration axis is split at the kernel zeros, every lobe goes through
a fixed 21-point Gauss-Kronrod rule evaluated in blocks of lobes with
numpy (the first block as long as the tolerance needs, the first lobe
cut into pieces graded toward its lower end, and a piece that fails its
error test goes to the adaptive form of the same rule), and the alternating lobe series is accelerated by the rule of
Cohen, Rodriguez Villegas and Zagier: a fixed weighted sum of the first
n lobes, within 5.83^-n of the sum for a completely monotone weight (the
log weight is not one; there only the stop test guards).  A typical
integral takes about 19 lobes.  The oracle also covers what has no
closed form at all, such as three distinct radical constants.
"""

import math

from oscint import SeriesControl
from oscint.oracle import (
    HalfPower,
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    QuadraticPhase,
    ThreeRadical,
    TwoRadical,
    integrate_finite,
    integrate_semi_infinite,
)

print(__doc__)

CASES = [
    ("slow t^-1/2 decay", IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, 1.0)),
    ("singular origin (x=0)", IntegrandSpec(HalfPower(0.0, 0.0), Kernel.SIN, 1.0)),
    ("high frequency", IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, 25.0)),
    ("two radicals", IntegrandSpec(TwoRadical(1.0, 2.0), Kernel.COS, 1.0)),
    ("three radicals (no closed form)",
     IntegrandSpec(ThreeRadical(1.0, 2.0, 3.0), Kernel.SIN, 1.0)),
    ("quadratic phase", IntegrandSpec(QuadraticPhase(1.0, 0.5), Kernel.SIN)),
    ("log-weighted", IntegrandSpec(LogHalfPower(1.0), Kernel.SIN, 1.0)),
]

print(f"{'case':>32} {'value':>16} {'err est':>10} {'lobes':>6} {'accel':>6}")
for name, spec in CASES:
    rep = integrate_semi_infinite(spec)
    print(f"{name:>32} {rep.value:>16.12f} {rep.abs_err_est:>10.1e} "
          f"{rep.zero_intervals_used:>6} {rep.accelerated!s:>6}")
print()

print("=== error estimates are conservative ===")
spec = IntegrandSpec(HalfPower(0.0, 1.0), Kernel.SIN, 1.0)
loose = integrate_semi_infinite(spec, SeriesControl(rel_tol=1e-8, max_terms=500))
tight = integrate_semi_infinite(spec, SeriesControl(rel_tol=1e-14, max_terms=2000))
print(f"  rel_tol 1e-8 : {loose.value:.15f} +- {loose.abs_err_est:.1e}")
print(f"  rel_tol 1e-14: {tight.value:.15f} +- {tight.abs_err_est:.1e}")
print(f"  actual drift : {abs(loose.value - tight.value):.1e}")
print()

print("=== finite-range companion ===")
rep = integrate_finite(lambda z: math.sin(z * z), 0.0, 1.0)
print(f"  int_0^1 sin(z^2) dz = {rep.value:.15f} +- {rep.abs_err_est:.1e} "
      f"({rep.zero_intervals_used} subintervals)")
