"""Head/tail decompositions for the two-radical and radical-pole weights.

Both families reduce, by the substitution t + a = (b-a) z^2, to
quadratic-phase integrals over [gamma, inf) that split into a known
infinite-range piece (Bessel functions for the two-radical weight,
Fresnel integrals for the pole weight) minus a rapidly converging
hypergeometric head on [0, gamma].  This script walks through each
piece, shows the leading-order approximations and their quality, and
demonstrates the two printed-formula errata this family carries.
"""

import numpy as np

from oscint import (
    approx_cos_transform,
    cos_transform,
    head_cos_approx,
    head_cos_series,
    head_sin_approx,
    head_sin_series,
    pole_cos_transform,
    pole_sin_transform,
    pole_tail_cos,
    sin_transform,
    tail_cos,
    tail_sin,
)
from oscint.oracle import (
    IntegrandSpec,
    Kernel,
    QuadraticPhase,
    RadicalPole,
    TwoRadical,
    integrate_semi_infinite,
)

print(__doc__)

ORC = lambda w, k, z=1.0: integrate_semi_infinite(IntegrandSpec(w, k, z)).value

# ------------------------------------------------------------------- tails
print("=== infinite-range pieces vs quadrature ===")
for c in (0.5, 2.0, 10.0):
    print(f"  c={c:4}: two-radical sin tail {tail_sin(c):+.12f} "
          f"(oracle {ORC(QuadraticPhase(c, 0.5), Kernel.SIN):+.12f})")
    print(f"          two-radical cos tail {tail_cos(c):+.12f} "
          f"(oracle {ORC(QuadraticPhase(c, 0.5), Kernel.COS):+.12f})")
print()

# ---------------------------------------------------------------- assembly
print("=== assembled transforms vs oracle ===")
print(f"  {'family':>12} {'(a, b, zeta)':>16} {'closed':>16} {'oracle':>16}")
for a, b, zeta in [(1.0, 2.0, 1.0), (0.5, 4.0, 2.0), (1.0, 1.5, 0.5)]:
    v = sin_transform(a, b, zeta)
    o = ORC(TwoRadical(a, b), Kernel.SIN, zeta)
    print(f"  {'two-radical':>12} {(a, b, zeta)!s:>16} {v:>16.12f} {o:>16.12f}")
    v = pole_sin_transform(a, b, zeta)
    o = ORC(RadicalPole(a, b), Kernel.SIN, zeta)
    print(f"  {'radical-pole':>12} {(a, b, zeta)!s:>16} {v:>16.12f} {o:>16.12f}")
print()

# equal constants collapse to a single pole; the split b < 2a puts gamma
# above 1, where the head moments recur upward from atan/asinh, not 2F1
print("degenerate a=b:", sin_transform(1.0, 1.0, 1.0), " cos:", cos_transform(1.0, 1.0, 1.0))
print("gamma>1 route :", sin_transform(1.0, 1.2, 1.0), "\n")

# ------------------------------------------------------------ approximations
print("=== leading-order heads at gamma = 0.5: relative error vs series ===")
print(f"  {'c':>5} {'sin approx':>12} {'cos corrected':>14} {'cos printed':>12}")
g = 0.5
for c in (5.0, 10.0, 20.0, 40.0):
    r_sin = abs(head_sin_approx(c, g) / head_sin_series(c, g) - 1.0)
    r_cos = abs(head_cos_approx(c, g) / head_cos_series(c, g) - 1.0)
    r_bad = abs(head_cos_approx(c, g, as_printed=True) / head_cos_series(c, g) - 1.0)
    print(f"  {c:>5} {r_sin:>12.2e} {r_cos:>14.2e} {r_bad:>12.2e}")
print("  (the printed cosine coefficient -gamma/c is a typo for -gamma/(4c);")
print("   the corrected form is the default, as_printed=True restores it)\n")

# ------------------------------------------------------------------ errata
print("=== the pole cosine tail erratum ===")
cs = np.array([0.25, 0.5, 1.0, 2.0])
print(f"  {'c':>6} {'corrected':>14} {'printed':>14} {'oracle':>14}")
for c in cs:
    c = float(c)
    o = ORC(QuadraticPhase(c, 1.0), Kernel.COS)
    print(f"  {c:>6} {pole_tail_cos(c):>14.9f} "
          f"{pole_tail_cos(c, as_printed=True):>14.9f} {o:>14.9f}")
print("  (printed form carries a spurious +sqrt(2 pi/c): it diverges as c->0)\n")

print("full transform sanity:",
      pole_cos_transform(1.0, 2.0, 1.0), "vs oracle",
      ORC(RadicalPole(1.0, 2.0), Kernel.COS))
print("approx tier (gamma<=1):", approx_cos_transform(0.5, 4.0, 2.0))
