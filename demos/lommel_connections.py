"""General exponents: the Lommel-function layer.

For any exponent p > 0 the transforms reduce to a single special
function, the Lommel function of the second kind with second index 1/2,
realized here through upper incomplete gamma functions of imaginary
argument.  The exponent families 2n + 1/m and 2n + 1 + 1/m, their
representation through generalized sine/cosine integrals, and the
logarithmic integral obtained by differentiating in the exponent all
sit on top of that one function.
"""

from oscint import (
    Kernel,
    gen_ci,
    gen_si,
    general_cos_transform,
    general_sin_transform,
    log_weighted_sin_integral,
    log_weighted_sin_integral_fd,
    lommel_s_half,
    s0,
    si_ci_representation,
    sin_exponent_transform,
)
from oscint.oracle import HalfPower, IntegrandSpec, LogHalfPower, integrate_semi_infinite

print(__doc__)

# ------------------------------------------------------- structural identity
print("=== order zero is the Fresnel base form ===")
for x in (0.5, 1.0, 2.0):
    print(f"  x={x}: sqrt(x) S_(0,1/2)(x) = {x ** 0.5 * lommel_s_half(0.0, x):.12f}"
          f"   s0(x,1) = {s0(x, 1.0):.12f}")
print()

# ------------------------------------------------------------ any exponent
print("=== arbitrary real exponents via the incomplete-gamma realization ===")
for p in (1.0 / 3.0, 0.5, 1.0, 1.75, 7.0 / 3.0, 4.0):
    closed = sin_exponent_transform(p, 1.0, 1.0)
    o = integrate_semi_infinite(IntegrandSpec(HalfPower(p - 0.5, 1.0), Kernel.SIN, 1.0))
    print(f"  p={p:<9.4g} closed {closed:.12f}   oracle {o.value:.12f}")
print()

# -------------------------------------------------------- the exponent grids
print("=== exponent families 2n+1/m and 2n+1+1/m at x=1, zeta=1 ===")
for n in (0, 1):
    for m in (1, 2, 3):
        s = general_sin_transform(n, m, 1.0, 1.0)
        c = general_cos_transform(n, m, 1.0, 1.0)
        sp = general_sin_transform(n, m, 1.0, 1.0, plus_one=True)
        cp = general_cos_transform(n, m, 1.0, 1.0, plus_one=True)
        print(f"  n={n} m={m}: sin {s:.10f}  cos {c:.10f}  "
              f"sin+1 {sp:.10f}  cos+1 {cp:.10f}")
print()

# ------------------------------------------------- generalized sine/cosine
print("=== the same transforms through generalized si/ci ===")
for (n, m, x, zeta) in [(0, 2, 1.0, 1.0), (0, 1, 1.0, 2.0), (1, 3, 0.5, 1.0)]:
    a = si_ci_representation(n, m, x, zeta, Kernel.SIN)
    b = general_sin_transform(n, m, x, zeta)
    print(f"  n={n} m={m} x={x} zeta={zeta}: si/ci {a:.12f}   gamma route {b:.12f}")
print()
print("generalized integrals themselves: si(1/2, 1) =", gen_si(0.5, 1.0),
      " ci(1/2, 1) =", gen_ci(0.5, 1.0))
print()

# ------------------------------------------------------------- log integral
print("=== logarithmic integral: int ln(t+x) sin(t)/sqrt(t+x) dt ===")
print("  (closed form: 2F2 below x = 3, the Gamma fraction's order derivative above)")
print(f"  {'x':>5} {'closed form':>18} {'oracle':>18} {'finite diff':>18}")
for x in (0.5, 1.0, 2.0, 20.0, 150.0):
    closed = log_weighted_sin_integral(x)
    o = integrate_semi_infinite(IntegrandSpec(LogHalfPower(x), Kernel.SIN, 1.0)).value
    fd = log_weighted_sin_integral_fd(x)
    print(f"  {x:>5} {closed:>18.12f} {o:>18.12f} {fd:>18.12f}")
