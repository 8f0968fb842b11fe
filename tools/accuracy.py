"""Worst relative error against mpmath, per stratum of a route's documented domain.

    python3 tools/accuracy.py --route gamma --points 40 --seed 1 [--record PATH] [--parent REV]
    python3 tools/accuracy.py --route gen-trig --points 25 --seed 1 [--parent REV]

``--route gamma`` covers the incomplete-gamma route of ``src/oscint``:

* ``upper_incomplete_gamma(a, z)`` on every stratum of three axes: the order a in
  (-171.5, -8], (-8, 0], (0, 1], (1, 10] or (10, 171.5]; |z| in [3, 10), [10, 1e3) or
  [1e3, 1e7]; and the direction of z, on the imaginary axis (``axis``), Re z > 0
  (``right``) or Re z < 0 (``left``);
* the Gamma form e^(-i pi (1-a)/2) e^(-iu) Gamma(a, -iu), which the (t+u)^-p transforms
  read, on the order and |z| strata (its argument is on the axis);
* ``lommel_s_half(mu, z)`` past mu = 1/2, mu in (1/2, 40] and z in [3, 1e4], whose
  Gamma order is 1/2 + mu.

The form and S_{mu,1/2} strata split at the switch u = max(3, b + 1) of Gamma order b
into ``fraction`` (u at or above it, the backward fraction's route) and ``series``
(below it, the phase times the series), each where the bands reach it: the order is
drawn where its part meets the |z| band, u in that part.  Each stratum draws
``--points`` seeded points: the order uniform and |z| log-uniform in its bands, the
direction uniform in its sector.  The reference is mpmath at 30
working digits, deepened by 15 until two precisions agree to 1e-20, at the order the
library forms from the float (for S_{mu,1/2}, the Gamma order 1 - (1/2 - mu) as
rounded to double: each rounding moves the value by up to a ln(u) ulp(a)/2 relative,
2.3e-14 at mu = 31.8, u = 728).  Per stratum the script prints the points, how many
of them have a true value that is not a normal double (``off range``, where a raise
is expected), the worst relative error over the others that returned and where it
is, and the raises per exception class over those others (a raise where the value
is a double).  ``--record PATH`` writes the same as JSON.

``--route gen-trig`` covers ``gen_si(alpha, z)`` and ``gen_ci(alpha, z)`` on the alpha
bands (-8, -2], (-2, 0] and (0, 1) and the z bands [1e-3, 1), [1, 1e3), [1e3, 1e8) and
[1e8, 1e16), below the 2^52 half-periods where they raise.  The reference is
gen_ci + i gen_si = e^(i pi alpha/2) Gamma(alpha, -iz) at the float alpha, and each
part's error is relative to that modulus, so a zero of one part reads as no loss.

``--parent REV`` evaluates the same points at REV too and prints each stratum as
parent -> change; the two checkouts come from ``bench_pairs.trees``.  Each tree runs
in a child that ``bench_pairs.call`` starts; the references are computed once.
Standard library plus mpmath.
"""

import argparse
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parent.parent

ORDERS = ((-171.5, -8.0), (-8.0, 0.0), (0.0, 1.0), (1.0, 10.0), (10.0, 171.5))
RADII = ((3.0, 10.0), (10.0, 1e3), (1e3, 1e7))
SECTORS = {"axis": None, "right": (-0.5, 0.5), "left": (0.5, 1.0)}     # |arg z| / pi
LOMMEL = ("lommel_s_half", (0.5, 40.0), (3.0, 1e4))
SHIFT = {"form": 0.0, "lommel": 0.5}    # Gamma order - the stratum's order
# gen_ci + i gen_si = e^(i pi alpha/2) Gamma(alpha, -iz): each function's part
PARTS = {"gen_si": "imag", "gen_ci": "real"}
GEN_ORDERS = ((-8.0, -2.0), (-2.0, 0.0), (0.0, 1.0))
GEN_ARGUMENTS = ((1e-3, 1.0), (1.0, 1e3), (1e3, 1e8), (1e8, 1e16))


def _parts(kind, lo, hi, r_lo, r_hi):
    """The switch's parts (name, order band) of a form or S_{mu,1/2} stratum: the
    orders whose u = max(3, b + 1) falls above r_lo (series) or below r_hi (fraction)."""
    cut = 1.0 + SHIFT[kind]                 # the switch is at u = order + cut, from 3
    out = []
    if lo + cut < r_hi:
        out.append(("fraction", (lo, min(hi, r_hi - cut))))
    if hi + cut > r_lo:
        out.append(("series", (max(lo, r_lo - cut), hi)))
    return out


def strata(route="gamma"):
    """(name, kind, order band, |z| band, sector or part) of each stratum of ``route``."""
    if route == "gen-trig":
        return [(f"{kind} a({lo:g},{hi:g}{')' if hi == 1.0 else ']'} z[{z_lo:g},{z_hi:g})",
                 kind, (lo, hi), (z_lo, z_hi), None)
                for kind in PARTS for lo, hi in GEN_ORDERS for z_lo, z_hi in GEN_ARGUMENTS]
    out = []
    for lo, hi in ORDERS:
        for r_lo, r_hi in RADII:
            band = f"a({lo:g},{hi:g}] |z|[{r_lo:g},{r_hi:g})"
            out += [(f"gamma {band} {name}", "gamma", (lo, hi), (r_lo, r_hi), name)
                    for name in SECTORS]
            out += [(f"form {band} {part}", "form", orders, (r_lo, r_hi), part)   # u real
                    for part, orders in _parts("form", lo, hi, r_lo, r_hi)]
    name, (mu_lo, mu_hi), (z_lo, z_hi) = LOMMEL
    out += [(f"{name} mu({mu_lo:g},{mu_hi:g}] z[{z_lo:g},{z_hi:g}] {part}", "lommel",
             orders, (z_lo, z_hi), part)
            for part, orders in _parts("lommel", mu_lo, mu_hi, z_lo, z_hi)]
    return out


def draw(stratum, count, seed):
    """``count`` seeded (kind, order, re z, im z) of one stratum; a stratum's points do
    not depend on the other strata or on their counts."""
    name, kind, (lo, hi), radii, sector = stratum
    rng = random.Random(f"{seed}:{name}")
    points = []
    for _ in range(count):
        a = hi - (hi - lo) * rng.random()                   # in (lo, hi]
        r_lo, r_hi = radii
        if kind in SHIFT:                                   # u on a's side of its switch
            switch = a + 1.0 + SHIFT[kind]
            r_lo, r_hi = ((max(r_lo, switch), r_hi) if sector == "fraction"
                          else (r_lo, min(r_hi, switch)))
        r = math.exp(rng.uniform(math.log(r_lo), math.log(r_hi)))
        if kind != "gamma":                                 # a real argument
            z = complex(r)
        elif SECTORS[sector] is None:
            z = complex(0.0, math.copysign(r, rng.random() - 0.5))
        else:
            t = math.pi * rng.uniform(*SECTORS[sector])
            z = complex(r * math.cos(t), math.copysign(r * math.sin(t), rng.random() - 0.5))
        points.append((kind, a, z.real, z.imag))
    return points


def reference(kind, a, x, y, digits=30):
    """The true value as an mpmath number: at ``digits`` working digits, and again 15
    deeper until the two agree to 1e-20 (mpmath's Gamma(a, z) at 30 digits is 4.8e-13
    off at a = -151.8, z = 36.1 + 22.0i)."""
    import mpmath as mp

    def value(dps):
        with mp.workdps(dps):
            if kind in PARTS:
                return mp.exp(0.5j * mp.pi * a) * mp.gammainc(a, -1j * mp.mpf(x))
            if kind == "gamma":
                return mp.gammainc(a, mp.mpc(x, y))
            # sqrt(u) S_{mu,1/2}(u) is the form's Re at the order 1 - (1/2 - mu)
            u, b = mp.mpf(x), mp.mpf(a if kind == "form" else 1.0 - (0.5 - a))
            # two phase factors: one exp of the sum loses the order's part of it
            form = mp.exp(-0.5j * mp.pi * (1 - b)) * mp.exp(-1j * u) * mp.gammainc(b, -1j * u)
            return form if kind == "form" else form.real / mp.sqrt(u)

    want = value(digits)
    while digits < 120:
        digits += 15
        deeper = value(digits)
        if abs(deeper - want) <= 1e-20 * abs(deeper):
            return deeper
        want = deeper
    return want


def outcomes(points):
    """Per point ["ok", re hex, im hex] or ["raise", exception class], by the ``oscint`` on
    ``sys.path``."""
    from oscint import lommel_s_half
    from oscint import special_functions as sf

    calls = {"gamma": lambda a, x, y: sf.upper_incomplete_gamma(a, complex(x, y)),
             "form": lambda a, x, y: sf._phased_gamma(sf.upper_incomplete_gamma, a, x,
                                                      sf.DEFAULT_CONTROL),
             "lommel": lambda a, x, y: complex(lommel_s_half(a, x)),
             "gen_si": lambda a, x, y: complex(sf.gen_si(a, x)),
             "gen_ci": lambda a, x, y: complex(sf.gen_ci(a, x))}
    out = []
    for kind, a, x, y in points:
        try:
            v = calls[kind](a, x, y)
        except Exception as exc:        # the class is the measurement
            out.append(["raise", type(exc).__name__])
            continue
        out.append(["ok", v.real.hex(), v.imag.hex()])
    return out


def summarize(points, wants, got):
    """{points, off_range, worst, at, raises} of one stratum's outcomes against the truth;
    ``at`` is the (order, re z, im z) of the worst error.  A gen_si or gen_ci value is
    one part of ``want``, and its error is relative to the modulus."""
    row = {"points": len(points), "off_range": 0, "worst": 0.0, "at": None, "raises": Counter()}
    for (kind, a, x, y), want, outcome in zip(points, wants, got):
        if not sys.float_info.min <= abs(want) <= sys.float_info.max:
            row["off_range"] += 1
        elif outcome[0] == "raise":
            row["raises"][outcome[1]] += 1
        else:
            value, scale = complex(float.fromhex(outcome[1]), float.fromhex(outcome[2])), abs(want)
            if kind in PARTS:
                value, want = value.real, getattr(want, PARTS[kind])
            err = float(abs(value - want) / scale)
            if not err <= row["worst"]:                     # NaN counts as the worst
                row["worst"], row["at"] = (err if math.isfinite(err) else math.inf), [a, x, y]
    row["raises"] = dict(sorted(row["raises"].items()))
    return row


def measure(count, seed, parent=None, route="gamma"):
    """{stratum name: {side: summary}}, sides "change" and, with ``parent``, "parent"."""
    table = strata(route)
    per = [draw(s, count, seed) for s in table]
    points = [p for group in per for p in group]
    wants = [reference(*p) for p in points]
    if parent:
        with bench_pairs.trees(parent) as (parent_root, change_root):
            sides = {side: bench_pairs.call(root, "accuracy", "outcomes", points)
                     for side, root in (("change", change_root), ("parent", parent_root))}
    else:
        sides = {"change": bench_pairs.call(ROOT, "accuracy", "outcomes", points)}
    rows, k = {}, 0
    for stratum, group in zip(table, per):
        n = len(group)
        rows[stratum[0]] = {side: summarize(group, wants[k:k + n], got[k:k + n])
                            for side, got in sides.items()}
        k += n
    return rows


def _cell(row):
    raises = ", ".join(f"{name} {n}" for name, n in row["raises"].items()) or "-"
    at = "" if row["at"] is None else " at a={:.4g} z={:.4g}".format(
        row["at"][0], complex(*row["at"][1:]))
    return f"{row['worst']:.1e}{at} [{raises}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--route", default="gamma", choices=("gamma", "gen-trig"))
    ap.add_argument("--points", type=int, default=40, help="points per stratum")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--record", type=Path, help="also write the table as JSON here")
    ap.add_argument("--parent", help="also evaluate the points at this git revision")
    args = ap.parse_args(argv)
    rows = measure(args.points, args.seed, args.parent, args.route)
    head = "parent -> change" if args.parent else "change"
    print(f"route {args.route}, {args.points} points per stratum, seed {args.seed}: "
          f"worst relative error [raises where the value is a double], {head}")
    for name, sides in rows.items():
        change = sides["change"]
        cells = (f"{_cell(sides['parent'])} -> " if args.parent else "") + _cell(change)
        print(f"{name:44s} n {change['points']:4d} off range {change['off_range']:4d}  {cells}")
    if args.record:
        args.record.write_text(json.dumps(
            {"route": args.route, "points": args.points, "seed": args.seed,
             "parent": args.parent, "strata": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
