"""Seeded request lists for the three workloads.

A request is one evaluation: a family, a kernel, a stratum and the
parameters, named as the ``oscint eval`` flags name them.  Every list
has a fixed length and fixed per-(family, kernel, stratum) counts; only
the parameter values come from the seed.  Parameters are continuous
draws, so no two requests are equal and a result memo cannot help.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import NamedTuple

SIN, COS = "sin", "cos"


class Request(NamedTuple):
    family: str
    kernel: str
    stratum: str
    params: tuple   # ((name, value), ...) in ``oscint eval`` flag names

    def p(self):
        return dict(self.params)


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------------------
# parameter draws.  In-grid is the acceptance suite's domain: a <= 1,
# zeta <= 2, x <= 10.  Wide is where ROADMAP item 3's defects live:
# phase c*gamma^2 = zeta*a up to 40, u = zeta*x up to 1e3, alpha up to 10,
# log-weight x up to 200.
# ---------------------------------------------------------------------------

def _half_power(rng, wide):
    if wide:
        zeta = rng.uniform(0.25, 2.0)
        return (("alpha", rng.randint(0, 10)),
                ("x", _logu(rng, 10.0, 1000.0) / zeta), ("zeta", zeta))
    return (("alpha", rng.randint(0, 5)), ("x", rng.uniform(0.05, 10.0)),
            ("zeta", rng.uniform(0.25, 2.0)))


def _lommel(rng, wide):
    n, m, plus_one = rng.randint(0, 2), rng.randint(1, 5), rng.random() < 0.5
    zeta = rng.uniform(0.25, 2.0)
    x = _logu(rng, 10.0, 1000.0) / zeta if wide else rng.uniform(0.05, 10.0)
    return (("n", n), ("m", m), ("x", x), ("zeta", zeta), ("plus_one", plus_one))


def _radical(rng, wide):
    zeta = rng.uniform(0.5, 2.0) if wide else rng.uniform(0.25, 2.0)
    a = rng.uniform(2.0, 40.0) / zeta if wide else rng.uniform(0.05, 1.0)
    return (("a", a), ("b", a + rng.uniform(0.2, 3.5)), ("zeta", zeta))


def _log_half_power(rng, wide):
    return (("x", rng.uniform(10.0, 200.0) if wide else rng.uniform(0.05, 10.0)),)


def _degenerate(rng, wide):
    a = rng.uniform(0.05, 1.0)
    return (("a", a), ("b", a), ("zeta", rng.uniform(0.25, 2.0)))


def _three_radical(rng, wide):
    a = rng.uniform(0.05, 1.0)
    b = a + rng.uniform(0.2, 3.5)
    c3 = b + rng.uniform(0.2, 3.5)
    return (("a", a), ("b", b), ("c3", c3), ("zeta", rng.uniform(0.25, 2.0)))


def _quadratic_phase(rng, wide):
    return (("scale", rng.uniform(0.5, 10.0)), ("power", rng.choice((0.5, 1.0))))


_DRAW = {
    "half-power": _half_power,
    "lommel": _lommel,
    "two-radical": _radical,
    "radical-pole": _radical,
    "log-half-power": _log_half_power,
    "three-radical": _three_radical,
    "quadratic-phase": _quadratic_phase,
}

# closed-grid: stratum share, then family share inside the stratum
CLOSED_STRATA = (("in-grid", 0.85), ("wide", 0.13), ("degenerate", 0.02))
CLOSED_FAMILIES = (("half-power", 0.20), ("lommel", 0.15), ("log-half-power", 0.10),
                   ("two-radical", 0.30), ("radical-pole", 0.25))
ORACLE_FAMILIES = (("half-power", 0.20), ("lommel", 0.10), ("two-radical", 0.20),
                   ("radical-pole", 0.15), ("three-radical", 0.15),
                   ("log-half-power", 0.10), ("quadratic-phase", 0.10))
CLI_FAMILIES = ("half-power", "two-radical", "radical-pole", "lommel", "log-half-power")

# requests per unit of --seconds.  At the default 20 the in-process lists
# stay below 10^4 requests, so their tail is p99 (>= 10 samples beyond
# p99.9 would need more, and one-off stalls then decide the tail), and
# cli-cold gets 48 processes, so its tail is p75.
RATE = {"closed-grid": 480.0, "oracle-grid": 450.0, "cli-cold": 2.4}
BLOCK = {"closed-grid": 32, "oracle-grid": 12, "cli-cold": 1}   # requests per pace block


def _kernels(family):
    return (SIN,) if family == "log-half-power" else (SIN, COS)


def _split(total, shares):
    """Integer counts proportional to ``shares`` that sum to ``total``."""
    raw = [total * s / sum(shares) for s in shares]
    counts = [int(r) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _cells(workload, n):
    """((family, kernel, stratum), count) with fixed counts summing to n."""
    cells = []
    if workload == "closed-grid":
        for (stratum, _), s_n in zip(CLOSED_STRATA, _split(n, [s for _, s in CLOSED_STRATA])):
            fams = (("two-radical", 1.0),) if stratum == "degenerate" else CLOSED_FAMILIES
            for (fam, _), f_n in zip(fams, _split(s_n, [s for _, s in fams])):
                ks = _kernels(fam)
                cells += [((fam, k, stratum), c) for k, c in zip(ks, _split(f_n, [1] * len(ks)))]
    elif workload == "oracle-grid":
        for (fam, _), f_n in zip(ORACLE_FAMILIES, _split(n, [s for _, s in ORACLE_FAMILIES])):
            ks = _kernels(fam)
            cells += [((fam, k, "in-grid"), c) for k, c in zip(ks, _split(f_n, [1] * len(ks)))]
    elif workload == "cli-cold":
        combos = [(f, k) for f in CLI_FAMILIES for k in _kernels(f)]
        cells = [((f, k, "in-grid"), c)
                 for (f, k), c in zip(combos, _split(n, [1] * len(combos)))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return cells


def request_count(workload, seconds):
    return max(1, math.ceil(seconds * RATE[workload]))


def generate(workload, seed, n):
    """The fixed request list of ``workload`` for ``seed``, shuffled."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for (fam, kernel, stratum), count in _cells(workload, n):
        draw = _degenerate if stratum == "degenerate" else _DRAW[fam]
        for _ in range(count):
            out.append(Request(fam, kernel, stratum, draw(rng, stratum == "wide")))
    rng.shuffle(out)
    return out


def tally(requests):
    """Per-family, per-stratum and per-cell counts, for the run record."""
    return {
        "family": dict(Counter(r.family for r in requests)),
        "stratum": dict(Counter(r.stratum for r in requests)),
        "cell": {f"{f}/{k}/{s}": c for (f, k, s), c in
                 sorted(Counter((r.family, r.kernel, r.stratum) for r in requests).items())},
    }


# ---------------------------------------------------------------------------
# how each request reaches the library
# ---------------------------------------------------------------------------

def closed_call(api, req):
    """Zero-argument callable evaluating ``req`` by its public closed form."""
    p = req.p()
    sin = req.kernel == SIN
    fam = req.family
    if fam == "half-power":
        f = api.s_alpha if sin else api.c_alpha
        return lambda: f(p["alpha"], p["x"], p["zeta"])
    if fam == "lommel":
        f = api.general_sin_transform if sin else api.general_cos_transform
        return lambda: f(p["n"], p["m"], p["x"], p["zeta"], p["plus_one"])
    if fam == "two-radical":
        f = api.sin_transform if sin else api.cos_transform
        return lambda: f(p["a"], p["b"], p["zeta"])
    if fam == "radical-pole":
        f = api.pole_sin_transform if sin else api.pole_cos_transform
        return lambda: f(p["a"], p["b"], p["zeta"])
    if fam == "log-half-power":
        f = api.log_weighted_sin_integral
        return lambda: f(p["x"])
    raise ValueError(f"no closed form for {fam}")


def exponent(req):
    """The power p of a (t+x)^-p weight, or None for other weights."""
    p = req.p()
    if req.family == "half-power":
        return p["alpha"] + 0.5
    if req.family == "lommel":
        q = 2 * p["n"] + 1.0 / p["m"]
        return q + 1.0 if p["plus_one"] else q
    return None


def oracle_spec(api, req):
    """The IntegrandSpec the oracle integrates for ``req``."""
    p = req.p()
    kernel = api.Kernel.SIN if req.kernel == SIN else api.Kernel.COS
    fam = req.family
    if fam in ("half-power", "lommel"):
        return api.IntegrandSpec(api.HalfPower(exponent(req) - 0.5, p["x"]), kernel, p["zeta"])
    if fam == "two-radical":
        return api.IntegrandSpec(api.TwoRadical(p["a"], p["b"]), kernel, p["zeta"])
    if fam == "radical-pole":
        return api.IntegrandSpec(api.RadicalPole(p["a"], p["b"]), kernel, p["zeta"])
    if fam == "three-radical":
        return api.IntegrandSpec(api.ThreeRadical(p["a"], p["b"], p["c3"]), kernel, p["zeta"])
    if fam == "log-half-power":
        return api.IntegrandSpec(api.LogHalfPower(p["x"]), kernel, 1.0)
    if fam == "quadratic-phase":
        return api.IntegrandSpec(api.QuadraticPhase(p["scale"], p["power"]), kernel)
    raise ValueError(f"unknown family {fam}")


def oracle_call(api, req):
    spec = oracle_spec(api, req)
    f = api.integrate_semi_infinite
    return lambda: f(spec).value


def cli_argv(req):
    """``oscint eval`` arguments; floats in repr form so they round-trip."""
    argv = ["eval", "--family", req.family, "--kernel", req.kernel, "--format", "json"]
    for name, value in req.params:
        if name == "plus_one":
            if value:
                argv.append("--plus-one")
            continue
        argv += [f"--{name}", repr(value)]
    return argv
