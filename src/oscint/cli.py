"""Command-line front end.

Subcommands:

* ``eval``      one transform value per requested method
* ``compare``   side-by-side methods with pairwise deviations and a gate
* ``table``     parameter sweeps (comma-separated values), CSV by default
* ``oracle``    direct quadrature of any integrand family
* ``selfcheck`` the full identity/oracle-agreement suite

Method names per family:

* closed-form    the flagship analytic route
* series         the alternate route (quadrature heads for the radical
                 families, the si/ci representation for lommel, the
                 finite-difference order-derivative for log-half-power)
* approximation  leading-order heads, gamma <= 1 only; no error estimate
* as-printed     verbatim source formulas where an erratum was corrected
* oracle         lobe-partition Gauss-Kronrod quadrature

Compare gates only the exact routes (closed-form / series / oracle);
approximation and as-printed columns are informational.  JSON output is
byte-identical across identical invocations; ``--timing`` adds elapsed
microseconds (and breaks that reproducibility, which is why it is off
by default).  The OSCINT_REL_TOL environment variable overrides the
default series tolerance; an explicit --rel-tol wins over both.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import dataclass
from enum import Enum

from . import half_power as hp
from . import lommel as lm
from . import radical_pole as rp
from . import two_radical as tr
from .control import control_from_env
from .errors import ConvergenceError, DomainError, UnsupportedError
from .oracle import (
    HalfPower,
    IntegrandSpec,
    Kernel,
    LogHalfPower,
    RadicalPole,
    ThreeRadical,
    TwoRadical,
    integrate_semi_infinite,
)


class Method(str, Enum):
    CLOSED_FORM = "closed-form"
    SERIES = "series"
    APPROXIMATION = "approximation"
    ORACLE = "oracle"
    AS_PRINTED = "as-printed"


@dataclass(frozen=True)
class OutputRecord:
    family: str
    params: dict
    method: str
    value: float
    err_estimate: float
    elapsed_us: int

    def as_dict(self, timing=False):
        d = {
            "family": self.family,
            "params": self.params,
            "method": self.method,
            "value": self.value,
            "err_estimate": self.err_estimate,
        }
        if timing:
            d["elapsed_us"] = self.elapsed_us
        return d


# --------------------------------------------------------------------------
# family registry
# --------------------------------------------------------------------------

# parameter name -> (type, required, default)
_FAMILY_PARAMS = {
    "half-power": {"alpha": (int, True, None), "x": (float, True, None),
                   "zeta": (float, False, 1.0)},
    "two-radical": {"a": (float, True, None), "b": (float, True, None),
                    "zeta": (float, False, 1.0)},
    "radical-pole": {"a": (float, True, None), "b": (float, True, None),
                     "zeta": (float, False, 1.0)},
    "lommel": {"n": (int, True, None), "m": (int, True, None),
               "x": (float, True, None), "zeta": (float, False, 1.0),
               "plus_one": (bool, False, False)},
    "log-half-power": {"x": (float, True, None)},
    "three-radical": {"a": (float, True, None), "b": (float, True, None),
                      "c3": (float, True, None), "zeta": (float, False, 1.0)},
}

FAMILY_METHODS = {
    "half-power": (Method.CLOSED_FORM, Method.ORACLE, Method.AS_PRINTED),
    "two-radical": (Method.CLOSED_FORM, Method.SERIES, Method.APPROXIMATION,
                    Method.ORACLE, Method.AS_PRINTED),
    "radical-pole": (Method.CLOSED_FORM, Method.SERIES, Method.APPROXIMATION,
                     Method.ORACLE, Method.AS_PRINTED),
    "lommel": (Method.CLOSED_FORM, Method.SERIES, Method.ORACLE, Method.AS_PRINTED),
    "log-half-power": (Method.CLOSED_FORM, Method.SERIES, Method.ORACLE),
    "three-radical": (Method.ORACLE,),
}

_GATED = {Method.CLOSED_FORM, Method.SERIES, Method.ORACLE}


def _oracle_spec(family, kernel, p):
    if family == "half-power":
        return IntegrandSpec(HalfPower(float(p["alpha"]), p["x"]), kernel, p["zeta"])
    if family == "two-radical":
        return IntegrandSpec(TwoRadical(p["a"], p["b"]), kernel, p["zeta"])
    if family == "radical-pole":
        return IntegrandSpec(RadicalPole(p["a"], p["b"]), kernel, p["zeta"])
    if family == "three-radical":
        return IntegrandSpec(ThreeRadical(p["a"], p["b"], p["c3"]), kernel, p["zeta"])
    if family == "lommel":
        exponent = lm.GeneralExponent(p["n"], p["m"]).exponent(p["plus_one"])
        return IntegrandSpec(HalfPower(exponent - 0.5, p["x"]), kernel, p["zeta"])
    if family == "log-half-power":
        if kernel is not Kernel.SIN:
            raise DomainError("the log-half-power family is sine-kernel only")
        return IntegrandSpec(LogHalfPower(p["x"]), Kernel.SIN, 1.0)
    raise DomainError(f"unknown family {family!r}")


def evaluate(family, method, kernel, p, ctl):
    """Returns (value, err_estimate)."""
    if method is Method.ORACLE:
        rep = integrate_semi_infinite(_oracle_spec(family, kernel, p), ctl)
        return rep.value, rep.abs_err_est
    series_est = lambda v: abs(v) * ctl.rel_tol

    if family == "half-power":
        fn = hp.s_alpha if kernel is Kernel.SIN else hp.c_alpha
        if method is Method.CLOSED_FORM:
            v = fn(p["alpha"], p["x"], p["zeta"])
        elif method is Method.AS_PRINTED:
            v = fn(p["alpha"], p["x"], p["zeta"], as_printed=True)
        else:
            raise DomainError(f"half-power does not support method {method.value}")
        return v, series_est(v)

    if family == "two-radical":
        a, b, zeta = p["a"], p["b"], p["zeta"]
        sin_side = kernel is Kernel.SIN
        if method is Method.CLOSED_FORM:
            v = tr.sin_transform(a, b, zeta, ctl) if sin_side else tr.cos_transform(a, b, zeta, ctl)
            return v, series_est(v)
        if method is Method.SERIES:
            v = (tr.sin_transform(a, b, zeta, ctl, heads_by_quadrature=True) if sin_side
                 else tr.cos_transform(a, b, zeta, ctl, heads_by_quadrature=True))
            return v, series_est(v)
        if method is Method.APPROXIMATION:
            v = (tr.approx_sin_transform(a, b, zeta) if sin_side
                 else tr.approx_cos_transform(a, b, zeta))
            return v, 0.0
        if method is Method.AS_PRINTED:
            v = (tr.approx_sin_transform(a, b, zeta, as_printed=True) if sin_side
                 else tr.approx_cos_transform(a, b, zeta, as_printed=True))
            return v, 0.0

    if family == "radical-pole":
        a, b, zeta = p["a"], p["b"], p["zeta"]
        sin_side = kernel is Kernel.SIN
        fn = rp.pole_sin_transform if sin_side else rp.pole_cos_transform
        if method is Method.CLOSED_FORM:
            v = fn(a, b, zeta, ctl)
            return v, series_est(v)
        if method is Method.SERIES:
            v = fn(a, b, zeta, ctl, heads_by_quadrature=True)
            return v, series_est(v)
        if method is Method.APPROXIMATION:
            v = (rp.approx_pole_sin_transform(a, b, zeta) if sin_side
                 else rp.approx_pole_cos_transform(a, b, zeta))
            return v, 0.0
        if method is Method.AS_PRINTED:
            v = fn(a, b, zeta, ctl, as_printed=True)
            return v, 0.0

    if family == "lommel":
        n, m, x, zeta, plus_one = p["n"], p["m"], p["x"], p["zeta"], p["plus_one"]
        sin_side = kernel is Kernel.SIN
        if method is Method.CLOSED_FORM:
            v = (lm.general_sin_transform(n, m, x, zeta, plus_one, ctl) if sin_side
                 else lm.general_cos_transform(n, m, x, zeta, plus_one, ctl))
            return v, series_est(v)
        if method is Method.SERIES:
            if plus_one:
                raise DomainError(
                    "the si/ci representation covers the base exponent family only "
                    "(drop --plus-one)")
            v = lm.si_ci_representation(n, m, x, zeta, kernel, ctl)
            return v, series_est(v)
        if method is Method.AS_PRINTED:
            exponent = lm.GeneralExponent(n, m).exponent(plus_one)
            u = zeta * x
            if sin_side:
                v = (zeta ** (exponent - 1.0) * (u ** 0.5)
                     * lm.lommel_s_half(0.5 - exponent, u, ctl, as_printed=True))
            else:
                v = (zeta ** (exponent - 1.0) * exponent * (u ** 0.5)
                     * lm.lommel_s_half(-(exponent + 0.5), u, ctl, as_printed=True))
            return v, 0.0

    if family == "log-half-power":
        if kernel is not Kernel.SIN:
            raise DomainError("the log-half-power family is sine-kernel only")
        if method is Method.CLOSED_FORM:
            v = lm.log_weighted_sin_integral(p["x"], ctl)
            return v, series_est(v)
        if method is Method.SERIES:
            v = lm.log_weighted_sin_integral_fd(p["x"], ctl=ctl)
            return v, abs(v) * 1e-7

    raise DomainError(f"family {family!r} does not support method {method.value!r}")


# --------------------------------------------------------------------------
# argument plumbing
# --------------------------------------------------------------------------

def _add_common(sub, families, sweep=False):
    sub.add_argument("--family", required=True, choices=families)
    sub.add_argument("--kernel", default="sin", choices=["sin", "cos"])
    sub.add_argument("--rel-tol", type=float, default=None,
                     help="series tolerance (default: OSCINT_REL_TOL or 1e-12)")
    sub.add_argument("--max-terms", type=int, default=None)
    sub.add_argument("--timing", action="store_true",
                     help="include elapsed_us (breaks byte-reproducibility)")
    cast = str if sweep else None
    sub.add_argument("--alpha", type=cast or int)
    sub.add_argument("--n", type=cast or int)
    sub.add_argument("--m", type=cast or int)
    sub.add_argument("--plus-one", action="store_true", dest="plus_one")
    sub.add_argument("--x", type=cast or float)
    sub.add_argument("--a", type=cast or float)
    sub.add_argument("--b", type=cast or float)
    sub.add_argument("--c3", type=cast or float)
    sub.add_argument("--zeta", type=cast or float)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="oscint",
        description="Fourier sine/cosine transforms of irrational integrands")
    subs = ap.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate one point")
    _add_common(ev, [f for f in FAMILY_METHODS])
    ev.add_argument("--method", default="closed-form",
                    choices=[m.value for m in Method])
    ev.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="shorthand for --method as-printed")
    ev.add_argument("--format", default="json", choices=["json", "csv"])

    cp = subs.add_parser("compare", help="all methods side by side")
    _add_common(cp, [f for f in FAMILY_METHODS if len(FAMILY_METHODS[f]) >= 2])
    cp.add_argument("--tol", type=float, default=1e-8,
                    help="gate on deviations among exact methods")
    cp.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="add the verbatim-formula column")
    cp.add_argument("--format", default="json", choices=["json", "csv"])

    tb = subs.add_parser("table", help="parameter sweep (comma-separated values)")
    _add_common(tb, [f for f in FAMILY_METHODS], sweep=True)
    tb.add_argument("--method", default="closed-form",
                    choices=[m.value for m in Method])
    tb.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="shorthand for --method as-printed")
    tb.add_argument("--format", default="csv", choices=["json", "csv"])

    orc = subs.add_parser("oracle", help="direct quadrature")
    _add_common(orc, list(_FAMILY_PARAMS))
    orc.add_argument("--format", default="json", choices=["json", "csv"])

    sc = subs.add_parser("selfcheck", help="run the invariant suite")
    sc.add_argument("--only", action="append", default=None,
                    metavar="GROUP", help="run only the named group(s)")
    sc.add_argument("--json", action="store_true")
    sc.add_argument("--list", action="store_true", help="list group names")
    sc.add_argument("--seed", type=int, default=None,
                    help="accepted for interface parity; the suite is "
                         "deterministic and ignores it")
    return ap


def _collect_params(args, family, sweep=False):
    spec = _FAMILY_PARAMS[family]
    out = {}
    for name, (typ, required, default) in spec.items():
        raw = getattr(args, name, None)
        if typ is bool:
            out[name] = [bool(raw)]
            continue
        if raw is None:
            if required:
                raise DomainError(f"family {family!r} requires --{name.replace('_', '-')}")
            out[name] = [default]
            continue
        if sweep:
            vals = [typ(v) for v in str(raw).split(",") if v != ""]
            if not vals:
                raise DomainError(f"empty value list for --{name}")
            out[name] = vals
        else:
            if isinstance(raw, str) and "," in raw:
                raise DomainError(f"--{name} accepts a single value here (use `table` to sweep)")
            out[name] = [typ(raw)]
        if typ is float:
            bad = [v for v in out[name] if not math.isfinite(v)]
            if bad:
                raise DomainError(f"--{name} must be finite, got {bad[0]}")
    return out


def _param_grid(lists):
    import itertools
    keys = list(lists)
    for combo in itertools.product(*(lists[k] for k in keys)):
        yield dict(zip(keys, combo))


def _emit(records, fmt, timing, stream):
    if fmt == "json":
        for rec in records:
            stream.write(json.dumps(rec.as_dict(timing), sort_keys=True) + "\n")
        return
    rows = [rec.as_dict(timing) for rec in records]
    param_keys = sorted({k for row in rows for k in row["params"]})
    writer = csv.writer(stream, lineterminator="\n")
    header = ["family", "method"] + param_keys + ["value", "err_estimate"]
    if timing:
        header.append("elapsed_us")
    writer.writerow(header)
    for row in rows:
        line = [row["family"], row["method"]]
        line += [row["params"].get(k, "") for k in param_keys]
        line += [repr(row["value"]), repr(row["err_estimate"])]
        if timing:
            line.append(row["elapsed_us"])
        writer.writerow(line)


def _make_ctl(args):
    return control_from_env(rel_tol=getattr(args, "rel_tol", None),
                            max_terms=getattr(args, "max_terms", None))


def _record(family, method, kernel, params, ctl):
    t0 = time.perf_counter()
    try:
        value, err = evaluate(family, method, kernel, params, ctl)
    except UnsupportedError as exc:
        # no closed form for these parameters: fall back to quadrature
        print(f"notice: {exc}; falling back to the oracle", file=sys.stderr)
        method = Method.ORACLE
        value, err = evaluate(family, method, kernel, params, ctl)
    elapsed = int((time.perf_counter() - t0) * 1e6)
    shown = {k: v for k, v in params.items() if not (k == "plus_one" and not v)}
    shown["kernel"] = kernel.value
    return OutputRecord(family, shown, method.value, value, err, elapsed)


def cmd_eval(args, stream, sweep=False):
    ctl = _make_ctl(args)
    kernel = Kernel(args.kernel)
    method = Method.AS_PRINTED if getattr(args, "as_printed", False) else Method(args.method)
    if method not in FAMILY_METHODS[args.family]:
        raise DomainError(
            f"family {args.family!r} supports methods: "
            + ", ".join(m.value for m in FAMILY_METHODS[args.family]))
    lists = _collect_params(args, args.family, sweep=sweep)
    records = [_record(args.family, method, kernel, p, ctl) for p in _param_grid(lists)]
    _emit(records, args.format, args.timing, stream)
    return 0


def cmd_oracle(args, stream):
    ctl = _make_ctl(args)
    kernel = Kernel(args.kernel)
    lists = _collect_params(args, args.family)
    records = []
    extras = []
    for p in _param_grid(lists):
        t0 = time.perf_counter()
        rep = integrate_semi_infinite(_oracle_spec(args.family, kernel, p), ctl)
        elapsed = int((time.perf_counter() - t0) * 1e6)
        shown = dict(p)
        shown["kernel"] = kernel.value
        records.append(OutputRecord(args.family, shown, Method.ORACLE.value,
                                    rep.value, rep.abs_err_est, elapsed))
        extras.append({"zero_intervals_used": rep.zero_intervals_used,
                       "accelerated": rep.accelerated})
    if args.format == "json":
        for rec, extra in zip(records, extras):
            d = rec.as_dict(args.timing)
            d.update(extra)
            stream.write(json.dumps(d, sort_keys=True) + "\n")
    else:
        _emit(records, args.format, args.timing, stream)
    return 0


def cmd_compare(args, stream):
    ctl = _make_ctl(args)
    kernel = Kernel(args.kernel)
    lists = _collect_params(args, args.family)
    params = next(_param_grid(lists))
    methods = [m for m in FAMILY_METHODS[args.family]
               if m is not Method.AS_PRINTED or args.as_printed]
    values = {}
    skipped = {}
    for m in methods:
        try:
            values[m.value], _ = evaluate(args.family, m, kernel, params, ctl)
        except DomainError as exc:
            # e.g. approximation tier outside gamma <= 1
            skipped[m.value] = str(exc)
    deviations = {}
    gate = 0.0
    names = sorted(values)
    for i, m1 in enumerate(names):
        for m2 in names[i + 1:]:
            scale = max(abs(values[m1]), abs(values[m2]), 1e-300)
            dev = abs(values[m1] - values[m2]) / scale
            deviations[f"{m1}|{m2}"] = dev
            if Method(m1) in _GATED and Method(m2) in _GATED:
                gate = max(gate, dev)
    ok = gate <= args.tol
    doc = {
        "family": args.family,
        "params": {**params, "kernel": kernel.value},
        "values": values,
        "skipped": skipped,
        "deviations": deviations,
        "gated_max_deviation": gate,
        "tol": args.tol,
        "ok": ok,
    }
    if args.format == "json":
        stream.write(json.dumps(doc, sort_keys=True) + "\n")
    else:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["method", "value"])
        for name in names:
            writer.writerow([name, repr(values[name])])
        writer.writerow(["gated_max_deviation", repr(gate)])
        writer.writerow(["ok", ok])
    return 0 if ok else 1


def cmd_selfcheck(args, stream):
    from . import selfcheck

    if args.list:
        for name in selfcheck.group_names():
            stream.write(name + "\n")
        return 0
    results = selfcheck.run(only=args.only)
    groups = {}
    for r in results:
        groups.setdefault(r.group, []).append(r)
    all_ok = True
    report = []
    for name, items in groups.items():
        passed = sum(r.passed for r in items)
        ok = passed == len(items)
        all_ok &= ok
        report.append({
            "group": name,
            "passed": passed,
            "total": len(items),
            "ok": ok,
            "failures": [{"name": r.name, "detail": r.detail}
                         for r in items if not r.passed],
        })
    if args.json:
        stream.write(json.dumps({"groups": report, "ok": all_ok}, sort_keys=True) + "\n")
    else:
        for g in report:
            stream.write(f"{'PASS' if g['ok'] else 'FAIL'} {g['group']} "
                         f"({g['passed']}/{g['total']})\n")
            for f in g["failures"]:
                stream.write(f"     failed: {f['name']}  {f['detail']}\n")
        stream.write(("all checks passed" if all_ok else "FAILURES present") + "\n")
    return 0 if all_ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    stream = sys.stdout
    try:
        if args.command == "eval":
            return cmd_eval(args, stream)
        if args.command == "table":
            return cmd_eval(args, stream, sweep=True)
        if args.command == "compare":
            return cmd_compare(args, stream)
        if args.command == "oracle":
            return cmd_oracle(args, stream)
        if args.command == "selfcheck":
            return cmd_selfcheck(args, stream)
        raise AssertionError(args.command)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
