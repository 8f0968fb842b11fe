"""Command-line front end.

Subcommands:

* ``eval``      one transform value per requested method
* ``compare``   side-by-side methods with pairwise deviations and a gate
* ``table``     parameter sweeps (comma-separated values), CSV by default
* ``oracle``    ``eval --method oracle``, whose JSON rows add the lobe
                count ``zero_intervals_used`` and ``accelerated``
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

``eval``, ``table`` and ``oracle`` share one row path: ``cmd_eval``
builds a plain dict per parameter point with ``_record`` and ``_emit``
writes the rows as JSON lines or CSV.

Each family is written down once, in ``FAMILIES``: its parameters, the
module of its closed forms, its methods and its oracle weight.  The
module is imported on the family's first use, so a cold ``eval`` of one
family loads none of the others; ``selfcheck`` and the oracle's numpy
load on demand too.  ``--timing`` loads the family's module and builds
the oracle's tables before the clock starts, so ``elapsed_us`` holds neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections import namedtuple
from enum import Enum
from functools import partial
from importlib import import_module

from .control import SeriesControl, control_from_env
from .errors import ConvergenceError, DomainError, Kernel, UnsupportedError
from .oracle import (
    HalfPower,
    IntegrandSpec,
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


# --------------------------------------------------------------------------
# family table
# --------------------------------------------------------------------------

# error-estimate rules: closed forms and series, then approximations and
# as-printed formulas (whose error is not estimated)
_REL = lambda v, ctl: abs(v) * ctl.rel_tol
_NONE = lambda v, ctl: 0.0


def _pair(sin, cos, ctl=True, **fixed):
    """A route through the family module's ``sin`` or ``cos`` function, looked
    up when called (so a patched wrapper is honoured), on the parameters in
    table order and the ``fixed`` keywords, plus ``ctl=`` if it takes one."""
    def route(module, kernel, p, control):
        fn = getattr(module, sin if kernel is Kernel.SIN else cos)
        return fn(*p.values(), ctl=control, **fixed) if ctl else fn(*p.values(), **fixed)
    return route


def _lommel_si_ci(lm, kernel, p, ctl):
    if p["plus_one"]:
        raise DomainError("the si/ci representation covers the base exponent family only "
                          "(drop --plus-one)")
    return lm.si_ci_representation(p["n"], p["m"], p["x"], p["zeta"], kernel, ctl)


def _lommel_as_printed(lm, kernel, p, ctl):
    exponent = lm.GeneralExponent(p["n"], p["m"]).exponent(p["plus_one"])
    return lm._exponent_transform(kernel, exponent, p["x"], p["zeta"], ctl, as_printed=True)


def _lommel_weight(p):
    lm = import_module(".lommel", __package__)
    return HalfPower(lm.GeneralExponent(p["n"], p["m"]).exponent(p["plus_one"]) - 0.5, p["x"])


# A family: its parameters {name: (type, required, default)}; the module of its
# closed forms, imported on first use; its methods besides the oracle, {method:
# (route, error-estimate rule)}, a route called as route(module, kernel, params,
# ctl); its oracle weight, built from the parameters; whether it is sine-only.
_Family = namedtuple("_Family", "params module routes weight sine_only", defaults=(False,))
_FLOAT, _ZETA = (float, True, None), (float, False, 1.0)
_CF, _SERIES, _APPROX, _PRINTED = (Method.CLOSED_FORM, Method.SERIES,
                                   Method.APPROXIMATION, Method.AS_PRINTED)

FAMILIES = {
    "half-power": _Family(
        {"alpha": (int, True, None), "x": _FLOAT, "zeta": _ZETA}, "half_power",
        {_CF: (_pair("s_alpha", "c_alpha", ctl=False), _REL),
         _PRINTED: (_pair("s_alpha", "c_alpha", ctl=False, as_printed=True), _REL)},
        lambda p: HalfPower(float(p["alpha"]), p["x"])),
    "two-radical": _Family(
        {"a": _FLOAT, "b": _FLOAT, "zeta": _ZETA}, "two_radical",
        {_CF: (_pair("sin_transform", "cos_transform"), _REL),
         _SERIES: (_pair("sin_transform", "cos_transform", heads_by_quadrature=True), _REL),
         _APPROX: (_pair("approx_sin_transform", "approx_cos_transform", ctl=False), _NONE),
         _PRINTED: (_pair("approx_sin_transform", "approx_cos_transform", ctl=False,
                          as_printed=True), _NONE)},
        lambda p: TwoRadical(p["a"], p["b"])),
    "radical-pole": _Family(
        {"a": _FLOAT, "b": _FLOAT, "zeta": _ZETA}, "radical_pole",
        {_CF: (_pair("pole_sin_transform", "pole_cos_transform"), _REL),
         _SERIES: (_pair("pole_sin_transform", "pole_cos_transform",
                         heads_by_quadrature=True), _REL),
         _APPROX: (_pair("approx_pole_sin_transform", "approx_pole_cos_transform",
                         ctl=False), _NONE),
         _PRINTED: (_pair("pole_sin_transform", "pole_cos_transform", as_printed=True), _NONE)},
        lambda p: RadicalPole(p["a"], p["b"])),
    "lommel": _Family(
        {"n": (int, True, None), "m": (int, True, None), "x": _FLOAT, "zeta": _ZETA,
         "plus_one": (bool, False, False)}, "lommel",
        {_CF: (_pair("general_sin_transform", "general_cos_transform"), _REL),
         _SERIES: (_lommel_si_ci, _REL),
         _PRINTED: (_lommel_as_printed, _NONE)},
        _lommel_weight),
    "log-half-power": _Family(
        {"x": _FLOAT}, "lommel",
        {_CF: (_pair("log_weighted_sin_integral", None), _REL),
         _SERIES: (_pair("log_weighted_sin_integral_fd", None), lambda v, ctl: abs(v) * 1e-7)},
        lambda p: LogHalfPower(p["x"]), sine_only=True),
    "three-radical": _Family(
        {"a": _FLOAT, "b": _FLOAT, "c3": _FLOAT, "zeta": _ZETA}, None, {},
        lambda p: ThreeRadical(p["a"], p["b"], p["c3"])),
}

FAMILY_METHODS = {name: tuple(m for m in Method if m is Method.ORACLE or m in fam.routes)
                  for name, fam in FAMILIES.items()}

# every family's parameters once, in help order: integers, the switch, then
# floats, required before defaulted
_PARAMS = dict(sorted({k: v for fam in FAMILIES.values() for k, v in fam.params.items()}.items(),
                      key=lambda kv: ((int, bool, float).index(kv[1][0]), not kv[1][1])))

_GATED = {Method.CLOSED_FORM, Method.SERIES, Method.ORACLE}


def _family(name, kernel):
    fam = FAMILIES[name]
    if fam.sine_only and kernel is not Kernel.SIN:
        raise DomainError(f"the {name} family is sine-kernel only")
    return fam


def _oracle_spec(family, kernel, p):
    return IntegrandSpec(_family(family, kernel).weight(p), kernel, p.get("zeta", 1.0))


def evaluate(family, method, kernel, p, ctl):
    """Returns (value, err_estimate, report fields); ``p`` holds the family's
    parameters in table order, as ``_collect_params`` builds them.  Only the
    oracle reports fields: its lobe count and whether it accelerated."""
    if method is Method.ORACLE:
        rep = integrate_semi_infinite(_oracle_spec(family, kernel, p), ctl)
        return rep.value, rep.abs_err_est, {"zero_intervals_used": rep.zero_intervals_used,
                                            "accelerated": rep.accelerated}
    fam = _family(family, kernel)
    route, estimate = fam.routes[method]
    v = route(import_module("." + fam.module, __package__), kernel, p, ctl)
    return v, estimate(v, ctl), {}


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
    for name, (typ, _, _) in _PARAMS.items():
        flag = "--" + name.replace("_", "-")
        if typ is bool:
            sub.add_argument(flag, action="store_true")
        else:
            sub.add_argument(flag, type=str if sweep else typ)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="oscint",
        description="Fourier sine/cosine transforms of irrational integrands")
    subs = ap.add_subparsers(dest="command", required=True)

    ev = subs.add_parser("eval", help="evaluate one point")
    _add_common(ev, list(FAMILIES))
    ev.add_argument("--method", default="closed-form",
                    choices=[m.value for m in Method])
    ev.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="shorthand for --method as-printed")
    ev.add_argument("--format", default="json", choices=["json", "csv"])
    ev.set_defaults(handler=cmd_eval)

    cp = subs.add_parser("compare", help="all methods side by side")
    _add_common(cp, [f for f, fam in FAMILIES.items() if fam.routes])
    cp.add_argument("--tol", type=float, default=1e-8,
                    help="gate on deviations among exact methods")
    cp.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="add the verbatim-formula column")
    cp.add_argument("--format", default="json", choices=["json", "csv"])
    cp.set_defaults(handler=cmd_compare)

    tb = subs.add_parser("table", help="parameter sweep (comma-separated values)")
    _add_common(tb, list(FAMILIES), sweep=True)
    tb.add_argument("--method", default="closed-form",
                    choices=[m.value for m in Method])
    tb.add_argument("--as-printed", action="store_true", dest="as_printed",
                    help="shorthand for --method as-printed")
    tb.add_argument("--format", default="csv", choices=["json", "csv"])
    tb.set_defaults(handler=partial(cmd_eval, sweep=True))

    orc = subs.add_parser("oracle", help="direct quadrature")
    _add_common(orc, list(FAMILIES))
    orc.add_argument("--format", default="json", choices=["json", "csv"])
    orc.set_defaults(handler=partial(cmd_eval, report=True), method=Method.ORACLE.value)

    sc = subs.add_parser("selfcheck", help="run the invariant suite")
    sc.add_argument("--only", action="append", default=None,
                    metavar="GROUP", help="run only the named group(s)")
    sc.add_argument("--json", action="store_true")
    sc.add_argument("--list", action="store_true", help="list group names")
    sc.add_argument("--seed", type=int, default=None,
                    help="accepted for interface parity; the suite is "
                         "deterministic and ignores it")
    sc.set_defaults(handler=cmd_selfcheck)
    return ap


def _collect_params(args, family, sweep=False):
    spec = FAMILIES[family].params
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
            try:
                vals = [typ(v) for v in str(raw).split(",") if v != ""]
            except ValueError:
                raise DomainError(f"--{name} needs {typ.__name__} values, got {raw!r}") from None
            if not vals:
                raise DomainError(f"empty value list for --{name}")
            out[name] = vals
        else:
            out[name] = [raw]
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


def _emit(rows, fmt, timing, stream):
    if fmt == "json":
        for row in rows:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
        return
    import csv      # here, not at module level: a cold json eval never loads it
    param_keys = sorted({k for row in rows for k in row["params"]})
    tail = ["value", "err_estimate"] + (["elapsed_us"] if timing else [])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["family", "method"] + param_keys + tail)
    for row in rows:
        writer.writerow([row["family"], row["method"]]
                        + [row["params"].get(k, "") for k in param_keys]
                        + [repr(row[k]) for k in tail])


def _make_ctl(args):
    return control_from_env(rel_tol=getattr(args, "rel_tol", None),
                            max_terms=getattr(args, "max_terms", None))


def _shown_params(params, kernel):
    """A record's params: a false ``plus_one`` left out, the kernel added."""
    return {**{k: v for k, v in params.items() if k != "plus_one" or v}, "kernel": kernel.value}


def _preload(family, kernel, ctl):
    """Load what an evaluation of ``family`` builds on first use, so that
    ``--timing`` measures the evaluation alone: the family's module, and
    numpy with the oracle's tables, from throwaway evaluations at the row's
    tolerance (and the default term cap, under which none can stall): an
    oracle integral at the row's kernel, ``two_radical._warm``'s, which build
    the tables of the a = b radicals and of the radicals past the phase guard,
    and ``lommel._warm``'s, which builds that of Lommel's series."""
    module = FAMILIES[family].module
    if module is not None:
        import_module("." + module, __package__)
    from .lommel import _warm as _warm_series
    from .two_radical import _warm

    warm = SeriesControl(ctl.rel_tol)
    integrate_semi_infinite(IntegrandSpec(HalfPower(0.0, 1.0), kernel), warm)
    _warm(warm)
    _warm_series(warm)


def _record(family, method, kernel, params, ctl, timing, report):
    """One output row; ``report`` adds the evaluation's report fields."""
    t0 = time.perf_counter()
    try:
        value, err, fields = evaluate(family, method, kernel, params, ctl)
    except UnsupportedError as exc:
        # no closed form for these parameters: fall back to quadrature
        print(f"notice: {exc}; falling back to the oracle", file=sys.stderr)
        method = Method.ORACLE
        value, err, fields = evaluate(family, method, kernel, params, ctl)
    row = {"family": family, "params": _shown_params(params, kernel), "method": method.value,
           "value": value, "err_estimate": err}
    if timing:
        row["elapsed_us"] = int((time.perf_counter() - t0) * 1e6)
    if report:
        row.update(fields)
    return row


def cmd_eval(args, stream, sweep=False, report=False):
    """``eval``; ``table`` with ``sweep`` (comma-separated values); ``oracle``
    with ``report``, whose JSON rows add the oracle's report fields."""
    ctl = _make_ctl(args)
    kernel = Kernel(args.kernel)
    method = Method.AS_PRINTED if getattr(args, "as_printed", False) else Method(args.method)
    if method not in FAMILY_METHODS[args.family]:
        raise DomainError(
            f"family {args.family!r} supports methods: "
            + ", ".join(m.value for m in FAMILY_METHODS[args.family]))
    lists = _collect_params(args, args.family, sweep=sweep)
    if args.timing:
        _preload(args.family, kernel, ctl)
    rows = [_record(args.family, method, kernel, p, ctl, args.timing, report)
            for p in _param_grid(lists)]
    _emit(rows, args.format, args.timing, stream)
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
            values[m.value] = evaluate(args.family, m, kernel, params, ctl)[0]
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
    # a gate passes only when at least two gated methods were compared
    compared = sum(Method(m) in _GATED for m in names)
    ok = compared >= 2 and gate <= args.tol
    doc = {
        "family": args.family,
        "params": _shown_params(params, kernel),
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
        import csv
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
            "worst_margin": max(r.margin for r in items),
            "failures": [{"name": r.name, "error": r.error, "tolerance": r.tolerance}
                         for r in items if not r.passed],
        })
    if args.json:
        # JSON has no NaN or infinity: a non-finite error or margin is null
        finite = lambda x: x if math.isfinite(x) else None
        report = [{**g, "worst_margin": finite(g["worst_margin"]), "failures": [
            {**f, "error": finite(f["error"])} for f in g["failures"]]} for g in report]
        stream.write(json.dumps({"groups": report, "ok": all_ok}, sort_keys=True,
                                allow_nan=False) + "\n")
    else:
        for g in report:
            stream.write(("PASS " if g["ok"] else "FAIL ")
                         + "{group} ({passed}/{total})\n".format_map(g))
            for f in g["failures"]:
                stream.write("     failed: {name}  error {error:.1e}, "
                             "tolerance {tolerance:.1e}\n".format_map(f))
        stream.write(("all checks passed" if all_ok else "FAILURES present") + "\n")
    return 0 if all_ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
