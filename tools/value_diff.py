"""Value-by-value comparison of a workload between a parent commit and this working tree.

Run from the root of a checkout:

    python3 tools/value_diff.py --workload oracle-grid --seeds 1-3

The parent (``--parent``, default ``HEAD``) and a fresh copy of this
working tree come from ``bench_pairs.trees`` (under ``--workdir`` if
given).  For each seed each copy evaluates, in a child that
``bench_pairs.call`` starts, every request of the benchmark's fixed list
(``perfbench/workloads.py``, at the ``run_seconds`` of
``BENCHMARK.json``): closed-grid by its public closed form, oracle-grid
by ``integrate_semi_infinite``.  A request that raises records the
exception's class name.  A closed-grid value is also graded by the
benchmark's own test (``reference`` and ``agrees`` of
``perfbench/reference.py``): a value that fails it, or a request that
raised, is wrong.

Per (family, kernel, stratum) the script prints the number of requests,
how many values differ in ``float.hex`` (or in the exception raised),
and the largest relative move of a value; for closed-grid also how many
values are wrong on each side; for oracle-grid how many
error estimates, lobe counts and counts of ``quad`` calls differ (each
request's calls of ``oracle.quad``, counted by a wrapper installed as
that module global, as the benchmark's tracer installs its own), and
``max_err_share``, the largest move of a value in units of the
parent's error estimate.
``--record PATH`` writes the table as JSON.  Only the standard library is used here; each copy runs
its own ``oscint`` and ``perfbench/workloads.py`` and ``reference.py``,
which it only reads (``reference`` takes mpmath for tiny values).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pairs  # noqa: E402

WORKLOADS = ("closed-grid", "oracle-grid")


def evaluate(workload, seed):
    """Rows of one seed's requests, evaluated by the checkout that
    ``bench_pairs.call`` runs this in: each request's cell and its result."""
    import oscint
    import workloads as wl
    from oscint import oracle
    from reference import agrees, reference

    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    quad, calls = oracle.quad, []
    oracle.quad = lambda *args, **kwargs: calls.append(None) or quad(*args, **kwargs)
    rows = []
    for req in wl.generate(workload, seed, wl.request_count(workload, seconds)):
        row = {"cell": [req.family, req.kernel, req.stratum]}
        value = None
        calls.clear()
        try:
            if workload == "oracle-grid":
                rep = oscint.integrate_semi_infinite(wl.oracle_spec(oscint, req))
                row.update(value=rep.value.hex(), err=rep.abs_err_est.hex(),
                           lobes=rep.zero_intervals_used)
            else:
                value = float(wl.closed_call(oscint, req)())
                row["value"] = value.hex()
        except Exception as exc:    # a failed request is a result too
            row["raised"] = type(exc).__name__
        if workload == "oracle-grid":
            row["quad"] = len(calls)
        else:
            try:
                row["wrong"] = not agrees(value, *reference(oscint, req, True))
            except Exception:       # as in the benchmark: no reference, no credit
                row["wrong"] = True
        rows.append(row)
    return rows


def _outcome(row):
    return row.get("value", "raised " + row.get("raised", ""))


def relative_move(parent, change):
    """|change - parent| / |parent| of two rows' values: 0 when the bits
    agree, inf when only one side raised or the parent value is 0."""
    if _outcome(parent) == _outcome(change):
        return 0.0
    if "value" not in parent or "value" not in change:
        return math.inf
    p, c = float.fromhex(parent["value"]), float.fromhex(change["value"])
    return abs(c - p) / abs(p) if p else math.inf


def err_share(parent, change):
    """|change - parent| / the parent's error estimate, of two rows that
    carry one: 0 when the values' bits agree, inf when only one side
    raised or the estimate is 0."""
    if _outcome(parent) == _outcome(change):
        return 0.0
    if "value" not in parent or "value" not in change:
        return math.inf
    move = abs(float.fromhex(change["value"]) - float.fromhex(parent["value"]))
    err = float.fromhex(parent["err"])
    return move / err if err else math.inf


def compare(parent_rows, change_rows):
    """{(family, kernel, stratum): counts} of two lists of rows of the
    same requests: ``n``, ``value_diff`` (values whose bits or exception
    differ), ``max_rel`` and, where the rows carry them, ``wrong_parent``
    and ``wrong_change`` (values that fail the benchmark's test),
    ``err_diff``, ``lobes_diff``, ``quad_diff`` (rows whose ``quad``
    call counts differ) and ``max_err_share`` (the largest
    ``err_share``)."""
    cells = {}
    for p, c in zip(parent_rows, change_rows, strict=True):
        if p["cell"] != c["cell"]:
            raise ValueError(f"the request lists differ: {p['cell']} against {c['cell']}")
        cell = cells.setdefault(tuple(p["cell"]), {"n": 0, "value_diff": 0, "max_rel": 0.0})
        cell["n"] += 1
        cell["value_diff"] += _outcome(p) != _outcome(c)
        cell["max_rel"] = max(cell["max_rel"], relative_move(p, c))
        if "wrong" in p:
            cell["wrong_parent"] = cell.get("wrong_parent", 0) + p["wrong"]
            cell["wrong_change"] = cell.get("wrong_change", 0) + c["wrong"]
        for key in ("err", "lobes", "quad"):
            if key in p or key in c:
                cell[key + "_diff"] = cell.get(key + "_diff", 0) + (p.get(key) != c.get(key))
        if "err" in p:
            cell["max_err_share"] = max(cell.get("max_err_share", 0.0), err_share(p, c))
    return cells


def _wrong(cell):
    return (f"  wrong {cell['wrong_parent']} -> {cell['wrong_change']}"
            if "wrong_parent" in cell else "")


def format_table(cells):
    lines = []
    total = {"n": 0, "value_diff": 0}
    for (fam, kernel, stratum), cell in sorted(cells.items()):
        extra = _wrong(cell) + "".join(f"  {key} {cell[key]}" for key in
                                       ("err_diff", "lobes_diff", "quad_diff") if key in cell)
        if "max_err_share" in cell:
            extra += f"  max_err_share {cell['max_err_share']:.3g}"
        lines.append(f"{fam + '/' + kernel + '/' + stratum:<32} n {cell['n']:>5}  "
                     f"value_diff {cell['value_diff']:>5}  max_rel {cell['max_rel']:.3g}{extra}")
        for key in ("n", "value_diff", "wrong_parent", "wrong_change"):
            if key in cell:
                total[key] = total.get(key, 0) + cell[key]
    lines.append(f"{'total':<32} n {total['n']:>5}  value_diff {total['value_diff']:>5}"
                 + _wrong(total))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, type=bench_pairs.parse_seeds,
                    help='seed range and list, e.g. "1-3" or "5,7"')
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--record", type=Path, help="also write the table as JSON here")
    ap.add_argument("--workdir", type=Path, help="where to make the two copies")
    args = ap.parse_args(argv)

    parent_rows, change_rows = [], []
    with bench_pairs.trees(args.parent, args.workdir) as (parent_root, change_root):
        for seed in args.seeds:
            rows = lambda root: bench_pairs.call(root, "value_diff", "evaluate",
                                                 args.workload, seed)
            parent_rows += rows(parent_root)
            change_rows += rows(change_root)
            print(f"seed {seed} done", file=sys.stderr)
    cells = compare(parent_rows, change_rows)
    if args.record:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "parent": args.parent, "seeds": args.seeds,
             "cells": [{"cell": list(key), **cell} for key, cell in sorted(cells.items())]},
            indent=1) + "\n")
    print(f"{args.workload} seeds {args.seeds}: parent {args.parent} vs working tree")
    print("\n".join(format_table(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
