"""Which ``src/oscint`` statements a benchmark workload reaches, and how often.

    python3 tools/traffic.py --workload closed-grid --seed 1 [--requests 200] [--lines]

In a fresh interpreter it imports every module of this working tree's ``oscint``
and runs the seed's benchmark requests once (``perfbench/workloads.py``, read
only, or its first ``--requests``): closed-grid by the public closed forms,
oracle-grid by ``integrate_semi_infinite``; a request that raises counts too.
Under ``sys.settrace`` it prints, per ``def`` in ``src/oscint`` (a lambda counts
in its statement), the statements that ran at least once out of all of them (a
docstring is none), how often its first statement ran per request (its calls,
not a generator's resumptions) and the lines of the statements that never ran;
``--record PATH`` writes the same as JSON.

``--lines`` then runs the same requests once more, in the same order, and prints
``<module>.lines_per_req``: the line events per request in each ``src/oscint``
module.  The first pass has warmed every cache, so the count is exact and does not
depend on what ran before: two such passes count the same.  It weighs no C-level
work (``cmath``, numpy, libm) and depends on the Python version, so it stands
beside wall-clock medians and does not replace them.

``--parent REV`` prints only that count, for a parent and for this working tree:

    python3 tools/traffic.py --workload closed-grid --seed 1 --requests 3000 --parent HEAD

The two checkouts come from ``bench_pairs.trees``, and in each a child that
``bench_pairs.call`` starts runs one warm pass and one counted pass, by this
script.

``--cells`` instead times the requests, with no tracer: after one warm pass it
runs three more (``_PASSES``), keeps each request's best, and prints per
(family, stratum) the share of the requests, the share of the summed bests (time)
and the median and p99 of the bests in microseconds, dearest cell first:

    python3 tools/traffic.py --workload closed-grid --seed 1 --cells [--parent HEAD]

With ``--parent REV`` it times the parent and this working tree in children as
above, two each, the side that runs first alternating from round to round; each
request keeps its best over the rounds, and each column prints as parent ->
change.  Times are wall clock and move with the machine's load; read a move
between sides as a ratio, beside ``bench_pairs``' paired runs.  Standard
library only.
"""

import argparse
import ast
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oscint"
_PASSES = 3     # --cells: timed passes after the warm one; each request keeps its best
_ROUNDS = 2     # --cells --parent: children per side, the first side alternating


def _own(node):     # the statements under node, not those of a def or class in it
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        if not isinstance(child, (ast.FunctionDef, ast.ClassDef, ast.expr)):
            yield from _own(child)


def functions(path):
    """(first line, name, [(line, end line) per statement]) of each def in ``path``;
    a def's first line is its first decorator's, as in its code object."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            doc = node.body[0] if ast.get_docstring(node) is not None else None
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((first, node.name,
                        [(s.lineno, s.end_lineno) for s in _own(node) if s is not doc]))
    return sorted(out)


def requests(workload, seed, count, root=ROOT):
    """[(request, call)] of the seed's first ``count`` requests: ``call()`` evaluates
    its request once by the ``oscint`` of checkout ``root``, this working tree by
    default; a request that raises counts too."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import oscint
    import workloads as wl

    for path in (root / "src" / "oscint").glob("[!_]*.py"):
        importlib.import_module("oscint." + path.stem)
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    def call(req):
        try:
            if workload == "oracle-grid":
                oscint.integrate_semi_infinite(wl.oracle_spec(oscint, req))
            else:
                wl.closed_call(oscint, req)()
        except Exception:       # a failed request ran its lines too
            pass

    return [(req, lambda req=req: call(req))
            for req in wl.generate(workload, seed, wl.request_count(workload, seconds))[:count]]


def load(workload, seed, count, root=ROOT):
    """(run, requests): ``run()`` evaluates the seed's first ``count`` requests once, in
    order, each by the ``oscint`` of checkout ``root``, this working tree by default."""
    calls = [call for _, call in requests(workload, seed, count, root)]

    def run():
        for call in calls:
            call()

    return run, len(calls)


def trace(run):
    """The (file, line) pairs one pass of ``run`` ran, and calls per (file, first line, name)."""
    prefix, lines, calls = str(SRC), set(), Counter()

    def tracer(frame, event, arg):
        code = frame.f_code
        if event == "line":
            lines.add((code.co_filename, frame.f_lineno))
        elif not code.co_filename.startswith(prefix):     # a call from outside src/oscint
            return None
        elif event == "call" and frame.f_lineno == code.co_firstlineno:   # not a resumption
            calls[code.co_filename, code.co_firstlineno, code.co_name] += 1
        return tracer

    sys.settrace(tracer)
    run()
    sys.settrace(None)
    return lines, calls


def count_lines(run, src=SRC):
    """Line events per module stem of ``src`` (``src/oscint``) in one pass of ``run``."""
    prefix, events = str(src), Counter()

    def tracer(frame, event, arg):
        if event == "line":
            events[frame.f_code.co_filename] += 1
        elif not frame.f_code.co_filename.startswith(prefix):
            return None
        return tracer

    sys.settrace(tracer)
    run()
    sys.settrace(None)
    return {Path(name).stem: count for name, count in sorted(events.items())}


def lines_per_req(root, workload, seed, count):
    """{module stem: line events per request} of checkout ``root``, where
    ``bench_pairs.call`` runs this: one pass over the requests to warm every cache,
    one counted."""
    root = Path(root)
    run, n = load(workload, seed, count, root)
    run()
    return {stem: events / n for stem, events in count_lines(run, root / "src" / "oscint").items()}


def best_times(root, workload, seed, count):
    """[[family stratum, microseconds]] per request of checkout ``root``, where
    ``bench_pairs.call`` runs this: its best of ``_PASSES`` passes over the requests in
    order, after one warm pass."""
    calls = requests(workload, seed, count, Path(root))
    best = [float("inf")] * len(calls)
    clock = time.perf_counter
    for timed in [False] + [True] * _PASSES:
        for i, (_, call) in enumerate(calls):
            start = clock()
            call()
            if timed:
                best[i] = min(best[i], clock() - start)
    return [[f"{req.family} {req.stratum}", 1e6 * t] for (req, _), t in zip(calls, best)]


def cell_rows(times):
    """Rows {"cell", "request_share", "time_share", "median_us", "p99_us"} of the
    ``best_times`` list ``times``, dearest cell first."""
    cells = defaultdict(list)
    for cell, t in times:
        cells[cell].append(t)
    total = sum(t for _, t in times)
    rows = [{"cell": cell, "request_share": len(ts) / len(times), "time_share": sum(ts) / total,
             "median_us": statistics.median(ts),
             "p99_us": statistics.quantiles(ts, n=100, method="inclusive")[98]
             if len(ts) > 1 else ts[0]}
            for cell, ts in cells.items()]
    return sorted(rows, key=lambda row: -row["time_share"])


def print_cells(args):
    """Print (and with ``--record`` write) the cell table of this tree, or with
    ``--parent`` of the parent and this tree side by side."""
    if args.parent:
        import bench_pairs

        sides = dict.fromkeys(("parent", "change"))
        with bench_pairs.trees(args.parent) as roots:
            order = list(zip(sides, roots))
            for i in range(_ROUNDS):
                # the side that runs first alternates; each request keeps its best
                for side, root in order if i % 2 == 0 else order[::-1]:
                    got = bench_pairs.call(root, "traffic", "best_times", str(root),
                                           args.workload, args.seed, args.requests)
                    sides[side] = got if sides[side] is None else [
                        [cell, min(t, old)] for (cell, t), (_, old) in zip(got, sides[side])]
    else:
        sides = {"change": best_times(ROOT, args.workload, args.seed, args.requests)}
    tables = {side: {row["cell"]: row for row in cell_rows(t)} for side, t in sides.items()}
    columns = ("request_share", "time_share", "median_us", "p99_us")
    n = len(sides["change"])
    print(f"{args.workload} seed {args.seed}: {n} requests, best of {_PASSES} warm passes"
          + (f" in each of {_ROUNDS} rounds, parent {args.parent} -> working tree"
             if args.parent else ""))
    print(f"{'cell':<26}" + "".join(f"{name:>22}" for name in columns))
    show = lambda col, v: f"{100 * v:.1f}%" if col.endswith("share") else f"{v:.1f}"
    for cell in tables["change"]:
        cols = (" -> ".join(show(col, table[cell][col]) for table in tables.values())
                for col in columns)
        print(f"{cell:<26}" + "".join(f"{text:>22}" for text in cols))
    if args.record:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "requests": n,
             "passes": _PASSES, "parent": args.parent,
             "cells": {side: list(table.values()) for side, table in tables.items()}},
            indent=1) + "\n")
    return 0


def compare_parent(args):
    """Print (and with ``--record`` write) lines_per_req of ``args.parent`` and this tree."""
    import bench_pairs

    with bench_pairs.trees(args.parent) as roots:
        parent, change = (bench_pairs.call(root, "traffic", "lines_per_req", str(root),
                                           args.workload, args.seed, args.requests)
                          for root in roots)
    print(f"{args.workload} seed {args.seed}: parent {args.parent} vs working tree")
    rows = {stem: {"parent": parent.get(stem, 0.0), "change": change.get(stem, 0.0)}
            for stem in sorted({*parent, *change})}
    for stem, row in rows.items():
        print(f"{stem}.lines_per_req parent {row['parent']:.2f} change {row['change']:.2f}")
    if args.record:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "requests": args.requests,
             "parent": args.parent, "lines_per_req": rows}, indent=1) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("closed-grid", "oracle-grid"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--requests", type=int, help="only the first N requests")
    ap.add_argument("--record", type=Path, help="also write the table as JSON here")
    ap.add_argument("--lines", action="store_true",
                    help="also count line events per module in a second, warm pass")
    ap.add_argument("--parent", help="count only line events per module (with --cells: "
                                     "time the cells), at this git revision and in this "
                                     "working tree")
    ap.add_argument("--cells", action="store_true",
                    help="time the requests and print the table per (family, stratum)")
    args = ap.parse_args(argv)
    if args.cells:
        return print_cells(args)
    if args.parent:
        return compare_parent(args)
    run, n = load(args.workload, args.seed, args.requests)
    lines, calls = trace(run)
    print(f"{args.workload} seed {args.seed}: {n} requests")
    rows = []
    for path in sorted(SRC.glob("*.py")):
        for first, name, stmts in functions(path):
            ran = [any((str(path), k) in lines for k in range(a, b + 1)) for a, b in stmts]
            rows.append(row := {
                "function": f"{path.stem}.{name}", "line": first, "ran": sum(ran),
                "statements": len(stmts), "calls_per_req": calls[str(path), first, name] / n,
                "never": [a for (a, _), hit in zip(stmts, ran) if not hit]})
            print(f"{row['function']:<44} {row['ran']:>3}/{row['statements']:<3} "
                  f"{row['calls_per_req']:>9.3f}/req  never {row['never'] or '-'}")
    record = {"workload": args.workload, "seed": args.seed, "requests": n, "functions": rows}
    if args.lines:
        record["lines_per_req"] = {stem: count / n for stem, count in count_lines(run).items()}
        for stem, per_req in record["lines_per_req"].items():
            print(f"{stem}.lines_per_req {per_req:.2f}")
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
