"""Before/after pairs of the benchmark: a parent commit against this working tree.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --workload oracle-grid --seeds 1001-1010

``trees`` makes the two checkouts, which every tool here compares (each
runs its code in them through ``call``): the parent (``--parent``, default
``HEAD``) by ``git archive`` and a fresh copy of this working tree, in one
temporary directory (under ``--workdir`` if given) removed at the end.
The copy holds the tracked files and the untracked ones git does not
ignore, so neither side holds bytecode the other must compile
(``__pycache__`` is ignored).  For each seed the unchanged
``perfbench/run.py`` runs once in each copy, and the side that runs
first alternates from pair to pair, so a drift of the machine's pace
falls on both sides alike.  Per metric the script prints each side's
median and quartiles, the change's relative move of the
median, how many pairs the change won, and whether the medians differ by
more than the parent's interquartile range; it then lists every pair
whose ``failed`` counts differ.  An end-to-end metric is marked
``REGRESSED`` when the change's median is worse than the parent's by
more than the metric's ``bound`` (relative), and ``unresolved`` when
the parent's own interquartile range exceeds that bound as a share of
its median, so the runs cannot show a regression of the bound's size,
unless every run of the change is better than every run of the parent.
Above the table it prints each side's ``src/oscint`` line count (lines
of its ``*.py`` files) and AST node count (what a process compiles when it
finds no cached bytecode), so size stands next to speed.  The run length
(``run_seconds``), which way is better for each metric and the end-to-end
bounds are read from ``BENCHMARK.json``.

Only the standard library is used.  The runs' own records are removed
with the copies; ``--record`` writes the raw pairs as JSON to a path of
your choice, and ``--summary PATH`` the table: per metric and side the
median and quartiles, and the wins, with the seeds and each side's
``src/oscint`` line and AST node counts, under the workload's name in PATH's
``workloads``, so one file (a ``BENCH_<n>.json``) collects the
workloads of a change.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# ``call``'s child: argv is (sys.path entries..., tool, function) and stdin the
# arguments as a JSON list; it prints the result as one line of JSON
_CHILD = """import importlib, json, sys
*path, tool, function = sys.argv[1:]
sys.path[:0] = path
print(json.dumps(getattr(importlib.import_module(tool), function)(*json.load(sys.stdin))))
"""


def parse_seeds(text):
    """"1001-1010" or "5,7,9" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def directions(benchmark):
    """{metric: "higher" or "lower"} from a parsed BENCHMARK.json."""
    return {m["name"]: m["better"]
            for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def bounds(benchmark):
    """{end-to-end metric: relative bound} from a parsed BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in benchmark.get("end_to_end", []) if "bound" in m}


def src_lines(root):
    """Lines in the ``*.py`` files of ``src/oscint`` under checkout ``root``."""
    return sum(len(path.read_bytes().splitlines())
               for path in (Path(root) / "src" / "oscint").glob("*.py"))


def src_ast_nodes(root):
    """AST nodes in the ``*.py`` files of ``src/oscint`` under checkout ``root``."""
    return sum(sum(1 for _ in ast.walk(ast.parse(path.read_bytes())))
               for path in (Path(root) / "src" / "oscint").glob("*.py"))


def format_size(lines, nodes):
    """``lines`` and ``nodes``, each a (parent, change) pair of counts, as one line."""
    return "; ".join(f"{what}: parent {p}, change {c} ({c - p:+d})"
                     for what, (p, c) in (("src/oscint lines", lines), ("AST nodes", nodes)))


def run_once(root, workload, seed, seconds, trace):
    """One benchmark run in checkout ``root``: {"failed": n, "metrics": {name: value}}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"run in {root} (seed {seed}) exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": last["failed"],
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, better, bound=None):
    """One row per metric of the pairs [(parent run, change run), ...].

    A run is ``run_once``'s dict.  A pair counts as a win when the change
    is strictly better in the metric's direction (``better[name]``,
    "lower" where unknown).  ``resolved`` is true when there are at least
    two pairs and the medians differ by more than the parent's
    interquartile range.  For a metric with a relative bound
    (``bound[name]``), ``regressed`` is true when the change's median is
    worse than the parent's by more than the bound, and ``unresolved``
    when the parent's interquartile range exceeds the bound times its
    median, unless every change run beats every parent run.
    """
    bound = bound or {}
    rows = []
    for name in pairs[0][0]["metrics"]:
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        higher = better.get(name, "lower") == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = _quartiles(parent), _quartiles(change)
        limit = bound.get(name)
        worse = (pq[1] - cq[1]) if higher else (cq[1] - pq[1])
        all_better = min(change) > max(parent) if higher else max(change) < min(parent)
        rows.append({
            "name": name, "better": "higher" if higher else "lower",
            "parent": pq, "change": cq,
            "move": (cq[1] - pq[1]) / pq[1] if pq[1] else None,
            "wins": wins, "pairs": len(pairs),
            "resolved": len(pairs) > 1 and abs(cq[1] - pq[1]) > pq[2] - pq[0],
            "regressed": limit is not None and worse > limit * abs(pq[1]),
            "unresolved": (limit is not None and pq[2] - pq[0] > limit * abs(pq[1])
                           and not all_better),
        })
    return rows


def failed_differences(pairs, seeds):
    """[(seed, parent failed, change failed)] for the pairs that differ."""
    return [(s, p["failed"], c["failed"])
            for s, (p, c) in zip(seeds, pairs) if p["failed"] != c["failed"]]


def format_rows(rows):
    lines = []
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        move = "   n/a" if r["move"] is None else f"{100 * r['move']:+6.1f}%"
        lines.append(
            f"{r['name']:<44} ({r['better']:>6}) parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {move}  wins {r['wins']}/{r['pairs']}"
            f"{'  resolved' if r['resolved'] else ''}{'  REGRESSED' if r['regressed'] else ''}"
            f"{'  unresolved' if r['unresolved'] else ''}")
    return lines


def summary_entry(parent, seeds, trace, lines, nodes, rows):
    """One workload's ``--summary`` entry; ``lines`` and ``nodes`` are
    (parent, change) ``src/oscint`` line and AST node counts and ``rows``
    is ``summarize``'s table."""
    quartiles = lambda q: dict(zip(("q1", "median", "q3"), q))
    sides = lambda pair: dict(zip(("parent", "change"), pair))
    return {
        "parent": parent, "seeds": seeds, "trace": trace,
        "src_oscint_lines": sides(lines), "src_oscint_ast_nodes": sides(nodes),
        "metrics": {r["name"]: {"better": r["better"], "parent": quartiles(r["parent"]),
                                "change": quartiles(r["change"]), "wins": r["wins"],
                                "pairs": r["pairs"]}
                    for r in rows},
    }


def write_summary(path, workload, entry):
    """Set ``workload``'s entry in the summary file ``path``, keeping the others."""
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["workloads"][workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def extract(rev, dest):
    """``git archive rev`` of this repository, unpacked into ``dest``."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                          check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def snapshot(dest):
    """Copy this working tree into ``dest``: the tracked files as they are
    now and the untracked ones git does not ignore, so no ``__pycache__``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, capture_output=True, check=True).stdout
    for name in names.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():      # a tracked file deleted in the tree is skipped
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, Path(dest) / name)


@contextlib.contextmanager
def trees(parent, workdir=None):
    """(parent root, change root): ``extract`` of ``parent`` and ``snapshot`` of this
    working tree, in one temporary directory (under ``workdir`` if given) that is
    removed at the end."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=workdir) as tmp:
        roots = Path(tmp) / "parent", Path(tmp) / "change"
        extract(parent, roots[0])
        snapshot(roots[1])
        yield roots


def call(root, tool, function, *args):
    """``function(*args)`` of this tree's ``tools/<tool>.py``, in a fresh interpreter
    whose working directory is checkout ``root``, with ``root/src`` and
    ``root/perfbench`` first on ``sys.path``; the arguments and the result pass as
    JSON.  A child that fails raises ``RuntimeError`` with the tail of its stderr."""
    path = [str(root / "src"), str(root / "perfbench"), str(ROOT / "tools")]
    proc = subprocess.run([sys.executable, "-c", _CHILD, *path, tool, function], cwd=root,
                          input=json.dumps(args), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tool}.{function} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help='seed range and list, e.g. "1001-1010" or "5,7"')
    ap.add_argument("--parent", default="HEAD", help="git revision to compare against")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="also write the raw pairs as JSON here")
    ap.add_argument("--summary", type=Path,
                    help="also write the per-metric quartiles as JSON here, "
                         "merged by workload into the file if it exists")
    ap.add_argument("--workdir", type=Path, help="where to make the two copies")
    args = ap.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better, seconds = directions(benchmark), benchmark["run_seconds"]

    pairs = []
    with trees(args.parent, args.workdir) as (parent_root, change_root):
        lines = src_lines(parent_root), src_lines(change_root)
        nodes = src_ast_nodes(parent_root), src_ast_nodes(change_root)
        for i, seed in enumerate(args.seeds):
            order = [("parent", parent_root), ("change", change_root)]
            if i % 2:
                order.reverse()
            runs = {side: run_once(root, args.workload, seed, seconds, args.trace)
                    for side, root in order}
            pairs.append((runs["parent"], runs["change"]))
            print(f"seed {seed} ({order[0][0]} first) done", file=sys.stderr)

    if args.record:
        args.record.write_text(json.dumps(
            {"workload": args.workload, "parent": args.parent, "seeds": args.seeds,
             "pairs": pairs}, indent=1) + "\n")
    rows = summarize(pairs, better, bounds(benchmark))
    if args.summary:
        write_summary(args.summary, args.workload,
                      summary_entry(args.parent, args.seeds, args.trace, lines, nodes, rows))
    print(f"{args.workload}: {len(pairs)} pairs, parent {args.parent} vs working tree")
    print(format_size(lines, nodes))
    print("\n".join(format_rows(rows)))
    for seed, p, c in failed_differences(pairs, args.seeds):
        print(f"failed differs at seed {seed}: parent {p}, change {c}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
