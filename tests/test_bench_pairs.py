"""tools/bench_pairs.py: the pair summary on fixed numbers, and the child harness."""

import importlib.util
import json
import pathlib
import subprocess
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs", ROOT / "tools" / "bench_pairs.py")


def _run(failed=0, **metrics):
    return {"failed": failed, "metrics": metrics}


PAIRS = [
    (_run(latency_tail_us=240.0, goodput_per_s=10.0), _run(latency_tail_us=143.0, goodput_per_s=11.0)),
    (_run(latency_tail_us=236.0, goodput_per_s=10.2), _run(latency_tail_us=140.0, goodput_per_s=10.0)),
    (_run(latency_tail_us=241.0, goodput_per_s=9.8), _run(latency_tail_us=245.0, goodput_per_s=11.2)),
    (_run(latency_tail_us=238.0, goodput_per_s=10.1), _run(latency_tail_us=144.0, goodput_per_s=10.1)),
    (_run(1, latency_tail_us=239.0, goodput_per_s=10.0), _run(latency_tail_us=142.0, goodput_per_s=11.1)),
]
BETTER = {"latency_tail_us": "lower", "goodput_per_s": "higher"}


def test_summary_medians_quartiles_and_wins():
    rows = {r["name"]: r for r in bench_pairs.summarize(PAIRS, BETTER)}
    tail = rows["latency_tail_us"]
    assert tail["parent"] == (238.0, 239.0, 240.0)
    assert tail["change"] == (142.0, 143.0, 144.0)
    assert tail["wins"] == 4 and tail["pairs"] == 5
    assert tail["move"] == pytest.approx(-96.0 / 239.0)
    assert tail["resolved"]
    good = rows["goodput_per_s"]
    assert good["better"] == "higher"
    # a tie (10.1 against 10.1) is no win
    assert good["wins"] == 3
    assert good["parent"] == (10.0, 10.0, 10.1)
    assert good["change"] == (10.1, 11.0, 11.1)
    assert good["resolved"]


def test_small_move_inside_the_parent_spread_is_unresolved():
    pairs = [(_run(p50=100.0 + d), _run(p50=99.0 + d)) for d in (0.0, 4.0, 8.0)]
    (row,) = bench_pairs.summarize(pairs, {})
    assert row["better"] == "lower"
    assert row["wins"] == 3
    assert not row["resolved"]


def test_one_pair_is_never_resolved():
    (row,) = bench_pairs.summarize([(_run(p50=100.0), _run(p50=50.0))], {})
    assert row["parent"] == (100.0, 100.0, 100.0)
    assert row["wins"] == 1
    assert not row["resolved"]


def test_failed_differences_and_seed_parsing():
    seeds = bench_pairs.parse_seeds("1001-1003,1007,1009-1009")
    assert seeds == [1001, 1002, 1003, 1007, 1009]
    assert bench_pairs.failed_differences(PAIRS, seeds) == [(1009, 1, 0)]


def test_directions_come_from_both_metric_lists():
    bench = {"end_to_end": [{"name": "goodput_per_s", "better": "higher"}],
             "per_layer": [{"name": "oracle.quad_calls_per_req", "better": "lower"}]}
    assert bench_pairs.directions(bench) == {"goodput_per_s": "higher",
                                            "oracle.quad_calls_per_req": "lower"}
    lines = bench_pairs.format_rows(bench_pairs.summarize(PAIRS, BETTER))
    assert lines[0].startswith("latency_tail_us")
    assert "wins 4/5" in lines[0] and lines[0].endswith("resolved")


def test_bounds_come_from_the_end_to_end_list():
    bench = {"end_to_end": [{"name": "latency_p50_us", "better": "lower", "bound": 0.2},
                            {"name": "correct_share", "better": "higher", "bound": 0.02}],
             "per_layer": [{"name": "oracle.quad_calls_per_req", "better": "lower"}]}
    assert bench_pairs.bounds(bench) == {"latency_p50_us": 0.2, "correct_share": 0.02}


def _rows(parent, change, better="lower", bound=0.2):
    pairs = [(_run(m=p), _run(m=c)) for p, c in zip(parent, change)]
    (row,) = bench_pairs.summarize(pairs, {"m": better}, {"m": bound})
    return row


def test_worse_median_beyond_the_bound_is_regressed():
    # lower is better: +25% on the median, parent spread 2% of its median
    row = _rows([99.0, 100.0, 101.0, 100.0, 100.0], [125.0, 124.0, 126.0, 125.0, 125.0])
    assert row["regressed"] and not row["unresolved"]
    assert bench_pairs.format_rows([row])[0].endswith("resolved  REGRESSED")
    # +15% stays inside the 20% bound
    row = _rows([99.0, 100.0, 101.0, 100.0, 100.0], [115.0, 114.0, 116.0, 115.0, 115.0])
    assert not row["regressed"] and not row["unresolved"]
    # higher is better: goodput 10 -> 7.5 is 25% worse; 10 -> 13 is no regression
    row = _rows([10.0, 10.1, 9.9], [7.5, 7.6, 7.4], better="higher")
    assert row["regressed"]
    assert not _rows([10.0, 10.1, 9.9], [13.0, 13.1, 12.9], better="higher")["regressed"]


def test_parent_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 90 and 120 around a median of 100: IQR 30% > 20%
    parent = [80.0, 90.0, 100.0, 120.0, 130.0]
    row = _rows(parent, [95.0, 105.0, 100.0, 110.0, 98.0])
    assert row["unresolved"] and not row["regressed"]
    assert bench_pairs.format_rows([row])[0].endswith("  unresolved")
    # every change run better than every parent run settles it
    assert not _rows(parent, [50.0, 60.0, 55.0, 70.0, 75.0])["unresolved"]
    # a metric without a bound gets neither mark
    pairs = [(_run(m=p), _run(m=2 * p)) for p in parent]
    (row,) = bench_pairs.summarize(pairs, {})
    assert not row["regressed"] and not row["unresolved"]


def test_source_size_counts_src_oscint_python_lines(tmp_path):
    pkg = tmp_path / "src" / "oscint"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert bench_pairs.src_lines(tmp_path) == 3


def test_source_size_counts_src_oscint_ast_nodes(tmp_path):
    # the nodes a cold process compiles when it finds no cached bytecode
    pkg = tmp_path / "src" / "oscint"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")       # Module, Assign, Name, Store, Constant
    (pkg / "b.py").write_text("")               # Module
    (pkg / "notes.txt").write_text("y = 2\n")
    assert bench_pairs.src_ast_nodes(tmp_path) == 6
    assert bench_pairs.src_ast_nodes(ROOT) > bench_pairs.src_lines(ROOT)
    assert bench_pairs.format_size((3233, 3180), (15449, 15400)) == (
        "src/oscint lines: parent 3233, change 3180 (-53); "
        "AST nodes: parent 15449, change 15400 (-49)")


def test_summary_collects_workloads_in_one_file(tmp_path):
    path = tmp_path / "BENCH.json"
    rows = bench_pairs.summarize(PAIRS, BETTER)
    entry = bench_pairs.summary_entry("HEAD", [1, 2, 3, 4, 5], 0, (3568, 3540), (15449, 15400),
                                      rows)
    bench_pairs.write_summary(path, "oracle-grid", entry)
    bench_pairs.write_summary(path, "cli-cold", {**entry, "seeds": [9]})
    doc = json.loads(path.read_text())
    assert sorted(doc["workloads"]) == ["cli-cold", "oracle-grid"]
    got = doc["workloads"]["oracle-grid"]
    assert got["seeds"] == [1, 2, 3, 4, 5]
    assert got["src_oscint_lines"] == {"parent": 3568, "change": 3540}
    assert got["src_oscint_ast_nodes"] == {"parent": 15449, "change": 15400}
    tail = got["metrics"]["latency_tail_us"]
    assert tail["parent"] == {"q1": 238.0, "median": 239.0, "q3": 240.0}
    assert tail["change"] == {"q1": 142.0, "median": 143.0, "q3": 144.0}
    assert tail["better"] == "lower" and tail["wins"] == 4 and tail["pairs"] == 5
    assert doc["workloads"]["cli-cold"]["seeds"] == [9]


def test_change_side_is_a_copy_without_bytecode(tmp_path):
    # the working tree may hold valid bytecode that a fresh parent copy
    # has to compile; the change side must start as cold as the parent
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                            capture_output=True, text=True)
    if inside.stdout.strip() != "true":
        pytest.skip("not a git working tree")
    bench_pairs.snapshot(tmp_path)
    oracle = pathlib.Path("src", "oscint", "oracle.py")
    assert (tmp_path / oracle).read_bytes() == (ROOT / oracle).read_bytes()
    assert (tmp_path / "perfbench" / "run.py").is_file()
    assert not list(tmp_path.rglob("__pycache__"))
    assert not list(tmp_path.rglob("*.pyc"))


def test_call_runs_a_tool_function_in_a_child():
    assert bench_pairs.call(ROOT, "bench_pairs", "parse_seeds", "1-3,5") == [1, 2, 3, 5]


def test_a_failing_child_raises_with_its_stderr():
    with pytest.raises(RuntimeError, match=r"bench_pairs\.parse_seeds(.|\n)*invalid literal"):
        bench_pairs.call(ROOT, "bench_pairs", "parse_seeds", "x")


def test_call_evaluates_a_workload_in_the_checkout():
    # the path value_diff takes in each of its two copies: one row per request, in order
    workloads = _load("workloads", ROOT / "perfbench" / "workloads.py")
    rows = bench_pairs.call(ROOT, "value_diff", "evaluate", "oracle-grid", 1)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    reqs = workloads.generate("oracle-grid", 1, workloads.request_count("oracle-grid", seconds))
    assert [row["cell"] for row in rows] == [[r.family, r.kernel, r.stratum] for r in reqs]
    assert Counter("/".join(row["cell"]) for row in rows) == workloads.tally(reqs)["cell"]
    assert all(("value" in row) != ("raised" in row) and row["quad"] >= 0 for row in rows)
