"""tools/traffic.py: the statements of a def, and a short closed-grid run."""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)


def test_a_def_owns_its_statements_but_not_its_docstring_or_inner_defs(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import functools\n"                         # 1
        "@functools.cache\n"                         # 2
        "def f(x):\n"                                # 3
        "    '''doc'''\n"                            # 4
        "    try:\n"                                 # 5
        "        y = (x +\n"                         # 6
        "             1)\n"                          # 7
        "    except ValueError:\n"                   # 8
        "        y = 0\n"                            # 9
        "    def g():\n"                             # 10
        "        return y\n"                         # 11
        "    return g\n")                            # 12
    assert traffic.functions(path) == [
        (2, "f", [(5, 9), (6, 7), (9, 9), (10, 11), (12, 12)]), (10, "g", [(11, 11)])]


def test_two_hundred_closed_grid_requests(tmp_path):
    record = tmp_path / "traffic.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "traffic.py"), "--workload",
                    "closed-grid", "--seed", "1", "--requests", "200", "--lines",
                    "--record", str(record)],
                   cwd=ROOT, check=True, capture_output=True, timeout=60)
    got = json.loads(record.read_text())
    assert got["requests"] == 200
    rows = {r["function"]: r for r in got["functions"]}
    for r in got["functions"]:
        assert 0 <= r["ran"] <= r["statements"] == r["ran"] + len(r["never"])
        assert r["ran"] or not r["calls_per_req"]
    calls = {name: rows[f"special_functions.{name}"]["calls_per_req"] for name in (
        "_fresnel_pair", "_fresnel_series", "_fresnel_tail", "fresnel_s", "fresnel_c")}
    # each caller reads S and C at one z; no closed-grid request passes the switch
    assert calls["fresnel_s"] == calls["fresnel_c"] >= calls["_fresnel_pair"] > 0
    assert calls["_fresnel_pair"] == calls["_fresnel_series"] and calls["_fresnel_tail"] == 0
    series = rows["special_functions._fresnel_series"]
    assert series["ran"] == series["statements"] == 12
    assert got["lines_per_req"]["special_functions"] > got["lines_per_req"]["lommel"] > 0


def test_cells_of_two_hundred_closed_grid_requests(tmp_path):
    # the table's shape only, never a time: one row per (family, stratum), the
    # shares of each column adding up to one
    record = tmp_path / "cells.json"
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic.py"), "--workload",
                          "closed-grid", "--seed", "1", "--requests", "200", "--cells",
                          "--record", str(record)],
                         cwd=ROOT, check=True, capture_output=True, text=True, timeout=60).stdout
    got = json.loads(record.read_text())
    assert (got["requests"], got["passes"], list(got["cells"])) == (200, 3, ["change"])
    rows = got["cells"]["change"]
    assert {r["cell"].split()[1] for r in rows} == {"in-grid", "wide", "degenerate"}
    assert abs(sum(r["request_share"] for r in rows) - 1.0) < 1e-12
    assert abs(sum(r["time_share"] for r in rows) - 1.0) < 1e-12
    assert [r["time_share"] for r in rows] == sorted((r["time_share"] for r in rows), reverse=True)
    assert all(0.0 < r["median_us"] <= r["p99_us"] for r in rows)
    lines = out.splitlines()
    assert lines[0].startswith("closed-grid seed 1: 200 requests") and len(lines) == len(rows) + 2
    assert [line.split()[:2] for line in lines[2:]] == [r["cell"].split() for r in rows]


def test_two_warm_line_counts_agree_exactly():
    # after one pass over the requests has warmed every cache, each further pass
    # over the same requests in the same order runs the same lines
    script = ("import json, sys\nsys.path.insert(0, 'tools')\nimport traffic\n"
              "run, n = traffic.load('closed-grid', 1, 200)\ntraffic.trace(run)\n"
              "print(json.dumps([traffic.count_lines(run), traffic.count_lines(run)]))\n")
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    first, second = json.loads(out)
    assert first == second
    assert first["special_functions"] > 0 and first["lommel"] > 0


def _committed_copy(tmp_path):
    """A git repository holding one commit of this working tree."""
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                            capture_output=True, text=True)
    if inside.stdout.strip() != "true":
        pytest.skip("not a git working tree")
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    repo = tmp_path / "repo"
    bench_pairs.snapshot(repo)
    git = ["git", "-c", "user.name=traffic", "-c", "user.email=traffic@localhost",
           "-c", "commit.gpgsign=false"]
    for argv in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + argv, cwd=repo, check=True, capture_output=True)
    return repo


def test_parent_of_an_unchanged_tree_counts_the_same(tmp_path):
    # a commit of this working tree, compared with itself through --parent HEAD
    repo = _committed_copy(tmp_path)
    out = subprocess.run([sys.executable, str(repo / "tools" / "traffic.py"), "--workload",
                          "closed-grid", "--seed", "1", "--requests", "200", "--parent", "HEAD"],
                         cwd=repo, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert {row[0] for row in rows} >= {"two_radical.lines_per_req",
                                        "special_functions.lines_per_req"}
    for name, _, parent, _, change in rows:
        assert parent == change and float(parent) > 0, name


def test_cells_of_a_parent_and_the_working_tree(tmp_path):
    # --cells --parent: both sides' columns, parent -> change, in one row per cell
    repo = _committed_copy(tmp_path)
    record = tmp_path / "cells.json"
    out = subprocess.run([sys.executable, str(repo / "tools" / "traffic.py"), "--workload",
                          "closed-grid", "--seed", "1", "--requests", "100", "--cells",
                          "--parent", "HEAD", "--record", str(record)],
                         cwd=repo, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    got = json.loads(record.read_text())
    assert list(got["cells"]) == ["parent", "change"]
    parent, change = ({r["cell"]: r for r in rows} for rows in got["cells"].values())
    assert set(parent) == set(change)
    for cell in change:
        assert parent[cell]["request_share"] == change[cell]["request_share"]
    for line in out.splitlines()[2:]:
        assert " ".join(line.split()[:2]) in change and line.count(" -> ") == 4
