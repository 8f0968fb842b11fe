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


def test_parent_of_an_unchanged_tree_counts_the_same(tmp_path):
    # a commit of this working tree, compared with itself through --parent HEAD
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
    out = subprocess.run([sys.executable, str(repo / "tools" / "traffic.py"), "--workload",
                          "closed-grid", "--seed", "1", "--requests", "200", "--parent", "HEAD"],
                         cwd=repo, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert {row[0] for row in rows} >= {"two_radical.lines_per_req",
                                        "special_functions.lines_per_req"}
    for name, _, parent, _, change in rows:
        assert parent == change and float(parent) > 0, name
