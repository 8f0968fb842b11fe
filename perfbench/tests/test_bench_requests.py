"""Self-test of the benchmark's request lists and its result line."""

import json
import subprocess
import sys
from pathlib import Path

import oscint
import pytest

import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
SIZES = {w: wl.request_count(w, 20) for w in wl.RATE}


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_same_seed_same_list(workload):
    assert wl.generate(workload, 7, SIZES[workload]) == wl.generate(workload, 7, SIZES[workload])


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_other_seed_other_list(workload):
    a = wl.generate(workload, 7, SIZES[workload])
    b = wl.generate(workload, 8, SIZES[workload])
    assert a != b
    assert not set(a) & set(b)


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_no_request_repeats(workload):
    reqs = wl.generate(workload, 7, SIZES[workload])
    assert len(set(reqs)) == len(reqs) == SIZES[workload]


@pytest.mark.parametrize("workload", sorted(SIZES))
def test_counts_are_fixed_by_size_not_seed(workload):
    counts = [wl.tally(wl.generate(workload, s, SIZES[workload])) for s in (1, 2, 3)]
    assert counts[0] == counts[1] == counts[2]
    assert sum(counts[0]["family"].values()) == SIZES[workload]
    assert sum(counts[0]["stratum"].values()) == SIZES[workload]


def test_closed_grid_strata_shares():
    n = SIZES["closed-grid"]
    strata = wl.tally(wl.generate("closed-grid", 1, n))["stratum"]
    assert strata == {"in-grid": round(0.85 * n), "wide": round(0.13 * n),
                      "degenerate": round(0.02 * n)}


def test_cli_arguments_round_trip():
    req = wl.generate("cli-cold", 1, 10)[0]
    argv = wl.cli_argv(req)
    for name, value in req.params:
        if name != "plus_one":
            assert type(value)(argv[argv.index(f"--{name}") + 1]) == value


def test_run_prints_result_line_and_records_counts():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-grid", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 90
    assert set(result["metrics"]) == {"goodput_per_s", "latency_p50_us", "latency_tail_us",
                                      "correct_share", "setup_s", "peak_rss_mb"}
    record = json.loads((ROOT / ".perfbench_out" / "oracle-grid-seed3-trace0.json").read_text())
    assert record["tally"] == wl.tally(wl.generate("oracle-grid", 3, 90))
    assert record["meta"]["seed"] == 3 and record["meta"]["src_oscint_lines"] > 0
    assert record["ledger"] == [] and record["ledger_by_stratum"] == {}


def test_reference_rules():
    from reference import agrees, gamma_route

    exact = oscint.s_alpha(2, 1.5, 0.7)
    assert agrees(exact, gamma_route(2.5, 1.5, 0.7, wl.SIN), True)
    tiny = gamma_route(10.5, 400.0, 1.0, wl.COS)
    assert 0 < abs(tiny) < 1e-6
    assert agrees(tiny * (1 + 1e-10), tiny, True)
    assert not agrees(-tiny, tiny, True)          # wrong sign fails the relative test
    assert agrees(-tiny, tiny, False)             # ... which the absolute floor would miss
    assert not agrees(float("nan"), 1.0, False)
    assert not agrees(ValueError("raised"), 1.0, False)
