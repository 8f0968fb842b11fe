"""oscint benchmark: closed-grid, oracle-grid and cli-cold at a reference pace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload closed-grid --seed 1 --seconds 20 --trace 0

The request list is generated from ``--seed`` and has a fixed length set
by ``--seconds`` (see ``workloads.RATE``); it is never cut short, so
counts and shares repeat exactly.  Every timing is taken from outside
the library and converted to reference-pace time (see ``pacing``).
Results are checked after the timed phase.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the full run record, with raw wall-clock values, the
failure ledger and run metadata, goes to ``.perfbench_out/``.

``failed`` counts requests in the domain the acceptance suite covers
(in-grid and degenerate strata, every oracle-grid and cli-cold request)
that raised or disagreed with their reference; ``correct`` is true when
there are none.  The wide stratum probes beyond that domain: its wrong
results lower ``correct_share`` and are listed in the ledger, but do not
make the run incorrect.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # set-up time of this process counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one caller, no extra threads: numpy's OpenBLAS would otherwise
# start a thread per core at import.  oscint does no linear algebra, and on
# two shared cores those threads made every cold start and set-up time swing
# by tens of percent.  Children inherit the setting.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

import pacing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("closed-grid", "oracle-grid", "cli-cold")
SETUP_PROBES = 5
IMPORT_PROBES = 3
WARM_UP = 64
CHILD_TIMEOUT_S = 60
PROCESS_PACE_RUNS = 5   # kernel runs per pace sample around a whole process
TAIL_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up as a run would, then exit (set-up time probe)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "OSCINT_REL_TOL"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def spawn(argv, env):
    """Run ``argv`` to completion: (exit code, stdout, stderr, raw ns, peak RSS MB).

    The child is reaped with ``wait4`` so its own peak RSS is known; a
    child still running after CHILD_TIMEOUT_S is killed.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        old = signal.signal(signal.SIGALRM, _alarm)
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            signal.signal(signal.SIGALRM, old)
        elapsed = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                elapsed, ru.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload, seed, n):
    """Import, generate and warm up; returns (api or None, requests)."""
    reqs = wl.generate(workload, seed, n)
    warm = wl.generate(workload, f"{seed}/warm-up", WARM_UP if workload != "cli-cold" else 1)
    if workload == "cli-cold":
        rc, _, err, _, _ = spawn(cli_command(warm[0]), child_env())
        if rc != 0:
            raise RuntimeError(f"warm-up CLI call failed ({rc}): {err[-500:]}")
        return None, reqs
    sys.path.insert(0, str(SRC))
    import oscint

    make = wl.closed_call if workload == "closed-grid" else wl.oracle_call
    for req in warm:
        try:
            make(oscint, req)()
        except Exception:   # noqa: BLE001 - warm-up only; the timed phase records failures
            pass
    return oscint, reqs


def setup_probes(args):
    """Paced and raw seconds of SETUP_PROBES fresh set-ups, and their pace factors.

    Each probe is a fresh interpreter that sets up exactly as a run does
    and exits.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--setup-only"]
    raw = []
    pace = pacing.PaceLog(PROCESS_PACE_RUNS)
    for _ in range(SETUP_PROBES):
        pace.mark()
        rc, _, err, ns, _ = spawn(argv, dict(os.environ))
        if rc != 0:
            raise RuntimeError(f"set-up probe failed ({rc}): {err[-500:]}")
        raw.append(ns / 1e9)
    pace.mark()
    factors = pace.factors()
    return [r * f for r, f in zip(raw, factors)], raw, factors


# ---------------------------------------------------------------------------
# timed phase
# ---------------------------------------------------------------------------

class _NoTracer:
    request = -1


def timed_inprocess(calls, block, tracer=None):
    """Run every call once, in blocks bracketed by pace samples."""
    tracer = tracer or _NoTracer()
    n = len(calls)
    lat = [0] * n
    vals = [None] * n
    pace = pacing.PaceLog()
    clock = time.perf_counter_ns
    for b0 in range(0, n, block):
        pace.mark()
        for i in range(b0, min(n, b0 + block)):
            tracer.request = i
            f = calls[i]
            t0 = clock()
            try:
                v = f()
            except Exception as exc:   # noqa: BLE001 - a raise is a wrong result
                v = exc
            lat[i] = clock() - t0
            vals[i] = v
    pace.mark()
    return vals, lat, pace


def cli_command(req, traced=False):
    head = [str(HERE / "cli_child.py")] if traced else ["-m", "oscint.cli"]
    return [sys.executable] + head + wl.cli_argv(req)


def timed_cli(reqs, traced=False):
    """One fresh ``oscint eval`` process per request, in sequence."""
    env = child_env()
    n = len(reqs)
    lat, vals, rss, spans = [0] * n, [None] * n, [], []
    pace = pacing.PaceLog(PROCESS_PACE_RUNS)
    for i, req in enumerate(reqs):
        pace.mark()
        rc, out, err, ns, peak = spawn(cli_command(req, traced), env)
        lat[i] = ns
        rss.append(peak)
        vals[i] = _cli_value(rc, out, err)
        if traced:
            spans.append(_child_spans(err, i))
    pace.mark()
    return vals, lat, pace, max(rss), spans


def _cli_value(rc, out, err):
    if rc != 0:
        return RuntimeError(f"exit {rc}: {err.strip()[-300:]}")
    try:
        return float(json.loads(out.strip().splitlines()[-1])["value"])
    except (ValueError, KeyError, IndexError) as exc:
        return RuntimeError(f"unparsable output {out[-200:]!r}: {exc}")


def _child_spans(err, request):
    import numpy as np

    for line in err.splitlines():
        if line.startswith("PERFBENCH-SPANS "):
            doc = json.loads(line[len("PERFBENCH-SPANS "):])
            arrs = {k: np.asarray(v) for k, v in doc["arrays"].items()}
            arrs["req"] = np.full(len(arrs["name"]), request, dtype=np.int64)
            return doc["names"], arrs
    raise RuntimeError("traced CLI child printed no spans")


def block_factors(pace, n, block):
    f = pace.factors()
    return [f[i // block] for i in range(n)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(sorted_vals, q):
    k = max(0, min(len(sorted_vals) - 1, -(-len(sorted_vals) * q // 100) - 1))
    return sorted_vals[int(k)]


def latency_stats(ns):
    """Median and tail: the highest ladder percentile with MIN_BEYOND samples above."""
    s = sorted(ns)
    n = len(s)
    q = max([p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= MIN_BEYOND] or [50.0])
    return {"p50_us": nearest_rank(s, 50.0) / 1e3, "tail_us": nearest_rank(s, q) / 1e3,
            "tail_percentile": q, "tail_beyond": n - int(-(-n * q // 100)), "samples": n}


def score(vals, lat, factors, good):
    paced = [x * f for x, f in zip(lat, factors)]
    n_good = sum(good)
    return {
        "goodput_per_s": n_good / (sum(paced) / 1e9),
        "correct_share": n_good / len(vals),
        "paced": latency_stats(paced),
        "raw": dict(latency_stats(lat), goodput_per_s=n_good / (sum(lat) / 1e9)),
    }


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check(api, reqs, vals, by_oracle):
    """Per-request verdicts, the failure ledger and reference errors."""
    from reference import agrees, reference

    good, ledger, ref_errors = [], [], []
    for i, (req, v) in enumerate(zip(reqs, vals)):
        try:
            ref, rel_only = reference(api, req, by_oracle)
        except Exception as exc:   # noqa: BLE001 - reported, makes the run incorrect
            ref_errors.append({"index": i, "request": _req_doc(req), "error": repr(exc)})
            good.append(False)
            continue
        ok = agrees(v, ref, rel_only)
        good.append(ok)
        if not ok:
            ledger.append(dict(_req_doc(req), index=i, reference=ref, relative_only=rel_only,
                               value=v if isinstance(v, float) else None,
                               error=None if isinstance(v, float) else repr(v)))
    return good, ledger, ref_errors


def _req_doc(req):
    return {"family": req.family, "kernel": req.kernel, "stratum": req.stratum,
            "params": dict(req.params)}


def same_bits(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return type(a) is type(b) and str(a) == str(b)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def metadata(args):
    from importlib import metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "oscint").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": version("numpy"), "scipy": version("scipy"), "mpmath": version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "commit": commit, "src_sha256": digest.hexdigest(), "src_oscint_lines": lines,
        "nominal_pace_ns": pacing.NOMINAL_NS,
    }


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def import_profile():
    """Median cold-import profile of ``oscint.cli`` over IMPORT_PROBES processes."""
    from tracing import parse_importtime

    rows = []
    pace = pacing.PaceLog(PROCESS_PACE_RUNS)
    pace.mark()
    for _ in range(IMPORT_PROBES):
        rc, _, err, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import oscint.cli"],
                                 child_env())
        if rc != 0:
            raise RuntimeError(f"import probe failed ({rc}): {err[-500:]}")
        rows.append(parse_importtime(err))
    pace.mark()
    f = pace.factors()[0]
    return {"cli.import_us": statistics.median(r[0] for r in rows) * f,
            "cli.import_scipy_us": statistics.median(r[1] for r in rows) * f,
            "cli.modules_loaded": statistics.median(r[2] for r in rows)}


def traced_pass(args, api, reqs, block):
    """Re-run the list with spans on: (layer metrics, record extras, values)."""
    import tracing

    if api is None:
        vals, lat, pace, _, parts = timed_cli(reqs, traced=True)
        names, arrays = tracing.merge(parts)
    else:
        tracer = tracing.Tracer().install(api)
        try:
            make = wl.closed_call if args.workload == "closed-grid" else wl.oracle_call
            calls = [make(api, r) for r in reqs]
            vals, lat, pace = timed_inprocess(calls, block, tracer)
        finally:
            tracer.uninstall()
        names, arrays = tracer.names, tracer.arrays()
    factors = block_factors(pace, len(reqs), block)
    layers, calls_by_binding = tracing.layer_metrics(names, arrays, len(reqs), factors)
    paced_busy = sum(x * f for x, f in zip(lat, factors)) / 1e9
    layers.update(import_profile())
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracing.write_spans(path, names, arrays)
    return layers, {"pace": pace.summary(), "busy_paced_s": paced_busy,
                    "calls_by_binding": calls_by_binding, "spans": len(arrays["name"]),
                    "spans_file": path.name}, vals


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oscint" / "__init__.py").is_file():
        print(f"error: no oscint sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    n = wl.request_count(args.workload, args.seconds)
    block = wl.BLOCK[args.workload]
    api, reqs = setup(args.workload, args.seed, n)
    if args.setup_only:
        return 0
    setup_main_raw_s = time.perf_counter() - T_START

    if api is None:
        vals, lat, pace, peak_rss_mb, _ = timed_cli(reqs)
    else:
        make = wl.closed_call if args.workload == "closed-grid" else wl.oracle_call
        calls = [make(api, r) for r in reqs]
        vals, lat, pace = timed_inprocess(calls, block)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = block_factors(pace, n, block)
    phases = {"setup": setup_main_raw_s, "timed": time.perf_counter() - T_START - setup_main_raw_s}

    record = {"meta": metadata(args), "tally": wl.tally(reqs),
              "pace": dict(pace.summary(), samples_ns=pace.samples),
              "raw_latency_ns": lat, "phase_raw_s": phases}
    identical = True
    t_phase = time.perf_counter()
    if args.trace:
        layers, record["trace"], traced_vals = traced_pass(args, api, reqs, block)
        identical = all(same_bits(a, b) for a, b in zip(vals, traced_vals))
        untraced_busy = sum(x * f for x, f in zip(lat, factors)) / 1e9
        # same correct count on both passes, so the goodput ratio is a busy-time ratio
        layers["trace.goodput_ratio"] = untraced_busy / record["trace"]["busy_paced_s"]
        record["trace"]["values_identical"] = identical
    else:
        setup_paced, setup_raw, setup_factors = setup_probes(args)
        record["setup"] = {"paced_s": setup_paced, "raw_s": setup_raw,
                           "pace_factors": setup_factors}
    phases["trace" if args.trace else "setup_probes"] = time.perf_counter() - t_phase
    t_phase = time.perf_counter()

    if api is None:
        sys.path.insert(0, str(SRC))
        import oscint as api
    good, ledger, ref_errors = check(api, reqs, vals, by_oracle=args.workload != "oracle-grid")
    phases["check"] = time.perf_counter() - t_phase
    s = score(vals, lat, factors, good)
    in_domain_failures = sum(1 for r, g in zip(reqs, good) if not g and r.stratum != "wide")
    failed = in_domain_failures + len(ref_errors)
    correct = failed == 0 and identical
    by_stratum = {}
    for e in ledger:
        by_stratum[e["stratum"]] = by_stratum.get(e["stratum"], 0) + 1
    record.update({
        "scores": s, "peak_rss_mb": peak_rss_mb, "correct": correct, "failed": failed,
        "ledger_by_stratum": by_stratum, "reference_errors": ref_errors, "ledger": ledger,
    })

    if args.trace:
        import tracing

        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in tracing.per_layer_spec()}
    else:
        metrics = {
            "goodput_per_s": {"value": s["goodput_per_s"], "unit": "1/s"},
            "latency_p50_us": {"value": s["paced"]["p50_us"], "unit": "us"},
            "latency_tail_us": {"value": s["paced"]["tail_us"], "unit": "us"},
            "correct_share": {"value": s["correct_share"], "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup_paced), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    record["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=repr) + "\n")
    print(f"record: {path.relative_to(ROOT)}; requests {n}; wrong by stratum {by_stratum}; "
          f"reference errors {len(ref_errors)}; pace factor "
          f"{record['pace']['factor_min']:.3f}..{record['pace']['factor_max']:.3f}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
