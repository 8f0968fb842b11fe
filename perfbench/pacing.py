"""Reference pace: a fixed pure-Python kernel timed between request blocks.

The machine's speed drifts (shared cores, frequency changes), so raw
times from two runs of identical code differ by tens of percent.  The
kernel below does the same kind of work as the library -- a real
series with ``math`` calls and small function calls, and a complex
continued fraction evaluated by modified Lentz -- and is timed before
and after every block of requests.  A raw time is converted to
reference-pace time by multiplying it with

    factor = NOMINAL_NS / (mean of the four kernel samples nearest its block)

so paced numbers read as if the machine ran the kernel in NOMINAL_NS.
In-process blocks are short (a few ms) because the pace changes within
seconds; short blocks with one kernel run per sample track it better
than long blocks with several runs per sample.  Whole processes (a CLI
call, a set-up probe) are their own blocks, with five runs per sample.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time

NOMINAL_NS = 250_000   # kernel time at the reference pace


def _step(z, k):
    return z * (1.0 - 1e-4 * k) + 1.0 / (k + 1.0)


def _real_series():
    acc = 0.0
    z = complex(0.25, 0.5)
    buf = []
    for k in range(1, 400):
        z = _step(z, k & 15)
        acc += math.sin(acc * 1e-3 + k) * abs(z) / (k + 0.5)
        buf.append(acc)
        if len(buf) > 32:
            acc -= buf.pop(0) * 1e-3
    return acc


def _lentz():
    total = 0.0
    for r in range(3):
        z = complex(0.0, -2.0 - r)
        a = 0.5
        tiny = 1e-300
        b = z + 1.0 - a
        c = 1.0 / tiny
        d = 1.0 / b
        h = d
        for i in range(1, 60):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = complex(tiny)
            c = b + an / c
            if abs(c) < tiny:
                c = complex(tiny)
            d = 1.0 / d
            h *= d * c
        total += abs(h * cmath.exp(-z + a * cmath.log(z)))
    return total


def kernel():
    return _real_series() + _lentz()


def sample_ns():
    """One kernel timing, in ns."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


class PaceLog:
    """Kernel samples of one timed phase and the factor of each block.

    Call ``mark()`` before every block and once after the last one;
    block i is then bracketed by samples i and i+1, and its factor uses
    samples i-1 .. i+2.  A sample is the mean of ``runs`` kernel runs.
    """

    def __init__(self, runs=1):
        self.runs = runs
        self.samples = []

    def mark(self):
        self.samples.append(statistics.fmean(sample_ns() for _ in range(self.runs)))

    def factors(self):
        s = self.samples
        return [NOMINAL_NS / statistics.fmean(s[max(0, i - 1):i + 3])
                for i in range(len(s) - 1)]

    def summary(self):
        f = self.factors()
        return {"blocks": len(f), "factor_min": min(f), "factor_max": max(f),
                "factor_median": statistics.median(f),
                "kernel_ns_median": statistics.median(self.samples)}
