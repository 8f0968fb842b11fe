"""Trace fidelity: spans change no value, reach every layer, and repeat."""

import oscint
import pytest

import run
import tracing
import workloads as wl

N = {"closed-grid": 400, "oracle-grid": 90}

# bindings each workload must reach (binding:module.function)
EXPECTED = {
    "closed-grid": [
        "two_radical:special_functions.hyp2f1", "radical_pole:special_functions.hyp2f1",
        "half_power:special_functions.fresnel_s", "radical_pole:special_functions.fresnel_c",
        "two_radical:special_functions.bessel_j0", "two_radical:special_functions.bessel_y0",
        "lommel:special_functions.upper_incomplete_gamma",
        "lommel:special_functions.hyp2f2_half",
        "two_radical:special_functions.gen_si", "two_radical:special_functions.gen_ci",
        "special_functions:oracle.lobe_sum", "oracle:scipy.quad",
        "two_radical:oracle.integrate_finite", "radical_pole:oracle.integrate_finite",
        "oscint:half_power.s_alpha", "oscint:two_radical.sin_transform",
        "oscint:radical_pole.pole_cos_transform", "oscint:lommel.general_sin_transform",
        "oscint:lommel.log_weighted_sin_integral",
    ],
    "oracle-grid": [
        "oscint:oracle.integrate_semi_infinite", "oracle:oracle.oscillatory_integral",
        "oracle:oracle.lobe_sum", "oracle:scipy.quad",
    ],
}
# per-layer metrics that must be non-zero on each workload
NONZERO = {
    "closed-grid": [name for name, _, _ in tracing.per_layer_spec()],
    "oracle-grid": ["oracle.lobes_per_integral", "oracle.quad_calls_per_req",
                    "oracle.integrand_evals_per_req", "oracle.quad_self_us_per_req",
                    "oracle.self_us_per_req"],
}
NOT_TRACE_PASS = ("cli.", "trace.")


def _pass(workload, traced):
    reqs = wl.generate(workload, 5, N[workload])
    make = wl.closed_call if workload == "closed-grid" else wl.oracle_call
    tracer = tracing.Tracer().install(oscint) if traced else None
    try:
        calls = [make(oscint, r) for r in reqs]
        vals, lat, pace = run.timed_inprocess(calls, wl.BLOCK[workload], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        return vals, None, None
    factors = run.block_factors(pace, len(reqs), wl.BLOCK[workload])
    metrics, calls_by_binding = tracing.layer_metrics(tracer.names, tracer.arrays(),
                                                      len(reqs), factors)
    return vals, metrics, calls_by_binding


@pytest.fixture(scope="module", params=sorted(N))
def passes(request):
    w = request.param
    return w, _pass(w, False), _pass(w, True), _pass(w, True)


def test_traced_values_bitwise_identical(passes):
    _, (plain, _, _), (traced, _, _), _ = passes
    assert all(run.same_bits(a, b) for a, b in zip(plain, traced))


def test_every_binding_records_calls(passes):
    w, _, (_, metrics, calls), _ = passes
    missing = [b for b in EXPECTED[w] if calls.get(b, 0) == 0]
    assert not missing
    zero = [m for m in NONZERO[w] if not m.startswith(NOT_TRACE_PASS) and metrics[m] == 0]
    assert not zero


def test_counts_repeat_exactly(passes):
    _, _, (_, m1, c1), (_, m2, c2) = passes
    assert c1 == c2
    counts = [k for k in m1 if k.endswith(("calls_per_req", "_share", "lobes_per_integral",
                                           "integrand_evals_per_req"))]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


def test_uninstall_restores_every_binding():
    import oscint.two_radical as tr

    before = tr.hyp2f1
    tracer = tracing.Tracer().install(oscint)
    assert tr.hyp2f1 is not before
    tracer.uninstall()
    assert tr.hyp2f1 is before


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | site",
        "import time:         5 |          5 |         scipy._lib",
        "import time:        20 |         25 |       scipy",
        "import time:        30 |         55 |     scipy.integrate",
        "import time:         7 |         62 |   oscint.oracle",
        "import time:         3 |         65 | oscint",
        "import time:         4 |          4 | oscint.cli",
    ])
    assert tracing.parse_importtime(text) == (69, 55, 6)
