"""The selfcheck rows: one shape, one pass rule, and each tolerance near what
its grid measures, so that a regression of an order or two fails a row."""

import math

import pytest

from oscint import selfcheck
from oscint.selfcheck import CheckResult

# the rows whose tolerance is not set from their grid's worst error, each with
# its reason: a group name covers the whole group, a (group, tolerance) pair the
# group's rows at that tolerance
NOT_FROM_THE_GRID = {
    **dict.fromkeys(["half-power-oracle", "two-radical-tails", "two-radical-assembly",
                     "radical-pole-tails", "radical-pole-assembly", "lommel-three-way",
                     "log-integral"],
                    "the oracle's own error estimate, floored at 1e-12 of the value"),
    "oracle-robustness": "the drift from halving the oracle's tolerance, against its estimate",
    "scaling": "the 4-ulp law of the scaling identity; 0 ulp measured",
    ("exponent-switch", 1.0): "the route rows count sides on the wrong route; none measured",
    ("approximation-trends", math.inf): "a registered, uncorrected erratum keeps today's rule",
}


@pytest.fixture(scope="module")
def rows():
    return selfcheck.run()


def test_every_row_is_a_float_error_against_a_positive_tolerance(rows):
    assert len(rows) == 777
    for r in rows:
        assert type(r.error) is float and type(r.tolerance) is float, r
        assert r.tolerance > 0 and r.passed, r


def test_the_pass_rule_is_strict_and_a_nan_error_fails():
    assert CheckResult("g", "n", 0.5, 1.0).passed
    assert not CheckResult("g", "n", 1.0, 1.0).passed
    assert CheckResult("g", "n", 0.25, 2.0).margin == 0.125
    nan = CheckResult("g", "n", math.nan, 1.0)
    assert not nan.passed and nan.margin == math.inf


def test_a_row_reports_its_part_nearest_failing():
    worst = selfcheck._worst
    assert worst(((0.5, 1.0), (1e-10, 1e-9))) == (0.5, 1.0)
    assert worst(((0.5, 1.0), (2e-9, 1e-9))) == (2e-9, 1e-9)
    error, tolerance = worst(((1e-3, 1.0), (math.nan, 1.0), (0.5, 1.0)))
    assert math.isnan(error) and not CheckResult("g", "n", error, tolerance).passed


def test_each_tolerance_is_within_100x_of_its_worst_error(rows):
    worst = {}
    for r in rows:
        key = (r.group, r.tolerance)
        if r.group not in NOT_FROM_THE_GRID and key not in NOT_FROM_THE_GRID:
            worst[key] = max(worst.get(key, 0.0), r.margin)
    assert {key: margin for key, margin in worst.items() if margin < 0.01} == {}
    # every exemption still names rows that exist
    keys = {r.group for r in rows} | {(r.group, r.tolerance) for r in rows}
    assert set(NOT_FROM_THE_GRID) <= keys
