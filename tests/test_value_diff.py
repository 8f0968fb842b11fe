"""tools/value_diff.py: the per-cell comparison on synthetic rows."""

import importlib.util
import math
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("value_diff", ROOT / "tools" / "value_diff.py")
value_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(value_diff)

SIN = ["two-radical", "sin", "wide"]
COS = ["two-radical", "cos", "in-grid"]


def _row(cell, value=None, raised=None, **extra):
    row = {"cell": cell, **extra}
    if raised is None:
        row["value"] = float(value).hex()
    else:
        row["raised"] = raised
    return row


def test_closed_rows_count_moved_values_and_the_largest_move():
    parent = [_row(SIN, 1.0), _row(SIN, 2.0), _row(SIN, 4.0), _row(COS, 0.5)]
    change = [_row(SIN, 1.0), _row(SIN, 2.0 + 2e-9), _row(SIN, 4.0 - 4e-12), _row(COS, 0.5)]
    cells = value_diff.compare(parent, change)
    sin, cos = cells[tuple(SIN)], cells[tuple(COS)]
    assert sin["n"] == 3 and sin["value_diff"] == 2
    assert sin["max_rel"] == pytest.approx(1e-9)
    assert cos == {"n": 1, "value_diff": 0, "max_rel": 0.0}
    assert "err_diff" not in sin and "lobes_diff" not in sin


def test_one_ulp_is_a_difference():
    x = 0.1
    (cell,) = value_diff.compare([_row(SIN, x)], [_row(SIN, math.nextafter(x, 1.0))]).values()
    assert cell["value_diff"] == 1
    assert cell["max_rel"] == pytest.approx(math.ulp(x) / x)


def test_raised_requests_and_zero_values():
    parent = [_row(SIN, raised="ConvergenceError"), _row(SIN, raised="DomainError"),
              _row(SIN, 0.0), _row(SIN, 3.0)]
    change = [_row(SIN, raised="ConvergenceError"), _row(SIN, 1.0),
              _row(SIN, 1e-300), _row(SIN, raised="ConvergenceError")]
    (cell,) = value_diff.compare(parent, change).values()
    # the same exception on both sides is no difference
    assert cell["value_diff"] == 3
    assert cell["max_rel"] == math.inf
    assert value_diff.relative_move(parent[0], change[0]) == 0.0
    assert value_diff.relative_move(parent[2], change[2]) == math.inf


def test_oracle_rows_also_compare_error_estimates_and_lobe_counts():
    err = (1e-13).hex()
    parent = [_row(COS, 1.0, err=err, lobes=19), _row(COS, 2.0, err=err, lobes=20),
              _row(COS, raised="AccelerationStalledError")]
    change = [_row(COS, 1.0, err=(2e-13).hex(), lobes=19), _row(COS, 2.0, err=err, lobes=21),
              _row(COS, raised="AccelerationStalledError")]
    (cell,) = value_diff.compare(parent, change).values()
    assert cell == {"n": 3, "value_diff": 0, "max_rel": 0.0, "err_diff": 1, "lobes_diff": 1,
                    "max_err_share": 0.0}


def test_oracle_rows_compare_quad_call_counts():
    err = (1e-13).hex()
    parent = [_row(COS, 1.0, err=err, lobes=19, quad=0), _row(COS, 2.0, err=err, lobes=19, quad=2),
              _row(COS, raised="AccelerationStalledError", quad=5)]
    change = [_row(COS, 1.0, err=err, lobes=19, quad=0), _row(COS, 2.0, err=err, lobes=19, quad=3),
              _row(COS, raised="AccelerationStalledError", quad=4)]
    (cell,) = value_diff.compare(parent, change).values()
    # the same value from a different number of calls is still a difference
    assert cell["value_diff"] == cell["err_diff"] == cell["lobes_diff"] == 0
    assert cell["quad_diff"] == 2
    line = value_diff.format_table(value_diff.compare(parent, change))[0]
    assert line.endswith("err_diff 0  lobes_diff 0  quad_diff 2  max_err_share 0")
    (same,) = value_diff.compare(parent, parent).values()
    assert same["quad_diff"] == 0


def test_oracle_moves_are_measured_in_the_parent_error_estimate():
    parent = [_row(COS, 1.0, err=(1e-12).hex(), lobes=19),
              _row(COS, 2.0, err=(4e-13).hex(), lobes=20),
              _row(COS, 3.0, err=(1e-13).hex(), lobes=20)]
    change = [_row(COS, 1.0 + 2e-13, err=(1e-12).hex(), lobes=19),
              _row(COS, 2.0 - 2e-13, err=(3e-13).hex(), lobes=20),
              _row(COS, 3.0, err=(9e-14).hex(), lobes=21)]
    (cell,) = value_diff.compare(parent, change).values()
    # moves of 2e-13 in 1e-12 and in 4e-13: the estimate is the parent's
    assert cell["max_err_share"] == pytest.approx(0.5, rel=1e-3)
    assert value_diff.err_share(parent[0], change[0]) == pytest.approx(0.2, rel=1e-3)
    assert value_diff.err_share(parent[2], change[2]) == 0.0
    lines = value_diff.format_table(value_diff.compare(parent, change))
    assert lines[0].endswith("max_err_share 0.5")


def test_a_move_against_a_zero_estimate_or_a_new_exception_is_unbounded():
    zero = (0.0).hex()
    parent = [_row(SIN, 1.0, err=zero, lobes=3), _row(SIN, 1.0, err=zero, lobes=3),
              _row(SIN, 2.0, err=(1e-13).hex(), lobes=3)]
    change = [_row(SIN, 1.0, err=zero, lobes=3), _row(SIN, 1.5, err=zero, lobes=3),
              _row(SIN, raised="AccelerationStalledError")]
    assert value_diff.err_share(parent[0], change[0]) == 0.0
    assert value_diff.err_share(parent[1], change[1]) == math.inf
    assert value_diff.err_share(parent[2], change[2]) == math.inf
    (cell,) = value_diff.compare(parent, change).values()
    assert cell["max_err_share"] == math.inf


def test_closed_rows_have_no_error_share():
    (cell,) = value_diff.compare([_row(SIN, 1.0)], [_row(SIN, 1.5)]).values()
    assert "max_err_share" not in cell


def test_request_lists_must_match():
    with pytest.raises(ValueError, match="request lists differ"):
        value_diff.compare([_row(SIN, 1.0)], [_row(COS, 1.0)])
    with pytest.raises(ValueError):
        value_diff.compare([_row(SIN, 1.0)], [])


def test_table_lists_cells_in_order_and_a_total():
    cells = value_diff.compare([_row(SIN, 1.0), _row(COS, 1.0, err="0x0p+0", lobes=3)],
                               [_row(SIN, 1.5), _row(COS, 1.0, err="0x0p+0", lobes=3)])
    lines = value_diff.format_table(cells)
    assert lines[0].startswith("two-radical/cos/in-grid")
    assert lines[0].endswith("max_rel 0  err_diff 0  lobes_diff 0  max_err_share 0")
    assert lines[1].startswith("two-radical/sin/wide")
    assert lines[1].endswith("value_diff     1  max_rel 0.5")
    assert lines[2].split() == ["total", "n", "2", "value_diff", "1"]


def test_closed_rows_count_wrong_values_on_each_side():
    parent = [_row(SIN, 1.0, wrong=True), _row(SIN, 2.0, wrong=True),
              _row(SIN, raised="DomainError", wrong=True), _row(COS, 0.5, wrong=False)]
    change = [_row(SIN, 1.0 + 1e-7, wrong=False), _row(SIN, 2.0, wrong=True),
              _row(SIN, 3.0, wrong=False), _row(COS, 0.5, wrong=True)]
    cells = value_diff.compare(parent, change)
    sin, cos = cells[tuple(SIN)], cells[tuple(COS)]
    assert (sin["wrong_parent"], sin["wrong_change"]) == (3, 1)
    assert (cos["wrong_parent"], cos["wrong_change"]) == (0, 1)
    lines = value_diff.format_table(cells)
    assert lines[0].endswith("max_rel 0  wrong 0 -> 1")
    assert "wrong 3 -> 1" in lines[1]
    assert lines[2].split()[-4:] == ["wrong", "3", "->", "2"]


def test_rows_without_a_grade_show_no_wrong_counts():
    (cell,) = value_diff.compare([_row(SIN, 1.0)], [_row(SIN, 1.0)]).values()
    assert "wrong_parent" not in cell
    assert "wrong" not in value_diff.format_table({tuple(SIN): cell})[-1]
