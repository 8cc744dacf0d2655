"""The trace-diff helper on a hand-made pair of traces."""

import math

import numpy as np

from trace_diff import COLUMNS, main, trace_diff
from varfista.solver import IterationTrace


def _trace(rows):
    """A trace of one-coordinate points from (lam, U, residual, repeats)
    rows; the other columns are fixed."""
    trace = IterationTrace(np.zeros(1), 1.0)
    for k, (lam, U, resid, repeats) in enumerate(rows, 1):
        y = np.array([float(k)])
        trace.append(lam, 0.0, 0.0, U, 0.0, resid, -1.0, -1.0, repeats, y, y)
    return trace


def test_trace_diff_reports_counts_first_differences_and_largest_changes(
        tmp_path):
    one_ulp = math.nextafter(2.0, 3.0)
    a = _trace([(1.0, 2.0, 1.0, 0), (0.5, 2.0, 0.5, 1), (0.5, 0.0, 0.25, 0)])
    b = _trace([(1.0, one_ulp, 1.0, 0), (0.5, 2.0, 0.5, 2),
                (0.5, -0.0, 0.2, 0), (0.5, 1.0, 0.1, 0)])
    diff = trace_diff(a, b)
    assert diff.iterations == (3, 4) and not diff.identical
    # U moves by one ulp at k = 1 and changes the sign of its zero at k = 3
    assert diff.first_diff["U"] == 1
    assert diff.max_rel["U"] == (one_ulp - 2.0) / one_ulp
    assert diff.first_diff["inner_repeats"] == 2
    assert diff.max_rel["inner_repeats"] == 0.5
    assert diff.first_diff["residual"] == 3
    assert math.isclose(diff.max_rel["residual"], 0.2)
    unchanged = set(COLUMNS) - {"U", "inner_repeats", "residual"}
    assert all(diff.first_diff[c] is None and diff.max_rel[c] == 0.0
               for c in unchanged)
    # the same report from the traces' CSV files
    for name, trace in (("a", a), ("b", b)):
        (tmp_path / name).mkdir()
        trace.write_csv(str(tmp_path / name / "run.csv"))
    from_csv = trace_diff(tmp_path / "a" / "run.csv", tmp_path / "b" / "run.csv")
    assert from_csv == diff
    assert trace_diff(a, tmp_path / "a" / "run.csv").identical


def test_trace_diff_counts_a_nan_against_a_value_as_infinite(capsys,
                                                             tmp_path):
    a = _trace([(1.0, math.nan, 1.0, 0)])
    b = _trace([(1.0, 3.0, 1.0, 0)])
    diff = trace_diff(a, b)
    assert diff.first_diff["U"] == 1 and diff.max_rel["U"] == math.inf
    for name, trace in (("a", a), ("b", b)):
        (tmp_path / name).mkdir()
        trace.write_csv(str(tmp_path / name / "run.csv"))
    assert main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "run: 1 -> 1 iterations",
        "  U: first differs at k = 1, largest relative change inf"]
