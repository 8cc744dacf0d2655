"""Numpy kernels against pure-Python references.

The loop references below evaluate the same scalar expressions one entry at
a time, so each vectorized kernel must match its reference bit for bit.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista import _kernels


# ---------------------------------------------------------------------------
# pure-Python references
# ---------------------------------------------------------------------------

def _history_margin_loop(lam_hist, tau_hist, L_arr, xi_arr):
    """Worst margin of xi_k*lam_{i-1} - (L_k*lam_i + tau_i) over
    1<=i<=k<=N: the two sides the solver compares, subtracted.

    lam_hist has length N+1 (lam_0..lam_N); the other arrays have length N.
    Returns (min_margin, k_arg, i_arg) with 1-based k and i.
    """
    n = tau_hist.shape[0]
    best = math.inf
    k_arg = 0
    i_arg = 0
    for k in range(1, n + 1):
        xi = xi_arr[k - 1]
        L = L_arr[k - 1]
        for i in range(1, k + 1):
            m = xi * lam_hist[i - 1] - (L * lam_hist[i] + tau_hist[i - 1])
            if m < best:
                best = m
                k_arg = k
                i_arg = i
    return best, k_arg, i_arg


def _history_margin_rows(lam_hist, tau_hist, L_arr, xi_arr):
    """The same margin with one numpy expression per k: row k's first
    minimum over i <= k, kept when it is strictly below the best so far, so
    a row holding a NaN margin loses whole."""
    best = math.inf
    k_arg = 0
    i_arg = 0
    for k in range(1, tau_hist.shape[0] + 1):
        margins = (xi_arr[k - 1] * lam_hist[:k]
                   - (L_arr[k - 1] * lam_hist[1:k + 1] + tau_hist[:k]))
        i = int(np.argmin(margins))
        if margins[i] < best:
            best = float(margins[i])
            k_arg = k
            i_arg = i + 1
    return best, k_arg, i_arg


def _interval_dist(mg, u, lo, hi, wl1):
    if wl1 > 0.0:
        if u < 0.0:
            a = -wl1
            b = -wl1
        elif u > 0.0:
            a = wl1
            b = wl1
        else:
            a = -wl1
            b = wl1
    else:
        a = 0.0
        b = 0.0
    if u <= lo:
        a = -math.inf
    if u >= hi:
        b = math.inf
    if mg < a:
        return a - mg
    if mg > b:
        return mg - b
    return 0.0


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_interval_dist_scalar_cases():
    # interior of the box, no L1: subdifferential is {0}
    assert _interval_dist(0.5, 0.2, -1.0, 1.0, 0.0) == 0.5
    assert _interval_dist(0.0, 0.2, -1.0, 1.0, 0.0) == 0.0
    # at the upper face the cone absorbs any positive excess
    assert _interval_dist(3.0, 1.0, -1.0, 1.0, 0.0) == 0.0
    assert _interval_dist(-3.0, 1.0, -1.0, 1.0, 0.0) == 3.0
    # on the L1 kink the interval is [-w, w]
    assert _interval_dist(0.4, 0.0, -1.0, 1.0, 0.5) == 0.0
    assert _interval_dist(0.7, 0.0, -1.0, 1.0, 0.5) == pytest.approx(0.2)
    # off the kink it collapses to {sign(u) * w}
    assert _interval_dist(0.5, 0.3, -1.0, 1.0, 0.5) == 0.0
    assert _interval_dist(0.0, 0.3, -1.0, 1.0, 0.5) == 0.5
    # an infinite bound is never reached, however far out u lies
    assert _interval_dist(2.0, -1e300, -math.inf, 1.0, 0.0) == 2.0
    assert _interval_dist(-2.0, 1e300, -1.0, math.inf, 0.5) == 2.5
    # a zero-width coordinate takes every value, on the kink or off it
    assert _interval_dist(-1e300, 0.25, 0.25, 0.25, 0.0) == 0.0
    assert _interval_dist(1e300, 0.0, 0.0, 0.0, 0.5) == 0.0


def test_interval_dist_vec_matches_scalar():
    rng = np.random.default_rng(5)
    lo = np.array([-1.0, -np.inf, 0.25, 0.0])
    hi = np.array([1.0, np.inf, 0.25, 0.0])
    for wl1 in (0.0, 0.3):
        mg = rng.normal(scale=2.0, size=(50, 4))
        u = np.clip(rng.uniform(-1.2, 1.2, size=(50, 4)), lo, hi)
        u[::5] = 0.0  # on the kink
        got = _kernels._interval_dist(mg, u, lo, hi, wl1)
        want = np.array([[_interval_dist(m, x, l, h, wl1)
                          for m, x, l, h in zip(mr, ur, lo, hi)]
                         for mr, ur in zip(mg, u)])
        assert np.array_equal(got, want)


def test_history_margin_matches_reference():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 40):
        lam = rng.uniform(0.01, 1.0, size=n + 1)
        tau = rng.uniform(0.0, 0.5, size=n)
        L = rng.uniform(0.0, 2.0, size=n)
        xi = rng.uniform(0.0, 2.0, size=n)
        assert (_kernels.history_margin(lam, tau, L, xi)
                == _history_margin_loop(lam, tau, L, xi))


def _run_starts(L, xi):
    """First rows of the runs of bitwise-equal (xi_k, L_k)."""
    return [k for k in range(len(L)) if k == 0
            or (L[k].tobytes(), xi[k].tobytes())
            != (L[k - 1].tobytes(), xi[k - 1].tobytes())]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60),
       seed=st.integers(0, 2 ** 32 - 1),
       steps=st.booleans(),
       edit=st.sampled_from([None, "nan-row", "nan-edge", "signed-zero",
                             "inf"]),
       at=st.floats(0.0, 1.0, exclude_max=True))
def test_history_margin_matches_a_per_k_scan(n, seed, steps, edit, at):
    # few distinct values, so that many margins tie and the first (k, i)
    # must win; with steps, xi and L are nondecreasing as in a run, so rows
    # come in long runs of equal (xi, L), else the runs are short
    rng = np.random.default_rng(seed)
    lam = rng.choice([0.25, 0.5, 1.0], size=n + 1)
    tau = rng.choice([0.0, 0.125, 0.5], size=n)
    L = rng.choice([0.0, 0.5, 1.0], size=n)
    xi = rng.choice([0.0, 1.0, 2.0], size=n)
    if steps:
        L.sort()
        xi.sort()
    r = int(at * n)
    if edit == "nan-row":  # all of row r is NaN
        (L if seed % 2 else xi)[r] = np.nan
    elif edit == "nan-edge":  # a NaN margin at i = a run's first row,
        # or one before or after it: rows from i on hold a NaN
        starts = _run_starts(L, xi)
        i = starts[int(at * len(starts))] + seed % 3 - 1
        tau[min(max(i, 0), n - 1)] = np.nan
    elif edit == "signed-zero" and n > 1:  # -0.0 and 0.0 in two runs
        r = min(r, n - 2)
        xi[r:r + 2] = [-0.0, 0.0]
        L[r:r + 2] = 0.0
    elif edit == "inf":
        [lam, tau, L, xi][seed % 4][r] = np.inf if seed % 8 < 4 else -np.inf
    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf
        got = _kernels.history_margin(lam, tau, L, xi)
        want = _history_margin_rows(lam, tau, L, xi)
    assert (got[0].hex(), got[1:]) == (want[0].hex(), want[1:])


def test_history_margin_keeps_signed_zero_runs_apart():
    # rows 1 and 2 differ only in the sign of xi = 0; the worst margin is
    # row 2's at i = 2, which is +0.0 as row 2 computes it and -0.0 as
    # row 1 would
    got = _kernels.history_margin(np.ones(3), np.array([-1.0, 0.0]),
                                  np.zeros(2), np.array([-0.0, 0.0]))
    assert (got[0].hex(), got[1:]) == ((0.0).hex(), (2, 2))


def test_history_margin_of_an_empty_history():
    empty = np.array([])
    assert _kernels.history_margin(np.ones(1), empty, empty, empty) \
        == (math.inf, 0, 0)


def test_history_margin_scans_one_run_in_linear_time():
    # one run of 100000 rows: 5e9 margins row by row; the worst is the one
    # large tau, at its own row
    n = 100_000
    tau = np.full(n, 0.25)
    tau[70_000] = 2.0
    start = time.perf_counter()
    got = _kernels.history_margin(np.ones(n + 1), tau, np.full(n, 0.5),
                                  np.ones(n))
    assert time.perf_counter() - start < 0.5
    assert got == (-1.5, 70_001, 70_001)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(st.integers(1, 300), min_size=1, max_size=60),
       width=st.sampled_from([1, 2, 8, 20, 200, 1000]))
def test_segment_blocks_fill_each_block_up_to_the_budget(steps, width):
    # the audit scans the best points of a block of b segments, the last
    # ending at e, as one b x e x width temporary
    ends = np.cumsum(steps)
    blocks = list(_kernels.segment_blocks(ends, width))
    assert [j0 for j0, _ in blocks] == [0] + [j1 for _, j1 in blocks[:-1]]
    assert blocks[-1][1] == len(ends)
    for (j0, j1), nxt in zip(blocks, blocks[1:] + [None]):
        b, e = j1 - j0, int(ends[j1 - 1])
        assert b >= 1
        assert b == 1 or b * e * width <= _kernels._ROW_BLOCK
        if nxt is not None:  # the next segment would not have fitted
            assert (b + 1) * int(ends[j1]) * width > _kernels._ROW_BLOCK


def test_segment_blocks_at_the_budget_edge():
    # 2 x 512 x 8 elements are exactly _ROW_BLOCK: one block; one more
    # record is too many, and a segment larger than the budget stands alone
    assert _kernels._ROW_BLOCK == 8192
    assert list(_kernels.segment_blocks(np.array([1, 512]), 8)) == [(0, 2)]
    assert list(_kernels.segment_blocks(np.array([1, 513]), 8)) \
        == [(0, 1), (1, 2)]
    assert list(_kernels.segment_blocks(np.array([2000, 2001]), 8)) \
        == [(0, 1), (1, 2)]
