"""Numpy kernels against pure-Python references.

The loop references below evaluate the same scalar expression trees one grid
point at a time, so each vectorized kernel must match its reference bit for
bit; the grids are kept small enough for the loops to run quickly.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista import _kernels
from varfista._kernels import grid_1d


# ---------------------------------------------------------------------------
# pure-Python references
# ---------------------------------------------------------------------------

def _history_margin_loop(lam_hist, tau_hist, L_arr, xi_arr):
    """Worst margin of xi_k*lam_{i-1} - L_k*lam_i - tau_i over 1<=i<=k<=N.

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
            m = xi * lam_hist[i - 1] - L * lam_hist[i] - tau_hist[i - 1]
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
        margins = (xi_arr[k - 1] * lam_hist[:k] - L_arr[k - 1]
                   * lam_hist[1:k + 1] - tau_hist[:k])
        i = int(np.argmin(margins))
        if margins[i] < best:
            best = float(margins[i])
            k_arg = k
            i_arg = i + 1
    return best, k_arg, i_arg


def _interval_dist(mg, u, lo, hi, wl1, snap):
    if wl1 > 0.0:
        if u < -snap:
            a = -wl1
            b = -wl1
        elif u > snap:
            a = wl1
            b = wl1
        else:
            a = -wl1
            b = wl1
    else:
        a = 0.0
        b = 0.0
    if u <= lo + snap:
        a = -math.inf
    if u >= hi - snap:
        b = math.inf
    if mg < a:
        return a - mg
    if mg > b:
        return mg - b
    return 0.0


def _axis(lo, hi, res):
    """Grid axis one point at a time: lo + j * step, the last point hi."""
    if hi == lo:
        return [lo]
    m = int(math.ceil((hi - lo) / res)) + 1
    step = (hi - lo) / (m - 1)
    return [hi if j == m - 1 else lo + j * step for j in range(m)]


def _grid(lo, hi, res):
    return itertools.product(*(_axis(l, h, res) for l, h in zip(lo, hi)))


def _qp_grid_argmin_loop(Q, c, w, lo, hi, res):
    n = len(c)
    best = math.inf
    arg = list(lo)
    for u in _grid(lo, hi, res):
        quad = 0.0
        for i in range(n):
            for j in range(i, n):
                q = Q[i][i] if i == j else Q[i][j] + Q[j][i]
                quad = quad + q * u[i] * u[j]
        v = 0.5 * quad
        for i in range(n):
            v = v + c[i] * u[i]
        l1 = 0.0
        for i in range(n):
            l1 = l1 + abs(u[i])
        v = v + w * l1
        if v < best:
            best = v
            arg = list(u)
    return arg, best


def _qp_stationary_scan_loop(Q, c, w, lo, hi, res, tol):
    n = len(c)
    snap = 0.25 * res
    hits = []
    for u in _grid(lo, hi, res):
        dd = 0.0
        for i in range(n):
            s = 0.0
            for j in range(n):
                s = s + Q[i][j] * u[j]
            d = _interval_dist(-(s + c[i]), u[i], lo[i], hi[i], w, snap)
            dd = dd + d * d
        if math.sqrt(dd) <= tol:
            hits.append(u)
    return np.array(hits).reshape(-1, n)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_grid_1d_endpoints_and_spacing():
    g = grid_1d(-1.0, 1.0, 0.3)
    assert g[0] == -1.0 and g[-1] == 1.0
    assert np.all(np.diff(g) <= 0.3 + 1e-15)
    assert np.all(np.diff(g) > 0)
    with pytest.raises(ValueError):
        grid_1d(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        grid_1d(0.0, 1.0, 0.0)


def test_interval_dist_scalar_cases():
    # interior of the box, no L1: subdifferential is {0}
    assert _interval_dist(0.5, 0.2, -1.0, 1.0, 0.0, 1e-9) == 0.5
    assert _interval_dist(0.0, 0.2, -1.0, 1.0, 0.0, 1e-9) == 0.0
    # at the upper face the cone absorbs any positive excess
    assert _interval_dist(3.0, 1.0, -1.0, 1.0, 0.0, 1e-9) == 0.0
    assert _interval_dist(-3.0, 1.0, -1.0, 1.0, 0.0, 1e-9) == 3.0
    # on the L1 kink the interval is [-w, w]
    assert _interval_dist(0.4, 0.0, -1.0, 1.0, 0.5, 1e-9) == 0.0
    assert _interval_dist(0.7, 0.0, -1.0, 1.0, 0.5, 1e-9) == pytest.approx(0.2)
    # off the kink it collapses to {sign(u) * w}
    assert _interval_dist(0.5, 0.3, -1.0, 1.0, 0.5, 1e-9) == 0.0
    assert _interval_dist(0.0, 0.3, -1.0, 1.0, 0.5, 1e-9) == 0.5


def test_interval_dist_vec_matches_scalar():
    rng = np.random.default_rng(5)
    for wl1 in (0.0, 0.3):
        mg = rng.normal(scale=2.0, size=200)
        u = rng.uniform(-1.2, 1.2, size=200)
        got = _kernels._interval_dist(mg, u, -1.0, 1.0, wl1, 1e-9)
        want = np.array([_interval_dist(m, x, -1.0, 1.0, wl1, 1e-9)
                         for m, x in zip(mg, u)])
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


def _cases(n):
    """(Q, c) cases as lists, and boxes with and without a zero-width side."""
    rng = np.random.default_rng(3 + n)
    M = rng.normal(size=(n, n))
    Qs = [0.5 * (M + M.T), np.diag(np.linspace(2.0, -1.0, n)),
          np.zeros((n, n))]
    cs = [rng.normal(size=n), np.full(n, 0.7), np.zeros(n)]
    boxes = [([-1.0, -0.5][:n], [1.0, 0.75][:n]),
             ([0.3, -1.0][:n], [0.3, 1.0][:n])]
    return [(Q.tolist(), c.tolist()) for Q, c in zip(Qs, cs)], boxes


@pytest.mark.parametrize("w", [0.0, 0.25])
@pytest.mark.parametrize("n", [1, 2])
def test_qp_grid_argmin_matches_reference(n, w, monkeypatch):
    # small blocks, so ties and minima are carried across block edges
    monkeypatch.setattr(_kernels, "_BLOCK_POINTS", 37)
    res = 1e-3 if n == 1 else 2e-2
    qcs, boxes = _cases(n)
    for (Q, c), (lo, hi) in itertools.product(qcs, boxes):
        arg, val = _kernels.qp_grid_argmin(np.array(Q), np.array(c), w,
                                           np.array(lo), np.array(hi), res)
        want_arg, want_val = _qp_grid_argmin_loop(Q, c, w, lo, hi, res)
        assert arg.tolist() == want_arg and val == want_val


@pytest.mark.parametrize("w", [0.0, 0.25])
@pytest.mark.parametrize("n", [1, 2])
def test_qp_stationary_scan_matches_reference(n, w, monkeypatch):
    monkeypatch.setattr(_kernels, "_BLOCK_POINTS", 37)
    res = 1e-3 if n == 1 else 2e-2
    qcs, boxes = _cases(n)
    found = 0
    for (Q, c), (lo, hi) in itertools.product(qcs, boxes):
        got = _kernels.qp_stationary_scan(np.array(Q), np.array(c), w,
                                          np.array(lo), np.array(hi), res,
                                          2e-2, 10 ** 6)
        want = _qp_stationary_scan_loop(Q, c, w, lo, hi, res, 2e-2)
        assert got.shape == want.shape and np.array_equal(got, want)
        found += len(got)
    assert found > 0


def test_qp_stationary_scan_raises_past_max_hits():
    # with f = 0 and no L1 term every one of the 201 grid points passes
    args = (np.zeros((1, 1)), np.zeros(1), 0.0, np.array([-1.0]),
            np.array([1.0]), 1e-2, 1e-9)
    assert _kernels.qp_stationary_scan(*args, 201).shape == (201, 1)
    with pytest.raises(RuntimeError, match="hit cap"):
        _kernels.qp_stationary_scan(*args, 5)


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
