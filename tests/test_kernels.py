"""Numpy kernels against pure-Python references.

The loop references below evaluate the same scalar expression trees one grid
point at a time, so each vectorized kernel must match its reference bit for
bit; the grids are kept small enough for the loops to run quickly.
"""

import itertools
import math

import numpy as np
import pytest

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
