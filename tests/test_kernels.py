"""Numpy kernels against pure-Python references.

The loop references below evaluate the same scalar expression trees one grid
point at a time, so each vectorized kernel must match its reference bit for
bit; the grids are kept small enough for the loops to run quickly.
``schedule_scan``, itself a loop, is checked against a vectorized
recomputation from ``advance``.
"""

import math

import numpy as np
import pytest

from varfista import _kernels
from varfista._kernels import grid_1d
from varfista.momentum import advance


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


def _qp_scan_1d_loop(q, c, lo, hi, wl1, step, n_pts, tol, snap, out, max_hits):
    found = 0
    for i in range(n_pts):
        u = hi if i == n_pts - 1 else lo + i * step
        mg = -(q * u + c)
        d = _interval_dist(mg, u, lo, hi, wl1, snap)
        if d <= tol:
            if found < max_hits:
                out[found] = u
            found += 1
    return found


def _qp_scan_2d_loop(Q, c, lo, hi, wl1, step0, n0, step1, n1, tol, snap,
                     out, max_hits):
    found = 0
    for i in range(n0):
        u0 = hi[0] if i == n0 - 1 else lo[0] + i * step0
        for j in range(n1):
            u1 = hi[1] if j == n1 - 1 else lo[1] + j * step1
            mg0 = -(Q[0, 0] * u0 + Q[0, 1] * u1 + c[0])
            mg1 = -(Q[1, 0] * u0 + Q[1, 1] * u1 + c[1])
            d0 = _interval_dist(mg0, u0, lo[0], hi[0], wl1, snap)
            d1 = _interval_dist(mg1, u1, lo[1], hi[1], wl1, snap)
            if math.sqrt(d0 * d0 + d1 * d1) <= tol:
                if found < max_hits:
                    out[found, 0] = u0
                    out[found, 1] = u1
                found += 1
    return found


def _qp_phi_argmin_1d_loop(q, c, lo, hi, wl1, step, n_pts):
    best = math.inf
    arg = lo
    for i in range(n_pts):
        u = hi if i == n_pts - 1 else lo + i * step
        v = 0.5 * q * u * u + c * u + wl1 * abs(u)
        if v < best:
            best = v
            arg = u
    return arg, best


def _qp_phi_argmin_2d_loop(Q, c, lo, hi, wl1, step0, n0, step1, n1):
    best = math.inf
    a0 = lo[0]
    a1 = lo[1]
    for i in range(n0):
        u0 = hi[0] if i == n0 - 1 else lo[0] + i * step0
        for j in range(n1):
            u1 = hi[1] if j == n1 - 1 else lo[1] + j * step1
            v = (0.5 * (Q[0, 0] * u0 * u0 + (Q[0, 1] + Q[1, 0]) * u0 * u1
                        + Q[1, 1] * u1 * u1)
                 + c[0] * u0 + c[1] * u1 + wl1 * (abs(u0) + abs(u1)))
            if v < best:
                best = v
                a0 = u0
                a1 = u1
    return a0, a1, best


def _iso_quad_argmin_1d_loop(kappa, b, lo, hi, step, n_pts):
    best = math.inf
    arg = lo
    for i in range(n_pts):
        u = hi if i == n_pts - 1 else lo + i * step
        v = 0.5 * kappa * u * u + b * u
        if v < best:
            best = v
            arg = u
    return arg, best


def _iso_quad_argmin_2d_loop(kappa, b, lo, hi, step0, n0, step1, n1):
    best = math.inf
    a0 = lo[0]
    a1 = lo[1]
    for i in range(n0):
        u0 = hi[0] if i == n0 - 1 else lo[0] + i * step0
        for j in range(n1):
            u1 = hi[1] if j == n1 - 1 else lo[1] + j * step1
            v = 0.5 * kappa * (u0 * u0 + u1 * u1) + b[0] * u0 + b[1] * u1
            if v < best:
                best = v
                a0 = u0
                a1 = u1
    return a0, a1, best


def _schedule_scan_reference(A0, k_max):
    """schedule_scan recomputed from ``advance`` with numpy reductions."""
    a = np.empty(k_max)
    A_next = np.empty(k_max)
    A = A0
    for i in range(k_max):
        a[i], A = advance(A)
        A_next[i] = A
    k = np.arange(1, k_max + 1)
    sum_A = np.cumsum(A_next)
    sum_a = np.cumsum(a)
    gap = np.abs(A_next - a * a) / A_next
    out = []
    for m in (a - 0.5 * k, 4.0 * k - a, sum_A - (k * k * k) / 12.0,
              4.0 / k - sum_a / sum_A):
        i = int(np.argmin(m))
        out += [float(m[i]), i + 1]
    i = int(np.argmax(gap))
    out += [float(gap[i]), i + 1] if gap[i] > 0.0 else [0.0, 0]
    return tuple(out + [float(a[-1]), float(A)])


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


def test_schedule_scan_matches_reference():
    for k_max in (1, 7, 2000):
        assert (_kernels.schedule_scan(12.0, k_max)
                == _schedule_scan_reference(12.0, k_max))


def test_history_margin_matches_reference():
    rng = np.random.default_rng(9)
    for n in (1, 2, 5, 40):
        lam = rng.uniform(0.01, 1.0, size=n + 1)
        tau = rng.uniform(0.0, 0.5, size=n)
        L = rng.uniform(0.0, 2.0, size=n)
        xi = rng.uniform(0.0, 2.0, size=n)
        assert (_kernels.history_margin(lam, tau, L, xi)
                == _history_margin_loop(lam, tau, L, xi))


@pytest.mark.parametrize("wl1", [0.0, 0.25])
def test_qp_scan_1d_matches_reference(wl1):
    g = grid_1d(-1.0, 1.0, 1e-3)
    step = g[1] - g[0]
    for q, c in ((-1.0, 0.0), (2.0, -0.6), (0.0, 0.0)):
        out_a = np.zeros(len(g))
        out_b = np.zeros(len(g))
        fa = _qp_scan_1d_loop(q, c, -1.0, 1.0, wl1, step, len(g), 1e-4,
                              step / 4, out_a, len(g))
        fb = _kernels.qp_scan_1d(q, c, -1.0, 1.0, wl1, step, len(g), 1e-4,
                                 step / 4, out_b, len(g))
        assert fa == fb
        assert np.array_equal(out_a, out_b)


@pytest.mark.parametrize("wl1", [0.0, 0.25])
def test_qp_scan_2d_matches_reference(wl1):
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 2))
    Q = 0.5 * (M + M.T)
    c = rng.normal(size=2)
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    g = grid_1d(-1.0, 1.0, 2e-2)
    step = g[1] - g[0]
    n = len(g)
    out_a = np.zeros((n * 4, 2))
    out_b = np.zeros((n * 4, 2))
    tol = 2e-2
    fa = _qp_scan_2d_loop(Q, c, lo, hi, wl1, step, n, step, n, tol, step / 4,
                          out_a, n * 4)
    fb = _kernels.qp_scan_2d(Q, c, lo, hi, wl1, step, n, step, n, tol,
                             step / 4, out_b, n * 4)
    assert fa == fb and fa > 0
    kept = min(fa, n * 4)
    assert np.array_equal(out_a[:kept], out_b[:kept])


def test_argmin_kernels_match_reference():
    g = grid_1d(-1.0, 1.0, 1e-2)
    step = g[1] - g[0]
    n = len(g)
    for c in (-0.7, 0.7):  # minimizer on either side of the L1 kink
        args = (2.0, c, -1.0, 1.0, 0.3, step, n)
        assert (_kernels.qp_phi_argmin_1d(*args)
                == _qp_phi_argmin_1d_loop(*args))
    args = (1.7, 0.4, -1.0, 1.0, step, n)
    assert (_kernels.iso_quad_argmin_1d(*args)
            == _iso_quad_argmin_1d_loop(*args))
    lo = np.array([-1.0, -1.0])
    hi = np.array([1.0, 1.0])
    Q = np.array([[2.0, 0.3], [0.3, -1.0]])
    c = np.array([0.1, -0.2])
    args2 = (Q, c, lo, hi, 0.2, step, n, step, n)
    assert (_kernels.qp_phi_argmin_2d(*args2)
            == _qp_phi_argmin_2d_loop(*args2))
    b = np.array([0.5, -0.1])
    args3 = (2.5, b, lo, hi, step, n, step, n)
    assert (_kernels.iso_quad_argmin_2d(*args3)
            == _iso_quad_argmin_2d_loop(*args3))


def test_qp_scan_overflow_reports_total_count():
    # more hits than the buffer holds: found counts all, buffer keeps max_hits
    g = grid_1d(-1.0, 1.0, 1e-2)
    step = g[1] - g[0]
    out = np.zeros(5)
    found = _kernels.qp_scan_1d(0.0, 0.0, -1.0, 1.0, 0.0, step, len(g), 1e-9,
                                step / 4, out, 5)
    assert found == len(g)
    assert np.array_equal(out, g[:5])
