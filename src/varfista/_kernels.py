"""Numpy kernels for the dense-grid oracles, the schedule scan and the
audit's history-margin scan.

The grid kernels share one blocked evaluator, ``grid_blocks``: it walks the
grid over a box in blocks of about two million points and hands each block
out as an open mesh, so a kernel's expression broadcasts over the block
without materializing coordinates, in any dimension.  The schedule scan is a
plain Python loop, because its recursion is sequential.
"""

from __future__ import annotations

import math

import numpy as np


def grid_1d(lo: float, hi: float, resolution: float) -> np.ndarray:
    """Uniform grid covering [lo, hi] with spacing <= resolution.

    Endpoints are exact so that box-boundary kinks land on the grid.
    """
    if not hi > lo:
        raise ValueError("grid requires hi > lo")
    if not resolution > 0.0:
        raise ValueError("grid resolution must be positive")
    n = int(math.ceil((hi - lo) / resolution)) + 1
    return np.linspace(lo, hi, n)


_BLOCK_POINTS = 2_000_000


def grid_blocks(lo, hi, resolution):
    """Open-mesh blocks of the grid over the box [lo, hi].

    Coordinate i runs over ``grid_1d(lo[i], hi[i], resolution)``, or over the
    single point lo[i] when hi[i] == lo[i].  The first axis is cut so that a
    block holds about two million points; each block is the ``np.ix_`` open
    mesh of its axis pieces, in row-major grid order.
    """
    axes = [np.array([l]) if l == h else grid_1d(l, h, resolution)
            for l, h in zip(map(float, lo), map(float, hi))]
    rest = math.prod(len(ax) for ax in axes[1:])
    block = max(1, _BLOCK_POINTS // rest)
    for start in range(0, len(axes[0]), block):
        yield np.ix_(axes[0][start:start + block], *axes[1:])


# ---------------------------------------------------------------------------
# momentum-schedule scan
# ---------------------------------------------------------------------------

def schedule_scan(A0, k_max):
    """Run the accumulation recursion a=(1+sqrt(1+4A))/2, A+=a for k_max steps.

    Tracks the worst-case margins of the growth bounds
        k/2 <= a_{k-1} <= 4k,
        sum_{i<=k} A_i >= k^3/12,
        (sum_{i<=k} a_{i-1}) / (sum_{i<=k} A_i) <= 4/k,
    and the largest relative gap |A_k - a_{k-1}^2| / A_k.

    Returns (min_lower, k_lower, min_upper, k_upper, min_sum, k_sum,
             min_ratio, k_ratio, max_gap, k_gap, a_last, A_last).
    """
    A = A0
    a = 0.0
    sum_A = 0.0
    sum_a = 0.0
    min_lower = math.inf
    min_upper = math.inf
    min_sum = math.inf
    min_ratio = math.inf
    max_gap = 0.0
    k_lower = 0
    k_upper = 0
    k_sum = 0
    k_ratio = 0
    k_gap = 0
    for k in range(1, k_max + 1):
        a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * A))
        A_next = A + a
        sum_A += A_next
        sum_a += a
        m = a - 0.5 * k
        if m < min_lower:
            min_lower = m
            k_lower = k
        m = 4.0 * k - a
        if m < min_upper:
            min_upper = m
            k_upper = k
        m = sum_A - (k * k * k) / 12.0
        if m < min_sum:
            min_sum = m
            k_sum = k
        m = 4.0 / k - sum_a / sum_A
        if m < min_ratio:
            min_ratio = m
            k_ratio = k
        g = A_next - a * a
        if g < 0.0:
            g = -g
        g = g / A_next
        if g > max_gap:
            max_gap = g
            k_gap = k
        A = A_next
    return (min_lower, k_lower, min_upper, k_upper, min_sum, k_sum,
            min_ratio, k_ratio, max_gap, k_gap, a, A)


# ---------------------------------------------------------------------------
# history-inequality margin
# ---------------------------------------------------------------------------

def history_margin(lam_hist, tau_hist, L_arr, xi_arr):
    """Worst margin of xi_k*lam_{i-1} - L_k*lam_i - tau_i over 1<=i<=k<=N.

    lam_hist has length N+1 (lam_0..lam_N); the other arrays have length N.
    Returns (min_margin, k_arg, i_arg) with 1-based k and i.
    """
    n = tau_hist.shape[0]
    best = math.inf
    k_arg = 0
    i_arg = 0
    prev = lam_hist[:-1]
    curr = lam_hist[1:]
    for k in range(1, n + 1):
        margins = (xi_arr[k - 1] * prev[:k] - L_arr[k - 1] * curr[:k]
                   - tau_hist[:k])
        i = int(np.argmin(margins))
        if margins[i] < best:
            best = float(margins[i])
            k_arg = k
            i_arg = i + 1
    return best, k_arg, i_arg




# ---------------------------------------------------------------------------
# dense-grid kernels for box/L1 quadratics
# ---------------------------------------------------------------------------
# phi(u) = 0.5 u'Qu + c'u + w ||u||_1 + indicator of the box [lo, hi].  Both
# kernels walk the grid block by block (see grid_blocks) and evaluate their
# expression on each block's open mesh, so any dimension takes the same code.
#
# A point u is stationary when -grad f(u) lies in the subdifferential of h at
# u, which is an interval per component: w * [sub-gradient of |.|] plus the
# normal cone of the box.  The scan keeps every grid point whose Euclidean
# distance from -grad to that interval is <= tol.  Coordinates within
# snap = resolution / 4 of the L1 kink at 0 are treated as sitting on the
# kink so float dust in grid construction cannot hide a genuine stationary
# point; box faces land on the grid exactly.

def _interval_dist(mg, u, lo, hi, wl1, snap):
    """Distance from mg to the interval at u (u, lo, hi broadcast to mg)."""
    if wl1 > 0.0:
        on_kink = np.abs(u) <= snap
        sgn = np.where(u > snap, wl1, -wl1)
        a = np.where(on_kink, -wl1, sgn)
        b = np.where(on_kink, wl1, sgn)
    else:
        a = b = 0.0
    a = np.where(u <= lo + snap, -np.inf, a)
    b = np.where(u >= hi - snap, np.inf, b)
    return np.maximum(np.maximum(a - mg, mg - b), 0.0)


def qp_grid_argmin(Q, c, w, lo, hi, resolution):
    """Grid argmin of 0.5 u'Qu + c'u + w ||u||_1 over the box [lo, hi].

    Returns (u, value); ties go to the first point in row-major grid order.
    """
    n = len(c)
    best = math.inf
    arg = np.array(lo, dtype=np.float64)
    for u in grid_blocks(lo, hi, resolution):
        v = 0.5 * sum((Q[i, i] if i == j else Q[i, j] + Q[j, i]) * u[i] * u[j]
                      for i in range(n) for j in range(i, n))
        for i in range(n):
            v = v + c[i] * u[i]
        v = v + w * sum(np.abs(ui) for ui in u)
        at = np.unravel_index(np.argmin(v), v.shape)
        if v[at] < best:
            best = float(v[at])
            arg = np.array([ui.ravel()[j] for ui, j in zip(u, at)])
    return arg, best


def qp_stationary_scan(Q, c, w, lo, hi, resolution, tol, max_hits):
    """Grid points whose stationarity residual is <= tol, as an (m, n) array.

    Points come in row-major grid order.  Raises RuntimeError as soon as more
    than max_hits points have passed.
    """
    n = len(c)
    snap = 0.25 * resolution
    hits = []
    found = 0
    for u in grid_blocks(lo, hi, resolution):
        dd = 0.0
        for i in range(n):
            mg = -(sum(Q[i, j] * u[j] for j in range(n)) + c[i])
            d = _interval_dist(mg, u[i], lo[i], hi[i], w, snap)
            dd = dd + d * d
        mask = np.sqrt(dd) <= tol
        found += int(np.count_nonzero(mask))
        if found > max_hits:
            raise RuntimeError("stationarity scan exceeded the hit cap; "
                               "the residual tolerance admits too many points")
        hits.append(np.stack([np.broadcast_to(ui, mask.shape)[mask]
                              for ui in u], axis=1))
    return np.concatenate(hits)
