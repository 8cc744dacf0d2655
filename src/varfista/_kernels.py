"""Numpy kernels for the dense-grid oracles and the audit's scans.

The grid kernels share one blocked evaluator, ``grid_blocks``: it walks the
grid over a box in blocks of about two million points and hands each block
out as an open mesh, so a kernel's expression broadcasts over the block
without materializing coordinates, in any dimension.
"""

from __future__ import annotations

import math

import numpy as np

# einsum's C entry.  ``np.einsum`` without ``optimize`` returns
# ``c_einsum(*operands)``, so this gives the same bits without the Python
# wrapper and its dispatcher, about 1 us a call: the solver takes several
# einsum products per iteration at n = 20.  The package takes every einsum
# through this one name.  No other dot form is bit-equal to einsum: ``@``,
# dot, vdot, inner and vecdot each differ from it on 350 of 500 random
# pairs of n = 20 vectors (numpy 2.4).
try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum


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
# scans of the audit
# ---------------------------------------------------------------------------
# The audit scans rows of the history, or best-point segments, in blocks of
# at most _ROW_BLOCK elements (one row or segment if larger): a few numpy
# calls per block, not per row or segment, and a small temporary.
# ``history_margin`` instead takes one margin vector per (xi, L) run: O(K S).

_ROW_BLOCK = 8192
# Gap scans (``HistoryLedger._gap_terms``) form their differences
# u - x_tilde_i in blocks of at most this many elements, 512 KB, which stays
# within a core's L2 cache.  Their main user is the audit (its paired scan
# and a best-point segment that fills a block alone): a solver rescan above
# one row block is screened down to a few rows first, 1411 kept over 204
# misses per dense-n1000 pass.  Timed per scan on a 2-vCPU Xeon VM, min of
# 15 x 5 calls, against _ROW_BLOCK-sized blocks and unblocked: 4.5, 5.8
# and 7.4 ms for one point at n = 1000, k = 1600; 7.9, 12.3 and 17.8 ms
# for 8 points at n = 1000, k = 400; at n = 20, within the noise of
# unblocked, where _ROW_BLOCK-sized blocks cost up to 1.5 times as much.
_SCAN_BLOCK = 65536


def row_blocks(rows, width, block=None):
    """(start, stop) of consecutive blocks of rows of the given width, at
    most ``block`` (default _ROW_BLOCK) elements each, or one row."""
    step = max(1, (block or _ROW_BLOCK) // max(width, 1))
    return ((s, min(s + step, rows)) for s in range(0, rows, step))


def segment_blocks(ends, width):
    """(first, stop) indices of consecutive blocks of segments, where
    segment j spans records 1..ends[j]: b segments whose last ends at e
    hold b e width elements, at most _ROW_BLOCK unless b is 1."""
    first = 0
    for j, e in enumerate(ends.tolist()):
        if j > first and (j - first + 1) * e * width > _ROW_BLOCK:
            yield first, j
            first = j
    yield first, len(ends)


def row_norms(P):
    """Euclidean norm of each row of P, equal bit for bit to
    ``np.linalg.norm(row)``: both take one dot product per row, where
    ``np.linalg.norm(P, axis=1)`` and einsum sum in other orders."""
    return np.sqrt(np.matmul(P[:, None, :], P[:, :, None])[:, 0, 0])


def first_max(values, floor):
    """Index of the first largest entry of values if it exceeds floor, else
    -1; NaN never wins, as in a loop of ``if v > best: best = v``."""
    v = np.where(np.isnan(values), -np.inf, values)
    i = int(np.argmax(v))
    return i if v[i] > floor else -1


def history_margin(lam_hist, tau_hist, L_arr, xi_arr):
    """Worst margin of xi_k*lam_{i-1} - (L_k*lam_i + tau_i) over 1<=i<=k<=N.

    The margin is the difference of the two sides the solver compares,
    each rounded as the solver rounds it.  The rounded difference of two
    doubles is 0 only when they are equal and otherwise has the sign of
    their exact difference, so a margin is negative exactly where the
    solver's strict comparison fails.  Subtracting L lam and then tau
    would not: where the solver's L lam + tau rounds to a tie with xi lam,
    it can read -4.4e-16.

    lam_hist has length N+1 (lam_0..lam_N); the other arrays have length N.
    Returns (min_margin, k_arg, i_arg) with 1-based k and i: the first
    strict minimum in row-major order, where a row k holding a NaN margin
    loses whole.  Every margin is evaluated, in one vector per (xi, L) run:
    the rows of a run have bitwise-equal (xi_k, L_k) (-0.0 and 0.0 differ)
    and are prefixes of one margin vector, whose first strict minimum goes
    to the run's first row that holds it.  O(N S) work for S runs.
    """
    n = tau_hist.shape[0]
    best, k_arg, i_arg = math.inf, 0, 0
    xv, Lv = xi_arr.view(np.int64), L_arr.view(np.int64)
    first = np.ones(n, dtype=bool)  # rows that start a run
    first[1:] = (xv[1:] != xv[:-1]) | (Lv[1:] != Lv[:-1])
    starts = np.flatnonzero(first).tolist()
    for s, e in zip(starts, starts[1:] + [n]):
        m = xi_arr[s] * lam_hist[:e] \
            - (L_arr[s] * lam_hist[1:e + 1] + tau_hist[:e])
        bad = np.flatnonzero(np.isnan(m))
        stop = int(bad[0]) if bad.size else e  # rows from stop on hold a NaN
        if stop > s:
            j = int(np.argmin(m[:stop]))
            if m[j] < best:
                best, k_arg, i_arg = float(m[j]), max(s, j) + 1, j + 1
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
