"""Numpy kernels for the audit's scans and the stationarity oracles.

The audit scans history rows and best-point segments in bounded blocks
(``row_blocks``, ``segment_blocks``) and takes the worst history margin in
one vector per run (``history_margin``).  ``_interval_dist`` is the one
stationarity kernel: the coordinatewise distance from a vector to the
subdifferential of a box-plus-l1 regularizer, which the exact oracles of
``gallery``, the anchor check of ``diagnostics`` and the certificate check
of ``problems`` all measure with.
"""

from __future__ import annotations

import math

import numpy as np

# einsum's C entry.  ``np.einsum`` without ``optimize`` returns
# ``c_einsum(*operands)``, so this gives the same bits without the Python
# wrapper and its dispatcher, about 1 us a call: the solver takes several
# einsum products per iteration at n = 20.  The package takes every einsum
# through this one name.  No other dot form is bit-equal to einsum: ``@``,
# dot, inner, vecdot and the conjugating dot each differ from it on 350 of
# 500 random pairs of n = 20 vectors (numpy 2.4).
try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum


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
# the stationarity kernel
# ---------------------------------------------------------------------------
# h(u) = w ||u||_1 + indicator of the box [lo, hi].  Its subdifferential at
# a point u of the box is an interval per coordinate: w times the
# subgradient of |.| (w sign(u_i), or [-w, w] at u_i = 0), plus the normal
# cone of the box ((-inf, 0] at u_i = lo_i, [0, inf) at u_i = hi_i, both at
# a zero-width coordinate).  A point u is stationary for f + h exactly when
# -grad f(u) lies in these intervals, so the distance is 0 in every
# coordinate.

def _interval_dist(mg, u, lo, hi, wl1):
    """Distance from mg to the interval of the subdifferential of h at u,
    per coordinate (u, lo, hi broadcast to mg); an infinite bound is never
    reached."""
    if wl1 > 0.0:
        a = np.where(u > 0.0, wl1, -wl1)
        b = np.where(u < 0.0, -wl1, wl1)
    else:
        a = b = 0.0
    a = np.where(u <= lo, -np.inf, a)
    b = np.where(u >= hi, np.inf, b)
    return np.maximum(np.maximum(a - mg, mg - b), 0.0)
