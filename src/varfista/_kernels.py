"""Numpy kernels for the grid oracles, the schedule scan and the audit's
history-margin scan.

The grid kernels are vectorized; the 2-D ones walk the first axis in blocks
so that a dense scan holds at most about two million points at once.  The
schedule scan is a plain Python loop, because its recursion is sequential.
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
# stationarity residual scan for box/L1 quadratics
# ---------------------------------------------------------------------------
# h(u) = wl1 * ||u||_1 + indicator of [lo, hi]^n.  A point u is stationary
# when -grad f(u) lies in the subdifferential of h at u, which is an interval
# per component: wl1 * [sub-gradient of |.|] plus the normal cone of the box.
# The scan returns every grid point whose Euclidean distance from -grad to
# that interval is <= tol.  Coordinates within `snap` of the L1 kink at 0 are
# treated as sitting on the kink so float dust in grid construction cannot
# hide a genuine stationary point; box faces land on the grid exactly.

def _interval_dist(mg, u, lo, hi, wl1, snap):
    """Distance from mg to the interval at u (lo, hi scalars, broadcasting u)."""
    if wl1 > 0.0:
        on_kink = np.abs(u) <= snap
        sgn = np.where(u > snap, wl1, -wl1)
        a = np.where(on_kink, -wl1, sgn)
        b = np.where(on_kink, wl1, sgn)
    else:
        a = np.zeros_like(mg)
        b = np.zeros_like(mg)
    a = np.where(u <= lo + snap, -np.inf, a)
    b = np.where(u >= hi - snap, np.inf, b)
    return np.maximum(np.maximum(a - mg, mg - b), 0.0)


def qp_scan_1d(q, c, lo, hi, wl1, step, n_pts, tol, snap, out, max_hits):
    u = lo + step * np.arange(n_pts)
    u[-1] = hi
    mg = -(q * u + c)
    d = _interval_dist(mg, u, lo, hi, wl1, snap)
    hits = u[d <= tol]
    found = hits.shape[0]
    kept = min(found, max_hits)
    out[:kept] = hits[:kept]
    return found


def qp_scan_2d(Q, c, lo, hi, wl1, step0, n0, step1, n1, tol, snap, out,
               max_hits):
    u1 = lo[1] + step1 * np.arange(n1)
    u1[-1] = hi[1]
    found = 0
    block = max(1, int(2e6) // n1)
    for start in range(0, n0, block):
        stop = min(start + block, n0)
        u0 = lo[0] + step0 * np.arange(start, stop)
        if stop == n0:
            u0[-1] = hi[0]
        U0 = u0[:, None]
        mg0 = -(Q[0, 0] * U0 + Q[0, 1] * u1 + c[0])
        mg1 = -(Q[1, 0] * U0 + Q[1, 1] * u1 + c[1])
        d0 = _interval_dist(mg0, np.broadcast_to(U0, mg0.shape),
                            lo[0], hi[0], wl1, snap)
        d1 = _interval_dist(mg1, np.broadcast_to(u1, mg1.shape),
                            lo[1], hi[1], wl1, snap)
        mask = np.sqrt(d0 * d0 + d1 * d1) <= tol
        ii, jj = np.nonzero(mask)
        for r in range(ii.shape[0]):
            if found < max_hits:
                out[found, 0] = u0[ii[r]]
                out[found, 1] = u1[jj[r]]
            found += 1
    return found


# ---------------------------------------------------------------------------
# grid argmin of the composite objective for box/L1 quadratics
# ---------------------------------------------------------------------------

def qp_phi_argmin_1d(q, c, lo, hi, wl1, step, n_pts):
    u = lo + step * np.arange(n_pts)
    u[-1] = hi
    v = 0.5 * q * u * u + c * u + wl1 * np.abs(u)
    i = int(np.argmin(v))
    return u[i], v[i]


def qp_phi_argmin_2d(Q, c, lo, hi, wl1, step0, n0, step1, n1):
    u1 = lo[1] + step1 * np.arange(n1)
    u1[-1] = hi[1]
    best = math.inf
    a0 = lo[0]
    a1 = lo[1]
    block = max(1, int(2e6) // n1)
    for start in range(0, n0, block):
        stop = min(start + block, n0)
        u0 = lo[0] + step0 * np.arange(start, stop)
        if stop == n0:
            u0[-1] = hi[0]
        U0 = u0[:, None]
        v = (0.5 * (Q[0, 0] * U0 * U0 + (Q[0, 1] + Q[1, 0]) * U0 * u1
                    + Q[1, 1] * u1 * u1)
             + c[0] * U0 + c[1] * u1 + wl1 * (np.abs(U0) + np.abs(u1)))
        i = int(np.argmin(v))
        r, s = divmod(i, n1)
        if v[r, s] < best:
            best = float(v[r, s])
            a0 = float(u0[r])
            a1 = float(u1[s])
    return a0, a1, best


# ---------------------------------------------------------------------------
# grid argmin of an isotropic quadratic 0.5*kappa*||u||^2 + b.u on a rectangle
# ---------------------------------------------------------------------------

def iso_quad_argmin_1d(kappa, b, lo, hi, step, n_pts):
    u = lo + step * np.arange(n_pts)
    u[-1] = hi
    v = 0.5 * kappa * u * u + b * u
    i = int(np.argmin(v))
    return u[i], v[i]


def iso_quad_argmin_2d(kappa, b, lo, hi, step0, n0, step1, n1):
    u1 = lo[1] + step1 * np.arange(n1)
    u1[-1] = hi[1]
    best = math.inf
    a0 = lo[0]
    a1 = lo[1]
    block = max(1, int(2e6) // n1)
    for start in range(0, n0, block):
        stop = min(start + block, n0)
        u0 = lo[0] + step0 * np.arange(start, stop)
        if stop == n0:
            u0[-1] = hi[0]
        U0 = u0[:, None]
        v = 0.5 * kappa * (U0 * U0 + u1 * u1) + b[0] * U0 + b[1] * u1
        i = int(np.argmin(v))
        r, s = divmod(i, n1)
        if v[r, s] < best:
            best = float(v[r, s])
            a0 = float(u0[r])
            a1 = float(u1[s])
    return a0, a1, best
