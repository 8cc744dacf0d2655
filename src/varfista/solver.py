"""Adaptive accelerated proximal-gradient solver with on-line curvature control.

The method minimizes phi(u) = f(u) + h(u) without knowing a Lipschitz or
curvature constant for f.  Each outer iteration forms a momentum point
x_tilde from the weight schedule, takes one prox step from it, and then
decides from observed value/gradient data whether that step is trustworthy:

* the stepsize ``lam`` shrinks when the local upper-curvature estimate U
  breaks U * lam <= gamma;
* the concavity weight ``xi`` doubles (from 1) when the committed history
  inequality  xi * lam_{i-1} >= L * lam_i + tau_i  fails for any past i,
  where L is a running lower-curvature estimate built from linearization
  gaps at all committed momentum points.

On convex inputs every lower-curvature gap is non-positive, so L and xi stay
exactly zero and the method reduces to a constant-extrapolation scheme.  The
committed history is append-only; it feeds both the L recursion and post-run
auditing, which makes memory grow linearly with the iteration count (bounded
by the iteration cap).

Termination: at the end of iteration k the residual
v_k = ((1+tau_k)/lam_k)(x_tilde_k - y_k) + grad f(y_k) - grad f(x_tilde_k)
certifies v_k in grad f(y_k) + sub-diff h(y_k); the run stops once
||v_k|| <= rho_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .momentum import A0_DEFAULT, advance, extrapolate
from .problems import Array, Certificate, CompositeProblem, phi

__all__ = [
    "SolverConfig", "LinearizationRecord", "HistoryLedger", "IterationTrace",
    "TRACE_HEADER", "solve", "compute_candidate",
    "compute_U", "update_best", "compute_L", "step_k3_conditions",
    "update_subroutine", "compute_x", "compute_v",
    "history_inequality_violated",
]

TRACE_HEADER = "k,lambda,xi,tau,U,L,residual,phi_y,phi_ymin,inner_repeats"


@dataclass
class SolverConfig:
    """Solver knobs; the defaults are the audited configuration."""

    lambda0: float = 1.0
    theta: float = 2.0
    gamma: float = 0.99
    rho_hat: float = 1e-6
    A0: float = A0_DEFAULT
    max_outer_iterations: int = 100_000
    max_inner_repeats_per_iteration: int = 1_000_000
    denom_epsilon: float = 1e-12

    def validate(self) -> None:
        if not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        if not self.theta > 1.0:
            raise ValueError("theta must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.rho_hat > 0.0:
            raise ValueError("rho_hat must be positive")
        if not self.A0 > 0.0:
            raise ValueError("A0 must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if self.max_inner_repeats_per_iteration < 1:
            raise ValueError("max_inner_repeats_per_iteration must be >= 1")
        if self.denom_epsilon < 0.0:
            raise ValueError("denom_epsilon must be non-negative")


@dataclass(frozen=True)
class LinearizationRecord:
    """Value and gradient of f frozen at one accepted momentum point."""

    x_tilde: Array
    f_at: float
    grad_at: Array
    index: int  # 1-based outer iteration that produced this record


class HistoryLedger:
    """Append-only committed history of the run.

    Holds lam_0..lam_k, tau_1..tau_k, and one linearization record per outer
    iteration, in preallocated doubling buffers.  The expensive part of the
    lower-curvature recursion, max over i <= k of the linearization gap of
    the incumbent best point against record i, is cached: while the best
    point is unchanged only newly appended records are folded in, and a
    change of best point triggers a full rescan.  Both paths evaluate the
    same per-record expression, so cached and rescanned maxima agree
    bit-for-bit.
    """

    def __init__(self, dimension: int, lambda0: float):
        self.dimension = dimension
        cap = 64
        self._lam = np.empty(cap + 1)
        self._lam[0] = lambda0
        self._n_lam = 1
        self._tau = np.empty(cap)
        self._X = np.empty((cap, dimension))
        self._F = np.empty(cap)
        self._G = np.empty((cap, dimension))
        self._XN2 = np.empty(cap)
        self._n_rec = 0
        self.cached_ymin: Optional[Array] = None
        self.cached_ymin_ratio_max = -math.inf
        self._cached_upto = 0

    # -- storage ------------------------------------------------------------

    def _grow(self) -> None:
        cap = self._F.shape[0] * 2
        for name in ("_lam", "_tau", "_F", "_XN2"):
            buf = getattr(self, name)
            new = np.empty(cap + 1 if name == "_lam" else cap)
            new[:buf.shape[0]] = buf
            setattr(self, name, new)
        for name in ("_X", "_G"):
            buf = getattr(self, name)
            new = np.empty((cap, self.dimension))
            new[:buf.shape[0]] = buf
            setattr(self, name, new)

    def append_linearization(self, x_tilde: Array, f_at: float,
                             grad_at: Array) -> int:
        if self._n_rec == self._F.shape[0]:
            self._grow()
        i = self._n_rec
        self._X[i] = x_tilde
        self._F[i] = f_at
        self._G[i] = grad_at
        self._XN2[i] = float(np.einsum("i,i->", x_tilde, x_tilde))
        self._n_rec += 1
        return i + 1

    def commit(self, lam: float, tau: float) -> None:
        """Record the accepted lam_k and tau_k for the just-closed iteration."""
        k = self._n_lam
        self._lam[k] = lam
        self._tau[k - 1] = tau
        self._n_lam += 1

    @property
    def n_records(self) -> int:
        return self._n_rec

    def record(self, index: int) -> LinearizationRecord:
        """Record for 1-based outer iteration ``index``."""
        if not 1 <= index <= self._n_rec:
            raise IndexError(f"no linearization record {index}")
        i = index - 1
        return LinearizationRecord(self._X[i].copy(), float(self._F[i]),
                                   self._G[i].copy(), index)

    def lam_history(self) -> Array:
        """Committed lam_0..lam_k (read-only view)."""
        return self._lam[:self._n_lam]

    def tau_history(self) -> Array:
        """Committed tau_1..tau_k (read-only view)."""
        return self._tau[:self._n_lam - 1]

    def x_tilde_norm2(self, index: int) -> float:
        return float(self._XN2[index - 1])

    def linearization_gaps(self, count: int, u: Array, f_u: float,
                           denom_epsilon: float, start: int = 0
                           ) -> Tuple[Array, Array, Array]:
        """Gap rows of u against records start+1..count (audit replay).

        Returns ``(quotients, den, gd)`` with, per record i and
        d = u - x_tilde_i: the guarded gap quotient, den = ||d||^2 and
        gd = grad f(x_tilde_i) . d.  The quotients are the internal cache's
        expression, so a full-replay maximum matches the cached one bit for
        bit.
        """
        if not 0 <= start <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        return self._gap_terms(start, count, u, f_u, denom_epsilon)

    def record_arrays(self, count: int):
        """Read-only views (X, F, G) of records 1..count, for vectorized audits."""
        if not 0 <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        return self._X[:count], self._F[:count], self._G[:count]

    # -- lower-curvature gap cache ------------------------------------------

    def _gap_terms(self, start: int, stop: int, u: Array, f_u: float,
                   denom_epsilon: float) -> Tuple[Array, Array, Array]:
        X = self._X[start:stop]
        G = self._G[start:stop]
        F = self._F[start:stop]
        d = u[None, :] - X
        gd = np.einsum("ij,ij->i", G, d)
        num = 2.0 * (F + gd - f_u)
        den = np.einsum("ij,ij->i", d, d)
        ok = den > denom_epsilon * (1.0 + self._XN2[start:stop])
        safe = np.where(ok, den, 1.0)
        return np.where(ok, num / safe, 0.0), den, gd

    def ymin_ratio_max(self, ymin: Array, f_ymin: float,
                       denom_epsilon: float) -> float:
        """Max linearization gap of ymin against every record so far."""
        if self._n_rec == 0:
            return -math.inf
        hit = (self.cached_ymin is not None
               and self.cached_ymin.shape == ymin.shape
               and bool(np.all(self.cached_ymin == ymin)))
        if hit:
            start = self._cached_upto
            best = self.cached_ymin_ratio_max
        else:
            start = 0
            best = -math.inf
        if start < self._n_rec:
            terms = self._gap_terms(start, self._n_rec, ymin, f_ymin,
                                    denom_epsilon)[0]
            m = float(np.max(terms))
            if m > best:
                best = m
        self.cached_ymin = ymin.copy()
        self.cached_ymin_ratio_max = best
        self._cached_upto = self._n_rec
        return best


class IterationTrace:
    """Per accepted iteration scalars, plus the iterate vectors for audits."""

    def __init__(self):
        self.k: List[int] = []
        self.a: List[float] = []
        self.A: List[float] = []
        self.lam: List[float] = []
        self.xi: List[float] = []
        self.tau: List[float] = []
        self.U: List[float] = []
        self.L: List[float] = []
        self.residual: List[float] = []
        self.phi_y: List[float] = []
        self.phi_ymin: List[float] = []
        self.inner_repeats: List[int] = []
        self.xs: List[Array] = []
        self.ys: List[Array] = []
        self.ymins: List[Array] = []

    def append(self, k, a, A, lam, xi, tau, U, L, residual, phi_y, phi_ymin,
               inner_repeats, x, y, ymin) -> None:
        self.k.append(k)
        self.a.append(a)
        self.A.append(A)
        self.lam.append(lam)
        self.xi.append(xi)
        self.tau.append(tau)
        self.U.append(U)
        self.L.append(L)
        self.residual.append(residual)
        self.phi_y.append(phi_y)
        self.phi_ymin.append(phi_ymin)
        self.inner_repeats.append(inner_repeats)
        self.xs.append(x)
        self.ys.append(y)
        self.ymins.append(ymin)

    def __len__(self) -> int:
        return len(self.k)

    @property
    def total_inner_repeats(self) -> int:
        return sum(self.inner_repeats)

    def write_csv(self, path: str) -> None:
        """Write the documented delimited trace; float repr keeps it
        byte-deterministic for identical runs."""
        with open(path, "w") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(len(self.k)):
                row = [str(self.k[i])] + [repr(v) for v in (
                    self.lam[i], self.xi[i], self.tau[i], self.U[i],
                    self.L[i], self.residual[i], self.phi_y[i],
                    self.phi_ymin[i])] + [str(self.inner_repeats[i])]
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# step operations
# ---------------------------------------------------------------------------

def compute_candidate(problem: CompositeProblem, x_tilde: Array, lam: float,
                      xi: float, a: float,
                      grad_x_tilde: Optional[Array] = None
                      ) -> Tuple[Array, float]:
    """Prox step from the momentum point under the current (lam, xi).

    Minimizes  lin_f(u; x_tilde) + h(u) + ((1+tau)/(2 lam)) ||u - x_tilde||^2
    with tau = 2 xi lam / a, which collapses to one prox call at stepsize
    s = lam / (1 + tau).  Returns (y, tau).
    """
    if grad_x_tilde is None:
        grad_x_tilde = problem.smooth.grad(x_tilde)
    tau = 2.0 * xi * lam / a
    s = lam / (1.0 + tau)
    y = problem.regularizer.prox(x_tilde - s * grad_x_tilde, s)
    return y, tau


def _guarded_ratio(num: float, den: float, x_tilde_norm2: float,
                   denom_epsilon: float) -> float:
    if den <= denom_epsilon * (1.0 + x_tilde_norm2):
        return 0.0
    return num / den


def compute_U(y: Array, f_y: float, x_tilde: Array, f_xt: float, g_xt: Array,
              xn2: float, denom_epsilon: float) -> float:
    """Local upper-curvature estimate 2[f(y) - lin_f(y; x_tilde)]/||y-x_tilde||^2.

    ``f_xt`` and ``g_xt`` are f and grad f at x_tilde, ``xn2`` is
    ||x_tilde||^2.  Returns 0 when y is too close to x_tilde for the ratio to
    be meaningful (squared distance <= denom_epsilon * (1 + xn2)).
    """
    d = y - x_tilde
    den = float(d @ d)
    lin = f_xt + float(g_xt @ d)
    return _guarded_ratio(2.0 * (f_y - lin), den, xn2, denom_epsilon)


def update_best(phi_cand: float, y_cand: Array, phi_best: float,
                y_best: Array) -> Tuple[float, Array, bool]:
    """Keep the smaller-phi point; ties keep the incumbent.

    Returns (phi, point, changed)."""
    if math.isinf(phi_cand) and math.isinf(phi_best):
        raise RuntimeError("both candidate and incumbent have infinite phi")
    if phi_cand < phi_best:
        return phi_cand, y_cand, True
    return phi_best, y_best, False


def _gap_term(record_x: Array, record_f: float, record_g: Array,
              record_xn2: float, u: Array, f_u: float,
              denom_epsilon: float) -> float:
    """2[lin_f(u; x_tilde_i) - f(u)]/||u - x_tilde_i||^2 with the usual guard.

    The one-record shape of ``HistoryLedger._gap_terms``: the same expression
    for a single record, which costs less than a one-row ``_gap_terms`` call
    for the single t1 term of ``compute_L``.
    """
    d = u - record_x
    den = float(np.einsum("i,i->", d, d))
    lin = record_f + float(np.einsum("i,i->", record_g, d))
    return _guarded_ratio(2.0 * (lin - f_u), den, record_xn2, denom_epsilon)


def compute_L(ledger: HistoryLedger, y_prev: Array, f_y_prev: float,
              ymin: Array, f_ymin: float, L_prev: float,
              denom_epsilon: float) -> float:
    """Lower-curvature recursion.

    max of: the gap of the previous iterate against the current record, the
    cached max gap of the incumbent best point against all records, the
    previous L, and 0.
    """
    k = ledger.n_records
    X, F, G = ledger.record_arrays(k)
    t1 = _gap_term(X[k - 1], float(F[k - 1]), G[k - 1],
                   ledger.x_tilde_norm2(k), y_prev, f_y_prev, denom_epsilon)
    t2 = ledger.ymin_ratio_max(ymin, f_ymin, denom_epsilon)
    return max(t1, t2, L_prev, 0.0)


def _committed_pairs_violated(xi: float, L: float, lam_hist: Array,
                              tau_hist: Array) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i for a committed i."""
    return bool(np.any(xi * lam_hist[:-1] < L * lam_hist[1:] + tau_hist))


def history_inequality_violated(xi: float, lam: float, tau: float, L: float,
                                lam_hist: Array, tau_hist: Array,
                                L_committed: float = math.nan) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i fails somewhere.

    The current trial (lam, tau) plays the role of index k against the last
    committed stepsize; committed pairs cover i = 1..k-1.  Comparisons are
    strict, in exact floating point.

    ``L_committed`` is the L every committed pair passed with, together with
    an xi no larger than this one (in ``solve``: the last accepted L and xi,
    since xi never decreases).  When L equals it, no committed pair can
    fail: lam_{i-1} > 0 and rounding is monotone, so
    fl(xi * lam_{i-1}) >= fl(xi_c * lam_{i-1}) >= fl(L * lam_i + tau_i), and
    only the trial pair is checked, in O(1).  Any other L, and the default
    NaN (no such certificate), scans every committed pair.
    """
    if xi * lam_hist[-1] < L * lam + tau:
        return True
    if tau_hist.shape[0] and L != L_committed:
        return _committed_pairs_violated(xi, L, lam_hist, tau_hist)
    return False


def step_k3_conditions(U: float, lam: float, xi: float, tau: float, L: float,
                       lam_hist: Array, tau_hist: Array, gamma: float,
                       L_committed: float = math.nan) -> bool:
    """True when the candidate must be re-tried with updated (xi, lam).

    ``L_committed`` is passed on to ``history_inequality_violated``.
    """
    if U * lam > gamma:
        return True
    return history_inequality_violated(xi, lam, tau, L, lam_hist, tau_hist,
                                       L_committed)


def update_subroutine(xi: float, lam: float, U: float, L: float, tau: float,
                      lam_hist: Array, tau_hist: Array, theta: float,
                      gamma: float, L_committed: float = math.nan
                      ) -> Tuple[float, float]:
    """Shrink lam and/or escalate xi; returns (xi_new, lam_new).

    The stepsize is updated first; the escalation check then runs against
    the updated stepsize but the passed-in tau.  ``L_committed`` is passed
    on to ``history_inequality_violated``.
    """
    lam_new = lam
    if U * lam > gamma:
        # gamma > 0 makes U > 0 here; guard the division anyway
        if not U > 0.0:
            raise RuntimeError("stepsize shrink requested with U <= 0")
        lam_new = min(lam / theta, gamma / U)
    if history_inequality_violated(xi, lam_new, tau, L, lam_hist, tau_hist,
                                   L_committed):
        xi = 1.0 if xi == 0.0 else 2.0 * xi
    return xi, lam_new


def compute_x(problem: CompositeProblem, A_prev: float, A_next: float,
              a: float, tau: float, y: Array, y_prev: Array) -> Array:
    """Projected anchor update; the unique minimizer of the anchor subproblem.

    x = P_Omega( ((1+tau) A_next)/(a (tau a + 1)) * y
                 - A_prev/(a (tau a + 1)) * y_prev ).
    """
    denom = a * (tau * a + 1.0)
    z = ((1.0 + tau) * A_next / denom) * y - (A_prev / denom) * y_prev
    return problem.omega.project(z)


def compute_v(x_tilde: Array, y: Array, grad_y: Array, grad_x_tilde: Array,
              lam: float, tau: float) -> Array:
    """Stationarity residual ((1+tau)/lam)(x_tilde - y) + grad f(y) - grad f(x_tilde)."""
    return ((1.0 + tau) / lam) * (x_tilde - y) + grad_y - grad_x_tilde


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def solve(problem: CompositeProblem, config: SolverConfig, y0: Array,
          ) -> Tuple[Certificate, IterationTrace, HistoryLedger]:
    """Run the adaptive solver from y0.

    Returns (certificate, trace, ledger); the ledger is the committed history
    consumed by post-run audits.  Raises ValueError for bad configuration or
    a y0 outside dom h, RuntimeError when the per-iteration repeat cap is
    exhausted (in practice: inconsistent value/gradient oracles).
    """
    config.validate()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (problem.dimension,):
        raise ValueError("y0 does not match problem dimension")
    phi0 = phi(problem, y0)
    if not math.isfinite(phi0):
        raise ValueError("y0 lies outside dom h")

    smooth = problem.smooth
    reg = problem.regularizer

    ledger = HistoryLedger(problem.dimension, config.lambda0)
    trace = IterationTrace()
    prox_calls = 0
    grad_calls = 0

    # carried across outer iterations: the last accepted values
    A = config.A0
    y = y0
    x = y0.copy()
    f_y = smooth.value(y0)
    ymin = y0
    phi_ymin = phi0
    f_ymin = f_y
    lam = config.lambda0
    xi = 0.0
    L = 0.0
    k = 0
    v = np.zeros_like(y0)
    resid = math.inf
    converged = False

    for k in range(1, config.max_outer_iterations + 1):
        a, A_next = advance(A)
        x_tilde = extrapolate(A, A_next, a, y, x)
        f_xt = smooth.value(x_tilde)
        g_xt = smooth.grad(x_tilde)
        grad_calls += 1
        idx = ledger.append_linearization(x_tilde, f_xt, g_xt)
        xn2 = ledger.x_tilde_norm2(idx)

        lam_hist = ledger.lam_history()
        tau_hist = ledger.tau_history()
        y_prev = y
        f_y_prev = f_y
        repeats = 0

        while True:
            y, tau = compute_candidate(problem, x_tilde, lam, xi, a, g_xt)
            prox_calls += 1
            f_y = smooth.value(y)
            phi_y = f_y + reg.value(y)
            U = compute_U(y, f_y, x_tilde, f_xt, g_xt, xn2,
                          config.denom_epsilon)

            phi_ymin, ymin, changed = update_best(phi_y, y, phi_ymin, ymin)
            if changed:
                f_ymin = f_y

            L_cand = compute_L(ledger, y_prev, f_y_prev, ymin, f_ymin, L,
                               config.denom_epsilon)

            if not step_k3_conditions(U, lam, xi, tau, L_cand, lam_hist,
                                      tau_hist, config.gamma, L):
                break
            if repeats >= config.max_inner_repeats_per_iteration:
                raise RuntimeError(
                    f"iteration {k}: inner repeat cap "
                    f"{config.max_inner_repeats_per_iteration} exhausted; "
                    "value/gradient oracles are likely inconsistent")
            xi, lam = update_subroutine(xi, lam, U, L_cand, tau, lam_hist,
                                        tau_hist, config.theta, config.gamma,
                                        L)
            repeats += 1

        # commit the accepted iteration
        ledger.commit(lam, tau)
        x = compute_x(problem, A, A_next, a, tau, y, y_prev)
        g_y = smooth.grad(y)
        grad_calls += 1
        v = compute_v(x_tilde, y, g_y, g_xt, lam, tau)
        resid = float(np.linalg.norm(v))

        trace.append(k, a, A_next, lam, xi, tau, U, L_cand, resid, phi_y,
                     phi_ymin, repeats, x, y, ymin)
        A = A_next
        L = L_cand

        if resid <= config.rho_hat:
            converged = True
            break

    cert = Certificate(y_hat=y.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=prox_calls,
                       grad_calls=grad_calls, converged=converged)
    return cert, trace, ledger
