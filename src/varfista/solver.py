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
from .problems import Array, Certificate, CompositeProblem

__all__ = [
    "SolverConfig", "NumericalFailure", "RepeatCapExhausted", "HistoryLedger",
    "IterationTrace", "TRACE_HEADER", "DENOM_EPSILON", "solve",
    "compute_candidate", "compute_U", "compute_x", "compute_v",
    "history_inequality_violated",
]

TRACE_HEADER = "k,lambda,xi,tau,U,L,residual,phi_y,phi_ymin,inner_repeats"

# a curvature quotient over d = u - x_tilde reads 0 when
# ||d||^2 <= DENOM_EPSILON * (1 + ||x_tilde||^2)
DENOM_EPSILON = 1e-12
_MAX_INNER_REPEATS = 1_000_000  # trials per outer iteration


@dataclass
class SolverConfig:
    """Solver knobs; the defaults are the audited configuration."""

    lambda0: float = 1.0
    theta: float = 2.0
    gamma: float = 0.99
    rho_hat: float = 1e-6
    max_outer_iterations: int = 100_000

    def validate(self) -> None:
        if not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        if not self.theta > 1.0:
            raise ValueError("theta must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.rho_hat > 0.0:
            raise ValueError("rho_hat must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


class NumericalFailure(FloatingPointError):
    """The smooth oracle gave a non-finite value or gradient during a run.

    ``solve`` and both baselines raise it, through ``_require_finite`` only.
    """


class RepeatCapExhausted(RuntimeError):
    """One outer iteration of ``solve`` retried its trial too many times."""


class HistoryLedger:
    """Append-only committed history of the run.

    Holds lam_0..lam_k, tau_1..tau_k, and one linearization record per outer
    iteration, in preallocated doubling buffers.  The expensive part of the
    lower-curvature recursion, max over i <= k of the linearization gap of
    the incumbent best point against record i, is cached.  The cache is keyed
    like the oracle's Q @ u memo: it hits only when the best point is the
    cached array itself (``is``, no copy kept) with unchanged ``tobytes()``.
    On a hit each newly appended record is folded in through the one-record
    ``_gap_term``, at O(n) cost per record.  A miss rescans every record with
    ``_gap_terms``.  Both forms evaluate the same per-record expression and
    guard, so their quotients agree bit-for-bit, NaN included, and so do
    cached and rescanned maxima: like ``np.max``, the fold carries a NaN.
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
        self._cached_bytes = b""
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

    def lam_history(self) -> Array:
        """Committed lam_0..lam_k (read-only view)."""
        return self._lam[:self._n_lam]

    def tau_history(self) -> Array:
        """Committed tau_1..tau_k (read-only view)."""
        return self._tau[:self._n_lam - 1]

    def x_tilde_norm2(self, index: int) -> float:
        return float(self._XN2[index - 1])

    def linearization_gaps(self, count: int, u: Array, f_u: float,
                           start: int = 0) -> Tuple[Array, Array, Array]:
        """Gap rows of u against records start+1..count (audit replay).

        Returns ``(quotients, den, gd)`` with, per record i and
        d = u - x_tilde_i: the guarded gap quotient, den = ||d||^2 and
        gd = grad f(x_tilde_i) . d.  The quotients are the internal cache's
        expression, so a full-replay maximum matches the cached one bit for
        bit.
        """
        if not 0 <= start <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        return self._gap_terms(start, count, u, f_u)

    def record_arrays(self, count: int):
        """Read-only views (X, F, G) of records 1..count, for vectorized audits."""
        if not 0 <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        return self._X[:count], self._F[:count], self._G[:count]

    # -- lower-curvature gap cache ------------------------------------------

    def _gap_terms(self, start: int, stop: int, u: Array, f_u: float
                   ) -> Tuple[Array, Array, Array]:
        X = self._X[start:stop]
        G = self._G[start:stop]
        F = self._F[start:stop]
        d = u[None, :] - X
        gd = np.einsum("ij,ij->i", G, d)
        num = 2.0 * (F + gd - f_u)
        den = np.einsum("ij,ij->i", d, d)
        ok = ~(den <= DENOM_EPSILON * (1.0 + self._XN2[start:stop]))
        safe = np.where(ok, den, 1.0)
        return np.where(ok, num / safe, 0.0), den, gd

    def _record_gap(self, index: int, u: Array, f_u: float) -> float:
        """Gap quotient of u against 1-based record ``index``, in O(n)."""
        i = index - 1
        return _gap_term(self._X[i], float(self._F[i]), self._G[i],
                         float(self._XN2[i]), u, f_u)

    def _is_cached(self, ymin: Array) -> bool:
        return (ymin is self.cached_ymin
                and ymin.tobytes() == self._cached_bytes)

    def ymin_ratio_max(self, ymin: Array, f_ymin: float) -> float:
        """Max linearization gap of ymin against every record so far."""
        n = self._n_rec
        if n == 0:
            return -math.inf
        if self._is_cached(ymin):
            best = self.cached_ymin_ratio_max
            for i in range(self._cached_upto + 1, n + 1):
                m = self._record_gap(i, ymin, f_ymin)
                if m > best or m != m:  # a NaN carries, as in np.max
                    best = m
        else:
            best = float(np.max(self._gap_terms(0, n, ymin, f_ymin)[0]))
            self.cached_ymin = ymin
            self._cached_bytes = ymin.tobytes()
        self.cached_ymin_ratio_max = best
        self._cached_upto = n
        return best


class IterationTrace:
    """Per accepted iteration scalars, plus the iterate vectors for audits."""

    def __init__(self):
        self.a: List[float] = []
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

    def append(self, a, lam, xi, tau, U, L, residual, phi_y, phi_ymin,
               inner_repeats, x, y, ymin) -> None:
        self.a.append(a)
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
        return len(self.lam)

    def write_csv(self, path: str) -> None:
        """Write the documented delimited trace, row i as iteration k = i + 1;
        float repr keeps it byte-deterministic for identical runs."""
        with open(path, "w") as fh:
            fh.write(TRACE_HEADER + "\n")
            for i in range(len(self.lam)):
                row = [str(i + 1)] + [repr(v) for v in (
                    self.lam[i], self.xi[i], self.tau[i], self.U[i],
                    self.L[i], self.residual[i], self.phi_y[i],
                    self.phi_ymin[i])] + [str(self.inner_repeats[i])]
                fh.write(",".join(row) + "\n")


# ---------------------------------------------------------------------------
# step operations
# ---------------------------------------------------------------------------

def compute_candidate(problem: CompositeProblem, x_tilde: Array, lam: float,
                      xi: float, a: float, grad_x_tilde: Array
                      ) -> Tuple[Array, float]:
    """Prox step from the momentum point under the current (lam, xi).

    Minimizes  lin_f(u; x_tilde) + h(u) + ((1+tau)/(2 lam)) ||u - x_tilde||^2
    with tau = 2 xi lam / a, which collapses to one prox call at stepsize
    s = lam / (1 + tau), with ``grad_x_tilde`` = grad f(x_tilde).
    Returns (y, tau).
    """
    tau = 2.0 * xi * lam / a
    s = lam / (1.0 + tau)
    y = problem.regularizer.prox(x_tilde - s * grad_x_tilde, s)
    return y, tau


def compute_U(y: Array, f_y: float, x_tilde: Array, f_xt: float, g_xt: Array,
              xn2: float) -> float:
    """Local upper-curvature estimate 2[f(y) - lin_f(y; x_tilde)]/||y-x_tilde||^2.

    ``f_xt`` and ``g_xt`` are f and grad f at x_tilde, ``xn2`` is
    ||x_tilde||^2.  Returns 0 when y is too close to x_tilde for the ratio to
    be meaningful (squared distance <= DENOM_EPSILON * (1 + xn2)), before
    the gradient enters, so a non-finite one cannot reach a guarded quotient.
    """
    d = y - x_tilde
    den = float(d @ d)
    if den <= DENOM_EPSILON * (1.0 + xn2):
        return 0.0
    # vdot, not @: an infinite gradient entry facing a zero entry of d (a
    # coordinate the box pinned) gives NaN, and NaN reaches U without the
    # RuntimeWarning that the matmul ufunc raises; the two agree bit for bit
    lin = f_xt + float(np.vdot(g_xt, d))
    return 2.0 * (f_y - lin) / den


def _gap_term(record_x: Array, record_f: float, record_g: Array,
              record_xn2: float, u: Array, f_u: float) -> float:
    """2[lin_f(u; x_tilde_i) - f(u)]/||u - x_tilde_i||^2 with the usual guard.

    The one-record shape of ``HistoryLedger._gap_terms``: the same expression
    for a single record, equal bit for bit to a one-row ``_gap_terms`` call
    and cheaper.  The t1 term of L in ``solve`` and the ledger's one-record
    fold use it.
    """
    d = u - record_x
    den = float(np.einsum("i,i->", d, d))
    if den <= DENOM_EPSILON * (1.0 + record_xn2):
        return 0.0
    lin = record_f + float(np.einsum("i,i->", record_g, d))
    return 2.0 * (lin - f_u) / den


def _committed_pairs_violated(xi: float, L: float, lam_hist: Array,
                              tau_hist: Array) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i for a committed i."""
    return bool(np.any(xi * lam_hist[:-1] < L * lam_hist[1:] + tau_hist))


def history_inequality_violated(xi: float, lam: float, tau: float, L: float,
                                lam_hist: Array, tau_hist: Array,
                                L_committed: float) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i fails somewhere.

    The current trial (lam, tau) plays the role of index k against the last
    committed stepsize; committed pairs cover i = 1..k-1.  Comparisons are
    strict, in exact floating point.

    ``L_committed`` is the L every committed pair passed with, together with
    an xi no larger than this one (in ``solve``: the last accepted L and xi,
    since xi never decreases).  When L equals it, no committed pair can
    fail: lam_{i-1} > 0 and rounding is monotone, so
    fl(xi * lam_{i-1}) >= fl(xi_c * lam_{i-1}) >= fl(L * lam_i + tau_i), and
    only the trial pair is checked, in O(1).  Any other L, NaN included (no
    such certificate), scans every committed pair.
    """
    if xi * lam_hist[-1] < L * lam + tau:
        return True
    if tau_hist.shape[0] and L != L_committed:
        return _committed_pairs_violated(xi, L, lam_hist, tau_hist)
    return False


def _retry_step(U: float, lam: float, xi: float, tau: float, L: float,
                lam_hist: Array, tau_hist: Array, L_committed: float,
                theta: float, gamma: float) -> Optional[Tuple[float, float]]:
    """None to accept the trial, else the (xi, lam) to retry it with.

    U * lam > gamma shrinks lam to min(lam / theta, gamma / U); U > 0 there,
    since gamma > 0.  The history inequality is then checked once, against
    the shrunk (or kept) lam and the trial's tau, and a failure escalates
    xi: 0 -> 1, then doubling.  A trial that needs neither is accepted.
    """
    shrink = U * lam > gamma
    if shrink:
        lam = min(lam / theta, gamma / U)
    if history_inequality_violated(xi, lam, tau, L, lam_hist, tau_hist,
                                   L_committed):
        xi = 1.0 if xi == 0.0 else 2.0 * xi
    elif not shrink:
        return None
    return xi, lam


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
# run contract, shared with the baselines
# ---------------------------------------------------------------------------

def _require_finite(k: int, trial: Optional[int], *named: tuple) -> None:
    """Raise NumericalFailure on the first non-finite (name, value) pair.

    The message reads ``<where>: <name> = <value>``, where ``<where>`` is
    "start point" for k = 0, else "iteration k", plus ", trial <trial>"
    when a trial is given.  A pair may carry a third item, a cause, which
    follows after ``; ``.  This is the one place that raises
    NumericalFailure.  It formats a message only on failure, since the
    solve loop calls it on every trial.
    """
    for pair in named:
        if not math.isfinite(pair[1]):
            name, value, *cause = pair
            where = "start point" if k == 0 else f"iteration {k}"
            if trial is not None:
                where += f", trial {trial}"
            raise NumericalFailure(
                "; ".join([f"{where}: {name} = {value}", *cause]))


def _start(problem: CompositeProblem, config: SolverConfig, y0: Array
           ) -> Tuple[Array, float, float]:
    """Validated (y0, f(y0), phi(y0)), with one value call at y0.

    Raises ValueError for a bad configuration or a y0 of the wrong shape or
    outside dom h, and NumericalFailure when f(y0) is non-finite.
    """
    config.validate()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (problem.dimension,):
        raise ValueError("y0 does not match problem dimension")
    h0 = problem.regularizer.value(y0)
    if not math.isfinite(h0):
        raise ValueError("y0 lies outside dom h")
    f0 = problem.smooth.value(y0)
    _require_finite(0, None, ("f(y0)", f0))
    return y0, f0, f0 + h0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def solve(problem: CompositeProblem, config: SolverConfig, y0: Array,
          ) -> Tuple[Certificate, IterationTrace, HistoryLedger]:
    """Run the adaptive solver from y0.

    Returns (certificate, trace, ledger); the ledger is the committed history
    consumed by post-run audits.  Raises ValueError, from ``_start`` as the
    baselines do, for a bad configuration or a y0 of the wrong shape or
    outside dom h; RepeatCapExhausted when one iteration retries its trial
    more than ``_MAX_INNER_REPEATS`` times (in practice: inconsistent
    value/gradient oracles); and NumericalFailure, from ``_require_finite``,
    on the first non-finite one of f(y0), f(x_tilde_k), a trial's f(y), U
    and L, and the residual.  Every gradient ``solve`` asks for, at
    x_tilde_k or at the accepted y_k, enters v_k, so a non-finite one
    surfaces in the iteration where it occurs.
    """
    y0, f_y, phi0 = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer

    ledger = HistoryLedger(problem.dimension, config.lambda0)
    trace = IterationTrace()
    prox_calls = 0
    grad_calls = 0

    # carried across outer iterations: the last accepted values
    A = A0_DEFAULT
    y = y0
    x = y0.copy()
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
        _require_finite(k, None, ("f(x_tilde)", f_xt))
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
            U = compute_U(y, f_y, x_tilde, f_xt, g_xt, xn2)

            if phi_y < phi_ymin:  # ties keep the incumbent
                phi_ymin, ymin, f_ymin = phi_y, y, f_y

            # lower-curvature recursion: the gap of the previous iterate
            # against this record, the incumbent's max gap over all records,
            # the previous L, and 0
            L_cand = max(
                ledger._record_gap(idx, y_prev, f_y_prev),
                ledger.ymin_ratio_max(ymin, f_ymin),
                L, 0.0)
            # one check per trial; f(y) comes first, so a non-finite f(y)
            # is named rather than the U or L it spoils
            _require_finite(
                k, repeats, ("f(y)", f_y),
                ("U", U, "grad f at the momentum point is non-finite"),
                ("L", L_cand, "a recorded gradient is non-finite"))

            retry = _retry_step(U, lam, xi, tau, L_cand, lam_hist, tau_hist,
                                L, config.theta, config.gamma)
            if retry is None:
                break
            if repeats >= _MAX_INNER_REPEATS:
                raise RepeatCapExhausted(
                    f"iteration {k}: inner repeat cap "
                    f"{_MAX_INNER_REPEATS} exhausted; "
                    "value/gradient oracles are likely inconsistent")
            xi, lam = retry
            repeats += 1

        # commit the accepted iteration
        ledger.commit(lam, tau)
        x = compute_x(problem, A, A_next, a, tau, y, y_prev)
        g_y = smooth.grad(y)
        grad_calls += 1
        v = compute_v(x_tilde, y, g_y, g_xt, lam, tau)
        resid = math.sqrt(float(v @ v))
        _require_finite(k, None, (
            "residual", resid, "grad f at the momentum point or the "
            "accepted trial point is non-finite"))

        trace.append(a, lam, xi, tau, U, L_cand, resid, phi_y, phi_ymin,
                     repeats, x, y, ymin)
        A = A_next
        L = L_cand

        if resid <= config.rho_hat:
            converged = True
            break

    cert = Certificate(y_hat=y.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=prox_calls,
                       grad_calls=grad_calls, converged=converged)
    return cert, trace, ledger
