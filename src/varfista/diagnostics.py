"""Post-run diagnostics: model functions, analytic bounds, independent checks.

Everything here re-derives properties of a finished run from recorded data;
nothing feeds back into the solver.  The anchor-point check rebuilds each
iteration's anchor subproblem and minimizes it by dense grid search (or
projected gradient when a grid is impractical), giving a route to the anchor
that shares no code with the solver's closed-form update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .problems import Array, CompositeProblem
from .solver import SolverConfig

__all__ = [
    "ModelFunction", "TheoreticalBounds", "DriftReport",
    "check_xk_optimality", "check_xk_drift",
]


@dataclass(frozen=True)
class ModelFunction:
    """The two per-iteration models of phi around one accepted step.

    ``surrogate`` is the regularized linearization whose prox minimizer is
    y_k; ``minorant`` is its tangent expansion at y_k plus the same strong
    convexity term, so minorant <= surrogate everywhere with equality at y_k.
    ``x_tilde``, ``f_at`` and ``grad_at`` are the iteration's linearization
    record, as ``HistoryLedger.record_arrays`` returns its first three
    arrays.
    """

    x_tilde: Array
    f_at: float
    grad_at: Array
    y_k: Array
    lam_k: float
    tau_k: float
    regularizer: object

    def surrogate(self, u: Array) -> float:
        d = u - self.x_tilde
        lin = self.f_at + float(self.grad_at @ d)
        quad = (self.tau_k / (2.0 * self.lam_k)) * float(d @ d)
        return lin + self.regularizer.value(u) + quad

    def minorant(self, u: Array) -> float:
        base = self.surrogate(self.y_k)
        d = u - self.y_k
        inner = float((self.x_tilde - self.y_k) @ d) / self.lam_k
        quad = (self.tau_k / (2.0 * self.lam_k)) * float(d @ d)
        return base + inner + quad


@dataclass(frozen=True)
class TheoreticalBounds:
    """Analytic run constants implied by the audit metadata and the config."""

    M_bar: float
    m_under: float
    lambda_floor: float
    xi_bar: float
    D_h: float
    C: float

    @classmethod
    def from_problem(cls, problem: CompositeProblem, config: SolverConfig):
        M = problem.smooth.audit_lipschitz
        m = problem.smooth.audit_curvature
        if M is None or m is None:
            raise ValueError("problem carries no audit metadata")
        lam_floor = config.lambda0
        if M > 0.0:
            lam_floor = min(config.gamma / (config.theta * M), config.lambda0)
        xi_bar = max(4.0 * m, 1.0) if m > 0.0 else 0.0
        lo, hi = problem.regularizer.domain_box
        D_h = float(np.linalg.norm(hi - lo))
        C = 2.0 * (2.0 + xi_bar * config.lambda0) * D_h
        return cls(M_bar=float(M), m_under=float(m),
                   lambda_floor=float(lam_floor), xi_bar=float(xi_bar),
                   D_h=D_h, C=float(C))


def _anchor_quadratic(model: ModelFunction, x_prev: Array, a: float):
    """The anchor subproblem  a * minorant(u) + ||u - x_prev||^2 / (2 lam)
    as 0.5 * kappa ||u||^2 + b.u (constant dropped)."""
    lam = model.lam_k
    tau = model.tau_k
    kappa = (a * tau + 1.0) / lam
    b = ((a / lam) * (model.x_tilde - model.y_k)
         - (a * tau / lam) * model.y_k - x_prev / lam)
    return kappa, b


def _grid_argmin(kappa: float, b: Array, lo: Array, hi: Array,
                 resolution: float) -> Array:
    """Coarse-to-fine grid argmin of the strongly convex quadratic.

    Exact for the final grid because the objective is unimodal along each
    axis, so every refinement window brackets the coarse argmin.
    """
    Q = kappa * np.eye(b.shape[0])
    while True:
        span = float(np.max(hi - lo))
        res = max(span / 400.0, resolution)
        best, _ = _kernels.qp_grid_argmin(Q, b, 0.0, lo, hi, res)
        if res <= resolution:
            return best
        lo = np.maximum(lo, best - 3.0 * res)
        hi = np.minimum(hi, best + 3.0 * res)


def check_xk_optimality(problem: CompositeProblem, model: ModelFunction,
                        x_k: Array, x_prev: Array, a: float,
                        grid_resolution: float = 1e-4) -> Optional[bool]:
    """Does x_k minimize the anchor subproblem over Omega?

    Minimizes by dense grid over a search window clamped into the box Omega
    (dimension <= 2) or by projected gradient otherwise; True/False when the
    independent minimizer lands within / outside max(grid_resolution, 1e-6)
    of x_k, None when the search is inconclusive (argmin pinned to an
    artificial window edge).
    """
    kappa, b = _anchor_quadratic(model, x_prev, a)
    tol = max(grid_resolution, 1e-6)
    if problem.dimension <= 2:
        pts = [x_prev, x_k, model.y_k, model.x_tilde, -b / kappa]
        stack = np.stack(pts)
        margin = max(1.0, float(np.max(np.abs(stack)))) * 0.5
        w_lo = np.min(stack, axis=0) - margin
        w_hi = np.max(stack, axis=0) + margin
        for _ in range(4):
            # clamp the window into Omega; a face of Omega is a genuine
            # boundary, an unclamped window face is artificial
            lo = problem.omega.project(w_lo)
            hi = problem.omega.project(w_hi)
            best = _grid_argmin(kappa, b, lo, hi, grid_resolution)
            on_artificial = (((best - lo < 2.0 * grid_resolution)
                              & (lo == w_lo))
                             | ((hi - best < 2.0 * grid_resolution)
                                & (hi == w_hi)))
            if not np.any(on_artificial):
                return bool(np.linalg.norm(best - x_k) <= tol)
            span = w_hi - w_lo
            w_lo = w_lo - span
            w_hi = w_hi + span
        return None
    # projected-gradient fallback for higher dimension
    u = x_k.copy()
    eta = 1.0 / kappa
    for _ in range(100_000):
        u_next = problem.omega.project(u - eta * (kappa * u + b))
        if np.linalg.norm(u_next - u) <= 1e-12 * (1.0 + np.linalg.norm(u)):
            return bool(np.linalg.norm(u_next - x_k) <= tol)
        u = u_next
    return None


@dataclass(frozen=True)
class DriftReport:
    passed: bool
    worst_ratio: float
    worst_k: int
    C: float


def check_xk_drift(xs: Array, x0: Array,
                   bounds: TheoreticalBounds) -> DriftReport:
    """Check ||x_k - x0|| <= C * k for the anchors x_1..x_K, a sequence of
    rows, in row blocks (``_kernels.row_blocks``); the worst ratio is the
    first largest, as a scan in k finds it.

    C = 0 (a one-point domain) allows no drift: a zero drift passes with
    ratio 0, any other fails with ratio inf.
    """
    xs = np.asarray(xs)
    worst = 0.0
    worst_k = 0
    for s, e in _kernels.row_blocks(len(xs), np.size(x0)):
        drift = _kernels.row_norms(xs[s:e] - x0)
        if bounds.C > 0:
            r = drift / (bounds.C * np.arange(s + 1, e + 1))
        else:
            r = np.where(drift > 0.0, math.inf, 0.0)
        i = _kernels.first_max(r, worst)
        if i >= 0:
            worst = float(r[i])
            worst_k = s + i + 1
    return DriftReport(passed=worst <= 1.0, worst_ratio=worst,
                       worst_k=worst_k, C=bounds.C)
