"""Post-run diagnostics: analytic bounds and independent checks.

Everything here re-derives properties of a finished run from recorded data;
nothing feeds back into the solver.  The anchor-point check rebuilds each
iteration's anchor subproblem from its record and tests the recorded anchor
by the gradient of that subproblem, a route to the anchor that shares no
code with the solver's closed-form update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .problems import Array, CompositeProblem
from .solver import SolverConfig

__all__ = [
    "TheoreticalBounds", "DriftReport", "check_xk_optimality",
    "check_xk_drift",
]


@dataclass(frozen=True)
class TheoreticalBounds:
    """Analytic run constants implied by the audit metadata and the config."""

    M_bar: float
    m_under: float
    lambda_floor: float
    xi_bar: float
    C: float

    @classmethod
    def from_problem(cls, problem: CompositeProblem, config: SolverConfig):
        """The constants of ``problem`` under ``config``, or None when the
        problem carries no audit metadata (either constant is None)."""
        M = problem.smooth.audit_lipschitz
        m = problem.smooth.audit_curvature
        if M is None or m is None:
            return None
        lam_floor = config.lambda0
        if M > 0.0:
            lam_floor = min(config.gamma / (config.theta * M), config.lambda0)
        xi_bar = max(4.0 * m, 1.0) if m > 0.0 else 0.0
        lo, hi = problem.regularizer.domain_box
        C = 2.0 * (2.0 + xi_bar * config.lambda0) \
            * float(np.linalg.norm(hi - lo))
        return cls(M_bar=float(M), m_under=float(m),
                   lambda_floor=float(lam_floor), xi_bar=float(xi_bar),
                   C=float(C))


def _anchor_quadratic(x_tilde: Array, y_k: Array, lam: float, tau: float,
                      x_prev: Array, a: float):
    """The anchor subproblem  a * m(u) + ||u - x_prev||^2 / (2 lam)  of the
    iteration with record x_tilde, prox point y_k, stepsize lam and offset
    tau, where m(u) = <x_tilde - y_k, u - y_k> / lam
    + (tau / (2 lam)) ||u - y_k||^2 is the iteration's model of phi at y_k
    up to a constant, as 0.5 * kappa ||u||^2 + b.u (constant dropped), with
    the magnitudes of the terms of b, coordinatewise."""
    kappa = (a * tau + 1.0) / lam
    b = (a / lam) * (x_tilde - y_k) - (a * tau / lam) * y_k - x_prev / lam
    b_size = ((a / lam) * (np.abs(x_tilde) + np.abs(y_k))
              + (a * tau / lam) * np.abs(y_k) + np.abs(x_prev) / lam)
    return kappa, b, b_size


def check_xk_optimality(x_tilde: Array, y_k: Array, lam_k: float,
                        tau_k: float, x_k: Array, x_prev: Array,
                        a: float) -> bool:
    """Does x_k minimize the anchor subproblem over R^n?

    The iteration is given by its record x_tilde, prox point y_k, stepsize
    lam_k and offset tau_k.  The subproblem 0.5 kappa ||u||^2 + b.u
    (``_anchor_quadratic``) is strongly convex, so x_k minimizes it over
    R^n exactly when its gradient kappa x_k + b is 0.  The gradient's norm
    passes at 16 eps sqrt(n) times the norm of kappa |x_k| plus the
    magnitudes of the terms of b: each coordinate of the gradient is a sum
    of those terms, and x_k itself comes from a difference of multiples of
    y_k and y_{k-1} about a_k times larger than x_k, so its rounding scales
    with a_k |y_k| / lam, the size of the terms of b, not with |b|.  On
    solver runs of n = 1 to 20 up to K = 780 the accepted anchors read at
    most 0.6 eps sqrt(n).  A NaN anchor fails.
    """
    kappa, b, b_size = _anchor_quadratic(x_tilde, y_k, lam_k, tau_k, x_prev,
                                         a)
    grad = kappa * x_k + b
    scale = np.linalg.norm(kappa * np.abs(x_k) + b_size)
    return bool(np.linalg.norm(grad) <= 16.0 * np.finfo(float).eps
                * math.sqrt(x_k.shape[0]) * scale)


@dataclass(frozen=True)
class DriftReport:
    passed: bool
    worst_ratio: float
    worst_k: int


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
                       worst_k=worst_k)
