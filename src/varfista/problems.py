"""Composite problem abstraction: phi(u) = f(u) + h(u) over a region Omega.

The smooth term f is given by value/gradient callables, the regularizer h by
value/prox callables with a box bound on its domain, and Omega by a
``prox.Projector``, a box that holds dom h.
A solver run on such a problem produces a :class:`Certificate` holding an
approximate stationary pair (y_hat, v_hat) with v_hat in grad f(y_hat) +
sub-diff h(y_hat); certificates are rechecked here via the prox fixed-point
identity, independent of how the solver found them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .prox import Projector

Array = np.ndarray


@dataclass(frozen=True)
class SmoothOracle:
    """Smooth term f, given by a value callable and a gradient callable.

    ``audit_lipschitz`` and ``audit_curvature``, when set, declare analytic
    constants used only by invariant auditing: an upper bound on the Lipschitz
    constant of grad f over the regularizer's domain, and an upper bound on
    the weak-convexity modulus (the smallest m >= 0 with
    f(u) >= f(w) + <grad f(w), u - w> - (m/2)||u - w||^2); zero means convex.

    ``value_scale`` is the value-roundoff scale s(u): the magnitude whose
    eps-multiples bound the rounding error of a computed f(u).  The solver's
    curvature gaps read it to tell cancellation from concavity.  By default
    it is |f(u)|; an oracle whose value is a sum of cancelling terms should
    give a bound on their magnitude instead.  ``value`` and ``value_scale``
    take one point or the rows of a 2-D array (``value_scale`` with one
    value per row), and a row's result must equal that of the row alone bit
    for bit: the solver evaluates trial points one at a time and scales its
    records as rows, and the audit evaluates and scales the trace's points
    as rows.
    """

    value_fn: Callable[[Array], float]
    grad_fn: Callable[[Array], Array]
    audit_lipschitz: Optional[float] = None
    audit_curvature: Optional[float] = None

    def value(self, u: Array):
        if np.ndim(u) == 2:  # one value_fn call per row
            return np.array([float(self.value_fn(row)) for row in u])
        return float(self.value_fn(u))

    def grad(self, u: Array) -> Array:
        return np.asarray(self.grad_fn(u), dtype=np.float64)

    def value_scale(self, u: Array, f_u):
        """s(u) = |f(u)|; ``u`` may be rows of points with ``f_u`` their
        values, and the scales come out elementwise."""
        return abs(f_u)


@dataclass(frozen=True)
class Certificate:
    """Approximate stationarity certificate emitted by a solver run.

    Claims v_hat in grad f(y_hat) + sub-diff h(y_hat) with
    ||v_hat|| = residual_norm; ``converged`` records whether the residual
    target was met before the iteration cap.
    """

    y_hat: Array
    v_hat: Array
    residual_norm: float
    iterations: int
    prox_calls: int
    grad_calls: int
    converged: bool


class CompositeProblem:
    """Bundle of smooth oracle, proximable regularizer, projector, dimension.

    Construction checks that the regularizer's domain box sits inside the
    box Omega.  Projection onto a box is separable, so the vertex of dom h
    that moves furthest moves by ||max(P(lo) - lo, hi - P(hi))||; the
    problem is rejected when that exceeds 1e-9.
    """

    def __init__(self, smooth, regularizer, omega: Projector, dimension: int):
        self.smooth = smooth
        self.regularizer = regularizer
        self.omega = omega
        self.dimension = int(dimension)
        lo, hi = regularizer.domain_box
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.shape != (self.dimension,) or hi.shape != (self.dimension,):
            raise ValueError("regularizer domain box does not match dimension")
        if np.broadcast(omega.lo, omega.hi, lo).shape != lo.shape:
            raise ValueError("projection region does not match dimension")
        moved = np.linalg.norm(np.maximum(_moved(omega.project(lo), lo),
                                          _moved(hi, omega.project(hi))))
        if moved > 1e-9:
            raise ValueError(
                "regularizer domain is not contained in the projection "
                f"region (a vertex moved by {moved:.3e})")

    def __repr__(self) -> str:
        return (f"CompositeProblem(dimension={self.dimension}, "
                f"omega={self.omega!r})")


def _moved(a: Array, b: Array) -> Array:
    """a - b, with 0 where a == b, so equal infinite bounds give 0, not NaN."""
    return np.subtract(a, b, out=np.zeros_like(b), where=a != b)


def phi(problem: CompositeProblem, u: Array) -> float:
    """Composite objective value f(u) + h(u); +inf outside dom h."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (problem.dimension,):
        raise ValueError(
            f"point has shape {u.shape}, expected ({problem.dimension},)")
    hu = problem.regularizer.value(u)
    if hu == np.inf:
        return np.inf
    return problem.smooth.value(u) + hu


def verify_certificate(problem: CompositeProblem, cert: Certificate,
                       s: float = 1.0, tol: float = 1e-8,
                       rho_hat: Optional[float] = None) -> bool:
    """Recheck a certificate by the prox fixed-point identity.

    v_hat in grad f(y_hat) + sub-diff h(y_hat) holds exactly when y_hat is a
    fixed point of u -> prox(u - s*(grad f(u) - v_hat), s), for any s > 0.
    Returns True when the fixed-point discrepancy is <= tol and (if rho_hat
    is given) ||v_hat|| <= rho_hat.
    """
    if not s > 0.0:
        raise ValueError("prox stepsize s must be positive")
    y = np.asarray(cert.y_hat, dtype=np.float64)
    v = np.asarray(cert.v_hat, dtype=np.float64)
    g = problem.smooth.grad(y)
    back = problem.regularizer.prox(y - s * (g - v), s)
    if np.linalg.norm(y - back) > tol:
        return False
    if rho_hat is not None and np.linalg.norm(v) > rho_hat:
        return False
    return True
