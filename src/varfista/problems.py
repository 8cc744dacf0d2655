"""Composite problem abstraction: phi(u) = f(u) + h(u) over a region Omega.

The smooth term f is given by value/gradient callables, the regularizer h by
value/prox callables with a box bound on its domain (in this library
``prox.BoxIndicator``, h = w ||u||_1 + the indicator of a box), and Omega by
a ``prox.Projector``, a box that holds dom h, R^n unless one is given.
A solver run on such a problem produces a :class:`Certificate` holding an
approximate stationary pair (y_hat, v_hat) with v_hat in grad f(y_hat) +
sub-diff h(y_hat); ``verify_certificate`` rechecks one through the
stationarity kernel ``_kernels._interval_dist``, independent of how the
solver found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .prox import BoxIndicator, Projector

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
    ||v_hat|| = residual_norm; ``verify_certificate`` checks ||v_hat|| and
    the stationarity of y_hat against rho_hat, not v_hat's membership.
    ``converged`` records whether the residual target was met before the
    iteration cap.
    """

    y_hat: Array
    v_hat: Array
    residual_norm: float
    iterations: int
    prox_calls: int
    grad_calls: int
    converged: bool


class CompositeProblem:
    """Bundle of smooth oracle, proximable regularizer and projector.

    The dimension n is that of the regularizer's domain box, whose bounds
    must be 1-D arrays of one shape; Omega defaults to R^n.  Construction
    checks that the domain box sits inside the box Omega.  Projection onto
    a box is separable, so the vertex of dom h that moves furthest moves by
    ||max(P(lo) - lo, hi - P(hi))||; the problem is rejected when that
    exceeds 1e-9.
    """

    def __init__(self, smooth, regularizer, omega: Projector = Projector()):
        self.smooth = smooth
        self.regularizer = regularizer
        self.omega = omega
        lo, hi = regularizer.domain_box
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("regularizer domain box must have 1-D bounds "
                             "of one shape")
        self.dimension = lo.shape[0]
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
                       rho_hat: float) -> bool:
    """Recheck that y_hat is rho_hat-stationary and ||v_hat|| <= rho_hat.

    True when y_hat lies in the box dom h, ||v_hat|| <= rho_hat, and the
    least-norm element of grad f(y_hat) + sub-diff h(y_hat) has norm at
    most rho_hat: the norm of ``_kernels._interval_dist``, the distance
    from -grad f(y_hat) to sub-diff h(y_hat), coordinatewise.  The test
    needs no roundoff constant, and it is invariant under scaling f and
    rho_hat together.  v_hat is measured by its norm only: its membership
    holds up to the roundoff of the prox step that formed it, which grows
    with |y_hat| / lam and has no scale-free bound.  Raises TypeError for
    a regularizer other than a ``BoxIndicator``.
    """
    reg = problem.regularizer
    if not isinstance(reg, BoxIndicator):
        raise TypeError("certificates need a BoxIndicator regularizer")
    y = np.asarray(cert.y_hat, dtype=np.float64)
    lo, hi = reg.domain_box
    if not (np.all((lo <= y) & (y <= hi))
            and np.linalg.norm(cert.v_hat) <= rho_hat):
        return False
    dist = _kernels._interval_dist(-problem.smooth.grad(y), y, lo, hi,
                                   reg.weight)
    return bool(np.linalg.norm(dist) <= rho_hat)
