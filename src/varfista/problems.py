"""Composite problem abstraction: phi(u) = f(u) + h(u) over R^n.

The smooth term f is an oracle that the solvers evaluate through its
records (:class:`OraclePoint`; the protocol is in :class:`SmoothOracle`,
which gives f by value/gradient callables), the regularizer h is a
``prox.BoxIndicator``, h = w ||u||_1 + the indicator of a box.
A solver run on such a problem produces a :class:`Certificate` holding an
approximate stationary pair (y_hat, v_hat) with v_hat in grad f(y_hat) +
sub-diff h(y_hat); ``verify_certificate`` rechecks one through the
stationarity kernel ``_kernels._interval_dist``, independent of how the
solver found it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import _kernels
from .prox import BoxIndicator

Array = np.ndarray


def _check_audit_constants(oracle) -> None:
    """ValueError, naming the field, for a set audit constant of ``oracle``
    that is not finite and non-negative."""
    for name in ("audit_lipschitz", "audit_curvature"):
        value = getattr(oracle, name)
        if value is not None and not 0.0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and non-negative, "
                             f"not {value}")


@dataclass(slots=True)
class OraclePoint:
    """One evaluated point of a smooth oracle: u, f(u), and a part private
    to the oracle from which its ``gradient`` forms grad f(u) on request
    (Q u for a ``gallery.QuadraticOracle``, None for a ``SmoothOracle``).
    A slotted class, not a named tuple: building one is a single Python
    call, and the solvers build one per trial."""

    u: Array
    f: float
    part: Any


@dataclass(frozen=True)
class SmoothOracle:
    """Smooth term f, given by a value callable and a gradient callable.

    The solvers evaluate a smooth oracle through three record methods:
    ``point(u)``, the ``OraclePoint`` of u, whose f equals ``value(u)``
    bit for bit; ``gradient(point)``, grad f at a record's point; and
    ``combine(u, p, first, q, second)``, the record of a point u that
    equals p first.u - q second.u in exact arithmetic, which an oracle may
    form from the two records without a fresh evaluation.  Here it
    evaluates at u: ``point(u)``.  The audit calls ``value`` and
    ``value_scale`` directly.

    ``audit_lipschitz`` and ``audit_curvature``, when set, declare analytic
    constants used only by invariant auditing: an upper bound on the Lipschitz
    constant of grad f over the regularizer's domain, and an upper bound on
    the weak-convexity modulus (the smallest m >= 0 with
    f(u) >= f(w) + <grad f(w), u - w> - (m/2)||u - w||^2); zero means convex.
    A set constant must be finite and non-negative (ValueError otherwise).

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

    def __post_init__(self):
        _check_audit_constants(self)

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

    def point(self, u: Array) -> OraclePoint:
        return OraclePoint(u, self.value(u), None)

    def combine(self, u: Array, p: float, first: OraclePoint, q: float,
                second: OraclePoint) -> OraclePoint:
        return self.point(u)

    def gradient(self, point: OraclePoint) -> Array:
        return self.grad(point.u)


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
    """The problem min over R^n of f + h: a smooth oracle and a
    ``BoxIndicator`` regularizer, whose box sets the dimension n.

    Raises TypeError for any other regularizer.
    """

    def __init__(self, smooth, regularizer: BoxIndicator):
        if not isinstance(regularizer, BoxIndicator):
            raise TypeError("the regularizer must be a BoxIndicator, not "
                            f"{type(regularizer).__name__}")
        self.smooth = smooth
        self.regularizer = regularizer
        self.dimension = regularizer.lo.shape[0]

    def __repr__(self) -> str:
        return f"CompositeProblem(dimension={self.dimension})"


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
    with |y_hat| / lam and has no scale-free bound.
    """
    reg = problem.regularizer
    y = np.asarray(cert.y_hat, dtype=np.float64)
    lo, hi = reg.domain_box
    if not (np.all((lo <= y) & (y <= hi))
            and np.linalg.norm(cert.v_hat) <= rho_hat):
        return False
    dist = _kernels._interval_dist(-problem.smooth.grad(y), y, lo, hi,
                                   reg.weight)
    return bool(np.linalg.norm(dist) <= rho_hat)
