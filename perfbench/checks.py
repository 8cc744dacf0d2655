"""Correctness checks on a finished run, done apart from the program.

Every check starts from the instance's raw data (Q, c, lo, hi) and the run's
certificate, and uses plain numpy: neither ``verify_certificate`` nor the
audit.  For box-constrained quadratics phi(u) = 0.5 u'Qu + c'u on [lo, hi]:

* ``in-box``: y_hat lies in the box;
* ``residual``: ||v_hat|| <= rho_hat;
* ``normal-cone``: v_hat - g lies in the box's normal cone at y_hat, where
  g = Q y_hat + c, within a roundoff tolerance;
* ``pg-residual``: ||y_hat - clip(y_hat - g, lo, hi)|| <= rho_hat, which any
  certificate with ||v_hat|| <= rho_hat implies (the clip is non-expansive);
* ``convex-stays-zero``: on convex instances xi, tau and L are identically
  zero in the trace, as the paper promises for convex f;
* ``minimiser``: on small strongly convex instances y_hat lies within
  rho_hat/mu of a minimiser found by this module's own projected-gradient
  loop, and phi(y_hat) exceeds its value by at most rho_hat^2/(2 mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

EPS = float(np.finfo(np.float64).eps)
# roundoff allowance, in units of eps times the instance's gradient scale
ROUNDOFF_MULT = 64.0
# instances up to this size get the reference-minimiser check
MINIMISER_MAX_N = 20


@dataclass(frozen=True)
class Instance:
    """Raw data of a box-constrained quadratic, with the smallest eigenvalue
    ``mu`` and the largest absolute eigenvalue ``lip`` of Q.

    The arrays are the problem's own, not copies.  Up to MINIMISER_MAX_N
    the eigenvalues are computed here.  Beyond it they come from the
    constants stored with the instance, because ``eigvalsh`` would hold
    another copy of Q (8 MB at n=1000) while the run is measured; ``mu`` is
    then minus the stored curvature, which is 0 for every convex instance,
    and only its sign is used.
    """

    Q: np.ndarray
    c: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mu: float
    lip: float

    @classmethod
    def from_problem(cls, problem) -> "Instance":
        smooth, reg = problem.smooth, problem.regularizer
        Q = np.asarray(smooth.Q, dtype=np.float64)
        if Q.shape[0] <= MINIMISER_MAX_N:
            eigs = np.linalg.eigvalsh(Q)
            mu, lip = float(eigs[0]), float(np.max(np.abs(eigs)))
        else:
            mu = -float(smooth.audit_curvature)
            lip = float(smooth.audit_lipschitz)
        return cls(Q, np.asarray(smooth.c, dtype=np.float64),
                   np.asarray(reg.lo, dtype=np.float64),
                   np.asarray(reg.hi, dtype=np.float64), mu, lip)

    @property
    def convex(self) -> bool:
        return self.mu >= 0.0

    def roundoff(self) -> float:
        """Absolute roundoff allowance for gradient-sized quantities.

        Covers the certificate's difference quotient (1+tau)/lam (x - y),
        whose stepsize is at least gamma/(theta M), and the two gradients it
        subtracts; ||Q||_inf bounds M and max|box| bounds every iterate.
        """
        q_norm = float(np.max(np.sum(np.abs(self.Q), axis=1)))
        bound = float(max(np.max(np.abs(self.lo)), np.max(np.abs(self.hi))))
        return ROUNDOFF_MULT * EPS * (4.0 * q_norm * bound
                                      + float(np.max(np.abs(self.c))) + 1.0)

    def phi(self, u: np.ndarray) -> float:
        return float(0.5 * (u @ (self.Q @ u)) + self.c @ u)


def reference_minimiser(inst: Instance, target: float,
                        max_iter: int = 200_000):
    """Minimiser of a strongly convex box QP: accelerated projected gradient
    with gradient restarts, then an exact solve on the free coordinates.

    Returns (u, err): a point of the box and a bound err >= ||u - u*|| on its
    distance to the true minimiser u*.  For the projected-gradient step
    u = clip(z - g(z)/M) with M >= Lipschitz(grad) and gradient mapping
    G = M (z - u), ||u - u*|| <= ||z - u*|| <= 2 ||G|| / mu.
    """
    Q, c, lo, hi, mu = inst.Q, inst.c, inst.lo, inst.hi, inst.mu
    M = 1.01 * inst.lip  # margin for the eigensolver's roundoff

    def step(z):
        u = np.clip(z - (Q @ z + c) / M, lo, hi)
        return u, 2.0 * M * float(np.linalg.norm(z - u)) / mu

    u = z = np.clip(np.zeros_like(c), lo, hi)
    t = 1.0
    best_u, best_err = u, math.inf
    for _ in range(max_iter):
        u_next, err = step(z)
        if err < best_err:
            best_u, best_err = u_next, err
        if best_err <= target:
            break
        if float((z - u_next) @ (u_next - u)) > 0.0:  # restart momentum
            z = u = u_next
            t = 1.0
            continue
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        z = u_next + ((t - 1.0) / t_next) * (u_next - u)
        u, t = u_next, t_next
    # polish: hold the coordinates on a face, solve for the free ones
    free = (best_u > lo) & (best_u < hi)
    if free.any():
        fixed = ~free
        p = best_u.copy()
        p[free] = np.linalg.solve(
            Q[np.ix_(free, free)],
            -(c[free] + Q[np.ix_(free, fixed)] @ best_u[fixed]))
        p_u, p_err = step(np.clip(p, lo, hi))
        if p_err < best_err:
            best_u, best_err = p_u, p_err
    return best_u, best_err


def prepare(problem, rho_hat: float):
    """(Instance, reference minimiser or None) for one operation's checks."""
    inst = Instance.from_problem(problem)
    ref = None
    if problem.dimension <= MINIMISER_MAX_N and inst.mu > 0.0:
        ref = reference_minimiser(inst, 1e-3 * rho_hat / inst.mu)
    return inst, ref


def check_run(inst: Instance, rho_hat: float, y_hat, v_hat, xi, tau, L,
              reference: Optional[tuple] = None) -> List[str]:
    """Names of the checks a finished run fails; empty when all pass.

    ``reference`` is ``reference_minimiser(inst, ...)``; when given (and the
    instance is strongly convex) the minimiser check runs as well.
    """
    y = np.asarray(y_hat, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.float64)
    lo, hi = inst.lo, inst.hi
    tol = inst.roundoff()
    failed = []

    if not (np.all(y >= lo) and np.all(y <= hi)):
        failed.append("in-box")
    if not float(np.linalg.norm(v)) <= rho_hat:
        failed.append("residual")

    g = inst.Q @ y + inst.c
    w = v - g
    at_lo = y <= lo
    at_hi = y >= hi
    # outside the normal cone: w != 0 inside, w > 0 on a lower face, w < 0
    # on an upper face (a fixed coordinate, lo == hi, allows any sign)
    excess = np.where(at_lo & at_hi, 0.0,
                      np.where(at_lo, np.maximum(w, 0.0),
                               np.where(at_hi, np.maximum(-w, 0.0),
                                        np.abs(w))))
    if not float(np.max(excess, initial=0.0)) <= tol:
        failed.append("normal-cone")

    pg = float(np.linalg.norm(y - np.clip(y - g, lo, hi)))
    if not pg <= rho_hat + math.sqrt(y.shape[0]) * tol:
        failed.append("pg-residual")

    if inst.convex:
        if (np.any(np.asarray(xi) != 0.0) or np.any(np.asarray(tau) != 0.0)
                or np.any(np.asarray(L) != 0.0)):
            failed.append("convex-stays-zero")

    if reference is not None and inst.mu > 0.0:
        u_ref, ref_err = reference
        dist = float(np.linalg.norm(y - u_ref))
        # strong convexity: ||y_hat - u*|| <= ||v|| / mu and
        # phi(y_hat) - phi(u*) <= ||v||^2 / (2 mu) for the exact subgradient
        # v, which lies within the certificate's roundoff of v_hat
        v_bound = rho_hat + math.sqrt(y.shape[0]) * tol
        radius = v_bound / inst.mu + ref_err
        phi_tol = ROUNDOFF_MULT * EPS * y.shape[0] * (
            0.5 * float(np.abs(y) @ (np.abs(inst.Q) @ np.abs(y)))
            + float(np.abs(inst.c) @ np.abs(y)) + 1.0)
        gap = inst.phi(y) - inst.phi(u_ref)
        gap_bound = v_bound ** 2 / (2.0 * inst.mu) + phi_tol
        if not (dist <= radius and gap <= gap_bound):
            failed.append("minimiser")
    return failed
