"""Fixed-step reference solvers used for comparison runs.

``run_fista_constant`` is the constant-stepsize accelerated method: the same
weight schedule, extrapolation, prox step, anchor update, and residual as the
adaptive solver, with the stepsize frozen and the concavity weight at zero.
It calls the same step functions as the adaptive ``solve`` (candidate prox
step, U quotient, anchor update, residual), so whenever the adaptive run
never shrinks its stepsize and never escalates (convex input, small enough
lambda0), the two iterate sequences agree bit-for-bit.

``run_prox_gradient`` is plain forward-backward splitting, the unaccelerated
floor for benchmark comparisons; its prox step and residual are the same
``compute_candidate`` and ``compute_v`` with xi = 0 and tau = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .momentum import A0_DEFAULT, advance, extrapolate
from .problems import Array, Certificate, CompositeProblem
from .solver import (IterationTrace, SolverConfig, compute_candidate,
                     compute_U, compute_v, compute_x)

__all__ = ["BaselineConfig", "run_fista_constant", "run_prox_gradient"]


@dataclass
class BaselineConfig:
    step: float = 0.1
    rho_hat: float = 1e-6
    A0: float = A0_DEFAULT
    max_outer_iterations: int = 100_000

    def validate(self) -> None:
        if not self.step > 0.0:
            raise ValueError("step must be positive")
        if not self.rho_hat > 0.0:
            raise ValueError("rho_hat must be positive")
        if not self.A0 > 0.0:
            raise ValueError("A0 must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


def _start(problem: CompositeProblem, config, y0: Array) -> Array:
    config.validate()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (problem.dimension,):
        raise ValueError("y0 does not match problem dimension")
    if not math.isfinite(problem.regularizer.value(y0)):
        raise ValueError("y0 lies outside dom h")
    return y0


def run_fista_constant(problem: CompositeProblem, config: BaselineConfig,
                       y0: Array):
    """Accelerated method with frozen stepsize; returns (certificate, trace)."""
    y0 = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.step

    A = config.A0
    y = y0
    x = y0.copy()
    phi_min = smooth.value(y0) + reg.value(y0)
    y_best = y0
    trace = IterationTrace()
    prox_calls = 0
    grad_calls = 0
    v = np.zeros_like(y0)
    resid = math.inf
    converged = False
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        a, A_next = advance(A)
        x_tilde = extrapolate(A, A_next, a, y, x)
        g_xt = smooth.grad(x_tilde)
        grad_calls += 1
        f_xt = smooth.value(x_tilde)
        y_next, tau = compute_candidate(problem, x_tilde, step, 0.0, a,
                                        grad_x_tilde=g_xt)
        prox_calls += 1
        x_next = compute_x(problem, A, A_next, a, tau, y_next, y)
        g_y = smooth.grad(y_next)
        grad_calls += 1
        v = compute_v(x_tilde, y_next, g_y, g_xt, step, tau)
        resid = float(np.linalg.norm(v))

        f_y = smooth.value(y_next)
        phi_y = f_y + reg.value(y_next)
        U = compute_U(y_next, f_y, x_tilde, f_xt, g_xt,
                      float(x_tilde @ x_tilde), SolverConfig.denom_epsilon)
        if phi_y < phi_min:
            phi_min = phi_y
            y_best = y_next

        trace.append(k, a, A_next, step, 0.0, tau, U, 0.0, resid, phi_y,
                     phi_min, 0, x_next, y_next, y_best)
        y = y_next
        x = x_next
        A = A_next
        if resid <= config.rho_hat:
            converged = True
            break

    cert = Certificate(y_hat=y.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=prox_calls,
                       grad_calls=grad_calls, converged=converged)
    return cert, trace


def run_prox_gradient(problem: CompositeProblem, config: BaselineConfig,
                      y0: Array):
    """Forward-backward splitting; returns (certificate, trace)."""
    y0 = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.step

    u = y0
    g_u = smooth.grad(u)
    grad_calls = 1
    prox_calls = 0
    phi_min = smooth.value(u) + reg.value(u)
    u_best = y0
    trace = IterationTrace()
    v = np.zeros_like(y0)
    resid = math.inf
    converged = False
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        u_next, _ = compute_candidate(problem, u, step, 0.0, 1.0,
                                      grad_x_tilde=g_u)
        prox_calls += 1
        g_next = smooth.grad(u_next)
        grad_calls += 1
        v = compute_v(u, u_next, g_next, g_u, step, 0.0)
        resid = float(np.linalg.norm(v))
        phi_u = smooth.value(u_next) + reg.value(u_next)
        if phi_u < phi_min:
            phi_min = phi_u
            u_best = u_next
        trace.append(k, 0.0, 0.0, step, 0.0, 0.0, 0.0, 0.0, resid, phi_u,
                     phi_min, 0, u_next, u_next, u_best)
        u = u_next
        g_u = g_next
        if resid <= config.rho_hat:
            converged = True
            break

    cert = Certificate(y_hat=u.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=prox_calls,
                       grad_calls=grad_calls, converged=converged)
    return cert, trace
