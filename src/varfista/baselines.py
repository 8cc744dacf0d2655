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

Both keep ``solve``'s run contract.  They take a ``SolverConfig``, run at
the fixed step ``config.lambda0`` and ignore ``theta`` and ``gamma``;
``solver._start`` validates the start, and ``solver._require_finite``
raises ``NumericalFailure`` as ``<where>: <name> = <value>`` when f(y0),
f or phi at a step, or the residual is non-finite.
"""

from __future__ import annotations

import math

import numpy as np

from .momentum import A0_DEFAULT, advance, extrapolate
from .problems import Array, Certificate, CompositeProblem
from .solver import (IterationTrace, SolverConfig, _require_finite, _start,
                     compute_candidate, compute_U, compute_v, compute_x)

__all__ = ["run_fista_constant", "run_prox_gradient"]


def run_fista_constant(problem: CompositeProblem, config: SolverConfig,
                       y0: Array):
    """Accelerated method with frozen stepsize; returns (certificate, trace)."""
    y0, _, phi_min = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.lambda0

    A = A0_DEFAULT
    y = y0
    x = y0.copy()
    y_best = y0
    trace = IterationTrace(y0, step)
    v = np.zeros_like(y0)
    resid = math.inf
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        a, A_next = advance(A)
        x_tilde = extrapolate(A, A_next, a, y, x)
        g_xt = smooth.grad(x_tilde)
        f_xt = smooth.value(x_tilde)
        y_next, tau = compute_candidate(problem, x_tilde, step, 0.0, a,
                                        grad_x_tilde=g_xt)
        x_next = compute_x(problem, A, A_next, a, tau, y_next, y)
        g_y = smooth.grad(y_next)
        v = compute_v(x_tilde, y_next, g_y, g_xt, step, tau)
        resid = math.sqrt(float(v @ v))

        f_y = smooth.value(y_next)
        phi_y = f_y + reg.value(y_next)
        U = compute_U(y_next, f_y, x_tilde, f_xt, g_xt,
                      float(x_tilde @ x_tilde))
        _require_finite(k, None, ("f(x_tilde)", f_xt), ("f(y)", f_y),
                        ("phi(y)", phi_y), ("residual", resid))
        if phi_y < phi_min:
            phi_min = phi_y
            y_best = y_next

        trace.append(step, 0.0, tau, U, 0.0, resid, phi_y, phi_min, 0,
                     y_next, y_best)
        y = y_next
        x = x_next
        A = A_next
        if resid <= config.rho_hat:
            break

    # per iteration: one prox step, gradients at x_tilde_k and at y_k
    cert = Certificate(y_hat=y.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=k, grad_calls=2 * k,
                       converged=resid <= config.rho_hat)
    return cert, trace


def run_prox_gradient(problem: CompositeProblem, config: SolverConfig,
                      y0: Array):
    """Forward-backward splitting; returns (certificate, trace)."""
    y0, _, phi_min = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.lambda0

    u = y0
    g_u = smooth.grad(u)
    u_best = y0
    trace = IterationTrace(y0, step)
    v = np.zeros_like(y0)
    resid = math.inf
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        u_next, _ = compute_candidate(problem, u, step, 0.0, 1.0,
                                      grad_x_tilde=g_u)
        g_next = smooth.grad(u_next)
        v = compute_v(u, u_next, g_next, g_u, step, 0.0)
        resid = math.sqrt(float(v @ v))
        f_u = smooth.value(u_next)
        phi_u = f_u + reg.value(u_next)
        _require_finite(k, None, ("f(y)", f_u), ("phi(y)", phi_u),
                        ("residual", resid))
        if phi_u < phi_min:
            phi_min = phi_u
            u_best = u_next
        trace.append(step, 0.0, 0.0, 0.0, 0.0, resid, phi_u, phi_min, 0,
                     u_next, u_best)
        u = u_next
        g_u = g_next
        if resid <= config.rho_hat:
            break

    # one prox step and one gradient per iteration, plus grad f(y0)
    cert = Certificate(y_hat=u.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k, prox_calls=k, grad_calls=k + 1,
                       converged=resid <= config.rho_hat)
    return cert, trace
