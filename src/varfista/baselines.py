"""Fixed-step reference solvers used for comparison runs.

``run_fista_constant`` is the constant-stepsize accelerated method: the same
weight schedule, extrapolation, prox step, anchor update, and residual as the
adaptive solver, with the stepsize frozen and the concavity weight at zero.
It calls the same step functions as the adaptive ``solve`` (candidate prox
step, U quotient, anchor update, residual) and combines its momentum
points' oracle records as ``solve`` does, so whenever the adaptive run
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

from ._kernels import c_einsum
from .momentum import A0_DEFAULT, advance, extrapolate, momentum_weights
from .problems import Array, Certificate, CompositeProblem
from .solver import (DENOM_EPSILON, IterationTrace, SolverConfig,
                     _gap_quotient, _require_finite, _start,
                     anchor_weights, compute_candidate, compute_v, compute_x)

__all__ = ["run_fista_constant", "run_prox_gradient"]


def run_fista_constant(problem: CompositeProblem, config: SolverConfig,
                       y0: Array):
    """Accelerated method with frozen stepsize; returns (certificate, trace)."""
    start, phi_min = _start(problem, config, y0)
    y0 = start.u
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.lambda0

    A = A0_DEFAULT
    y = y0
    x = y0.copy()
    # records of y_{k-1} and y_{k-2}, and x_{k-1}'s anchor weights, as in
    # solve
    point = point_prev = start
    c1, c2 = 1.0, 0.0
    y_best = y0
    trace = IterationTrace(y0, step)
    v = np.zeros_like(y0)
    resid = math.inf
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        a, A_next = advance(A)
        x_tilde = extrapolate(A, A_next, a, y, x)
        p, q = momentum_weights(A, A_next, a, c1, c2)
        x_tilde_point = smooth.combine(x_tilde, p, point, q, point_prev)
        f_xt = x_tilde_point.f
        g_xt = smooth.gradient(x_tilde_point)
        y_next, tau = compute_candidate(problem, x_tilde, step, 0.0, a, g_xt)
        x_next = compute_x(A, A_next, a, tau, y_next, y)
        c1, c2 = anchor_weights(A, A_next, a, tau)
        point_prev, point = point, smooth.point(y_next)
        g_y = smooth.gradient(point)
        v = compute_v(x_tilde, y_next, g_y, g_xt, step, tau)
        resid = math.sqrt(float(v @ v))

        f_y = point.f
        phi_y = f_y + reg.value(y_next)
        guard = DENOM_EPSILON * (
            1.0 + float(c_einsum("i,i->", x_tilde, x_tilde)))
        U = 0.0 - _gap_quotient(y_next, f_y, x_tilde, f_xt, g_xt, guard)[0]
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
    start, phi_min = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer
    step = config.lambda0

    u = y0 = start.u
    g_u = smooth.gradient(start)
    u_best = y0
    trace = IterationTrace(y0, step)
    v = np.zeros_like(y0)
    resid = math.inf
    k = 0

    for k in range(1, config.max_outer_iterations + 1):
        u_next, _ = compute_candidate(problem, u, step, 0.0, 1.0, g_u)
        point = smooth.point(u_next)
        g_next = smooth.gradient(point)
        v = compute_v(u, u_next, g_next, g_u, step, 0.0)
        resid = math.sqrt(float(v @ v))
        f_u = point.f
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
