"""Adaptive proximal-gradient solver workbench.

Solve composite problems min f(u) + h(u) without curvature constants, audit
every invariant the method maintains, and reproduce its iteration-complexity
trends on seeded quadratic instances.
"""

from .audit import (AuditReport, CheckResult, audit_corpus, audit_run,
                    corrupt_gradient_oracle, run_audit_suite)
from .baselines import BaselineConfig, run_fista_constant, run_prox_gradient
from .diagnostics import (DriftReport, ModelFunction, TheoreticalBounds,
                          check_xk_drift, check_xk_optimality,
                          estimate_curvatures)
from .gallery import (QuadraticOracle, QuadraticSpec, active_set_stationary,
                      brute_force_stationary, default_start, generate_qp,
                      global_min_phi, load_instance, make_qp_problem,
                      save_instance)
from .momentum import (A0_DEFAULT, ScheduleBoundsReport, advance,
                       check_schedule_bounds, extrapolate)
from .problems import (Certificate, CompositeProblem, Projector, SmoothOracle,
                       linearization, phi, verify_certificate)
from .prox import (BoxIndicator, L1PlusBox, ZeroRegularizer, ball_projector,
                   box_projector, clamp_box, identity_projector, project_ball,
                   soft_threshold)
from .solver import (TRACE_HEADER, HistoryLedger, IterationTrace,
                     LinearizationRecord, SolverConfig, compute_candidate,
                     compute_L, compute_U, compute_v, compute_x,
                     history_inequality_violated, solve, step_k3_conditions,
                     update_best, update_subroutine)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "CheckResult", "audit_corpus", "audit_run",
    "corrupt_gradient_oracle", "run_audit_suite",
    "BaselineConfig", "run_fista_constant", "run_prox_gradient",
    "DriftReport", "ModelFunction", "TheoreticalBounds", "check_xk_drift",
    "check_xk_optimality", "estimate_curvatures",
    "QuadraticOracle", "QuadraticSpec", "active_set_stationary",
    "brute_force_stationary", "default_start", "generate_qp",
    "global_min_phi", "load_instance", "make_qp_problem", "save_instance",
    "A0_DEFAULT", "ScheduleBoundsReport", "advance",
    "check_schedule_bounds", "extrapolate",
    "Certificate", "CompositeProblem", "Projector", "SmoothOracle",
    "linearization", "phi", "verify_certificate",
    "BoxIndicator", "L1PlusBox", "ZeroRegularizer", "ball_projector",
    "box_projector", "clamp_box", "identity_projector", "project_ball",
    "soft_threshold",
    "TRACE_HEADER", "HistoryLedger", "IterationTrace", "LinearizationRecord",
    "SolverConfig", "compute_candidate", "compute_L",
    "compute_U", "compute_v", "compute_x", "history_inequality_violated",
    "solve", "step_k3_conditions", "update_best", "update_subroutine",
    "__version__",
]
