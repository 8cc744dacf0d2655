"""Post-run invariant auditing.

Every structural guarantee the adaptive solver is supposed to maintain is
rechecked here from the recorded trace, the committed history, and (when the
instance carries analytic curvature metadata) the implied run constants.
Each check is named; reports list them one per line, which is also the
format the command-line audit suite prints.

``corrupt_gradient_oracle`` is a fault-injection helper for negative tests:
it scales the gradient oracle while keeping values and metadata, which the
metadata-coupled checks are expected to flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import _kernels
from .diagnostics import TheoreticalBounds, check_xk_drift
from .gallery import QuadraticSpec, generate_qp
from .momentum import check_schedule_bounds
from .problems import (Array, Certificate, CompositeProblem, SmoothOracle,
                       verify_certificate)
from .solver import (DENOM_EPSILON, HistoryLedger, IterationTrace,
                     NumericalFailure, SolverConfig, solve)

__all__ = [
    "CheckResult", "AuditReport", "audit_run", "corrupt_gradient_oracle",
    "audit_corpus", "run_audit_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f"  ({self.detail})" if self.detail else ""
        return f"{self.name}: {status}{suffix}"


@dataclass
class AuditReport:
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def lines(self) -> List[str]:
        return [c.line() for c in self.checks]


_REL = 1e-9  # relative slack for float comparisons against analytic constants

# Curvature estimates are difference quotients; when the two points nearly
# coincide the numerator cancels catastrophically and the computed quotient
# carries roundoff of order eps * (value scale) / distance^2.  The curvature
# cap checks allow that envelope, scaled by this safety factor.
_NOISE_MULT = 64.0


def _envelope(f_u, F, gd, den, xn2):
    """Roundoff allowance of the curvature quotients of u against records i.

    64 eps 2 (|f(u)| + |F_i| + |g_i . d_i|) / max(||d_i||^2, e (1 +
    ||x_tilde_i||^2)) with d_i = u - x_tilde_i and e = DENOM_EPSILON; F_i,
    g_i are f and grad f at x_tilde_i.  Elementwise over numpy arrays.
    """
    return _NOISE_MULT * float(np.finfo(np.float64).eps) * 2.0 \
        * (np.abs(f_u) + np.abs(F) + np.abs(gd)) \
        / np.maximum(den, DENOM_EPSILON * (1.0 + xn2))


def audit_run(problem: CompositeProblem, config: SolverConfig,
              cert: Certificate, trace: IterationTrace,
              ledger: HistoryLedger, y0: Array) -> AuditReport:
    """Audit one finished run; every check covers all accepted iterations.

    Cost for K iterations in dimension n: O(K n), plus O(k n) at each
    iteration k whose best point differs from the previous one (the
    lower-curvature replay), plus the O(K^2) history-inequality scan, which
    stays exhaustive on purpose.  The replay reads only the committed
    records and shares no state with the solver's gap cache.
    """
    checks: List[CheckResult] = []
    lam = np.array(trace.lam)
    xi = np.array(trace.xi)
    tau = np.array(trace.tau)
    U = np.array(trace.U)
    L = np.array(trace.L)
    a = np.array(trace.a)
    phi_y = np.array(trace.phi_y)
    phi_ymin = np.array(trace.phi_ymin)
    n_iter = len(trace)

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    def first_bad(mask: np.ndarray) -> int:
        """1-based iteration index of the first violation in a bool mask."""
        idx = np.flatnonzero(mask)
        return int(idx[0]) + 1 if idx.size else 0

    if n_iter == 0:
        add("non-empty-run", False, "no accepted iterations to audit")
        return AuditReport(checks)

    # ordering invariants
    bad = np.concatenate(([lam[0] <= 0.0 or lam[0] > config.lambda0],
                          (np.diff(lam) > 0.0) | (lam[1:] <= 0.0)))
    add("stepsize-positive-nonincreasing", not bad.any(),
        f"lam in [{lam.min():.3e}, {lam.max():.3e}]" if not bad.any()
        else f"first violation at k={first_bad(bad)}")
    bad = np.concatenate(([xi[0] < 0.0], (np.diff(xi) < 0.0)))
    add("escalation-nonnegative-nondecreasing", not bad.any(),
        f"final xi = {xi[-1]:g}" if not bad.any()
        else f"first violation at k={first_bad(bad)}")
    bad = np.concatenate(([L[0] < 0.0], (np.diff(L) < 0.0)))
    add("lower-curvature-nonnegative-nondecreasing", not bad.any(),
        f"final L = {L[-1]:.6g}" if not bad.any()
        else f"first violation at k={first_bad(bad)}")

    # acceptance conditions, re-stated on the committed columns
    prod = U * lam
    worst_k = int(np.argmax(prod)) + 1
    worst = float(prod[worst_k - 1])
    add("stepsize-curvature-product", worst <= config.gamma,
        f"max U*lam = {worst:.6g} at k={worst_k} vs gamma = {config.gamma}")

    bad = tau != 2.0 * xi * lam / a
    add("momentum-offset-identity", not bad.any(),
        "tau == 2*xi*lam/a at every iteration" if not bad.any()
        else f"first violation at k={first_bad(bad)}")

    lam_hist = ledger.lam_history()
    margin, k_arg, i_arg = _kernels.history_margin(
        lam_hist, np.array(ledger.tau_history()), L, xi)
    add("history-inequality", margin >= 0.0,
        f"min margin {margin:.3e} at k={k_arg}, i={i_arg}")

    bad = np.concatenate(([False], np.diff(phi_ymin) > 0.0)) \
        | (phi_ymin > np.minimum.accumulate(phi_y))
    add("best-point-monotone", not bad.any(),
        "phi(best) non-increasing and <= every accepted phi(y)"
        if not bad.any() else f"first violation at k={first_bad(bad)}")

    bad = ~np.isfinite(phi_y)
    add("iterates-in-domain", not bad.any(),
        "phi(y_k) finite for all k" if not bad.any()
        else f"first violation at k={first_bad(bad)}")

    drift_anchor = 0.0
    anchor_k = 0
    for i, xk in enumerate(trace.xs):
        moved = float(np.linalg.norm(problem.omega.project(xk) - xk))
        if moved > drift_anchor:
            drift_anchor = moved
            anchor_k = i + 1
    add("anchor-in-region", drift_anchor <= 1e-9,
        f"max projection displacement {drift_anchor:.3e}"
        + (f" at k={anchor_k}" if anchor_k else ""))

    # certificate
    if cert.converged:
        ok = (cert.residual_norm <= config.rho_hat
              and verify_certificate(problem, cert, s=1.0, tol=1e-8))
        add("certificate-membership", ok,
            f"residual {cert.residual_norm:.3e} <= rho_hat "
            f"{config.rho_hat:g}, prox fixed point at 1e-8")
    else:
        add("certificate-membership", True,
            "skipped (run did not converge)")

    # metadata-coupled invariants
    M = problem.smooth.audit_lipschitz
    m = problem.smooth.audit_curvature
    if M is None or m is None:
        add("analytic-constants", True, "skipped (no audit metadata)")
        return AuditReport(checks)

    bounds = TheoreticalBounds.from_problem(problem, config)
    slack = _REL

    # U_k against M, with a per-iteration roundoff envelope for the quotient
    X, F, G = ledger.record_arrays(n_iter)
    xn2 = np.einsum("ij,ij->i", X, X)
    f_ys = np.array([problem.smooth.value(yk) for yk in trace.ys])
    D = np.stack(trace.ys) - X
    env = _envelope(f_ys, F, np.einsum("ij,ij->i", G, D),
                    np.einsum("ij,ij->i", D, D), xn2)
    # U == 0 marks a guarded (degenerate-distance) quotient and always passes
    bad = (U > bounds.M_bar * (1.0 + slack) + env + 1e-12) & (U != 0.0)
    kU = int(np.argmax(U)) + 1
    add("upper-curvature-bound", not bad.any(),
        f"max U = {U[kU - 1]:.6g} at k={kU} vs M = {bounds.M_bar:g}"
        if not bad.any() else f"first violation at k={first_bad(bad)}")

    # replay the lower-curvature recursion from the committed data and bound
    # every contributing gap quotient by m plus its own roundoff envelope.
    # While the best point keeps its bytes, every pair (k, i < k) was scored
    # at k - 1 against the same point and value, so only record k is scanned
    # and the row maxima carry over; np.max carries a NaN the way the full
    # row's maximum would.  A changed best point gets a full scan.
    def scan(u, f_u, start, stop):
        """Gap quotients of u against records start+1..stop, cap excesses."""
        q, den, gd = ledger.linearization_gaps(stop, u, f_u, start=start)
        env = _envelope(f_u, F[start:stop], gd, den, xn2[start:stop])
        return q, np.where(q != 0.0,
                           q - env - bounds.m_under * (1.0 + slack), -np.inf)

    L_replay = np.empty(n_iter)
    L_prev = 0.0
    cap_excess = -math.inf
    cap_loc = (0, 0)
    u_bytes = None
    for kk in range(1, n_iter + 1):
        y_prev = trace.ys[kk - 2] if kk >= 2 else y0
        f_y_prev = float(f_ys[kk - 2]) if kk >= 2 \
            else float(problem.smooth.value(y0))
        q1, exc1 = scan(y_prev, f_y_prev, kk - 1, kk)
        u = trace.ymins[kk - 1]
        prev_bytes, u_bytes = u_bytes, u.tobytes()
        carry = u_bytes == prev_bytes
        start = kk - 1 if carry else 0
        if not carry:
            # an accepted y_k has its value in f_ys; a best point that is a
            # rejected trial point needs its own
            f_u = float(f_ys[kk - 1]) if u is trace.ys[kk - 1] \
                else float(problem.smooth.value(u))
        terms, exc = scan(u, f_u, start, kk)
        t2 = float(np.max(terms))
        i2 = int(np.argmax(exc))
        row_excess = float(exc[i2])
        if carry:
            # the earlier part of the row already lost to cap_excess, so a
            # row maximum above it can only come from record k
            t2 = float(np.max((t2_prev, t2)))
            row_excess = float(np.max((excess_prev, row_excess)))
        t2_prev, excess_prev = t2, row_excess
        L_replay[kk - 1] = max(float(q1[0]), t2, L_prev, 0.0)
        L_prev = L_replay[kk - 1]

        for cand, loc in ((row_excess, (kk, start + i2 + 1)),
                          (float(exc1[0]), (kk, kk))):
            if cand > cap_excess:
                cap_excess = cand
                cap_loc = loc

    add("lower-curvature-replay", bool(np.array_equal(L_replay, L)),
        "recorded L matches a full recomputation bit for bit"
        if np.array_equal(L_replay, L)
        else f"first mismatch at k="
             f"{first_bad(L_replay != L)}")
    kL = int(np.argmax(L)) + 1
    add("lower-curvature-cap", cap_excess <= 1e-12,
        f"max L = {L[kL - 1]:.6g} at k={kL} vs m = {bounds.m_under:g}"
        if cap_excess <= 1e-12
        else f"gap quotient exceeds m by {cap_excess:.3e} at k={cap_loc[0]}, "
             f"i={cap_loc[1]}")
    klam = int(np.argmin(lam)) + 1
    add("stepsize-floor",
        bool(lam[klam - 1] >= bounds.lambda_floor * (1.0 - slack)),
        f"min lam = {lam[klam - 1]:.6g} at k={klam} vs floor = "
        f"{bounds.lambda_floor:.6g}")
    kxi = int(np.argmax(xi)) + 1
    add("escalation-cap",
        bool(xi[kxi - 1] <= bounds.xi_bar * (1.0 + slack)),
        f"max xi = {xi[kxi - 1]:g} at k={kxi} vs cap = {bounds.xi_bar:g}")

    if bounds.m_under == 0.0:
        bad = (xi != 0.0) | (tau != 0.0)
        add("convex-stays-zero", not bad.any(),
            "xi and tau identically zero on a convex instance"
            if not bad.any() else f"first violation at k={first_bad(bad)}")

    distinct = len(set(xi.tolist()))
    allowed = math.ceil(math.log2(max(4.0 * bounds.m_under, 1.0))) + 2
    add("escalation-distinct-count", distinct <= allowed,
        f"{distinct} distinct xi values, allowed {allowed}")

    lam_term = math.log(config.lambda0 / bounds.lambda_floor) \
        / math.log(config.theta)
    xi_term = math.log2(bounds.xi_bar) if bounds.xi_bar > 0.0 else 0.0
    budget = n_iter + max(lam_term, xi_term, 0.0) + 2.0
    add("inner-repeat-budget", cert.prox_calls <= budget,
        f"{cert.prox_calls} prox calls vs budget {budget:.2f}")

    drift = check_xk_drift(trace.xs, y0, bounds)
    add("anchor-drift", drift.passed,
        f"worst ||x_k - x_0||/(C k) = {drift.worst_ratio:.3e} "
        f"at k={drift.worst_k} (C = {drift.C:.3g})")

    return AuditReport(checks)


def corrupt_gradient_oracle(problem: CompositeProblem,
                            factor: float = 1.6) -> CompositeProblem:
    """Fault-injection fixture: scale the gradient, keep values and metadata."""
    orig = problem.smooth
    bad = SmoothOracle(
        value_fn=orig.value,
        grad_fn=lambda u: factor * np.asarray(orig.grad(u)),
        audit_lipschitz=orig.audit_lipschitz,
        audit_curvature=orig.audit_curvature)
    return CompositeProblem(bad, problem.regularizer, problem.omega,
                            problem.dimension)


def audit_corpus(n_instances: int, seed: int) -> List[CompositeProblem]:
    """Alternating convex / nonconvex seeded instances (n = 20, box [-1,1])."""
    out = []
    for i in range(n_instances):
        if i % 2 == 0:
            spec = QuadraticSpec(n=20, eig_lo=1.0, eig_hi=10.0,
                                 seed=seed + i)
        else:
            spec = QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0,
                                 seed=seed + i)
        out.append(generate_qp(spec))
    return out


def run_audit_suite(n_instances: int = 20, seed: int = 0,
                    max_iterations: int = 10_000, rho_hat: float = 1e-7,
                    problems: Optional[List[CompositeProblem]] = None):
    """Audit the schedule plus a corpus of runs.

    Returns (passed, lines) where lines carry one entry per check per
    instance, plus the schedule scan.  ``problems`` overrides the generated
    corpus (used by fault-injection tests).
    """
    lines: List[str] = []
    passed = True

    sched = check_schedule_bounds(max(1000, min(max_iterations, 100_000)))
    lines.append(f"schedule-growth-envelope: "
                 f"{'PASS' if sched.passed else 'FAIL'}  "
                 f"(worst margins {sched.lower_margin:.3e}, "
                 f"{sched.upper_margin:.3e}, {sched.sum_margin:.3e}, "
                 f"{sched.ratio_margin:.3e}; max identity gap "
                 f"{sched.max_rel_gap:.3e})")
    passed &= sched.passed

    if problems is None:
        problems = audit_corpus(n_instances, seed)
    rng = np.random.default_rng(seed ^ 0x5eed)
    for idx, problem in enumerate(problems):
        lo, hi = problem.regularizer.domain_box
        y0 = lo + rng.random(problem.dimension) * (hi - lo)
        config = SolverConfig(rho_hat=rho_hat,
                              max_outer_iterations=max_iterations)
        tag = f"instance[{idx}]"
        try:
            cert, trace, ledger = solve(problem, config, y0)
        except (RuntimeError, NumericalFailure) as exc:
            lines.append(f"{tag} run: FAIL  ({exc})")
            passed = False
            continue
        report = audit_run(problem, config, cert, trace, ledger, y0)
        for check in report.checks:
            lines.append(f"{tag} {check.line()}")
        if not report.passed:
            first = report.failures()[0]
            lines.append(f"{tag} FAILED first at: {first.name}")
            passed = False
    return passed, lines
