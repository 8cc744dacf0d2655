"""Post-run invariant auditing.

Every structural guarantee the adaptive solver is supposed to maintain is
rechecked here from the recorded trace, the committed history, and (when the
instance carries analytic curvature metadata) the implied run constants.
Each check is named; reports list them one per line, which is also the
format the command-line audit suite prints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import _kernels
from .diagnostics import TheoreticalBounds, check_xk_drift
from .gallery import QuadraticSpec, _check_seed, generate_qp
from .momentum import check_schedule_bounds
from .problems import (Array, Certificate, CompositeProblem,
                       verify_certificate)
from .solver import (NOISE_MULT, HistoryLedger, IterationTrace,
                     NumericalFailure, SolverConfig, replay_anchors, solve)

__all__ = [
    "CheckResult", "AuditReport", "certificate_check", "audit_run",
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


_REL = 1e-9  # relative slack for float comparisons against analytic constants


def _envelope(f_u, abs_F, gd, den, floor):
    """Roundoff allowance of the curvature quotients of u against records i.

    Curvature estimates are difference quotients; when the two points nearly
    coincide the numerator cancels catastrophically and the computed
    quotient carries roundoff of order eps * (value scale) / distance^2.
    The curvature cap checks allow NOISE_MULT (64, the multiple of the
    solver's zero rule) times

    eps 2 (|f(u)| + |F_i| + |g_i . d_i|) / max(||d_i||^2, e (1 +
    ||x_tilde_i||^2)) with d_i = u - x_tilde_i and e = DENOM_EPSILON; F_i,
    g_i are f and grad f at x_tilde_i.  Elementwise over numpy arrays;
    ``abs_F`` is |F_i| and ``floor`` is e (1 + ||x_tilde_i||^2), the
    quotient guard each ledger record holds.
    """
    return NOISE_MULT * float(np.finfo(np.float64).eps) * 2.0 \
        * (np.abs(f_u) + abs_F + np.abs(gd)) / np.maximum(den, floor)


def certificate_check(problem: CompositeProblem, cert: Certificate,
                      rho_hat: float) -> CheckResult:
    """``certificate-membership``: a converged run's recorded residual is
    <= rho_hat and its certificate passes ``verify_certificate`` at
    rho_hat; a run that did not converge skips it.  ``audit_run`` and the
    command line's baseline audit both report it."""
    if not cert.converged:
        return CheckResult("certificate-membership", True,
                           "skipped (run did not converge)")
    ok = bool(cert.residual_norm <= rho_hat
              and verify_certificate(problem, cert, rho_hat))
    return CheckResult(
        "certificate-membership", ok,
        f"residual {cert.residual_norm:.3e} <= rho_hat {rho_hat:g}, "
        "least-norm subgradient within rho_hat" if ok else
        f"||v_hat|| {np.linalg.norm(cert.v_hat):.3e}, recorded residual "
        f"{cert.residual_norm:.3e}, rho_hat {rho_hat:g}; a pass needs "
        "both and the least-norm subgradient within rho_hat")


def audit_run(problem: CompositeProblem, config: SolverConfig,
              cert: Certificate, trace: IterationTrace,
              ledger: HistoryLedger, y0: Array) -> AuditReport:
    """Audit one finished run; every check covers all accepted iterations.

    Cost for K iterations in dimension n: O(K n) work in O(B) numpy calls
    plus O(k n) per segment (a maximal run of iterations with the same
    best point) that ends at iteration k, plus O(K S') for the history
    inequality, whose every margin is evaluated in one vector per (xi, L)
    run, a maximal run of bitwise-equal (xi_k, L_k).  The lower-curvature
    replay scans each best point once against records 1..e, e the end of
    its segment, in B blocks of consecutive segments: b segments whose
    last ends at e make one b x e x n scan of at most ``_ROW_BLOCK``
    elements, unless b is 1.  f(y_k) and s(y_k) are taken as rows, a block
    at a time; for a quadratic past ``gallery._Q_BLOCK`` elements of Q, a
    row block of f(y_k) reads each cache-sized block of Q's rows once for
    all its rows, so Q is read once per row block, not once per row.  The
    replay reads only the committed records and shares no state with the
    solver's gap cache.  The checks read trace columns as views, and
    ``replay_anchors`` rebuilds a_k and x_k.  No temporary holds more than
    max(_SCAN_BLOCK, K n) elements; the largest, one at a time, are the
    anchors and the domain test's masks.  The gap scans, of y_{k-1} and of
    y_k against record k and of each block's best points, form their
    differences a block of records at a time, at most ``_SCAN_BLOCK``
    elements (``HistoryLedger._gap_terms``).

    Kept checks imply three invariants with no check of their own (proofs
    in README.md, "Audit checks"): at most floor(log2 xi_bar) + 2 distinct
    xi, xi == tau == 0 when m = 0, and a non-negative, nondecreasing L.

    ``inner-repeat-budget`` allows K + lam_term + 1 + xi_term prox calls,
    with lam_term = log_theta(lambda0 / lambda_floor) and xi_term =
    log2(xi_bar), or 0 when xi_bar = 0.  Every retry shrinks lam, escalates
    xi, or both, so a run's retries are at most its shrinks plus its
    escalations.  A shrink divides lam by theta or more, and lam stays at
    or above lambda_floor (``stepsize-floor``), so there are at most
    lam_term shrinks.  An escalation takes xi from 0 to 1 or doubles it,
    and xi stays at or below xi_bar (``escalation-cap``), so there are at
    most 1 + xi_term escalations.  Both terms are non-negative, since
    lambda_floor <= lambda0 and xi_bar is 0 or at least 1.  The budget adds
    them; their maximum would undercount a run that needs both.
    """
    checks: List[CheckResult] = []
    lam, xi, tau, U, L = trace.lam, trace.xi, trace.tau, trace.U, trace.L
    phi_y, phi_ymin = trace.phi_y, trace.phi_ymin
    n_iter = len(trace)

    def add(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name, bool(passed), detail))

    def add_unless(name: str, bad: np.ndarray, detail: str,
                   what: str = "violation") -> None:
        """Pass with ``detail``, or fail at the first iteration in ``bad``."""
        idx = np.flatnonzero(bad)
        add(name, not idx.size,
            f"first {what} at k={idx[0] + 1}" if idx.size else detail)

    if n_iter == 0:
        add("non-empty-run", False, "no accepted iterations to audit")
        return AuditReport(checks)

    # ordering invariants
    add_unless("stepsize-positive-nonincreasing", np.concatenate((
        [lam[0] <= 0.0 or lam[0] > config.lambda0],
        (np.diff(lam) > 0.0) | (lam[1:] <= 0.0))),
        f"lam in [{lam.min():.3e}, {lam.max():.3e}]")
    # xi_k is 0 or 2^j, j >= 0, as the solver makes it; a NaN fails
    mant, expo = np.frexp(xi)
    add_unless("escalation-nonnegative-nondecreasing",
               np.concatenate(([False], np.diff(xi) < 0.0))
               | ~((xi == 0.0) | ((mant == 0.5) & (expo >= 1))),
               f"final xi = {xi[-1]:g}")

    # acceptance conditions, re-stated on the committed columns
    a, anchors = replay_anchors(trace)
    prod = U * lam
    worst_k = int(np.argmax(prod)) + 1
    worst = float(prod[worst_k - 1])
    add("stepsize-curvature-product", worst <= config.gamma,
        f"max U*lam = {worst:.6g} at k={worst_k} vs gamma = {config.gamma}")

    add_unless("momentum-offset-identity", tau != 2.0 * xi * lam / a,
               "tau == 2*xi*lam/a at every iteration")

    margin, k_arg, i_arg = _kernels.history_margin(trace.stepsizes, tau, L,
                                                   xi)
    add("history-inequality", margin >= 0.0,
        f"min margin {margin:.3e} at k={k_arg}, i={i_arg}")

    add_unless("best-point-monotone",
               np.concatenate(([False], np.diff(phi_ymin) > 0.0))
               | (phi_ymin > np.minimum.accumulate(phi_y)),
               "phi(best) non-increasing and <= every accepted phi(y)")
    Y, (lo, hi) = trace.Y, problem.regularizer.domain_box
    add_unless("iterates-in-domain",
               ~((Y[1:] >= lo) & (Y[1:] <= hi)).all(axis=1)
               | ~np.isfinite(phi_y),
               "y_k in dom h and phi(y_k) finite for all k")

    checks.append(certificate_check(problem, cert, config.rho_hat))

    # the L replay needs no analytic constant; the checks after it do
    bounds = TheoreticalBounds.from_problem(problem, config)
    if bounds is not None:
        drift = check_xk_drift(anchors, y0, bounds)  # reported last
    del anchors

    _, F, _, floor = ledger.record_arrays(n_iter)
    abs_F = np.abs(F)
    # f(y_0..y_K) and their value-roundoff scales, by the solver's formulas
    f_ys, s_ys = np.empty(n_iter + 1), np.empty(n_iter + 1)
    for s, e in _kernels.row_blocks(n_iter + 1, problem.dimension):
        f_ys[s:e] = problem.smooth.value(Y[s:e])
        s_ys[s:e] = problem.smooth.value_scale(Y[s:e], f_ys[s:e])

    # replay the lower-curvature recursion from the committed data and bound
    # every contributing gap quotient by m plus its own roundoff envelope:
    # L_k = max(q_k, max_{i<=k} g_i(ymin_k), L_{k-1}, 0), where q_k is the
    # quotient of y_{k-1} against record k and g_i(u) that of u against
    # record i.  All q_k come from one paired scan.  Within a segment of
    # iterations s+1..e with the same best point, the row maxima over
    # records 1..k are running maxima of one scan of that point against
    # records 1..e; np.maximum.accumulate carries a NaN quotient into L as
    # np.max would.  Consecutive segments are scanned together in blocks
    # (see _kernels.segment_blocks).  The cap reports the largest finite
    # excess: a NaN excess counts as none, so it hides no other row's.
    cap = math.inf if bounds is None else bounds.m_under * (1.0 + _REL)

    def scan(count, u, f_u, s_u):
        """Gap quotients of u against records 1..count, and cap excesses.

        A guarded or zeroed quotient reads 0 and its excess is at most 0,
        so it can win only where no quotient fails the cap."""
        q, den, gd = ledger.linearization_gaps(count, u, f_u, s_u)
        env = _envelope(f_u, abs_F[:count], gd, den, floor[:count])
        return q, np.fmax(q - env - cap, -np.inf)  # fmax: NaN reads -inf

    q1, exc1 = scan(n_iter, Y[:-1], f_ys[:-1], s_ys[:-1])
    t2 = np.empty(n_iter)
    row_excess = np.empty(n_iter)  # largest cap excess of row k
    row_at = np.arange(1, n_iter + 1)  # its record, where it can first win
    rows = trace.ymin_rows
    first = np.diff(rows, prepend=rows[0] - 1) != 0  # rows that start one
    seg_of = np.cumsum(first) - 1  # the segment of each row
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], n_iter)
    for j0, j1 in _kernels.segment_blocks(ends, problem.dimension):
        s0, e, lead = int(starts[j0]), int(ends[j1 - 1]), starts[j0:j1]
        # rows of Y have their value and scale in f_ys and s_ys; a best
        # point that is a rejected trial point (r < 0) needs its own
        r = rows[lead]
        P, f_u, s_u = Y[r], f_ys[r], s_ys[r]
        for i in np.flatnonzero(r < 0):
            P[i] = trace.point(int(r[i]))
            f_u[i] = problem.smooth.value(P[i])
            s_u[i] = problem.smooth.value_scale(P[i], float(f_u[i]))
        terms, exc = scan(e, P[:, None, :], f_u[:, None], s_u[:, None])
        # row k of segment j reads row j's running maxima at record k.  Row
        # s+1 first wins at the first record holding its maximum, a later
        # row k, the running maximum with record k, only at record k
        at = (seg_of[s0:e] - j0, np.arange(s0, e))
        t2[s0:e] = np.maximum.accumulate(terms, axis=1)[at]
        row_excess[s0:e] = np.maximum.accumulate(exc, axis=1)[at]
        row_at[lead] = np.argmax(exc == row_excess[lead, None], axis=1) + 1

    L_replay = []
    L_prev = 0.0
    for a1, a2 in zip(q1.tolist(), t2.tolist()):
        # Python's max, for its NaN order, and + 0.0 as in the solver
        L_prev = max(a1, a2, L_prev, 0.0) + 0.0
        L_replay.append(L_prev)

    add_unless("lower-curvature-replay",
               np.array(L_replay).view(np.int64) != L.view(np.int64),
               "recorded L matches a full recomputation bit for bit",
               "mismatch")
    if bounds is None:
        return AuditReport(checks)

    # U_k against M, with a per-iteration roundoff envelope for the quotient
    _, den, gd = ledger.linearization_gaps(n_iter, Y[1:], f_ys[1:], s_ys[1:])
    env = _envelope(f_ys[1:], abs_F, gd, den, floor)
    # U == 0 marks a guarded (degenerate-distance) quotient and always passes
    kU = int(np.argmax(U)) + 1
    add_unless("upper-curvature-bound",
               (U > bounds.M_bar * (1.0 + _REL) + env + 1e-12) & (U != 0.0),
               f"max U = {U[kU - 1]:.6g} at k={kU} vs M = {bounds.M_bar:g}")

    # candidates in scan order: row k, then y_{k-1} against record k
    cand = np.column_stack((row_excess, exc1))
    j = _kernels.first_max(cand.ravel(), -math.inf)
    cap_excess, cap_loc = -math.inf, (0, 0)
    if j >= 0:
        k, side = divmod(j, 2)
        cap_excess = float(cand[k, side])
        cap_loc = (k + 1, k + 1 if side else int(row_at[k]))

    kL = int(np.argmax(L)) + 1
    add("lower-curvature-cap", cap_excess <= 1e-12,
        f"max L = {L[kL - 1]:.6g} at k={kL} vs m = {bounds.m_under:g}"
        if cap_excess <= 1e-12
        else f"gap quotient exceeds m by {cap_excess:.3e} at k={cap_loc[0]}, "
             f"i={cap_loc[1]}")
    klam = int(np.argmin(lam)) + 1
    add("stepsize-floor",
        bool(lam[klam - 1] >= bounds.lambda_floor * (1.0 - _REL)),
        f"min lam = {lam[klam - 1]:.6g} at k={klam} vs floor = "
        f"{bounds.lambda_floor:.6g}")
    kxi = int(np.argmax(xi)) + 1
    add("escalation-cap",
        bool(xi[kxi - 1] <= bounds.xi_bar * (1.0 + _REL)),
        f"max xi = {xi[kxi - 1]:g} at k={kxi} vs cap = {bounds.xi_bar:g}")

    lam_term = math.log(config.lambda0 / bounds.lambda_floor) \
        / math.log(config.theta)
    xi_term = math.log2(bounds.xi_bar) if bounds.xi_bar > 0.0 else 0.0
    budget = n_iter + lam_term + 1.0 + xi_term
    add("inner-repeat-budget", cert.prox_calls <= budget,
        f"{cert.prox_calls} prox calls vs budget {budget:.2f}")

    add("anchor-drift", drift.passed,
        f"worst ||x_k - x_0||/(C k) = {drift.worst_ratio:.3e} "
        f"at k={drift.worst_k} (C = {bounds.C:.3g})")

    return AuditReport(checks)


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
                    max_iterations: int = 10_000, rho_hat: float = 1e-7):
    """Audit the schedule plus the ``audit_corpus`` of runs.

    Returns (passed, lines) where lines carry one entry per check per
    instance, plus the schedule scan.  Raises ValueError, before any run,
    when there is nothing to audit (n_instances < 1), the seed is negative
    or the runs' configuration is bad (``SolverConfig.validate``).
    """
    if n_instances < 1:
        raise ValueError("n_instances must be at least 1")
    _check_seed(seed)
    config = SolverConfig(rho_hat=rho_hat, max_outer_iterations=max_iterations)
    config.validate()
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

    rng = np.random.default_rng(seed ^ 0x5eed)
    for idx, problem in enumerate(audit_corpus(n_instances, seed)):
        lo, hi = problem.regularizer.domain_box
        y0 = lo + rng.random(problem.dimension) * (hi - lo)
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
