"""Invariant auditing of finished runs, and fault injection against it."""

import hashlib

import numpy as np
import pytest

from varfista.audit import (AuditReport, CheckResult, audit_corpus, audit_run,
                            corrupt_gradient_oracle, run_audit_suite)
from varfista.gallery import (QuadraticSpec, default_start, generate_qp,
                              make_qp_problem)
from varfista.solver import DENOM_EPSILON, HistoryLedger, SolverConfig, solve


def _audited_run(spec, rho=1e-7, iters=5000, lambda0=1.0):
    prob = generate_qp(spec)
    cfg = SolverConfig(lambda0=lambda0, rho_hat=rho,
                       max_outer_iterations=iters)
    y0 = default_start(prob)
    cert, trace, ledger = solve(prob, cfg, y0)
    return prob, cfg, cert, trace, ledger, y0


CONVEX = QuadraticSpec(n=8, eig_lo=1.0, eig_hi=10.0, seed=0)
ROUGH = QuadraticSpec(n=8, eig_lo=-1.0, eig_hi=10.0, seed=11)


def test_check_result_line_format():
    ok = CheckResult("some-check", True, "margin 0.5")
    assert ok.line() == "some-check: PASS  (margin 0.5)"
    bad = CheckResult("other-check", False)
    assert bad.line() == "other-check: FAIL"
    rep = AuditReport([ok, bad])
    assert not rep.passed
    assert rep.failures() == [bad]
    assert rep.lines() == [ok.line(), bad.line()]


def test_clean_convex_run_passes_every_check():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())
    names = [c.name for c in report.checks]
    # the convex-only guarantee is asserted, not skipped
    assert "convex-stays-zero" in names
    assert "certificate-membership" in names
    assert "lower-curvature-replay" in names


def test_clean_nonconvex_run_passes_every_check():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())
    names = [c.name for c in report.checks]
    assert "convex-stays-zero" not in names
    assert "escalation-cap" in names
    assert "stepsize-floor" in names


def test_one_point_box_audits_clean():
    # lo == hi: a valid instance whose domain is one point (C = 0)
    prob = make_qp_problem(np.array([[2.0, 0.3], [0.3, -1.0]]),
                           np.array([0.1, -0.2]), [0.5, 0.5], [0.5, 0.5])
    cfg = SolverConfig()
    y0 = default_start(prob)
    cert, trace, ledger = solve(prob, cfg, y0)
    assert cert.converged and cert.iterations == 1
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())
    assert "anchor-drift" in [c.name for c in report.checks]


def test_audit_without_metadata_skips_constant_checks():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    prob.smooth.audit_lipschitz = None
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    lines = report.lines()
    assert any("analytic-constants" in ln and "skipped" in ln
               for ln in lines)
    names = [c.name for c in report.checks]
    assert "stepsize-floor" not in names
    assert report.passed


def test_audit_rejects_empty_run():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    from varfista.solver import IterationTrace
    report = audit_run(prob, cfg, cert, IterationTrace(), ledger, y0)
    assert not report.passed


def test_tampered_trace_is_flagged_with_iteration_index():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    k_bad = min(3, len(trace) - 1)
    trace.tau[k_bad] += 1e-9
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert not report.passed
    offset = {c.name: c for c in report.checks}["momentum-offset-identity"]
    assert not offset.passed
    assert f"k={k_bad + 1}" in offset.detail


def test_tampered_stepsize_monotonicity_is_flagged():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    if len(trace) >= 2:
        trace.lam[-1] = trace.lam[-2] * 1.5
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    byname = {c.name: c for c in report.checks}
    assert not byname["stepsize-positive-nonincreasing"].passed


def test_corrupted_gradient_fails_metadata_checks():
    prob = generate_qp(ROUGH)
    bad = corrupt_gradient_oracle(prob, factor=1.6)
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=500)
    y0 = default_start(bad)
    cert, trace, ledger = solve(bad, cfg, y0)
    report = audit_run(bad, cfg, cert, trace, ledger, y0)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    # the stepsize collapses through its floor and escalation blows through
    # its cap; both carry analytic-constant detection
    assert "stepsize-floor" in failed
    assert "escalation-cap" in failed


def test_corrupted_gradient_on_convex_instance_breaks_zero_invariant():
    prob = generate_qp(CONVEX)
    bad = corrupt_gradient_oracle(prob, factor=1.6)
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=500)
    y0 = default_start(bad)
    cert, trace, ledger = solve(bad, cfg, y0)
    report = audit_run(bad, cfg, cert, trace, ledger, y0)
    failed = {c.name for c in report.failures()}
    assert "convex-stays-zero" in failed or "stepsize-floor" in failed


def test_corrupt_oracle_preserves_values_and_metadata():
    prob = generate_qp(CONVEX)
    bad = corrupt_gradient_oracle(prob, factor=2.0)
    u = default_start(prob)
    assert bad.smooth.value(u) == prob.smooth.value(u)
    assert np.array_equal(bad.smooth.grad(u), 2.0 * prob.smooth.grad(u))
    assert bad.smooth.audit_lipschitz == prob.smooth.audit_lipschitz


def test_audit_corpus_layout():
    corpus = audit_corpus(6, seed=40)
    assert len(corpus) == 6
    curvatures = [p.smooth.audit_curvature for p in corpus]
    assert curvatures == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert all(p.dimension == 20 for p in corpus)
    # seeds advance, so instances differ
    assert not np.array_equal(corpus[0].smooth.Q, corpus[2].smooth.Q)


def test_audit_suite_passes_on_clean_corpus():
    passed, lines = run_audit_suite(n_instances=4, seed=0,
                                    max_iterations=5000, rho_hat=1e-6)
    assert passed, "\n".join(ln for ln in lines if "FAIL" in ln)
    assert lines[0].startswith("schedule-growth-envelope: PASS")
    assert sum("certificate-membership: PASS" in ln for ln in lines) == 4


def test_audit_suite_names_first_failure_under_fault_injection():
    corpus = [corrupt_gradient_oracle(p)
              for p in audit_corpus(2, seed=0)]
    passed, lines = run_audit_suite(max_iterations=500, rho_hat=1e-7,
                                    problems=corpus)
    assert not passed
    named = [ln for ln in lines if "FAILED first at:" in ln]
    assert len(named) == 2
    assert all("instance[" in ln for ln in named)


# sha256 over the joined report lines of a clean corpus suite, a
# gradient-fault suite and a convex run whose best point moves on almost
# every iteration (its audit fails the curvature and escalation caps).  Any
# change to a verdict or a detail string changes it.
AUDIT_REPORT_SHA256 = \
    "6d6f5b384640b29ef8ef961dd72e7157b85e5e50b0bfd23fbd906d2cb113a8fd"


def test_audit_reports_match_golden_hash():
    _, clean = run_audit_suite(20, 0)
    _, faulty = run_audit_suite(
        max_iterations=500,
        problems=[corrupt_gradient_oracle(p) for p in audit_corpus(6, 0)])
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=0.001, eig_hi=100.0,
                                     box=(-1000.0, 1000.0), seed=0))
    lo, hi = prob.regularizer.domain_box
    y0 = lo + np.random.default_rng(0).random(20) * (hi - lo)
    cfg = SolverConfig(rho_hat=1e-2, max_outer_iterations=2000)
    cert, trace, ledger = solve(prob, cfg, y0)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert not report.passed
    text = "\n".join(clean + faulty + report.lines())
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_REPORT_SHA256


def _unchanged(trace, j):
    """Whether ymin at 0-based index j has the bytes of the one before."""
    return trace.ymins[j].tobytes() == trace.ymins[j - 1].tobytes()


@pytest.fixture
def gap_scans(monkeypatch):
    """(count, start) of every ledger gap scan made while the test runs."""
    calls = []
    scan = HistoryLedger.linearization_gaps

    def counted(self, count, u, f_u, start=0):
        calls.append((count, start))
        return scan(self, count, u, f_u, start=start)

    monkeypatch.setattr(HistoryLedger, "linearization_gaps", counted)
    return calls


def test_replay_flags_one_ulp_of_L_where_the_best_point_is_unchanged():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    j = next(j for j in range(len(trace) // 2, len(trace))
             if _unchanged(trace, j))
    trace.L[j] = float(np.nextafter(trace.L[j], np.inf))
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    replay = {c.name: c for c in report.checks}["lower-curvature-replay"]
    assert not replay.passed
    assert replay.detail == f"first mismatch at k={j + 1}"


def test_replay_rescans_a_replaced_best_point_instead_of_carrying(gap_scans):
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    j = next(j for j in range(1, len(trace) - 1)
             if _unchanged(trace, j) and _unchanged(trace, j + 1))
    # the first record is the box midpoint; half-way from it to the box face
    # along the most negative curvature direction, the gap quotient against
    # it is |eig_lo| = 1, above every L the run recorded
    lo, hi = prob.regularizer.domain_box
    v = np.linalg.eigh(prob.smooth.Q)[1][:, 0]
    x1 = ledger.record_arrays(1)[0][0]
    tampered = x1 + 0.5 * v / np.max(np.abs(v))
    assert np.all((lo <= tampered) & (tampered <= hi))
    assert max(trace.L) < 0.9

    gap_scans.clear()
    audit_run(prob, cfg, cert, trace, ledger, y0)
    assert (j + 1, 0) not in gap_scans and (j + 2, 0) not in gap_scans
    gap_scans.clear()
    trace.ymins[j] = tampered
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert (j + 1, 0) in gap_scans and (j + 2, 0) in gap_scans
    replay = {c.name: c for c in report.checks}["lower-curvature-replay"]
    assert not replay.passed
    assert replay.detail == f"first mismatch at k={j + 1}"


def test_replay_scans_records_in_proportion_to_best_point_changes(gap_scans):
    prob = audit_corpus(1, 0)[0]
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    y0 = default_start(prob)
    cert, trace, ledger = solve(prob, cfg, y0)
    gap_scans.clear()
    assert audit_run(prob, cfg, cert, trace, ledger, y0).passed
    K = len(trace)
    changes = sum(not _unchanged(trace, j) for j in range(1, K))
    scanned = sum(count - start for count, start in gap_scans)
    assert scanned <= 2 * K + K * changes
    # the full replay scanned K (K + 1) / 2 records for ymin plus K for y
    assert scanned < (K * (K + 1) // 2 + K) / 2


def _quotients_and_envelopes(u, f_u, X, F, G):
    """Curvature quotients 2(F_i + g_i.d_i - f(u))/||d_i||^2, d_i = u - x_i
    (0 where ||d_i||^2 <= DENOM_EPSILON (1 + ||x_i||^2)), and their roundoff
    envelopes 64 eps 2 (|f(u)| + |F_i| + |g_i.d_i|) / max(the two).  u is
    one point, or one point per record with f_u one value per record."""
    d = u - X
    den = np.sum(d * d, axis=1)
    gd = np.sum(G * d, axis=1)
    guard = DENOM_EPSILON * (1.0 + np.sum(X * X, axis=1))
    q = np.where(den > guard, 2.0 * (F + gd - f_u) / np.maximum(den, guard),
                 0.0)
    env = 64.0 * np.finfo(np.float64).eps * 2.0 \
        * (abs(f_u) + np.abs(F) + np.abs(gd)) / np.maximum(den, guard)
    return q, env


def test_upper_curvature_bound_fails_just_above_its_envelope():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    X, F, G = ledger.record_arrays(len(trace))
    # U_k is minus the quotient of y_k against record k
    f_y = np.array([prob.smooth.value(y) for y in trace.ys])
    q, env = _quotients_and_envelopes(np.stack(trace.ys), f_y, X, F, G)
    j = int(np.argmax(np.where(q != 0.0, env, 0.0)))
    M = prob.smooth.audit_lipschitz
    assert env[j] > 1e-9 * M  # wide enough to tell the envelope apart

    def upper(U_j):
        trace.U[j] = U_j
        report = audit_run(prob, cfg, cert, trace, ledger, y0)
        return {c.name: c for c in report.checks}["upper-curvature-bound"]

    assert upper(M * (1.0 + 1e-9) + 0.5 * env[j]).passed
    check = upper(M * (1.0 + 1e-9) + 2.0 * env[j])
    assert not check.passed
    assert check.detail == f"first violation at k={j + 1}"


# indefinite corpus instances (audit_corpus(2, s)[1] has seed s + 1): the
# largest excess is a best-point pair (k=9, i=2) at seed 1 and a
# previous-iterate pair (k=6, i=6) at seed 9
@pytest.mark.parametrize("seed", [1, 9])
def test_lower_curvature_cap_reports_the_largest_excess_of_a_direct_scan(
        seed):
    prob, cfg, cert, trace, ledger, y0 = _audited_run(
        QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0, seed=seed))
    prob.smooth.audit_curvature = 0.0
    K = len(trace)
    X, F, G = ledger.record_arrays(K)
    best, where = -np.inf, None
    for k in range(1, K + 1):
        # the best point against records 1..k, then the previous iterate
        # against record k, in the order the audit scores them
        y_prev = trace.ys[k - 2] if k >= 2 else y0
        for u, lo in ((trace.ymins[k - 1], 0), (y_prev, k - 1)):
            q, env = _quotients_and_envelopes(
                u, prob.smooth.value(u), X[lo:k], F[lo:k], G[lo:k])
            excess = np.where(q != 0.0, q - env, -np.inf)
            i = int(np.argmax(excess))
            if excess[i] > best:
                best, where = float(excess[i]), (k, lo + i + 1)
    assert best > 0.0

    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    cap = {c.name: c for c in report.checks}["lower-curvature-cap"]
    assert not cap.passed
    assert cap.detail == (f"gap quotient exceeds m by {best:.3e} at "
                          f"k={where[0]}, i={where[1]}")
