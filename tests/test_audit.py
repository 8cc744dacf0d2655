"""Invariant auditing of finished runs, and fault injection against it."""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista import _kernels
from varfista.audit import (AuditReport, CheckResult, audit_corpus, audit_run,
                            run_audit_suite)
from varfista.gallery import (QuadraticSpec, default_start, generate_qp,
                              make_qp_problem)
from varfista.solver import (DENOM_EPSILON, HistoryLedger, IterationTrace,
                             SolverConfig, replay_anchors, solve)
from oracle_faults import corrupt_audit_corpus, corrupt_gradient_oracle
from test_package import audit_check_names


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


def test_clean_convex_run_passes_every_check():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())
    names = [c.name for c in report.checks]
    # the convex zero: the cap xi_bar = 0 with the ladder gives xi == 0, and
    # the offset identity then gives tau == 0
    assert not (trace.xi.any() or trace.tau.any())
    for name in ("escalation-cap", "escalation-nonnegative-nondecreasing",
                 "momentum-offset-identity", "certificate-membership",
                 "lower-curvature-replay"):
        assert name in names


def test_clean_nonconvex_run_passes_every_check():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())
    names = [c.name for c in report.checks]
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
    names = [c.name for c in report.checks]
    # the L replay needs no analytic constant and runs last
    assert names[-1] == "lower-curvature-replay"
    assert "stepsize-floor" not in names
    assert "upper-curvature-bound" not in names
    assert report.passed


def test_replay_without_metadata_flags_one_ulp_of_L():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(ROUGH)
    prob.smooth.audit_lipschitz = prob.smooth.audit_curvature = None
    trace.L[-1] = np.nextafter(trace.L[-1], np.inf)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert [c.line() for c in report.failures()] == [
        f"lower-curvature-replay: FAIL  (first mismatch at k={len(trace)})"]


def test_audit_rejects_empty_run():
    prob, cfg, cert, trace, ledger, y0 = _audited_run(CONVEX)
    report = audit_run(prob, cfg, cert, IterationTrace(y0, cfg.lambda0),
                       ledger, y0)
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


def _set(column, index, value):
    """An edit that writes one entry of a trace column."""
    def edit(run):
        getattr(run.trace, column)[index] = value(run.trace)
    return edit


def _xi_with_offsets(index, value):
    """An edit that writes entries of xi and the tau = 2 xi lam / a they
    imply, so that the momentum offset identity still holds."""
    def edit(run):
        t = run.trace
        a = replay_anchors(t)[0]
        t.xi[index] = value
        t.tau[index] = 2.0 * t.xi[index] * t.lam[index] / a[index]
    return edit


def _empty_trace(run):
    run.trace = IterationTrace(run.y0, run.cfg.lambda0)


def _unescalated_first_step(run):
    # xi_k = 0 (and tau_k = 0) at the first escalation, where L_k > 0:
    # the ladder, the offsets and the cap still hold
    k = int(np.argmax(run.trace.xi > 0.0))
    run.trace.xi[k] = run.trace.tau[k] = 0.0


def _half_step_with_large_U(run):
    # U = 1.5 M at half the step keeps U lam below gamma
    run.trace.lam[-1] *= 0.5
    run.trace.U[-1] = 1.5 * run.prob.smooth.audit_lipschitz


def _y_outside_the_box(run):
    run.trace.Y[len(run.trace) // 2, 0] = 5.0  # the box is [-1, 1]


def _lower_curvature_metadata(run):
    # the run's gap quotients reach 0.56; a recorded L that the replay
    # matches bounds them all, so no edit of the trace or ledger alone
    # fails the cap without the replay, and this row lowers m instead
    run.prob.smooth.audit_curvature = 0.25


def _large_residual(run):
    run.cert = replace(run.cert, residual_norm=2.0 * run.cfg.rho_hat)


def _outward_v_hat(run):
    # v_hat + 10 outward at a coordinate of y_hat on the box stays in
    # grad f + the normal cone there: only ||v_hat|| <= rho_hat fails
    y, (lo, hi) = run.cert.y_hat, run.prob.regularizer.domain_box
    i = int(np.flatnonzero((y == lo) | (y == hi))[0])
    v = run.cert.v_hat.copy()
    v[i] += 10.0 if y[i] == hi[i] else -10.0
    run.cert = replace(run.cert, v_hat=v)


def _extra_prox_calls(run):
    run.cert = replace(run.cert, prox_calls=run.cert.prox_calls
                       + len(run.trace))


def _far_start(run):
    run.y0 = run.y0 + 1e3


def _one_ulp(column, index, direction):
    """An edit that moves one entry of a trace column by one ulp."""
    return _set(column, index,
                lambda t: np.nextafter(getattr(t, column)[index], direction))


# The tamper matrix, (id, run, edit, failed): one minimal edit of a clean
# run's trace, certificate or start y0 (or, for lower-curvature-cap, of the
# instance's m), and the exact set of checks that fail on it; every other
# check passes.  Each check fails in some row, and alone in one
# (test_every_check_fails_in_some_row guards the first).  ROUGH escalates
# once, xi 0 -> 1 at k = 5; CONVEX keeps xi = tau = L = 0; lam M > gamma
# on both runs, so a U above M needs a smaller step.
_BROKEN_RUNS = [
    ("non-empty-run", CONVEX, _empty_trace, {"non-empty-run"}),
    ("stepsize-positive-nonincreasing", CONVEX, _one_ulp("lam", -1, np.inf),
     {"stepsize-positive-nonincreasing"}),
    ("escalation-nonnegative-nondecreasing", ROUGH,
     _set("xi", -1, lambda t: 0.5 * t.xi[-2]),
     {"escalation-nonnegative-nondecreasing", "momentum-offset-identity",
      "history-inequality"}),
    # xi 1.25, 1.5, 1.75 lie off the ladder and under the cap 4
    ("off-ladder-xi", ROUGH,
     _xi_with_offsets(slice(-3, None), [1.25, 1.5, 1.75]),
     {"escalation-nonnegative-nondecreasing"}),
    # 2^-2 and 2^-1 before the escalation to 1: powers of two, off the
    # ladder, which starts at 2^0
    ("sub-unit-xi", ROUGH, _xi_with_offsets(slice(2, 4), [0.25, 0.5]),
     {"escalation-nonnegative-nondecreasing"}),
    ("stepsize-curvature-product", ROUGH,
     _set("U", -1, lambda t: 0.995 / t.lam[-1]),
     {"stepsize-curvature-product"}),
    ("momentum-offset-identity", ROUGH, _one_ulp("tau", -1, -np.inf),
     {"momentum-offset-identity"}),
    ("history-inequality", ROUGH, _unescalated_first_step,
     {"history-inequality"}),
    # a convex run's tau > 0 breaks the offset identity and the inequality
    ("convex-tau", CONVEX, _set("tau", -1, lambda t: 1e-3),
     {"momentum-offset-identity", "history-inequality"}),
    ("best-point-monotone", CONVEX,
     _set("phi_ymin", -1, lambda t: t.phi_ymin[-2] + 1.0),
     {"best-point-monotone"}),
    ("iterates-in-domain", CONVEX, _set("phi_y", -1, lambda t: np.inf),
     {"iterates-in-domain"}),
    ("y-outside-box", CONVEX, _y_outside_the_box, {"iterates-in-domain"}),
    ("certificate-membership", CONVEX, _large_residual,
     {"certificate-membership"}),
    ("outward-v-hat", ROUGH, _outward_v_hat, {"certificate-membership"}),
    ("lower-curvature-replay", CONVEX, _set("L", 0, lambda t: -0.0),
     {"lower-curvature-replay"}),
    ("halved-L", ROUGH, _set("L", -1, lambda t: 0.5 * t.L[-2]),
     {"lower-curvature-replay"}),
    ("upper-curvature-bound", CONVEX, _half_step_with_large_U,
     {"upper-curvature-bound"}),
    ("lower-curvature-cap", ROUGH, _lower_curvature_metadata,
     {"lower-curvature-cap"}),
    ("stepsize-floor", CONVEX, _set("lam", -1, lambda t: 0.02),
     {"stepsize-floor"}),
    # a convex run's xi = 1 with its own tau: only the cap xi_bar = 0
    ("escalation-cap", CONVEX, _xi_with_offsets(-1, 1.0),
     {"escalation-cap"}),
    ("inner-repeat-budget", CONVEX, _extra_prox_calls,
     {"inner-repeat-budget"}),
    ("anchor-drift", CONVEX, _far_start, {"anchor-drift"}),
]


@pytest.mark.parametrize("spec, edit, failed",
                         [row[1:] for row in _BROKEN_RUNS],
                         ids=[row[0] for row in _BROKEN_RUNS])
def test_each_check_fails_on_a_minimally_broken_run(spec, edit, failed):
    run = SimpleNamespace(**dict(zip(
        ("prob", "cfg", "cert", "trace", "ledger", "y0"),
        _audited_run(spec))))
    edit(run)
    report = audit_run(run.prob, run.cfg, run.cert, run.trace, run.ledger,
                       run.y0)
    assert {c.name for c in report.failures()} == failed, \
        [c.line() for c in report.checks]


def test_every_check_fails_in_some_row():
    # a check that no row fails cannot be told apart from one that never
    # fails, or from one that others imply
    assert set().union(*(row[-1] for row in _BROKEN_RUNS)) \
        == audit_check_names()


@pytest.mark.parametrize("factor", [1.0, 1e8, 1e150, 1e-20, 1e-50])
def test_audit_verdicts_keep_under_scaling_f_and_rho_hat(factor):
    # Q, c, rho_hat and the audit constants times one factor: a correct run
    # passes at every scale.  At 1e-20 and 1e-50 the first step
    # lam grad f is below half an ulp of the start, so y_1 = y_0 and
    # v_hat = 0, and solve reports converged at a point that is not
    # stationary; the audit fails such a run on its certificate alone
    for seed in range(10):
        base = generate_qp(QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0,
                                         seed=seed))
        lo, hi = base.regularizer.domain_box
        prob = make_qp_problem(
            factor * base.smooth.Q, factor * base.smooth.c, lo, hi,
            audit_lipschitz=factor * base.smooth.audit_lipschitz,
            audit_curvature=factor * base.smooth.audit_curvature)
        cfg = SolverConfig(rho_hat=1e-6 * factor)
        y0 = default_start(prob, seed=0)
        cert, trace, ledger = solve(prob, cfg, y0)
        report = audit_run(prob, cfg, cert, trace, ledger, y0)
        failed = {c.name for c in report.failures()}
        lines = [c.line() for c in report.checks]
        if factor >= 1.0:
            assert cert.converged and not failed, (seed, lines)
        elif cert.converged:
            assert failed == {"certificate-membership"}, (seed, lines)


@pytest.mark.parametrize("weight", [0.0, 0.3])
def test_runs_keep_their_verdicts_under_a_coordinate_permutation(weight):
    # relabelling the coordinates (Q[P][:, P], c[P], box[P], y0[P]) poses
    # the same problem: the run must keep its stop, its audit verdict and
    # its iteration count
    rng = np.random.default_rng(0)
    for base in audit_corpus(10, 0):
        Q, c = base.smooth.Q, base.smooth.c
        lo, hi = base.regularizer.domain_box
        y0 = default_start(base, seed=0)
        outcomes = []
        for p in (np.arange(len(c)), rng.permutation(len(c))):
            prob = make_qp_problem(
                Q[p][:, p], c[p], lo[p], hi[p], l1_weight=weight,
                audit_lipschitz=base.smooth.audit_lipschitz,
                audit_curvature=base.smooth.audit_curvature)
            cfg = SolverConfig(rho_hat=1e-6)
            cert, trace, ledger = solve(prob, cfg, y0[p])
            report = audit_run(prob, cfg, cert, trace, ledger, y0[p])
            outcomes.append((cert.converged, report.passed, cert.iterations))
        assert outcomes[0][:2] == (True, True), outcomes
        assert outcomes[1] == outcomes[0]


def _converges_and_passes(prob, y0):
    cfg = SolverConfig(rho_hat=1e-6)
    cert, trace, ledger = solve(prob, cfg, y0)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    return (cert.converged and report.passed,
            [c.line() for c in report.checks])


@pytest.mark.parametrize("weight", [0.0, 0.3])
def test_runs_with_zero_width_coordinates_converge_and_pass(weight):
    # the first three coordinates pinned at the start, lo = hi: their
    # subdifferential is all of R, so they are stationary wherever f points
    for base in audit_corpus(10, 0):
        y0 = default_start(base, seed=0)
        lo, hi = (b.copy() for b in base.regularizer.domain_box)
        lo[:3] = hi[:3] = y0[:3]
        prob = make_qp_problem(base.smooth.Q, base.smooth.c, lo, hi,
                               l1_weight=weight,
                               audit_lipschitz=base.smooth.audit_lipschitz,
                               audit_curvature=base.smooth.audit_curvature)
        ok, lines = _converges_and_passes(prob, y0)
        assert ok, lines


@pytest.mark.parametrize("seed", range(10))
def test_runs_with_a_rank_deficient_q_converge_and_pass(seed):
    # a zero eigenvalue: f is convex but not strongly convex
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=0.0, eig_hi=10.0,
                                     seed=seed))
    ok, lines = _converges_and_passes(prob, default_start(prob, seed=0))
    assert ok, lines


@pytest.mark.parametrize("seed", range(10))
def test_convex_runs_in_the_unbounded_box_converge_and_pass(seed):
    # dom h = R^n: the box never binds, every start coordinate is 0, and
    # the drift constant C is infinite
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=1.0, eig_hi=10.0,
                                     box=(-np.inf, np.inf), seed=seed))
    y0 = default_start(prob, seed=0)
    assert not y0.any()
    ok, lines = _converges_and_passes(prob, y0)
    assert ok, lines


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
    assert trace.xi.any() and trace.tau.any()
    report = audit_run(bad, cfg, cert, trace, ledger, y0)
    failed = {c.name for c in report.failures()}
    # xi_bar = 0 on a convex instance, so any escalation breaks the cap
    assert "escalation-cap" in failed


def test_corrupt_oracle_preserves_values_and_metadata():
    prob = generate_qp(CONVEX)
    bad = corrupt_gradient_oracle(prob, factor=2.0)
    u = default_start(prob)
    assert bad.smooth.value(u) == prob.smooth.value(u)
    assert np.array_equal(bad.smooth.grad(u), 2.0 * prob.smooth.grad(u))
    assert bad.smooth.audit_lipschitz == prob.smooth.audit_lipschitz


def test_history_margin_reads_the_solvers_comparison():
    # n = 1, strongly concave: at k = 1 the solver compares xi lam_0 = 4
    # with L lam_1 + tau = (2 + 2^-51) + 2, which rounds to 4 (a tie, to
    # even), so the step passes.  Subtracting tau after xi lam - L lam
    # re-associates the sum and reads -4.4e-16 there, a false alarm
    prob = make_qp_problem([[-2.0]], [0.1], [-1.0], [1.0])
    cfg = SolverConfig(rho_hat=1e-6)
    y0 = default_start(prob, seed=1)
    cert, trace, ledger = solve(prob, cfg, y0)
    xi, L, tau, lam = trace.xi[0], trace.L[0], trace.tau[0], trace.stepsizes
    assert xi * lam[0] == L * lam[1] + tau
    assert xi * lam[0] - L * lam[1] - tau < 0.0
    checks = {c.name: c for c in audit_run(prob, cfg, cert, trace, ledger,
                                           y0).checks}
    assert checks["history-inequality"].passed, \
        checks["history-inequality"].line()
    assert all(c.passed for c in checks.values())


def _small_indefinite_qp(n, seed):
    """Q = V diag(U(-3, 3)) V' with V from the QR of a normal matrix,
    c = 0.3 N(0, 1), box [-1, 1]."""
    rng = np.random.default_rng(seed + 1000 * n)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = V @ np.diag(rng.uniform(-3.0, 3.0, n)) @ V.T
    c = 0.3 * rng.standard_normal(n)
    return make_qp_problem(0.5 * (Q + Q.T), c, -np.ones(n), np.ones(n))


def test_inner_repeat_budget_adds_shrinks_and_escalations(monkeypatch):
    # retries are at most shrinks plus escalations; a budget of K +
    # max(lam_term, xi_term) + 2 failed 9 of these 300 clean runs, e.g.
    # n = 2, seed 6: 31 prox calls in 26 iterations against 30.48
    cfg = SolverConfig(rho_hat=1e-8, max_outer_iterations=5000)
    failed = []
    for n in (2, 3):
        for seed in range(150):
            prob = _small_indefinite_qp(n, seed)
            y0 = default_start(prob, seed)
            cert, trace, ledger = solve(prob, cfg, y0)
            report = audit_run(prob, cfg, cert, trace, ledger, y0)
            failed += [(n, seed, c.line()) for c in report.failures()]
    assert failed == []
    # the gradient-fault runs still blow through the budget
    corrupt_audit_corpus(monkeypatch)
    _, lines = run_audit_suite(6, 0, max_iterations=500)
    assert sum("inner-repeat-budget: FAIL" in ln for ln in lines) == 6


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


def test_audit_suite_names_first_failure_under_fault_injection(
        monkeypatch):
    corrupt_audit_corpus(monkeypatch)
    passed, lines = run_audit_suite(2, 0, max_iterations=500, rho_hat=1e-7)
    assert not passed
    named = [ln for ln in lines if "FAILED first at:" in ln]
    assert len(named) == 2
    assert all("instance[" in ln for ln in named)


# sha256 over the joined report lines of a clean corpus suite and a
# gradient-fault suite.  Any change to a verdict or a detail string changes
# it.  The value-roundoff zero rule of the curvature gaps left these lines
# byte-identical.  The last re-pin reworded the certificate-membership
# detail of a pass, "prox fixed point at 1e-8" to "least-norm subgradient
# within rho_hat" (20 lines); every verdict and every "FAILED first at"
# line is unchanged.
AUDIT_REPORT_SHA256 = \
    "06a87340e039e6b9fcc643a691324ffe5d06fa2db876cd2626752f692927bf79"


def test_audit_reports_match_golden_hash(monkeypatch):
    _, clean = run_audit_suite(20, 0)
    corrupt_audit_corpus(monkeypatch)
    _, faulty = run_audit_suite(6, 0, max_iterations=500)
    text = "\n".join(clean + faulty)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_REPORT_SHA256


# sha256 over the audit_run report lines of runs whose best-point segments
# the lower-curvature replay groups in different ways: the wide-box convex
# run (1219 segments in 1276 iterations; early ones are short enough to
# share a block of the replay, late ones fill a block alone), the four
# n=200 indefinite runs of tests/test_golden.py and one box-plus-l1 run.
# Each has a best point that is a rejected trial point.  The last re-pin
# made the same rewording as AUDIT_REPORT_SHA256's (6 lines).
AUDIT_REPLAY_SHA256 = \
    "a61d24f4b5d2e3cf8e8dc5150f9ec52e90964288f8ef00243fe8fb96163b1b90"


def _replay_golden_runs():
    wide = generate_qp(QuadraticSpec(n=20, eig_lo=0.001, eig_hi=100.0,
                                     box=(-1000.0, 1000.0), seed=0))
    lo, hi = wide.regularizer.domain_box
    yield (wide, SolverConfig(rho_hat=1e-2, max_outer_iterations=2000),
           lo + np.random.default_rng(0).random(20) * (hi - lo))
    for seed in range(4):
        prob = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                         seed=seed))
        yield prob, SolverConfig(rho_hat=1e-6), default_start(prob)
    base = generate_qp(QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0, seed=3))
    lo, hi = base.regularizer.domain_box
    prob = make_qp_problem(base.smooth.Q, base.smooth.c, lo, hi,
                           l1_weight=0.3,
                           audit_lipschitz=base.smooth.audit_lipschitz,
                           audit_curvature=base.smooth.audit_curvature)
    yield (prob, SolverConfig(rho_hat=1e-7, max_outer_iterations=5000),
           lo + np.random.default_rng(3).random(20) * (hi - lo))


def test_audit_replay_reports_match_golden_hash():
    h = hashlib.sha256()
    for prob, cfg, y0 in _replay_golden_runs():
        cert, trace, ledger = solve(prob, cfg, y0)
        report = audit_run(prob, cfg, cert, trace, ledger, y0)
        assert report.passed, "\n".join(c.line() for c in report.failures())
        h.update("\n".join(c.line() for c in report.checks).encode()
                 + b"\n\n")
    assert h.hexdigest() == AUDIT_REPLAY_SHA256


def test_wide_box_convex_run_keeps_its_convex_invariants():
    # box +-1000: the terms of f(u) are ~1e7 and cancel, so without the
    # zero rule a gap numerator of -8e-10 came out positive, L turned
    # positive at k=1162 and xi escalated to 1
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=0.001, eig_hi=100.0,
                                     box=(-1000.0, 1000.0), seed=0))
    lo, hi = prob.regularizer.domain_box
    y0 = lo + np.random.default_rng(0).random(20) * (hi - lo)
    cfg = SolverConfig(rho_hat=1e-2, max_outer_iterations=2000)
    cert, trace, ledger = solve(prob, cfg, y0)
    assert not (trace.xi.any() or trace.tau.any() or trace.L.any())
    checks = {c.name: c for c in audit_run(prob, cfg, cert, trace, ledger,
                                           y0).checks}
    for name in ("escalation-cap", "momentum-offset-identity",
                 "lower-curvature-replay", "lower-curvature-cap"):
        assert checks[name].passed, checks[name].line()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 20),
       eig_lo=st.one_of(st.just(0.0),
                        st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e)),
       half_width=st.floats(0.0, 4.0).map(lambda e: 10.0 ** e),
       seed=st.integers(0, 2 ** 16))
def test_convex_runs_keep_xi_tau_and_L_zero_on_wide_boxes(n, eig_lo,
                                                          half_width, seed):
    # convex f, boxes up to +-1e4: the terms of f(u) grow like the box
    # squared and their roundoff must not pass for concavity.  Without the
    # zero rule about one draw in eight escalated here
    prob = generate_qp(QuadraticSpec(n=n, eig_lo=eig_lo, eig_hi=100.0,
                                     box=(-half_width, half_width),
                                     seed=seed))
    lo, hi = prob.regularizer.domain_box
    y0 = lo + np.random.default_rng(seed).random(n) * (hi - lo)
    cfg = SolverConfig(rho_hat=1e-5 * half_width, max_outer_iterations=2000)
    cert, trace, ledger = solve(prob, cfg, y0)
    assert not (trace.xi.any() or trace.tau.any() or trace.L.any())
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, "\n".join(c.line() for c in report.failures())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 20), m_exp=st.floats(-3.0, 0.0),
       centre_exp=st.floats(2.0, 4.0), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2 ** 16))
def test_zero_rule_leaves_real_concavity_visible(n, m_exp, centre_exp, sign,
                                                 seed):
    # every eigenvalue lies in [-m, -m/2], so every gap quotient is at
    # least m/2 in exact arithmetic.  The box (centre +-1, centre up to
    # 1e4) makes |u| far larger than the steps, so s(u) is 1e4 to 1e8 times
    # a gap numerator: a zero band wide enough to hide concavity (a
    # multiple of 1e12 in place of 64) keeps L at 0 on every draw.  The
    # smallest L/m measured over 300 such draws was 0.5001
    m = 10.0 ** m_exp
    centre = sign * 10.0 ** centre_exp
    prob = generate_qp(QuadraticSpec(n=n, eig_lo=-m, eig_hi=-0.5 * m,
                                     box=(centre - 1.0, centre + 1.0),
                                     seed=seed))
    lo, hi = prob.regularizer.domain_box
    y0 = lo + np.random.default_rng(seed).random(n) * (hi - lo)
    _, trace, _ = solve(prob, SolverConfig(rho_hat=1e-9,
                                           max_outer_iterations=200), y0)
    assert trace.L.max() >= 0.45 * m


def _unchanged(trace, j):
    """Whether ymin at 0-based index j is the point of the one before."""
    return trace.ymin_rows[j] == trace.ymin_rows[j - 1]


@pytest.fixture
def gap_scans(monkeypatch):
    """(count, u) of every ledger gap scan made while the test runs; each
    point of a block scan (a b x 1 x n u) counts as one scan of that point
    against records 1..count."""
    calls = []
    scan = HistoryLedger.linearization_gaps

    def counted(self, count, u, f_u, s_u):
        points = u[:, 0] if np.ndim(u) == 3 else [u]
        calls.extend((count, np.array(p)) for p in points)
        return scan(self, count, u, f_u, s_u)

    monkeypatch.setattr(HistoryLedger, "linearization_gaps", counted)
    return calls


def _records_scanned_for(gap_scans, point):
    """(first, last) 1-based records of each gap scan of this one point."""
    return [(1, count) for count, u in gap_scans
            if u.shape == point.shape and np.array_equal(u, point)]


def _segment_windows(trace, n):
    """The (first, last) records each best-point segment's point is scanned
    against, segment by segment.  Consecutive segments share a block while
    b of them, the last ending at iteration e, hold b e n elements at most
    _ROW_BLOCK (a block takes at least one); every point of a block is
    scanned against records 1..e."""
    rows = trace.ymin_rows.tolist()
    ends = [k for k in range(1, len(rows)) if rows[k] != rows[k - 1]]
    windows, block = [], []
    for e in ends + [len(rows)]:
        if block and (len(block) + 1) * e * n > _kernels._ROW_BLOCK:
            windows += [(1, block[-1])] * len(block)
            block = []
        block.append(e)
    return windows + [(1, block[-1])] * len(block)


def _concave_point(prob, ledger):
    """Half-way from the first record (the box midpoint) to the box face
    along the most negative curvature direction: its gap quotient against
    that record is the smallest eigenvalue in magnitude."""
    v = np.linalg.eigh(prob.smooth.Q)[1][:, 0]
    return ledger.record_arrays(1)[0][0] + 0.5 * v / np.max(np.abs(v))


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
    # the gap quotient of this point against the first record is
    # |eig_lo| = 1, above every L the run recorded
    lo, hi = prob.regularizer.domain_box
    tampered = _concave_point(prob, ledger)
    assert np.all((lo <= tampered) & (tampered <= hi))
    assert max(trace.L) < 0.9
    # the best point of iterations j .. j + 2 (0-based j - 1 .. j + 1)
    held = trace.point(trace.ymin_rows[j]).copy()

    # the segment of 0-based iteration j, counted from 0
    seg = sum(not _unchanged(trace, i) for i in range(1, j + 1))

    gap_scans.clear()
    audit_run(prob, cfg, cert, trace, ledger, y0)
    assert _records_scanned_for(gap_scans, tampered) == []
    windows = _segment_windows(trace, prob.dimension)
    # one scan per segment, in order, each over its block's window
    assert [(1, count) for count, u in gap_scans
            if u.ndim == 1] == windows
    (first, last), = _records_scanned_for(gap_scans, held)
    assert (first, last) == windows[seg] and last >= j + 2
    gap_scans.clear()
    trace.side_rows.append(tampered)
    trace.ymin_rows[j] = ~(len(trace.side_rows) - 1)
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    # iteration j + 1 is a segment of its own, which scans the tampered
    # point against records 1..j+1 or, when its block holds later
    # segments, up to the end of the block's last one; the point it
    # replaced is scanned afresh from record 1 after it, through at least
    # record j + 2, instead of carrying its earlier maxima
    windows = _segment_windows(trace, prob.dimension)
    assert _records_scanned_for(gap_scans, tampered) == [windows[seg + 1]]
    assert _records_scanned_for(gap_scans, held) == [windows[seg],
                                                     windows[seg + 2]]
    assert windows[seg][1] >= j and windows[seg + 1][1] >= j + 1
    assert windows[seg + 2][1] >= j + 2
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
    # a paired scan each of the previous iterates (the replay) and of the
    # iterates (the U envelope), one scan per best point
    assert len(gap_scans) <= 2 + (1 + changes)
    scanned = sum(count for count, _ in gap_scans)
    assert scanned <= 3 * K + K * changes
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
    X, F, G, _ = ledger.record_arrays(len(trace))
    # U_k is minus the quotient of y_k against record k
    f_y = np.array([prob.smooth.value(y) for y in trace.Y[1:]])
    q, env = _quotients_and_envelopes(trace.Y[1:], f_y, X, F, G)
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


def _envelope_term_runs():
    """Six corpus runs, two n = 200 runs, a long n = 20 run (K = 5225) and
    the dense n = 1000 run (K = 1681); the last four form their
    differences a block of records at a time."""
    rng = np.random.default_rng(0 ^ 0x5eed)
    for prob in audit_corpus(6, 0):
        lo, hi = prob.regularizer.domain_box
        yield (prob, SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000),
               lo + rng.random(prob.dimension) * (hi - lo))
    for seed in range(2):
        prob = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                         seed=seed))
        yield prob, SolverConfig(rho_hat=1e-6), default_start(prob)
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=0.01, eig_hi=100.0,
                                     box=(-300.0, 300.0), seed=2))
    yield (prob, SolverConfig(rho_hat=1e-6, max_outer_iterations=20_000),
           default_start(prob))
    prob = generate_qp(QuadraticSpec(n=1000, eig_lo=0.01, eig_hi=100.0,
                                     seed=0))
    yield (prob, SolverConfig(rho_hat=1e-6, max_outer_iterations=10_000),
           default_start(prob))


def test_upper_curvature_envelope_terms_equal_a_direct_difference_form():
    # the U envelope reads ||d||^2 and g.d, d = y_k - x_tilde_k, from the
    # ledger's gap scan; they equal the terms of one K x n difference array
    # bit for bit, blocked or not
    blocked = 0
    for prob, cfg, y0 in _envelope_term_runs():
        _, trace, ledger = solve(prob, cfg, y0)
        K = len(trace)
        X, _, G, _ = ledger.record_arrays(K)
        Y = trace.Y[1:]
        f_y = prob.smooth.value(Y)
        _, den, gd = ledger.linearization_gaps(
            K, Y, f_y, prob.smooth.value_scale(Y, f_y))
        D = Y - X
        assert den.tobytes() == _kernels.c_einsum("ij,ij->i", D, D).tobytes()
        assert gd.tobytes() == _kernels.c_einsum("ij,ij->i", G, D).tobytes()
        blocked += K * prob.dimension > _kernels._SCAN_BLOCK
    assert blocked == 4


def _replay_details(prob, trace, ledger):
    """The lower-curvature-replay and -cap details of a direct scan at every
    iteration k: the best point against records 1..k, then y_{k-1} against
    record k, in the order the audit scores them.  The cap excesses use the
    quotient arithmetic above; the L recursion uses the ledger's quotients,
    which the solver's L matches bit for bit."""
    K = len(trace)
    X, F, G, _ = ledger.record_arrays(K)
    m = prob.smooth.audit_curvature
    best, where, mismatch, L_prev = -np.inf, None, None, 0.0
    for k in range(1, K + 1):
        ymin = trace.point(trace.ymin_rows[k - 1])
        rows = []
        for u, lo in ((ymin, 0), (trace.Y[k - 1], k - 1)):
            f_u = prob.smooth.value(u)
            q, env = _quotients_and_envelopes(u, f_u, X[lo:k], F[lo:k],
                                              G[lo:k])
            excess = np.where(q != 0.0, q - env - m * (1.0 + 1e-9), -np.inf)
            # a NaN quotient has no excess; the largest finite one wins
            excess = np.where(np.isnan(excess), -np.inf, excess)
            i = int(np.argmax(excess))
            if excess[i] > best:
                best, where = float(excess[i]), (k, lo + i + 1)
            rows.append(ledger.linearization_gaps(
                k, u, f_u, prob.smooth.value_scale(u, f_u))[0][lo:])
        L_prev = max(float(rows[1][0]), float(np.max(rows[0])), L_prev, 0.0)
        if mismatch is None and L_prev != trace.L[k - 1]:
            mismatch = k
    replay = ("recorded L matches a full recomputation bit for bit"
              if mismatch is None else f"first mismatch at k={mismatch}")
    if best <= 1e-12:
        kL = int(np.argmax(trace.L)) + 1
        cap = f"max L = {trace.L[kL - 1]:.6g} at k={kL} vs m = {m:g}"
    else:
        cap = (f"gap quotient exceeds m by {best:.3e} at k={where[0]}, "
               f"i={where[1]}")
    return replay, cap


def _tamper(how, prob, trace, ledger):
    K = len(trace)
    _, F, G, _ = ledger.record_arrays(K)
    # records 2 and 6 hold the largest excess of the seed 1 and 9 runs
    if how == "nan-F":
        F[1] = np.nan
    elif how == "nan-G":
        G[5, 3] = np.nan
    elif how == "side-row":
        # a rejected trial point as the best point inside a segment
        j = next(j for j in range(K // 2, K) if _unchanged(trace, j))
        trace.side_rows.append(_concave_point(prob, ledger))
        trace.ymin_rows[j] = ~(len(trace.side_rows) - 1)


# indefinite corpus instances (audit_corpus(2, s)[1] has seed s + 1): the
# largest excess is a best-point pair (k=9, i=2) at seed 1 and a
# previous-iterate pair (k=6, i=6) at seed 9
@pytest.mark.parametrize("seed, tamper", [
    pytest.param(s, how, id=f"{s}-{how}" if how else str(s))
    for how in (None, "nan-F", "nan-G", "side-row") for s in (1, 9)])
def test_lower_curvature_cap_reports_the_largest_excess_of_a_direct_scan(
        seed, tamper):
    prob, cfg, cert, trace, ledger, y0 = _audited_run(
        QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0, seed=seed))
    prob.smooth.audit_curvature = 0.0
    _tamper(tamper, prob, trace, ledger)
    replay, cap = _replay_details(prob, trace, ledger)

    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    checks = {c.name: c for c in report.checks}
    assert checks["lower-curvature-replay"].detail == replay
    assert checks["lower-curvature-cap"].detail == cap
    assert (tamper is None) == checks["lower-curvature-replay"].passed
    # m = 0 on an indefinite instance: a NaN record hides no excess
    assert not checks["lower-curvature-cap"].passed
