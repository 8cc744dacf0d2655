"""Invariant auditing of finished runs, and fault injection against it."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista import _kernels
from varfista.audit import (AuditReport, CheckResult, audit_corpus, audit_run,
                            corrupt_gradient_oracle, run_audit_suite)
from varfista.gallery import (QuadraticSpec, default_start, generate_qp,
                              make_qp_problem)
from varfista.solver import (DENOM_EPSILON, HistoryLedger, IterationTrace,
                             SolverConfig, solve)


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


# sha256 over the joined report lines of a clean corpus suite and a
# gradient-fault suite.  Any change to a verdict or a detail string changes
# it.  The value-roundoff zero rule of the curvature gaps left these lines
# byte-identical.  The last re-pin removed only the 26 anchor-in-region
# lines, a check that could not fail; every other line is unchanged.
AUDIT_REPORT_SHA256 = \
    "6404f10539ae06c008eaa4ac69fcb715b60960249d60bdb9ff6996ae7e480331"


def test_audit_reports_match_golden_hash():
    _, clean = run_audit_suite(20, 0)
    _, faulty = run_audit_suite(
        max_iterations=500,
        problems=[corrupt_gradient_oracle(p) for p in audit_corpus(6, 0)])
    text = "\n".join(clean + faulty)
    assert hashlib.sha256(text.encode()).hexdigest() == AUDIT_REPORT_SHA256


# sha256 over the audit_run report lines of runs whose best-point segments
# the lower-curvature replay groups in different ways: the wide-box convex
# run (1219 segments in 1276 iterations; early ones are short enough to
# share a block of the replay, late ones fill a block alone), the four
# n=200 indefinite runs of tests/test_golden.py and one L1-plus-box run.
# Each has a best point that is a rejected trial point.
AUDIT_REPLAY_SHA256 = \
    "bb22cd5bd51875976039332909fa2a4b9e8b9439e7c98304296dc5b3799c8bfe"


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
        h.update("\n".join(report.lines()).encode() + b"\n\n")
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
    checks = {c.name: c for c in audit_run(prob, cfg, cert, trace, ledger,
                                           y0).checks}
    for name in ("convex-stays-zero", "escalation-cap",
                 "lower-curvature-cap"):
        assert checks[name].passed, checks[name].line()
    assert not np.any(trace.L)


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
    """(count, start, u) of every ledger gap scan made while the test runs;
    each point of a block scan (a b x 1 x n u) counts as one scan of that
    point against records start+1..count."""
    calls = []
    scan = HistoryLedger.linearization_gaps

    def counted(self, count, u, f_u, s_u, start=0):
        points = u[:, 0] if np.ndim(u) == 3 else [u]
        calls.extend((count, start, np.array(p)) for p in points)
        return scan(self, count, u, f_u, s_u, start=start)

    monkeypatch.setattr(HistoryLedger, "linearization_gaps", counted)
    return calls


def _records_scanned_for(gap_scans, point):
    """(first, last) 1-based records of each gap scan of this one point."""
    return [(start + 1, count) for count, start, u in gap_scans
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
    assert [(start + 1, count) for count, start, u in gap_scans
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
    # one paired scan of the previous iterates, one scan per best point
    assert len(gap_scans) <= 1 + (1 + changes)
    scanned = sum(count - start for count, start, _ in gap_scans)
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
                k, u, f_u, prob.smooth.value_scale(u, f_u), start=lo)[0])
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
