"""Analytic run constants, anchor and drift rechecks."""

import math

import numpy as np
import pytest

from varfista import _kernels
from varfista.diagnostics import (DriftReport, TheoreticalBounds,
                                  check_xk_drift, check_xk_optimality)
from varfista.audit import audit_corpus
from varfista.gallery import QuadraticSpec, default_start, generate_qp
from varfista.problems import CompositeProblem, SmoothOracle
from varfista.prox import BoxIndicator
from varfista.solver import SolverConfig, replay_anchors, solve


def _run(prob, iters=40, rho=1e-30, lambda0=1.0):
    cfg = SolverConfig(lambda0=lambda0, rho_hat=rho,
                       max_outer_iterations=iters)
    return cfg, solve(prob, cfg, default_start(prob))


def _record(trace, ledger, i):
    """(x_tilde, y_k, lam_k, tau_k) of the iteration k = i + 1."""
    return (ledger.record_arrays(i + 1)[0][i], trace.Y[i + 1], trace.lam[i],
            trace.tau[i])


# ---------------------------------------------------------------------------
# the prox step
# ---------------------------------------------------------------------------

def test_candidate_minimizes_surrogate_plus_prox_term():
    # y_k is the prox point, so it minimizes the surrogate
    # f(x_tilde) + <grad f(x_tilde), d> + h(u) + (tau / (2 lam)) ||d||^2
    # plus ||d||^2 / (2 lam), d = u - x_tilde, over dom h
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=25)
    X, F, G, _ = ledger.record_arrays(len(trace))
    rng = np.random.default_rng(1)
    lo, hi = prob.regularizer.domain_box
    for i in range(0, len(trace), 5):
        lam, tau = trace.lam[i], trace.tau[i]

        def obj(u):
            d = u - X[i]
            lin = F[i] + float(G[i] @ d)
            quad = (tau / (2.0 * lam)) * float(d @ d)
            return (lin + prob.regularizer.value(u) + quad
                    + float(d @ d) / (2.0 * lam))

        best = obj(trace.Y[i + 1])
        for _ in range(50):
            u = lo + rng.random(2) * (hi - lo)
            assert best <= obj(u) + 1e-9


# ---------------------------------------------------------------------------
# analytic constants
# ---------------------------------------------------------------------------

def test_bounds_from_analytic_metadata():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0))
    cfg = SolverConfig(lambda0=1.0, theta=2.0, gamma=0.99)
    b = TheoreticalBounds.from_problem(prob, cfg)
    assert b.M_bar == 10.0 and b.m_under == 1.0
    assert b.lambda_floor == pytest.approx(0.99 / 20.0)
    assert b.xi_bar == 4.0  # max(4 * 1, 1)
    # C = 2 (2 + xi_bar lambda0) ||hi - lo||, the box [-1, 1]^4
    assert b.C == pytest.approx(2.0 * (2.0 + 4.0 * 1.0) * 2.0 * np.sqrt(4))


def test_bounds_convex_case_zeroes_escalation():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=10.0))
    b = TheoreticalBounds.from_problem(prob, SolverConfig())
    assert b.m_under == 0.0 and b.xi_bar == 0.0
    assert b.C == pytest.approx(4.0 * 2.0 * np.sqrt(4))


def test_bounds_small_lambda0_keeps_floor_at_lambda0():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=10.0))
    cfg = SolverConfig(lambda0=1e-3)
    b = TheoreticalBounds.from_problem(prob, cfg)
    assert b.lambda_floor == 1e-3


def test_bounds_require_metadata_or_estimation():
    # without both audit constants, from_problem gives no bounds (None)
    box = BoxIndicator.uniform(1, -1.0, 1.0)
    for M, m in ((None, None), (2.0, None), (None, 0.0)):
        f = SmoothOracle(lambda u: float(u[0] ** 2),
                         lambda u: np.array([2.0 * u[0]]), M, m)
        prob = CompositeProblem(f, box)
        assert TheoreticalBounds.from_problem(prob, SolverConfig()) is None


# ---------------------------------------------------------------------------
# anchor optimality
# ---------------------------------------------------------------------------

def test_anchor_formula_matches_subproblem_argmin_unconstrained():
    # the committed anchor must be the argmin -b/kappa over R^n of the
    # rebuilt subproblem, up to roundoff; the two routes share no arithmetic
    from varfista.diagnostics import _anchor_quadratic
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=40)
    a, xs = replay_anchors(trace)
    x_prev = default_start(prob)
    for i in range(len(trace)):
        kappa, b, _ = _anchor_quadratic(*_record(trace, ledger, i), x_prev,
                                        a[i])
        closed = -b / kappa
        assert np.linalg.norm(closed - xs[i]) <= 1e-9 * (
            1.0 + np.linalg.norm(xs[i]))
        x_prev = xs[i]


def test_anchor_check_accepts_solver_runs():
    for spec in (QuadraticSpec(n=1, eig_lo=2.0, eig_hi=2.0, seed=3),
                 QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6)):
        # a long run: x_k's rounding grows with a_k |y_k| / lam, not |b|
        prob = generate_qp(spec)
        _, (cert, trace, ledger) = _run(prob, iters=300)
        a, xs = replay_anchors(trace)
        x_prev = default_start(prob)
        for i in range(len(trace)):
            ok = check_xk_optimality(*_record(trace, ledger, i), xs[i],
                                     x_prev, a[i])
            assert ok is True, f"iteration {i + 1}"
            x_prev = xs[i]


def test_anchor_check_flags_wrong_point():
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=10)
    a, xs = replay_anchors(trace)
    i = len(trace) - 1
    record = _record(trace, ledger, i)
    x_prev = xs[i - 1]
    wrong = xs[i] + 0.05
    assert check_xk_optimality(*record, wrong, x_prev, a[i]) is False
    # one part in a billion is far above the roundoff the check allows
    assert check_xk_optimality(*record, xs[i] * (1.0 + 1e-9), x_prev,
                               a[i]) is False


def test_anchor_check_projected_gradient_fallback():
    # dimension 3, where the anchor check once iterated: the same gradient
    # test as n = 1 and 2 accepts each x_k and flags a moved one
    prob = generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=5.0, seed=1))
    _, (cert, trace, ledger) = _run(prob, iters=300)
    a, xs = replay_anchors(trace)
    x_prev = default_start(prob)
    for i in range(len(trace)):
        ok = check_xk_optimality(*_record(trace, ledger, i), xs[i], x_prev,
                                 a[i])
        assert ok is True, f"iteration {i + 1}"
        x_prev = xs[i]
    i = len(trace) - 1
    assert check_xk_optimality(*_record(trace, ledger, i), xs[i] + 0.05,
                               xs[i - 1], a[i]) is False


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_report_hand_case():
    bounds = TheoreticalBounds(M_bar=1.0, m_under=0.0, lambda_floor=0.1,
                               xi_bar=0.0, C=4.0)
    x0 = np.zeros(1)
    rep = check_xk_drift([np.array([2.0]), np.array([7.0])], x0, bounds)
    assert rep.passed  # 2 <= 4*1 and 7 <= 4*2
    assert rep.worst_k == 2
    assert rep.worst_ratio == pytest.approx(7.0 / 8.0)

    bad = check_xk_drift([np.array([5.0])], x0, bounds)
    assert not bad.passed and bad.worst_k == 1 and bad.worst_ratio > 1.0


def test_drift_with_zero_C_allows_only_zero_drift():
    # a one-point domain gives C = 0: staying put passes, moving fails
    bounds = TheoreticalBounds(M_bar=1.0, m_under=0.0, lambda_floor=0.1,
                               xi_bar=0.0, C=0.0)
    x0 = np.array([0.5, 0.5])
    ok = check_xk_drift([x0.copy(), x0.copy()], x0, bounds)
    assert ok.passed and ok.worst_ratio == 0.0
    bad = check_xk_drift([x0.copy(), x0 + 1e-12], x0, bounds)
    assert not bad.passed and bad.worst_ratio == math.inf
    assert bad.worst_k == 2


def test_drift_holds_on_solver_run():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=5))
    cfg, (cert, trace, ledger) = _run(prob, iters=60)
    bounds = TheoreticalBounds.from_problem(prob, cfg)
    rep = check_xk_drift(replay_anchors(trace)[1], default_start(prob),
                         bounds)
    assert rep.passed
    assert isinstance(rep, DriftReport)


def _golden_corpus_starts():
    """The clean audit corpus with the starts ``run_audit_suite`` draws."""
    rng = np.random.default_rng(0 ^ 0x5eed)
    for prob in audit_corpus(20, 0):
        lo, hi = prob.regularizer.domain_box
        yield prob, lo + rng.random(prob.dimension) * (hi - lo)


def test_blocked_drift_norms_equal_linalg_norm_bit_for_bit():
    # the corpus runs fit one block of rows; 40 anchors at n = 1000 take five
    big = generate_qp(QuadraticSpec(n=1000, eig_lo=-1.0, eig_hi=100.0,
                                    seed=0))
    runs = [(prob, y0, 10_000) for prob, y0 in _golden_corpus_starts()]
    runs.append((big, default_start(big), 40))
    for prob, y0, iters in runs:
        cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=iters)
        _, trace, _ = solve(prob, cfg, y0)
        X = replay_anchors(trace)[1]
        norms = np.array([np.linalg.norm(x - y0) for x in X])
        assert np.array_equal(_kernels.row_norms(X - y0).view(np.int64),
                              norms.view(np.int64))
        bounds = TheoreticalBounds.from_problem(prob, cfg)
        ratios = norms / (bounds.C * np.arange(1, len(X) + 1))
        k = int(np.argmax(ratios)) + 1
        rep = check_xk_drift(X, y0, bounds)
        assert (rep.worst_ratio, rep.worst_k) == (float(ratios[k - 1]), k)
