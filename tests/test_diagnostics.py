"""Model functions, analytic run constants, anchor and drift rechecks."""

import math

import numpy as np
import pytest

from varfista import _kernels
from varfista.diagnostics import (DriftReport, ModelFunction,
                                  TheoreticalBounds, check_xk_drift,
                                  check_xk_optimality)
from varfista.audit import audit_corpus, audit_run
from varfista.gallery import (QuadraticSpec, default_start, generate_qp,
                              make_qp_problem)
from varfista.problems import CompositeProblem, SmoothOracle
from varfista.prox import BoxIndicator, Projector
from varfista.solver import SolverConfig, replay_anchors, solve


def _run(prob, iters=40, rho=1e-30, lambda0=1.0):
    cfg = SolverConfig(lambda0=lambda0, rho_hat=rho,
                       max_outer_iterations=iters)
    return cfg, solve(prob, cfg, default_start(prob))


def _model_at(trace, ledger, prob, i):
    X, F, G, _ = ledger.record_arrays(i + 1)
    return ModelFunction(x_tilde=X[i], f_at=float(F[i]), grad_at=G[i],
                         y_k=trace.Y[i + 1], lam_k=trace.lam[i],
                         tau_k=trace.tau[i], regularizer=prob.regularizer)


# ---------------------------------------------------------------------------
# model functions
# ---------------------------------------------------------------------------

def test_minorant_supports_surrogate():
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=25)
    rng = np.random.default_rng(0)
    lo, hi = prob.regularizer.domain_box
    for i in range(len(trace)):
        model = _model_at(trace, ledger, prob, i)
        # tangency at y_k is exact by construction
        y = trace.Y[i + 1]
        assert model.minorant(y) == model.surrogate(y)
        for _ in range(20):
            u = lo + rng.random(2) * (hi - lo)
            s = model.surrogate(u)
            m = model.minorant(u)
            assert m <= s + 1e-9 * max(1.0, abs(s))


def test_candidate_minimizes_surrogate_plus_prox_term():
    # y_k is the prox point, so it minimizes
    # surrogate(u) + ||u - x_tilde||^2 / (2 lam) over dom h
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=25)
    rng = np.random.default_rng(1)
    lo, hi = prob.regularizer.domain_box
    for i in range(0, len(trace), 5):
        model = _model_at(trace, ledger, prob, i)
        xt = model.x_tilde
        lam = model.lam_k

        def obj(u):
            d = u - xt
            return model.surrogate(u) + float(d @ d) / (2.0 * lam)

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
    assert b.D_h == pytest.approx(2.0 * np.sqrt(4))
    assert b.C == pytest.approx(2.0 * (2.0 + 4.0 * 1.0) * b.D_h)


def test_bounds_convex_case_zeroes_escalation():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=10.0))
    b = TheoreticalBounds.from_problem(prob, SolverConfig())
    assert b.m_under == 0.0 and b.xi_bar == 0.0
    assert b.C == pytest.approx(4.0 * b.D_h)


def test_bounds_small_lambda0_keeps_floor_at_lambda0():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=10.0))
    cfg = SolverConfig(lambda0=1e-3)
    b = TheoreticalBounds.from_problem(prob, cfg)
    assert b.lambda_floor == 1e-3


def test_bounds_require_metadata_or_estimation():
    f = SmoothOracle(lambda u: float(u[0] ** 2),
                     lambda u: np.array([2.0 * u[0]]))
    prob = CompositeProblem(f, BoxIndicator.uniform(1, -1.0, 1.0),
                            Projector(), 1)
    with pytest.raises(ValueError):
        TheoreticalBounds.from_problem(prob, SolverConfig())


# ---------------------------------------------------------------------------
# anchor optimality
# ---------------------------------------------------------------------------

def test_anchor_formula_matches_subproblem_argmin_unconstrained():
    # with identity Omega the committed anchor must be the unconstrained
    # argmin -b/kappa of the rebuilt subproblem, up to roundoff; the two
    # routes share no arithmetic
    from varfista.diagnostics import _anchor_quadratic
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=40)
    a, xs = replay_anchors(prob, trace)
    x_prev = default_start(prob)
    for i in range(len(trace)):
        model = _model_at(trace, ledger, prob, i)
        kappa, b = _anchor_quadratic(model, x_prev, a[i])
        closed = -b / kappa
        assert np.linalg.norm(closed - xs[i]) <= 1e-9 * (
            1.0 + np.linalg.norm(xs[i]))
        x_prev = xs[i]


def test_anchor_check_accepts_solver_runs():
    for spec in (QuadraticSpec(n=1, eig_lo=2.0, eig_hi=2.0, seed=3),
                 QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6)):
        prob = generate_qp(spec)
        _, (cert, trace, ledger) = _run(prob, iters=30)
        a, xs = replay_anchors(prob, trace)
        x_prev = default_start(prob)
        for i in range(len(trace)):
            model = _model_at(trace, ledger, prob, i)
            ok = check_xk_optimality(prob, model, xs[i], x_prev, a[i])
            assert ok is True, f"iteration {i + 1}"
            x_prev = xs[i]


def test_anchor_check_flags_wrong_point():
    prob = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6))
    _, (cert, trace, ledger) = _run(prob, iters=10)
    a, xs = replay_anchors(prob, trace)
    i = len(trace) - 1
    model = _model_at(trace, ledger, prob, i)
    x_prev = xs[i - 1]
    wrong = xs[i] + 0.05
    assert check_xk_optimality(prob, model, wrong, x_prev, a[i]) is False


def test_anchor_check_projected_gradient_fallback():
    # dimension 3 forces the iterative route
    prob = generate_qp(QuadraticSpec(n=3, eig_lo=1.0, eig_hi=5.0, seed=1))
    _, (cert, trace, ledger) = _run(prob, iters=15)
    a, xs = replay_anchors(prob, trace)
    x_prev = default_start(prob)
    for i in range(len(trace)):
        model = _model_at(trace, ledger, prob, i)
        ok = check_xk_optimality(prob, model, xs[i], x_prev, a[i])
        assert ok is True
        x_prev = xs[i]


@pytest.mark.parametrize("seed", range(4))
def test_anchor_check_accepts_runs_whose_box_region_binds(seed):
    # Omega = [-1.2, 1.2]^2 around dom h = [-1, 1]^2: the anchor update
    # projects onto a face of Omega in the first iterations, so compute_x's
    # projection, check_xk_optimality's clamped search window and the
    # audit's anchor-drift check all run on a region that binds
    base = generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0,
                                     c_scale=3.0, seed=seed))
    prob = CompositeProblem(base.smooth, base.regularizer,
                            Projector(np.full(2, -1.2), np.full(2, 1.2)),
                            2)
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    y0 = default_start(prob)
    cert, trace, ledger = solve(prob, cfg, y0)
    assert cert.converged
    a, xs = replay_anchors(prob, trace)
    on_face = [i for i, x in enumerate(xs) if np.any(np.abs(x) == 1.2)]
    assert 1 <= len(on_face) <= 4
    x_prev = y0
    for i in range(len(trace)):
        model = _model_at(trace, ledger, prob, i)
        ok = check_xk_optimality(prob, model, xs[i], x_prev, a[i])
        assert ok is True, f"iteration {i + 1}"
        x_prev = xs[i]
    i = on_face[0]
    inward = xs[i] - 0.05 * np.sign(xs[i])
    assert check_xk_optimality(prob, _model_at(trace, ledger, prob, i),
                               inward, xs[i - 1] if i else y0,
                               a[i]) is False
    report = audit_run(prob, cfg, cert, trace, ledger, y0)
    assert report.passed, report.lines()
    assert any(line.startswith("anchor-drift: PASS")
               for line in report.lines())


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_report_hand_case():
    bounds = TheoreticalBounds(M_bar=1.0, m_under=0.0, lambda_floor=0.1,
                               xi_bar=0.0, D_h=1.0, C=4.0)
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
                               xi_bar=0.0, D_h=0.0, C=0.0)
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
    rep = check_xk_drift(replay_anchors(prob, trace)[1], default_start(prob),
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
        X = replay_anchors(prob, trace)[1]
        norms = np.array([np.linalg.norm(x - y0) for x in X])
        assert np.array_equal(_kernels.row_norms(X - y0).view(np.int64),
                              norms.view(np.int64))
        bounds = TheoreticalBounds.from_problem(prob, cfg)
        ratios = norms / (bounds.C * np.arange(1, len(X) + 1))
        k = int(np.argmax(ratios)) + 1
        rep = check_xk_drift(X, y0, bounds)
        assert (rep.worst_ratio, rep.worst_k) == (float(ratios[k - 1]), k)
