"""Step operations, committed-history ledger, and the solve driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varfista.solver as solver_mod
from varfista.audit import audit_corpus
from varfista.gallery import generate_qp, QuadraticSpec, default_start
from varfista.problems import CompositeProblem, SmoothOracle, phi
from varfista.prox import BoxIndicator, ZeroRegularizer, identity_projector
from varfista.solver import (TRACE_HEADER, HistoryLedger, IterationTrace,
                             SolverConfig, compute_candidate, compute_L,
                             compute_U, compute_v, compute_x,
                             history_inequality_violated, solve,
                             step_k3_conditions, update_best,
                             update_subroutine)

EPS = 1e-12


def _box_1d():
    # f(u) = u^2 - 4u over [0, 1]; unique stationary point at u = 1
    f = SmoothOracle(lambda u: float(u[0] ** 2 - 4.0 * u[0]),
                     lambda u: np.array([2.0 * u[0] - 4.0]),
                     audit_lipschitz=2.0, audit_curvature=0.0)
    reg = BoxIndicator(np.array([0.0]), np.array([1.0]))
    return CompositeProblem(f, reg, identity_projector(), 1)


def _free_1d():
    # f(u) = ||u||^2 / 2 without constraints (nominal domain box)
    f = SmoothOracle(lambda u: 0.5 * float(u @ u), lambda u: u.copy(),
                     audit_lipschitz=1.0, audit_curvature=0.0)
    return CompositeProblem(f, ZeroRegularizer(1), identity_projector(), 1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("lambda0", 0.0), ("theta", 1.0), ("gamma", 0.0), ("gamma", 1.0),
    ("rho_hat", 0.0), ("A0", 0.0), ("max_outer_iterations", 0),
    ("max_inner_repeats_per_iteration", 0), ("denom_epsilon", -1.0),
])
def test_config_validation(field, value):
    cfg = SolverConfig()
    setattr(cfg, field, value)
    with pytest.raises(ValueError):
        cfg.validate()


# ---------------------------------------------------------------------------
# step operations, hand values
# ---------------------------------------------------------------------------

def test_compute_candidate_plain_prox_step():
    prob = _free_1d()
    y, tau = compute_candidate(prob, np.array([2.0]), lam=1.0, xi=0.0, a=4.0)
    assert tau == 0.0
    assert np.allclose(y, [0.0])  # 2 - 1 * grad(2)


def test_compute_candidate_damped_by_escalation():
    prob = _free_1d()
    # tau = 2*1*1/4 = 0.5, s = 2/3, y = 2 - (2/3)*2 = 2/3
    y, tau = compute_candidate(prob, np.array([2.0]), lam=1.0, xi=1.0, a=4.0)
    assert tau == 0.5
    assert np.allclose(y, [2.0 / 3.0])


def test_compute_candidate_respects_box():
    prob = _box_1d()
    # z = 0.5 - 1 * (-3) = 3.5, clamped to 1
    y, _ = compute_candidate(prob, np.array([0.5]), lam=1.0, xi=0.0, a=4.0)
    assert np.array_equal(y, [1.0])


def test_compute_U_quadratic_recovers_curvature():
    prob = CompositeProblem(
        SmoothOracle(lambda u: float(u[0] ** 2),
                     lambda u: np.array([2.0 * u[0]])),
        ZeroRegularizer(1, bound=10.0), identity_projector(), 1)
    x_tilde = np.array([0.0])
    f_xt = prob.smooth.value(x_tilde)
    g_xt = prob.smooth.grad(x_tilde)
    xn2 = float(x_tilde @ x_tilde)
    y = np.array([2.0])
    assert compute_U(y, prob.smooth.value(y), x_tilde, f_xt, g_xt, xn2,
                     EPS) == 2.0
    # guard: candidate equal to the momentum point
    assert compute_U(x_tilde, f_xt, x_tilde, f_xt, g_xt, xn2, EPS) == 0.0


def test_update_best_tie_keeps_incumbent():
    inc = np.array([1.0])
    cand = np.array([2.0])
    p, pt, changed = update_best(5.0, cand, 5.0, inc)
    assert pt is inc and not changed and p == 5.0
    p, pt, changed = update_best(4.0, cand, 5.0, inc)
    assert pt is cand and changed and p == 4.0
    with pytest.raises(RuntimeError):
        update_best(math.inf, cand, math.inf, inc)


def test_compute_L_gap_of_concave_function():
    # f(u) = -u^2/2: record at 0 (f=0, g=0); at u=2 the linearization
    # overshoots by 2, so the gap quotient is 2*2/4 = 1
    ledger = HistoryLedger(1, 1.0)
    ledger.append_linearization(np.array([0.0]), 0.0, np.array([0.0]))
    u = np.array([2.0])
    L = compute_L(ledger, u, -2.0, u, -2.0, 0.0, EPS)
    assert L == 1.0
    # the previous L dominates when larger
    assert compute_L(ledger, u, -2.0, u, -2.0, 5.0, EPS) == 5.0


def test_compute_L_never_negative():
    # convex f: gaps are negative, so L clamps at 0
    ledger = HistoryLedger(1, 1.0)
    ledger.append_linearization(np.array([0.0]), 0.0, np.array([0.0]))
    u = np.array([2.0])
    # f(u) = u^2/2 -> f(2) = 2, gap = 2*(0 - 2)/4 = -1
    assert compute_L(ledger, u, 2.0, u, 2.0, 0.0, EPS) == 0.0


def test_history_inequality_strict_comparisons():
    lam_hist = np.array([1.0])
    empty = np.array([])
    # 0 * 1 < 1 * 0.5 + 0 -> violated
    assert history_inequality_violated(0.0, 0.5, 0.0, 1.0, lam_hist, empty)
    # equality is not a violation: 1 * 1 < 2 * 0.5 + 0 is false
    assert not history_inequality_violated(1.0, 0.5, 0.0, 2.0, lam_hist, empty)
    # committed pairs are rechecked against the trial L
    lam_hist2 = np.array([1.0, 0.5])
    tau_hist2 = np.array([0.2])
    assert history_inequality_violated(0.5, 0.5, 0.0, 1.0, lam_hist2,
                                       tau_hist2)
    assert not history_inequality_violated(2.0, 0.5, 0.0, 1.0, lam_hist2,
                                           tau_hist2)


def _full_scan(xi, lam, tau, L, lam_hist, tau_hist):
    """The history inequality over every pair, written out directly."""
    return bool(xi * lam_hist[-1] < L * lam + tau
                or np.any(xi * lam_hist[:-1] < L * lam_hist[1:] + tau_hist))


_pos = st.floats(1e-6, 1e3)
_nonneg = st.floats(0.0, 1e3)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), lams=st.lists(_pos, min_size=2, max_size=12),
       L_c=st.one_of(st.just(0.0), _nonneg),
       growth=st.one_of(st.just(0.0), st.just(0.0), _nonneg),
       bump=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       lam=_pos, tau=_nonneg)
def test_history_shortcut_agrees_with_full_scan(data, lams, L_c, growth,
                                                bump, lam, tau):
    lam_hist = np.array(lams)
    tau_hist = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), _nonneg), min_size=len(lams) - 1,
        max_size=len(lams) - 1)))
    # the least xi_c (up to a few ulps) at which every committed pair passes
    xi_c = float(np.max((L_c * lam_hist[1:] + tau_hist) / lam_hist[:-1]))
    while np.any(xi_c * lam_hist[:-1] < L_c * lam_hist[1:] + tau_hist):
        xi_c = float(np.nextafter(xi_c, np.inf))
    xi = xi_c * (1.0 + bump)
    L = L_c + growth  # equal to L_c, or grown so committed pairs may fail
    got = history_inequality_violated(xi, lam, tau, L, lam_hist, tau_hist,
                                      L_c)
    assert got == _full_scan(xi, lam, tau, L, lam_hist, tau_hist)
    assert got == history_inequality_violated(xi, lam, tau, L, lam_hist,
                                              tau_hist)


def _shadow_solves():
    """The golden-hash solves: a clean corpus and four n=200 indefinite."""
    corpus = audit_corpus(20, 0)
    rng = np.random.default_rng(0 ^ 0x5eed)
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    for problem in corpus:
        lo, hi = problem.regularizer.domain_box
        yield problem, cfg, lo + rng.random(problem.dimension) * (hi - lo)
    for seed in range(4):
        problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0,
                                            eig_hi=100.0, seed=seed))
        yield problem, SolverConfig(rho_hat=1e-6), default_start(problem)


def test_history_shortcut_matches_full_scan_inside_solve(monkeypatch):
    checked = history_inequality_violated
    calls = {"all": 0, "shortcut": 0}

    def shadow(xi, lam, tau, L, lam_hist, tau_hist, L_committed):
        got = checked(xi, lam, tau, L, lam_hist, tau_hist, L_committed)
        assert got == _full_scan(xi, lam, tau, L, lam_hist, tau_hist)
        calls["all"] += 1
        calls["shortcut"] += int(L == L_committed and tau_hist.shape[0] > 0)
        return got

    monkeypatch.setattr(solver_mod, "history_inequality_violated", shadow)
    for problem, cfg, y0 in _shadow_solves():
        solve(problem, cfg, y0)
    assert calls["shortcut"] > 0.9 * calls["all"]


def test_convex_runs_scan_no_committed_pair(monkeypatch):
    scans = []
    scan = solver_mod._committed_pairs_violated

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(solver_mod, "_committed_pairs_violated", counted)
    corpus = audit_corpus(4, 0)  # convex, indefinite, convex, indefinite
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    for problem in corpus[::2]:
        cert, trace, _ = solve(problem, cfg, default_start(problem))
        assert cert.converged and len(trace) > 10
    assert scans == []
    cert, trace, _ = solve(corpus[1], cfg, default_start(corpus[1]))
    assert trace.L[-1] > 0.0
    assert 0 < len(scans) < cert.prox_calls


def test_step_k3_conditions_overshoot_triggers_retry():
    lam_hist = np.array([1.0])
    empty = np.array([])
    assert step_k3_conditions(2.0, 1.0, 0.0, 0.0, 0.0, lam_hist, empty, 0.99)
    assert not step_k3_conditions(0.5, 1.0, 0.0, 0.0, 0.0, lam_hist, empty,
                                  0.99)


def test_update_subroutine_shrinks_stepsize():
    lam_hist = np.array([1.0])
    empty = np.array([])
    xi, lam = update_subroutine(0.0, 1.0, 4.0, 0.0, 0.0, lam_hist, empty,
                                theta=2.0, gamma=0.99)
    assert xi == 0.0
    assert lam == pytest.approx(0.2475)  # min(1/2, 0.99/4)
    # theta bite: U barely over gamma -> halving wins
    _, lam2 = update_subroutine(0.0, 1.0, 1.0, 0.0, 0.0, lam_hist, empty,
                                theta=2.0, gamma=0.99)
    assert lam2 == 0.5


def test_update_subroutine_escalates_geometrically():
    # L * lam = 5 forces doubling until xi * lam_prev = 8 clears it
    lam_hist = np.array([1.0])
    empty = np.array([])
    xi = 0.0
    seen = []
    for _ in range(5):
        xi, lam = update_subroutine(xi, 0.5, 0.0, 10.0, 0.0, lam_hist, empty,
                                    theta=2.0, gamma=0.99)
        seen.append(xi)
        assert lam == 0.5  # U * lam <= gamma, stepsize untouched
    assert seen == [1.0, 2.0, 4.0, 8.0, 8.0]


def test_compute_x_hand_values():
    prob = _free_1d()
    y = np.array([1.0])
    y_prev = np.array([0.0])
    x = compute_x(prob, 12.0, 16.0, 4.0, 0.0, y, y_prev)
    assert np.allclose(x, [4.0])  # (16/4) * 1
    x2 = compute_x(prob, 12.0, 16.0, 4.0, 0.5, y, y_prev)
    assert np.allclose(x2, [2.0])  # (1.5 * 16 / 12) * 1


def test_compute_v_hand_value():
    v = compute_v(np.array([1.0]), np.array([0.5]), np.array([2.0]),
                  np.array([3.0]), lam=0.5, tau=0.0)
    assert np.allclose(v, [0.0])
    v2 = compute_v(np.array([1.0]), np.array([0.5]), np.array([2.0]),
                   np.array([3.0]), lam=0.5, tau=1.0)
    assert np.allclose(v2, [1.0])


# ---------------------------------------------------------------------------
# history ledger
# ---------------------------------------------------------------------------

def test_ledger_records_round_trip():
    ledger = HistoryLedger(2, 0.7)
    x = np.array([1.0, 2.0])
    g = np.array([3.0, 4.0])
    idx = ledger.append_linearization(x, 5.0, g)
    assert idx == 1 and ledger.n_records == 1
    rec = ledger.record(1)
    assert np.array_equal(rec.x_tilde, x) and rec.f_at == 5.0
    assert np.array_equal(rec.grad_at, g) and rec.index == 1
    assert ledger.x_tilde_norm2(1) == 5.0
    with pytest.raises(IndexError):
        ledger.record(2)
    with pytest.raises(IndexError):
        ledger.record(0)


def test_ledger_commit_tracks_histories():
    ledger = HistoryLedger(1, 0.7)
    assert np.array_equal(ledger.lam_history(), [0.7])
    assert ledger.tau_history().shape == (0,)
    ledger.commit(0.35, 0.1)
    ledger.commit(0.2, 0.05)
    assert np.array_equal(ledger.lam_history(), [0.7, 0.35, 0.2])
    assert np.array_equal(ledger.tau_history(), [0.1, 0.05])


def test_ledger_buffers_grow_past_initial_capacity():
    ledger = HistoryLedger(1, 1.0)
    for i in range(200):
        ledger.append_linearization(np.array([float(i)]), float(i),
                                    np.array([float(-i)]))
        ledger.commit(1.0 / (i + 1), 0.0)
    assert ledger.n_records == 200
    assert ledger.record(137).f_at == 136.0
    assert ledger.lam_history().shape == (201,)
    assert ledger.lam_history()[137] == pytest.approx(1.0 / 137)


def test_ledger_gap_cache_matches_full_replay():
    rng = np.random.default_rng(2)
    dim = 3
    ledger = HistoryLedger(dim, 1.0)

    def add(n):
        for _ in range(n):
            x = rng.normal(size=dim)
            ledger.append_linearization(x, float(rng.normal()),
                                        rng.normal(size=dim))

    u = rng.normal(size=dim)
    f_u = -1.3
    add(2)
    got = ledger.ymin_ratio_max(u, f_u, EPS)
    want = float(np.max(ledger.linearization_gaps(2, u, f_u, EPS)[0]))
    assert got == want
    # incremental fold-in of new records only
    add(3)
    got = ledger.ymin_ratio_max(u, f_u, EPS)
    want = float(np.max(ledger.linearization_gaps(5, u, f_u, EPS)[0]))
    assert got == want
    # new best point triggers a full rescan
    u2 = rng.normal(size=dim)
    got = ledger.ymin_ratio_max(u2, 0.4, EPS)
    want = float(np.max(ledger.linearization_gaps(5, u2, 0.4, EPS)[0]))
    assert got == want


def test_ledger_slice_queries_validate_bounds():
    ledger = HistoryLedger(1, 1.0)
    ledger.append_linearization(np.array([0.0]), 0.0, np.array([0.0]))
    with pytest.raises(IndexError):
        ledger.linearization_gaps(2, np.array([0.0]), 0.0, EPS)
    with pytest.raises(IndexError):
        ledger.linearization_gaps(1, np.array([0.0]), 0.0, EPS, start=2)
    with pytest.raises(IndexError):
        ledger.record_arrays(5)
    X, F, G = ledger.record_arrays(1)
    assert X.shape == (1, 1) and F.shape == (1,) and G.shape == (1, 1)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def test_solve_convex_box_instance():
    prob = _box_1d()
    cfg = SolverConfig(rho_hat=1e-8)
    cert, trace, ledger = solve(prob, cfg, np.array([0.25]))
    assert cert.converged
    assert cert.residual_norm <= 1e-8
    assert np.allclose(cert.y_hat, [1.0], atol=1e-6)
    assert cert.iterations == len(trace)
    assert cert.grad_calls == 2 * len(trace)
    assert cert.prox_calls == len(trace) + trace.total_inner_repeats
    # convex instance: no escalation, ever
    assert all(x == 0.0 for x in trace.xi)
    assert all(t == 0.0 for t in trace.tau)
    assert all(L == 0.0 for L in trace.L)
    # stepsize trajectory is committed faithfully
    assert np.array_equal(ledger.lam_history()[1:], trace.lam)
    assert np.array_equal(ledger.tau_history(), trace.tau)
    assert np.all(np.diff(trace.lam) <= 0)


def test_solve_first_iteration_shrinks_oversized_stepsize():
    # U = 2 and lambda0 = 1 overshoot gamma; accepted lam = 0.99/2
    prob = _box_1d()
    cert, trace, _ = solve(prob, SolverConfig(rho_hat=1e-6),
                           np.array([0.25]))
    assert trace.lam[0] == pytest.approx(0.495)
    assert trace.inner_repeats[0] >= 1


def test_solve_traces_match_op_recomputation():
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=7))
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=2000)
    cert, trace, ledger = solve(prob, cfg, default_start(prob))
    assert cert.converged
    for i in range(len(trace)):
        rec = ledger.record(i + 1)
        y = trace.ys[i]
        U = compute_U(y, prob.smooth.value(y), rec.x_tilde, rec.f_at,
                      rec.grad_at, float(rec.x_tilde @ rec.x_tilde),
                      cfg.denom_epsilon)
        assert U == trace.U[i]


def test_solve_rejects_bad_start():
    prob = _box_1d()
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(), np.array([3.0]))  # outside dom h
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(lambda0=-1.0), np.array([0.5]))


def test_solve_exhausts_repeat_cap_when_set_too_tight():
    # this run needs two repeats in its first iteration (stepsize shrink
    # plus escalation), so a cap of one must abort with a clear error
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=7))
    cfg = SolverConfig(max_inner_repeats_per_iteration=1)
    with pytest.raises(RuntimeError, match="repeat cap"):
        solve(prob, cfg, default_start(prob))


def test_solve_wrong_sign_gradient_is_absorbed_by_quotient_guard():
    # a sign-flipped gradient drives the stepsize down until the candidate
    # coincides with the momentum point bitwise; the guarded quotient then
    # reads 0 and the run proceeds instead of spinning in the inner loop
    f = SmoothOracle(lambda u: 0.5 * float(u @ u), lambda u: -u)
    prob = CompositeProblem(f, ZeroRegularizer(1), identity_projector(), 1)
    cfg = SolverConfig(max_outer_iterations=3, denom_epsilon=0.0)
    cert, trace, _ = solve(prob, cfg, np.array([1.0]))
    assert trace.U[0] == 0.0
    assert trace.lam[0] < 1e-12


def test_solve_hits_outer_cap_without_convergence():
    # the 1-D box instance reaches residual exactly 0.0 (the clamp pins
    # y at the face), so an unreachable target needs a rougher instance
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=7))
    cfg = SolverConfig(rho_hat=1e-30, max_outer_iterations=20)
    cert, trace, _ = solve(prob, cfg, default_start(prob))
    assert not cert.converged
    assert cert.iterations == 20 and len(trace) == 20


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_trace_csv_layout(tmp_path):
    prob = _box_1d()
    cert, trace, _ = solve(prob, SolverConfig(rho_hat=1e-6), np.array([0.25]))
    path = tmp_path / "trace.csv"
    trace.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == trace.lam[0]
    assert first[-1] == str(trace.inner_repeats[0])


def test_trace_csv_byte_deterministic(tmp_path):
    prob = generate_qp(QuadraticSpec(n=6, eig_lo=-1.0, eig_hi=10.0, seed=1))
    cfg = SolverConfig(rho_hat=1e-6, max_outer_iterations=2000)
    y0 = default_start(prob)
    paths = []
    for tag in ("a", "b"):
        _, trace, _ = solve(prob, cfg, y0)
        p = tmp_path / f"trace_{tag}.csv"
        trace.write_csv(str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_append_and_totals():
    trace = IterationTrace()
    assert len(trace) == 0 and trace.total_inner_repeats == 0
    z = np.zeros(1)
    trace.append(1, 4.0, 16.0, 0.5, 0.0, 0.0, 2.0, 0.0, 1.0, -1.0, -1.0, 3,
                 z, z, z)
    assert len(trace) == 1 and trace.total_inner_repeats == 3
    assert trace.ymins[0] is z
