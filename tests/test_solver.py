"""Step operations, committed-history ledger, and the solve driver."""

import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import varfista._kernels as kernels_mod
import varfista.solver as solver_mod
from varfista.audit import audit_corpus
from varfista.gallery import generate_qp, QuadraticSpec, default_start
from varfista.problems import CompositeProblem, SmoothOracle, phi
from varfista.prox import BoxIndicator, Projector
from varfista.momentum import A0_DEFAULT, advance, extrapolate
from varfista.solver import (TRACE_HEADER, HistoryLedger, IterationTrace,
                             SolverConfig, _retry_step, compute_candidate,
                             compute_U, compute_v, compute_x,
                             history_inequality_violated, replay_anchors,
                             solve)
from oracle_faults import faulty


def _box_1d():
    # f(u) = u^2 - 4u over [0, 1]; unique stationary point at u = 1
    f = SmoothOracle(lambda u: float(u[0] ** 2 - 4.0 * u[0]),
                     lambda u: np.array([2.0 * u[0] - 4.0]),
                     audit_lipschitz=2.0, audit_curvature=0.0)
    reg = BoxIndicator(np.array([0.0]), np.array([1.0]))
    return CompositeProblem(f, reg, Projector(), 1)


def _free_1d():
    # f(u) = ||u||^2 / 2 on a box wide enough never to bind here
    f = SmoothOracle(lambda u: 0.5 * float(u @ u), lambda u: u.copy(),
                     audit_lipschitz=1.0, audit_curvature=0.0)
    return CompositeProblem(f, BoxIndicator.uniform(1, -1e8, 1e8),
                            Projector(), 1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("lambda0", 0.0), ("theta", 1.0), ("gamma", 0.0), ("gamma", 1.0),
    ("rho_hat", 0.0), ("max_outer_iterations", 0),
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
    x = np.array([2.0])
    y, tau = compute_candidate(prob, x, lam=1.0, xi=0.0, a=4.0,
                               grad_x_tilde=prob.smooth.grad(x))
    assert tau == 0.0
    assert np.allclose(y, [0.0])  # 2 - 1 * grad(2)


def test_compute_candidate_damped_by_escalation():
    prob = _free_1d()
    # tau = 2*1*1/4 = 0.5, s = 2/3, y = 2 - (2/3)*2 = 2/3
    x = np.array([2.0])
    y, tau = compute_candidate(prob, x, lam=1.0, xi=1.0, a=4.0,
                               grad_x_tilde=prob.smooth.grad(x))
    assert tau == 0.5
    assert np.allclose(y, [2.0 / 3.0])


def test_compute_candidate_respects_box():
    prob = _box_1d()
    # z = 0.5 - 1 * (-3) = 3.5, clamped to 1
    x = np.array([0.5])
    y, _ = compute_candidate(prob, x, lam=1.0, xi=0.0, a=4.0,
                             grad_x_tilde=prob.smooth.grad(x))
    assert np.array_equal(y, [1.0])


def test_compute_U_quadratic_recovers_curvature():
    prob = CompositeProblem(
        SmoothOracle(lambda u: float(u[0] ** 2),
                     lambda u: np.array([2.0 * u[0]])),
        BoxIndicator.uniform(1, -10.0, 10.0), Projector(), 1)
    x_tilde = np.array([0.0])
    f_xt = prob.smooth.value(x_tilde)
    g_xt = prob.smooth.grad(x_tilde)
    guard = solver_mod.DENOM_EPSILON * (1.0 + float(x_tilde @ x_tilde))
    y = np.array([2.0])
    assert compute_U(y, prob.smooth.value(y), x_tilde, f_xt, g_xt,
                     guard) == 2.0
    # guard: candidate equal to the momentum point
    assert compute_U(x_tilde, f_xt, x_tilde, f_xt, g_xt, guard) == 0.0


def test_update_best_tie_keeps_incumbent():
    # f(u) = -u on [0, 1] from y0 = 1: the prox step returns a new array
    # equal to y0, so phi ties and the best point stays y0 itself
    f = SmoothOracle(lambda u: -float(u[0]), lambda u: np.array([-1.0]))
    prob = CompositeProblem(f, BoxIndicator.uniform(1, 0.0, 1.0),
                            Projector(), 1)
    y0 = np.array([1.0])
    cert, trace, _ = solve(prob, SolverConfig(), y0)
    assert cert.converged and cert.iterations == 1
    assert np.array_equal(trace.Y[1], y0)
    assert trace.ymin_rows[0] == 0 and trace.side_rows == []


def _abs_scale(u, f_u):
    """The default value-roundoff scale |f(u)|."""
    return abs(f_u)


def _one_record_ledger(x, f_x, g):
    ledger = HistoryLedger(1, _abs_scale)
    ledger.append_linearization(np.array([x]), f_x, np.array([g]))
    return ledger


def _concave_1d():
    # f(u) = -u^2 / 2 on [-1, 1]: every gap quotient is the curvature 1
    f = SmoothOracle(lambda u: -0.5 * float(u @ u), lambda u: -u,
                     audit_lipschitz=1.0, audit_curvature=1.0)
    return CompositeProblem(f, BoxIndicator.uniform(1, -1.0, 1.0),
                            Projector(), 1)


def test_compute_L_gap_of_concave_function():
    # f(u) = -u^2/2: record at 0 (f=0, g=0); at u=2 the linearization
    # overshoots by 2, so both terms of L, the previous iterate's gap
    # against the record and the best point's max gap, are 2*2/4 = 1
    ledger = _one_record_ledger(0.0, 0.0, 0.0)
    u = np.array([2.0])
    assert ledger._record_gap(1, u, -2.0) == 1.0
    assert ledger.ymin_ratio_max(u, -2.0) == 1.0
    # inside solve, L picks the curvature up at the first moving step
    _, trace, _ = solve(_concave_1d(), SolverConfig(max_outer_iterations=3),
                        np.array([0.5]))
    assert trace.L[0] == pytest.approx(1.0, rel=1e-12)


def test_compute_L_never_negative():
    # convex f: gaps are negative, so L clamps at 0
    ledger = _one_record_ledger(0.0, 0.0, 0.0)
    u = np.array([2.0])
    # f(u) = u^2/2 -> f(2) = 2, gap = 2*(0 - 2)/4 = -1
    assert ledger._record_gap(1, u, 2.0) == -1.0
    assert ledger.ymin_ratio_max(u, 2.0) == -1.0
    # inside solve, on f(u) = u^2/2 the best point's gaps are negative
    prob = _free_1d()
    _, trace, ledger = solve(prob, SolverConfig(max_outer_iterations=5),
                             np.array([3.0]))
    ymin = trace.point(trace.ymin_rows[-1])
    f_ymin = prob.smooth.value(ymin)
    gaps, _, _ = ledger.linearization_gaps(len(trace), ymin, f_ymin,
                                           abs(f_ymin))
    assert np.all(gaps < 0.0)
    assert np.all(trace.L == 0.0)


def _violated(xi, lam, tau, L, lam_hist, tau_hist, L_committed):
    """``history_inequality_violated`` with the committed pairs given as
    arrays: lam_{k-1} is the last entry of lam_hist."""
    return history_inequality_violated(xi, lam, tau, L, lam_hist[-1],
                                       L_committed,
                                       lambda: (lam_hist, tau_hist))


def test_history_inequality_strict_comparisons():
    lam_hist = np.array([1.0])
    empty = np.array([])
    # 0 * 1 < 1 * 0.5 + 0 -> violated
    assert _violated(0.0, 0.5, 0.0, 1.0, lam_hist, empty, math.nan)
    # equality is not a violation: 1 * 1 < 2 * 0.5 + 0 is false
    assert not _violated(1.0, 0.5, 0.0, 2.0, lam_hist, empty, math.nan)
    # committed pairs are rechecked against the trial L (NaN: no L they
    # are known to pass with, so every committed pair is scanned)
    lam_hist2 = np.array([1.0, 0.5])
    tau_hist2 = np.array([0.2])
    assert _violated(0.5, 0.5, 0.0, 1.0, lam_hist2, tau_hist2, math.nan)
    assert not _violated(2.0, 0.5, 0.0, 1.0, lam_hist2, tau_hist2, math.nan)


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
    got = _violated(xi, lam, tau, L, lam_hist, tau_hist, L_c)
    assert got == _full_scan(xi, lam, tau, L, lam_hist, tau_hist)
    assert got == _violated(xi, lam, tau, L, lam_hist, tau_hist, math.nan)


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

    def shadow(xi, lam, tau, L, lam_prev, L_committed, committed):
        got = checked(xi, lam, tau, L, lam_prev, L_committed, committed)
        lam_hist, tau_hist = committed()
        assert lam_prev == lam_hist[-1]
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


def _retry(U, lam, xi, L, theta=2.0, gamma=0.99):
    """``_retry_step`` on a first iteration (lam_0 = 1, no committed pair)."""
    return _retry_step(U, lam, xi, 0.0, L, 1.0, math.nan,
                       lambda: (np.array([1.0]), np.array([])), theta, gamma)


def test_step_k3_conditions_overshoot_triggers_retry():
    # U * lam > gamma asks for a retry; with both conditions met, none
    assert _retry(2.0, 1.0, 0.0, 0.0) is not None
    assert _retry(0.5, 1.0, 0.0, 0.0) is None


def test_update_subroutine_shrinks_stepsize():
    xi, lam = _retry(4.0, 1.0, 0.0, 0.0)
    assert xi == 0.0
    assert lam == min(1.0 / 2.0, 0.99 / 4.0) == pytest.approx(0.2475)
    # theta bite: U barely over gamma -> halving wins
    assert _retry(1.0, 1.0, 0.0, 0.0) == (0.0, 0.5)


def test_update_subroutine_escalates_geometrically():
    # L * lam = 5 forces doubling until xi * lam_prev = 8 clears it; the
    # stepsize stays (U * lam <= gamma) and the cleared trial is accepted
    xi = 0.0
    seen = []
    while (retry := _retry(0.0, 0.5, xi, 10.0)) is not None:
        xi, lam = retry
        assert lam == 0.5
        seen.append(xi)
    assert seen == [1.0, 2.0, 4.0, 8.0]


def test_retry_step_checks_the_history_against_the_shrunk_stepsize():
    # lam = 1 fails both conditions (0 * 1 < 3 * 1); the shrunk lam = 0.25
    # still fails the history inequality, so one call shrinks and escalates
    assert _retry(4.0, 1.0, 0.0, 3.0, gamma=1.0) == (1.0, 0.25)
    # with L = 0 the shrunk trial passes the history inequality
    assert _retry(4.0, 1.0, 0.0, 0.0, gamma=1.0) == (0.0, 0.25)


def test_history_check_runs_at_most_once_per_trial(monkeypatch):
    per_trial = []
    prox_step = solver_mod.compute_candidate
    checked = history_inequality_violated

    def trial(*args):
        per_trial.append(0)
        return prox_step(*args)

    def counted(*args):
        per_trial[-1] += 1
        return checked(*args)

    monkeypatch.setattr(solver_mod, "compute_candidate", trial)
    monkeypatch.setattr(solver_mod, "history_inequality_violated", counted)
    retries = 0
    for problem, y0 in list(_golden_corpus_runs())[:6]:
        before = len(per_trial)
        cert, trace, _ = solve(problem, GOLDEN_CFG, y0)
        assert len(per_trial) - before == cert.prox_calls
        retries += trace.inner_repeats.sum()
    assert retries > 0 and max(per_trial) == 1


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
    ledger = HistoryLedger(2, _abs_scale)
    x = np.array([1.0, 2.0])
    g = np.array([3.0, 4.0])
    idx = ledger.append_linearization(x, 5.0, g)
    assert idx == 1
    X, F, G, FLOOR = ledger.record_arrays(1)
    assert np.array_equal(X, [x]) and np.array_equal(F, [5.0])
    assert np.array_equal(G, [g])
    assert np.array_equal(FLOOR, [solver_mod.DENOM_EPSILON * (1.0 + 5.0)])
    with pytest.raises(IndexError):
        ledger.record_arrays(2)
    with pytest.raises(IndexError):
        ledger.record_arrays(-1)


def _append(trace, lam, tau, y, ymin):
    trace.append(lam, 0.0, tau, 0.0, 0.0, 1.0, -1.0, -1.0, 0, y, ymin)


def test_trace_records_the_stepsize_and_tau_histories():
    trace = IterationTrace(np.zeros(1), 0.7)
    assert np.array_equal(trace.stepsizes, [0.7])
    assert trace.tau.shape == (0,) and trace.lam.shape == (0,)
    for lam, tau in ((0.35, 0.1), (0.2, 0.05)):
        y = np.array([lam])
        _append(trace, lam, tau, y, y)
    assert np.array_equal(trace.stepsizes, [0.7, 0.35, 0.2])
    assert np.array_equal(trace.lam, [0.35, 0.2])
    assert np.array_equal(trace.tau, [0.1, 0.05])


def test_ledger_buffers_grow_past_initial_capacity():
    ledger = HistoryLedger(1, _abs_scale)
    trace = IterationTrace(np.array([-1.0]), 1.0)
    for i in range(200):
        ledger.append_linearization(np.array([float(i)]), float(i),
                                    np.array([float(-i)]))
        y = np.array([float(i)])
        _append(trace, 1.0 / (i + 1), 0.0, y, y)
    X, F, G, FLOOR = ledger.record_arrays(200)
    assert F[136] == 136.0 and X[136, 0] == 136.0 and G[136, 0] == -136.0
    assert FLOOR[136] == solver_mod.DENOM_EPSILON * (1.0 + 136.0 ** 2)
    assert trace.stepsizes.shape == (201,) and trace.Y.shape == (201, 1)
    assert trace.stepsizes[137] == 1.0 / 137 and trace.Y[137, 0] == 136.0
    assert trace.Y[0, 0] == -1.0 and np.array_equal(trace.ymin_rows,
                                                    np.arange(1, 201))


def test_ledger_gap_cache_matches_full_replay():
    rng = np.random.default_rng(2)
    dim = 3
    ledger = HistoryLedger(dim, _abs_scale)

    def add(n):
        for _ in range(n):
            x = rng.normal(size=dim)
            ledger.append_linearization(x, float(rng.normal()),
                                        rng.normal(size=dim))

    u = rng.normal(size=dim)
    f_u = -1.3
    add(2)
    got = ledger.ymin_ratio_max(u, f_u)
    want = float(np.max(ledger.linearization_gaps(2, u, f_u, abs(f_u))[0]))
    assert got == want
    # incremental fold-in of new records only
    add(3)
    got = ledger.ymin_ratio_max(u, f_u)
    want = float(np.max(ledger.linearization_gaps(5, u, f_u, abs(f_u))[0]))
    assert got == want
    # new best point triggers a full rescan
    u2 = rng.normal(size=dim)
    got = ledger.ymin_ratio_max(u2, 0.4)
    want = float(np.max(ledger.linearization_gaps(5, u2, 0.4, 0.4)[0]))
    assert got == want


def _scan_log(monkeypatch):
    """Record the stop (records 1..stop) of every ``_gap_terms`` call."""
    scans = []
    original = HistoryLedger._gap_terms

    def logged(self, stop, *rest):
        scans.append(stop)
        return original(self, stop, *rest)

    monkeypatch.setattr(HistoryLedger, "_gap_terms", logged)
    return scans


def _filled_ledger(rng, dim, count):
    ledger = HistoryLedger(dim, _abs_scale)
    for _ in range(count):
        ledger.append_linearization(rng.normal(size=dim), float(rng.normal()),
                                    rng.normal(size=dim))
    return ledger


def test_ledger_cache_rescans_a_best_point_mutated_in_place(monkeypatch):
    rng = np.random.default_rng(5)
    ledger = _filled_ledger(rng, 4, 6)
    u = rng.normal(size=4)
    ledger.ymin_ratio_max(u, -0.7)
    scans = _scan_log(monkeypatch)
    u[2] += 0.25  # same array object, new bytes
    got = ledger.ymin_ratio_max(u, -0.7)
    assert scans[0] == 6
    assert got == float(np.max(ledger.linearization_gaps(6, u, -0.7,
                                                         0.7)[0]))


def test_ledger_cache_distinct_equal_array_gives_same_maximum():
    rng = np.random.default_rng(6)
    ledger = _filled_ledger(rng, 4, 6)
    u = rng.normal(size=4)
    first = ledger.ymin_ratio_max(u, 0.2)
    again = ledger.ymin_ratio_max(u.copy(), 0.2)
    want = float(np.max(ledger.linearization_gaps(6, u, 0.2, 0.2)[0]))
    assert first == again == want


def _as_bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(max_examples=400, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       guarded=st.booleans(), d_exp=st.integers(-8, 8),
       nan_in=st.sampled_from([None, "u", "g", "f_u"]),
       in_band=st.booleans())
def test_gap_term_equals_one_row_gap_terms_bit_for_bit(n, seed, guarded,
                                                       d_exp, nan_in,
                                                       in_band):
    # the solver's one-record fold and t1 term use _record_gap, the audit's
    # replay a one-row _gap_terms; both must give the same bits, also when
    # a NaN in u, in the record's gradient or in f(u) reaches the quotient,
    # and when the numerator lies in the zero band of the value scales
    rng = np.random.default_rng(seed)

    def draw(size=None):
        return rng.normal(size=size) * 10.0 ** rng.integers(-8, 9, size=size)

    x, g, f_x, f_u = draw(n), draw(n), float(draw()), float(draw())
    # scales at least |f(x)|, so the band spans 128 ulps of f(x) or more
    s_x, s_u = abs(f_x) + abs(draw()), abs(f_x) + abs(draw())
    if nan_in == "g":
        g[rng.integers(n)] = math.nan
    # s is s_x for the record, which is scaled as a row, and s_u for u
    ledger = HistoryLedger(n, lambda v, _: s_x if v.ndim == 2 else s_u)
    ledger.append_linearization(x, f_x, g)
    guard = float(ledger.record_arrays(1)[3][0])
    d = draw(n) * 10.0 ** d_exp
    if guarded:  # shrink d inside the guard radius
        d *= rng.random() * math.sqrt(guard) / (
            math.sqrt(float(d @ d)) * 2.0)
    u = x + d
    gd = float(np.einsum("i,i->", g, u - x))
    band = 2.0 * 64.0 * np.finfo(np.float64).eps * (s_u + s_x + abs(gd))
    if in_band:  # aim the numerator 2 (f(x) + gd - f(u)) into (0, band]
        f_u = f_x + gd - 0.5 * band * rng.uniform(-0.2, 1.2)
    if nan_in == "f_u":
        f_u = math.nan
    if nan_in == "u":
        u[rng.integers(n)] = math.nan
    want, den, _ = ledger.linearization_gaps(1, u, f_u, s_u)
    num = 2.0 * (f_x + gd - f_u)
    if den[0] <= guard:
        assert want[0] == 0.0
    else:
        assert not guarded or nan_in == "u"
        assert math.isnan(want[0]) == (nan_in is not None)
        if nan_in is None:
            assert want[0] == (0.0 if 0.0 < num <= band else num / den[0])
    assert _as_bits(ledger._record_gap(1, u, f_u)) \
        == want[0].tobytes()


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 24), n=st.integers(1, 6), split=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rescan_and_fold_maxima_equal_the_zeroed_rows_bit_for_bit(k, n, split,
                                                                  seed):
    # a rescan zeroes only the quotients that could be the maximum, a fold
    # scores one record at a time; both must give the maximum of the fully
    # zeroed rows of linearization_gaps.  The numerators are drawn inside
    # the zero band, just above it or negative
    rng = np.random.default_rng(seed)

    def scale(u, f_u):  # some s(u) >= |f(u)|, one point or rows alike
        return 3.0 * np.abs(f_u) + 1.0

    u = rng.normal(size=n)
    f_u = float(rng.normal())
    records = []
    for _ in range(k):
        x, g = rng.normal(size=n), rng.normal(size=n)
        gd = float(np.einsum("i,i->", g, u - x))
        f_x = float(rng.normal())  # sets s(x_tilde), then moved below
        band = 2.0 * 64.0 * np.finfo(np.float64).eps * (
            scale(u, f_u) + scale(x, f_x) + abs(gd))
        kind = rng.integers(3)
        target = (band * rng.uniform(0.05, 0.95), band * rng.uniform(2, 5),
                  -rng.random())[kind]
        records.append((x, f_u - gd + 0.5 * target, g))

    def ledger_with(count):
        ledger = HistoryLedger(n, scale)
        for x, f_x, g in records[:count]:
            ledger.append_linearization(x, f_x, g)
        return ledger

    want = np.max(ledger_with(k).linearization_gaps(k, u, f_u,
                                                    scale(u, f_u))[0])
    rescanned = ledger_with(k).ymin_ratio_max(u, f_u)
    folded = ledger_with(min(split, k))
    folded.ymin_ratio_max(u, f_u)
    for x, f_x, g in records[min(split, k):]:
        folded.append_linearization(x, f_x, g)
    assert _as_bits(rescanned) == want.tobytes()
    assert _as_bits(folded.ymin_ratio_max(u, f_u)) == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 24), n=st.integers(1, 6), b=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_zero_rule_of_point_blocks_equals_one_point_scans_bit_for_bit(
        k, n, b, seed):
    # the audit scans a block of b best points (b x 1 x n) and the previous
    # iterates paired with their records (k x n) in one call each; every
    # row must zero what a scan of its point alone zeroes.  The rows hold
    # one point u with per-row scales s(u), and numerators are drawn inside
    # the zero band, just above it or negative, so each row's band decides
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    f_u = float(rng.normal())
    ledger = HistoryLedger(n, lambda v, f_v: 3.0 * np.abs(f_v) + 1.0)
    for _ in range(k):
        x, g = rng.normal(size=n), rng.normal(size=n)
        gd = float(np.einsum("i,i->", g, u - x))
        f_x = float(rng.normal())
        band = 2.0 * 64.0 * np.finfo(np.float64).eps * (
            2.0 + 3.0 * abs(f_u) + 3.0 * abs(f_x) + abs(gd))
        target = (band * rng.uniform(0.05, 0.95), band * rng.uniform(1, 3),
                  -rng.random())[rng.integers(3)]
        ledger.append_linearization(x, f_u - gd + 0.5 * target, g)

    def alone(s_u):
        return ledger.linearization_gaps(k, u, f_u, s_u)[0]

    s_b = rng.uniform(0.0, 3.0, b)
    block = ledger.linearization_gaps(k, np.tile(u, (b, 1, 1)),
                                      np.full((b, 1), f_u), s_b[:, None])[0]
    assert block.tobytes() == np.array([alone(s) for s in s_b]).tobytes()
    s_k = rng.uniform(0.0, 3.0, k)
    paired = ledger.linearization_gaps(k, np.tile(u, (k, 1)),
                                       np.full(k, f_u), s_k)[0]
    assert paired.tobytes() == np.array(
        [alone(s)[i] for i, s in enumerate(s_k)]).tobytes()


# ---------------------------------------------------------------------------
# the best-point screen and the blocked gap scans
# ---------------------------------------------------------------------------

_KINDS = ("far", "near", "guarded", "zero", "nan", "inf", "tiny")


@contextlib.contextmanager
def _blocks(**sizes):
    """Set _kernels' block sizes (``_ROW_BLOCK``, ``_SCAN_BLOCK``) for a
    while: a row block of 0 screens every rescan, a huge one none."""
    old = {name: getattr(kernels_mod, name) for name in sizes}
    for name, size in sizes.items():
        setattr(kernels_mod, name, size)
    try:
        yield
    finally:
        for name, size in old.items():
            setattr(kernels_mod, name, size)


def _screen_record(rng, kind, u, f_u, sx, sg):
    """(x, F, g) of one record of the given kind around u.  Coordinates are
    of size sx, gradients of size sg; the numerator F + g . (u - x) - f(u)
    is random ("far", and "guarded", which lies inside its quotient guard),
    a small curvature term ("near"), of a few ulps or exactly 0 ("zero"),
    or a few subnormals ("tiny", whose quotient can round to -0.0); "nan"
    and "inf" hold one such entry in g, or NaN in F or x."""
    n = u.shape[0]
    g = rng.normal(size=n) * sg
    d = rng.normal(size=n) * sx
    if kind == "near":
        d *= 1e-6
    elif kind == "guarded":  # ||d||^2 = 0.09e-12 (1 + ||u||^2) < the guard
        d *= 0.3e-6 * math.sqrt(1.0 + float(u @ u)) / math.sqrt(float(d @ d))
    elif kind == "tiny":
        g[:] = 0.0
    x = u - d
    gd = float(np.einsum("i,i->", g, u - x))
    F = f_u - gd
    if kind in ("far", "guarded"):
        F += float(rng.normal()) * sx * sg * math.sqrt(n)
    elif kind == "near":
        F -= abs(float(rng.normal())) * sg / sx * float(d @ d)
    elif kind == "tiny":
        F = f_u + float(rng.integers(-3, 4)) * 5e-324
    elif kind in ("nan", "inf"):
        where = rng.integers(3) if kind == "nan" else 0
        bad = math.nan if kind == "nan" else math.inf * rng.choice([-1, 1])
        if where == 0:
            g[rng.integers(n)] = bad
        elif where == 1:
            F = bad
        else:
            x[rng.integers(n)] = bad
    return x, F, g


def _screen_scale(v, f_v):
    return 3.0 * np.abs(f_v) + 1.0


_screen_draws = dict(
    n=st.sampled_from([1, 20, 1000]), seed=st.integers(0, 2 ** 32 - 1),
    # coordinates, gradients and values of size 1e-150 to 1e150
    e_x=st.integers(-150, 150), e_g=st.integers(-150, 150),
    zero_f=st.booleans())


@settings(max_examples=300, deadline=None)
@given(kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=12),
       **_screen_draws)
def test_the_screen_skips_only_records_whose_numerator_is_negative(
        kinds, n, seed, e_x, e_g, zero_f):
    # the full scan's numerator of every record the screen skips is < 0,
    # so its quotient is < 0 or, where guarded, +0.0, never -0.0; a record
    # with a NaN or an infinity is never skipped
    e_g = max(-150 - e_x, min(150 - e_x, e_g))  # values of size <= 1e150
    rng = np.random.default_rng(seed)
    sx, sg = 10.0 ** e_x, 10.0 ** e_g
    u = rng.normal(size=n) * sx
    f_u = 0.0 if zero_f else float(rng.normal()) * sx * sg
    ledger = HistoryLedger(n, _screen_scale)
    for kind in kinds:
        ledger.append_linearization(*_screen_record(rng, kind, u, f_u, sx, sg))
    k = len(kinds)
    keep = ledger._screen(k, u, f_u)
    if keep is None:  # u out of the screen's range: nothing is skipped
        assert abs(f_u) + float(np.einsum("i,i->", u, u)) \
            > solver_mod._SCREEN_RANGE ** 2
        return
    q, num, _, gd = ledger._gap_terms(k, u, f_u)
    q = ledger._zero_rule(k, q, num, gd, lambda: _screen_scale(u, f_u))[0]
    skipped = np.setdiff1d(np.arange(k), keep)
    assert np.all(num[skipped] < 0.0)
    assert np.all(q[skipped] <= 0.0)
    assert not np.any(np.signbit(q[skipped]) & (q[skipped] == 0.0))
    for i, kind in enumerate(kinds):
        assert kind not in ("nan", "inf") or i in keep


def test_the_screen_keeps_a_record_whose_bound_is_exactly_zero():
    # at u = 0 with f(u) = 0, a record with g = 0 has t = P + 1/R^2, so
    # P = -1/R^2 makes t exactly 0: kept, since only t < 0 is skipped
    ledger = HistoryLedger(3, _abs_scale)
    for _ in range(3):
        ledger.append_linearization(np.ones(3), -1.0, np.zeros(3))
    P, _ = ledger._screen_terms(3)
    P[:] = -solver_mod._SCREEN_RANGE ** -2 * np.array([1.0, 2.0, 0.5])
    assert ledger._screen(3, np.zeros(3), 0.0).tolist() == [0, 2]


def test_a_kept_negative_zero_under_a_zero_maximum_takes_the_full_scan():
    # at u = 0 with f(u) = 0, a record with g = 0 and F = -5e-324 at
    # distance 4 has the quotient -1e-323 / 16, which rounds to -0.0; its
    # bound is positive, so the screen keeps it, and skips the records with
    # F = -1.  The kept maximum is then a zero, so the full scan decides,
    # and the ledger notes the -0.0 it returns
    ledger = HistoryLedger(2, _abs_scale)
    for f_x in (-1.0, -5e-324, -1.0):
        ledger.append_linearization(np.array([4.0, 0.0]), f_x, np.zeros(2))
    u = np.zeros(2)
    assert ledger._screen(3, u, 0.0).tolist() == [1]
    with _blocks(_ROW_BLOCK=0):
        got = ledger.ymin_ratio_max(u, 0.0)
    want = np.max(ledger.linearization_gaps(3, u, 0.0, 0.0)[0])
    assert _as_bits(got) == want.tobytes() == _as_bits(-0.0)
    assert ledger._signed_zero and not ledger._skipped


@pytest.mark.parametrize("bad", ["u", "f_u", "huge_u"])
def test_the_screen_stands_down_for_a_point_out_of_its_range(bad):
    ledger = _filled_ledger(np.random.default_rng(3), 4, 5)
    u, f_u = np.ones(4), 1.0
    if bad == "u":
        u[1] = math.nan
    elif bad == "f_u":
        f_u = math.inf
    else:
        u[0] = 2.0 * solver_mod._SCREEN_RANGE
    assert ledger._screen(5, u, f_u) is None


def _lower_curvature_run(ledger, steps, rng_seed, u, f_u, sx, sg):
    """The (t1, r, L) a solve-like sequence gives: per step, append a
    record of the step's kind around the best point, take t1 of the
    previous step's best point against it and r, the best point's maximum,
    fold them into L as ``solve`` does, then keep or move the best point (a
    new array near it, of a lower value unless the value is 0)."""
    rng = np.random.default_rng(rng_seed)
    L, out = 0.0, []
    y_prev, f_prev = ymin, f_min = u, f_u
    for kind, move in steps:
        idx = ledger.append_linearization(
            *_screen_record(rng, kind, ymin, f_min, sx, sg))
        t1 = ledger._record_gap(idx, y_prev, f_prev)
        r = ledger.ymin_ratio_max(ymin, f_min)
        L = max(t1, r, L, 0.0)
        out.append((t1, r, L))
        y_prev, f_prev = ymin, f_min
        if move:
            ymin = ymin + rng.normal(size=ymin.shape[0]) * sx * 1e-3
            f_min -= abs(float(rng.normal())) * 1e-3 * abs(f_min)
    return out


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(st.sampled_from(_KINDS[:4] + _KINDS[-1:]),
                                st.booleans()), min_size=1, max_size=16),
       **_screen_draws)
# a screened miss, then a -0.0 folded in on a hit: the cached maximum is
# formed again as an unscreened miss and its folds would have formed it,
# which keeps a skipped guarded record's +0.0 (first example) and np.max's
# choice among equal zeros (second)
@example(steps=[("guarded", False), ("tiny", False)], n=20, seed=0, e_x=0,
         e_g=0, zero_f=True)
@example(steps=[("far", True), ("far", True), ("guarded", False),
                ("tiny", False)], n=1000, seed=2281471, e_x=0, e_g=0,
         zero_f=True)
def test_screened_and_full_rescans_give_l_the_same_bits(steps, n, seed, e_x,
                                                       e_g, zero_f):
    # every rescan screened (row block 0) against none (a huge row block),
    # each followed by folds: L, signed zeros included, has the same bits
    # at every step, and so does a positive or NaN maximum
    e_g = max(-150 - e_x, min(150 - e_x, e_g))
    sx, sg = 10.0 ** e_x, 10.0 ** e_g
    u = np.random.default_rng(seed).normal(size=n) * sx
    f_u = 0.0 if zero_f else sx * sg
    runs = []
    for row_block in (0, 10 ** 12):
        with _blocks(_ROW_BLOCK=row_block):
            runs.append(_lower_curvature_run(HistoryLedger(n, _screen_scale),
                                             steps, seed, u, f_u, sx, sg))
    for (t1, r, L), (t1_full, r_full, L_full) in zip(*runs):
        assert _as_bits(t1) == _as_bits(t1_full)
        assert _as_bits(L) == _as_bits(L_full)
        if r_full > 0.0 or r_full != r_full:
            assert _as_bits(r) == _as_bits(r_full)
        else:  # a zero only where the full maximum is the same zero
            assert r <= 0.0
            assert r != 0.0 or _as_bits(r) == _as_bits(r_full)


@pytest.mark.parametrize("n", [1, 20, 362, 363, 1000, 1001])
def test_blocked_gap_terms_equal_the_one_shot_form_bit_for_bit(n):
    # one point, one point per record and a block of 3 points, each past
    # one _SCAN_BLOCK and in blocks of 2 rows, against the unblocked form;
    # a subset of rows gives the same bits as the same rows of the whole
    rng = np.random.default_rng(n)
    k = kernels_mod._SCAN_BLOCK // n + 5
    ledger = HistoryLedger(n, _screen_scale)
    for _ in range(k):
        ledger.append_linearization(rng.normal(size=n), float(rng.normal()),
                                    rng.normal(size=n))
    shapes = [(rng.normal(size=n), 0.5),
              (rng.normal(size=(k, n)), rng.normal(size=k)),
              (rng.normal(size=(3, 1, n)), rng.normal(size=(3, 1)))]
    for u, f_u in shapes:
        width = n if u.ndim < 3 else 3 * n
        with _blocks(_SCAN_BLOCK=10 ** 12):
            want = ledger._gap_terms(k, u, f_u)
        for block in (kernels_mod._SCAN_BLOCK, 2 * width + 1):
            with _blocks(_SCAN_BLOCK=block):
                got = ledger._gap_terms(k, u, f_u)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    u, f_u = shapes[0]
    rows = np.flatnonzero(rng.random(k) < 0.3)
    got = ledger._gap_terms(k, u, f_u, rows)
    assert [a.tobytes() for a in got] \
        == [a[rows].tobytes() for a in ledger._gap_terms(k, u, f_u)]


def _golden_corpus_runs():
    """The clean audit corpus with the starts ``run_audit_suite`` draws."""
    rng = np.random.default_rng(0 ^ 0x5eed)
    for problem in audit_corpus(20, 0):
        lo, hi = problem.regularizer.domain_box
        yield problem, lo + rng.random(problem.dimension) * (hi - lo)


GOLDEN_CFG = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)


def test_cache_hits_where_the_value_compare_did_and_scans_only_misses(
        monkeypatch):
    # in solve a new best point is a new array with strictly smaller phi,
    # so keying by identity + bytes hits exactly where comparing the values
    # with a kept copy did, and the rescan counts stay the same.  A hit
    # folds its new records in O(n) each with no screen and no _gap_terms;
    # a miss covers records 1..k exactly once, each either skipped by the
    # screen or scanned by _gap_terms
    scanned, screened = [], []
    gap_terms, screen = HistoryLedger._gap_terms, HistoryLedger._screen

    def log_scan(self, stop, u, f_u, rows=None):
        scanned.append(np.arange(stop) if rows is None else rows)
        return gap_terms(self, stop, u, f_u, rows)

    def log_screen(self, stop, u, f_u):
        keep = screen(self, stop, u, f_u)
        screened.append(keep)
        return keep

    monkeypatch.setattr(HistoryLedger, "_gap_terms", log_scan)
    monkeypatch.setattr(HistoryLedger, "_screen", log_screen)
    original = HistoryLedger.ymin_ratio_max
    misses = []
    folds = [0]
    rows = {"screened": 0, "scanned": 0}  # on misses that ran the screen

    def watched(self, ymin, f_ymin):
        k = self._n_rec
        hit = self._is_cached(ymin)
        kept = getattr(self, "_shadow_copy", None)
        by_value = (kept is not None and kept.shape == ymin.shape
                    and bool(np.all(kept == ymin)))
        assert hit == by_value
        self._shadow_copy = ymin.copy()
        folds[0] += hit and self._cached_upto == k - 1
        scans, screens = len(scanned), len(screened)
        out = original(self, ymin, f_ymin)
        new_scans, new_screens = scanned[scans:], screened[screens:]
        if hit:
            assert new_scans == [] and new_screens == []
        else:
            misses.append(k)
            covered = list(new_scans)
            if new_screens:
                keep, = new_screens
                assert keep is not None
                if keep.size < k:  # the screen skipped the others
                    covered.append(np.setdiff1d(np.arange(k), keep))
                rows["screened"] += k
                rows["scanned"] += sum(map(len, new_scans))
            assert np.array_equal(np.sort(np.concatenate(covered)),
                                  np.arange(k))
        return out

    monkeypatch.setattr(HistoryLedger, "ymin_ratio_max", watched)
    for problem, y0 in _golden_corpus_runs():
        solve(problem, GOLDEN_CFG, y0)
    assert folds[0] > len(misses) > 0
    # this run changes best point on all but one of its 1384 calls; above
    # one row block (k > 409 at n = 20) every miss is screened, and the
    # screen leaves under 1 % of the rows to scan
    growth = generate_qp(QuadraticSpec(n=20, eig_lo=0.001, eig_hi=100.0,
                                       box=(-1000.0, 1000.0), seed=0))
    rows["screened"] = rows["scanned"] = 0
    solve(growth, SolverConfig(rho_hat=1e-2, max_outer_iterations=2000),
          default_start(growth))
    assert rows["screened"] > 0
    assert rows["scanned"] <= 0.01 * rows["screened"]


def test_ledger_fold_carries_a_nan_quotient_like_a_rescan():
    # the second record's gradient is NaN, so its quotient at ymin is NaN;
    # the fold must carry it as np.max over a full rescan does, also past
    # a later finite record
    ledger = HistoryLedger(2, _abs_scale)
    ymin = np.array([1.0, 1.0])
    for k, g in enumerate(([0.0, 0.0], [math.nan, 0.0], [0.0, 0.0]), 1):
        ledger.append_linearization(np.zeros(2), 0.0, np.array(g))
        folded = ledger.ymin_ratio_max(ymin, -0.5)
        rescan = np.max(ledger.linearization_gaps(k, ymin, -0.5, 0.5)[0])
        assert _as_bits(folded) == rescan.tobytes()
        assert (folded == 0.5) if k == 1 else math.isnan(folded)
    assert ledger.cached_ymin is ymin  # every call after the first folded


def test_ledger_slice_queries_validate_bounds():
    ledger = HistoryLedger(1, _abs_scale)
    ledger.append_linearization(np.array([0.0]), 0.0, np.array([0.0]))
    with pytest.raises(IndexError):
        ledger.linearization_gaps(2, np.array([0.0]), 0.0, 0.0)
    with pytest.raises(IndexError):
        ledger.linearization_gaps(-1, np.array([0.0]), 0.0, 0.0)
    with pytest.raises(IndexError):
        ledger.record_arrays(5)
    X, F, G, FLOOR = ledger.record_arrays(1)
    assert X.shape == (1, 1) and F.shape == (1,) and G.shape == (1, 1)
    assert FLOOR.shape == (1,)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

# Python and C calls per accepted iteration of the fixed n = 20 run below,
# as sys.setprofile counts them: 93.4 before einsum went through its C
# entry, h was taken at the prox output without a membership scan, the
# history views were built only for a scan, and finiteness got a
# math.isfinite fast path; 49.4 after (numpy 2.4, Python 3.11).  The
# count is deterministic for given numpy and Python versions.  Raise the
# pin only with the reason logged.
CALLS_PER_ITERATION = 50.0


def test_an_n20_iteration_stays_within_its_call_budget():
    problem, y0 = next(_golden_corpus_runs())
    events = [0]

    def count(frame, event, arg):
        if event in ("call", "c_call"):
            events[0] += 1

    sys.setprofile(count)
    try:
        cert, _, _ = solve(problem, GOLDEN_CFG, y0)
    finally:
        sys.setprofile(None)
    assert cert.iterations == 178
    assert events[0] / cert.iterations <= CALLS_PER_ITERATION


def test_solve_convex_box_instance(monkeypatch):
    # the certificate's call counts come from the trace; count the calls
    calls = {"grad": 0, "prox": 0}
    f = _box_1d().smooth
    prox_step = solver_mod.compute_candidate

    def grad(u):
        calls["grad"] += 1
        return f.grad_fn(u)

    def trial(*args):
        calls["prox"] += 1
        return prox_step(*args)

    monkeypatch.setattr(solver_mod, "compute_candidate", trial)
    prob = CompositeProblem(SmoothOracle(f.value_fn, grad),
                            _box_1d().regularizer, Projector(), 1)
    cfg = SolverConfig(rho_hat=1e-8)
    cert, trace, ledger = solve(prob, cfg, np.array([0.25]))
    assert cert.converged
    assert cert.residual_norm <= 1e-8
    assert np.allclose(cert.y_hat, [1.0], atol=1e-6)
    assert cert.iterations == len(trace)
    assert cert.grad_calls == calls["grad"] == 2 * len(trace)
    assert cert.prox_calls == calls["prox"] > len(trace)
    # convex instance: no escalation, ever
    assert np.all(trace.xi == 0.0) and np.all(trace.tau == 0.0)
    assert np.all(trace.L == 0.0)
    # stepsize trajectory is committed faithfully, from lambda0 on
    assert np.array_equal(trace.stepsizes, np.r_[cfg.lambda0, trace.lam])
    assert np.all(np.diff(trace.stepsizes) <= 0)


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
    X, F, G, _ = ledger.record_arrays(len(trace))
    for i in range(len(trace)):
        y = trace.Y[i + 1]
        U = compute_U(y, prob.smooth.value(y), X[i], float(F[i]), G[i],
                      solver_mod.DENOM_EPSILON * (1.0 + float(X[i] @ X[i])))
        assert U == trace.U[i]


def test_solve_rejects_bad_start():
    prob = _box_1d()
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(), np.array([3.0]))  # outside dom h
    with pytest.raises(ValueError):
        solve(prob, SolverConfig(lambda0=-1.0), np.array([0.5]))


def test_solve_exhausts_repeat_cap_when_set_too_tight(monkeypatch):
    # this run needs two repeats in its first iteration (stepsize shrink
    # plus escalation), so a cap of one must abort with a clear error
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=7))
    monkeypatch.setattr(solver_mod, "_MAX_INNER_REPEATS", 1)
    with pytest.raises(solver_mod.RepeatCapExhausted, match="repeat cap"):
        solve(prob, SolverConfig(), default_start(prob))


def test_solve_wrong_sign_gradient_is_absorbed_by_quotient_guard(
        monkeypatch):
    # a sign-flipped gradient drives the stepsize down until the candidate
    # coincides with the momentum point bitwise; the guarded quotient then
    # reads 0 and the run proceeds instead of spinning in the inner loop.
    # With a zero guard only that bitwise coincidence trips it
    f = SmoothOracle(lambda u: 0.5 * float(u @ u), lambda u: -u)
    prob = CompositeProblem(f, BoxIndicator.uniform(1, -1e8, 1e8),
                            Projector(), 1)
    monkeypatch.setattr(solver_mod, "DENOM_EPSILON", 0.0)
    cert, trace, _ = solve(prob, SolverConfig(max_outer_iterations=3),
                           np.array([1.0]))
    assert trace.U[0] == 0.0
    assert trace.lam[0] < 1e-12


@pytest.mark.parametrize("call,which,fault,match", [
    # value calls: f(y0), then f(x_tilde_1), f(y_1), ...
    (1, "value", np.nan, r"start point: f\(y0\) = nan"),
    (1, "value", np.inf, r"start point: f\(y0\) = inf"),
    (2, "value", np.nan, r"iteration 1: f\(x_tilde\) = nan"),
    (3, "value", np.nan, r"iteration 1, trial 0: f\(y\) = nan"),
    (49, "value", np.nan, r"iteration \d+, trial \d+: f\(y\) = nan"),
    # a NaN gradient at x_tilde_5 reaches f(y) through the prox step
    (9, "grad", np.nan, r"iteration 5, trial 0: f\(y\) = nan"),
    # the box clamps an infinite step back to a finite y; U sees the entry
    (9, "grad", np.inf, r"iteration 5, trial 0: U = -?(inf|nan);"),
    (9, "grad", -np.inf, r"iteration 5, trial 0: U = -?(inf|nan);"),
])
def test_solve_raises_numerical_failure_on_nonfinite_oracle(call, which,
                                                            fault, match):
    problem, _ = faulty(audit_corpus(2, 0)[0], which, call, fault)
    with pytest.raises(solver_mod.NumericalFailure, match=match) as info:
        solve(problem, SolverConfig(), default_start(problem))
    assert isinstance(info.value, FloatingPointError)


def test_solve_raises_on_an_infinite_first_gradient():
    # grad f(x_tilde_1) = (inf, 0): the box clamps the step back, U and L
    # stay finite, and the residual of iteration 1 is the first place the
    # entry shows
    target = np.array([-1.0, 0.7])
    calls = [0]

    def grad(u):
        calls[0] += 1
        return np.array([np.inf, 0.0]) if calls[0] == 1 else u - target

    f = SmoothOracle(lambda u: 0.5 * float((u - target) @ (u - target)),
                     grad)
    prob = CompositeProblem(f, BoxIndicator.uniform(2, 0.0, 1.0),
                            Projector(), 2)
    with pytest.raises(solver_mod.NumericalFailure,
                       match=r"iteration 1: residual = (inf|nan);"):
        solve(prob, SolverConfig(), np.array([0.0, 0.5]))


def test_solve_raises_on_a_nan_gradient_at_the_accepted_point():
    # the second gradient call is grad f(y_1); nothing but v_1 reads it
    problem, _ = faulty(generate_qp(QuadraticSpec(
        n=4, eig_lo=1.0, eig_hi=10.0, seed=3)), "grad", 2, np.nan)
    with pytest.raises(solver_mod.NumericalFailure,
                       match=r"iteration 1: residual = nan;"):
        solve(problem, SolverConfig(), default_start(problem))


def test_a_nan_trial_point_raises_in_its_trial_through_U():
    # h at a trial point is taken without a membership scan, which would
    # read a NaN entry as outside the box.  Here f ignores NaN entries, so
    # f(y) stays finite at the NaN trial point of iteration 1; the trial
    # must still raise, through U
    f = SmoothOracle(lambda u: 0.5 * float(np.nansum(u * u)),
                     lambda u: np.array([np.nan, u[1]]))
    prob = CompositeProblem(f, BoxIndicator.uniform(2, -1.0, 1.0),
                            Projector(), 2)
    with pytest.raises(solver_mod.NumericalFailure,
                       match=r"iteration 1, trial 0: U = nan;"):
        solve(prob, SolverConfig(), np.array([0.5, 0.5]))


def test_solve_hits_outer_cap_without_convergence():
    # the 1-D box instance reaches residual exactly 0.0 (the clamp pins
    # y at the face), so an unreachable target needs a rougher instance
    prob = generate_qp(QuadraticSpec(n=4, eig_lo=-1.0, eig_hi=10.0, seed=7))
    cfg = SolverConfig(rho_hat=1e-30, max_outer_iterations=20)
    cert, trace, _ = solve(prob, cfg, default_start(prob))
    assert not cert.converged
    assert cert.iterations == 20 and len(trace) == 20


def test_replayed_anchors_rebuild_every_recorded_momentum_point():
    # x_k is not stored: the anchors replay_anchors rebuilds must give the
    # run's own momentum points x_tilde_{k+1} = extrapolate(A_k, A_{k+1},
    # a_{k+1}, y_k, x_k) bit for bit, and its a_k must give tau exactly
    runs = [(p, GOLDEN_CFG, y0) for p, y0 in _golden_corpus_runs()]
    big = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                    seed=0))
    runs.append((big, SolverConfig(rho_hat=1e-6), default_start(big)))
    for problem, cfg, y0 in runs:
        _, trace, ledger = solve(problem, cfg, y0)
        a, xs = replay_anchors(problem, trace)
        K = len(trace)
        assert xs.shape == (K, problem.dimension)
        x_tilde = ledger.record_arrays(K)[0]
        A, x = A0_DEFAULT, y0
        for k in range(K):
            a_next, A_next = advance(A)
            assert a_next == a[k]
            assert np.array_equal(
                extrapolate(A, A_next, a_next, trace.Y[k], x), x_tilde[k])
            # the scalar form, one iteration at a time, is the reference
            assert np.array_equal(xs[k], compute_x(
                problem, A, A_next, a_next, float(trace.tau[k]),
                trace.Y[k + 1], trace.Y[k]))
            A, x = A_next, xs[k]
        assert np.array_equal(trace.tau, 2.0 * trace.xi * trace.lam / a)


def _held_bytes(*owners):
    """Bytes of the distinct arrays (and bytes objects) the owners hold,
    directly or in a list; a view counts as the array it views."""
    held = {}
    for owner in owners:
        for value in vars(owner).values():
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, np.ndarray):
                    while isinstance(item.base, np.ndarray):
                        item = item.base
                    held[id(item)] = item.nbytes
                elif isinstance(item, bytes):
                    held[id(item)] = len(item)
    return sum(held.values())


def test_trace_and_ledger_hold_three_n_vectors_per_buffer_row():
    # ledger: x_tilde and grad f rows; trace: y rows; plus at most 16
    # scalars per row and the side rows.  A stored K x n column such as
    # the anchors x_k would not fit
    problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0, eig_hi=100.0,
                                        seed=1))
    n = problem.dimension
    _, trace, ledger = solve(problem, SolverConfig(rho_hat=1e-6),
                             default_start(problem))
    cap = max(getattr(owner, name).shape[0] for owner in (trace, ledger)
              for name in owner._BUFFERS)
    assert len(trace) < cap
    bound = 8 * cap * (3 * n + 16) + 8 * n * len(trace.side_rows)
    held = _held_bytes(trace, ledger)
    assert held <= bound < held + 8 * len(trace) * n


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
    y0 = np.zeros(1)
    trace = IterationTrace(y0, 0.5)
    assert len(trace) == 0 and trace.inner_repeats.sum() == 0
    z = np.ones(1)
    trace.append(0.5, 0.0, 0.0, 2.0, 0.0, 1.0, -1.0, -1.0, 3, z, y0)
    assert len(trace) == 1 and trace.inner_repeats.sum() == 3
    assert trace.ymin_rows[0] == 0  # the start point is row 0


def test_trace_names_each_best_point_by_row_or_side_copy():
    # the best point is y itself (its new row), the previous best point
    # (same row), or a rejected trial point (copied to a side row)
    y0 = np.zeros(1)
    trace = IterationTrace(y0, 1.0)
    y1, y2, y3, trial = (np.array([v]) for v in (1.0, 2.0, 3.0, 9.0))
    _append(trace, 1.0, 0.0, y1, y0)
    _append(trace, 1.0, 0.0, y2, y2)
    _append(trace, 1.0, 0.0, y3, trial)
    trial[0] = -9.0  # the side row is a copy
    _append(trace, 1.0, 0.0, y3.copy(), trial)
    assert trace.ymin_rows.tolist() == [0, 2, ~0, ~0]
    assert [trace.point(r)[0] for r in trace.ymin_rows] == [0.0, 2.0, 9.0,
                                                            9.0]
    assert len(trace.side_rows) == 1
    assert np.array_equal(trace.Y, [[0.0], [1.0], [2.0], [3.0], [3.0]])
