"""Fixed-step reference solvers, and their agreement with the adaptive one."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varfista.baselines as baselines_mod
from varfista.audit import audit_corpus
from varfista.baselines import run_fista_constant, run_prox_gradient
from varfista.gallery import (QuadraticSpec, default_start, generate_qp,
                              make_qp_problem)
from varfista.problems import (CompositeProblem, SmoothOracle,
                               verify_certificate)
from varfista.solver import (NumericalFailure, SolverConfig, replay_anchors,
                             solve)
from oracle_faults import faulty


def _convex_qp(n=6, seed=2):
    return generate_qp(QuadraticSpec(n=n, eig_lo=1.0, eig_hi=10.0, seed=seed))


def test_fista_constant_converges_on_convex_instance():
    prob = _convex_qp()
    cfg = SolverConfig(lambda0=0.99 / 10.0, rho_hat=1e-7)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    assert cert.converged
    assert cert.residual_norm <= 1e-7
    assert verify_certificate(prob, cert, rho_hat=1e-7)
    assert cert.iterations == len(trace)


def test_fista_constant_oversized_step_fails_to_converge():
    prob = _convex_qp()
    cfg = SolverConfig(lambda0=10.0, rho_hat=1e-7, max_outer_iterations=300)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    assert not cert.converged
    # residuals blow up rather than settle
    assert trace.residual[-1] > trace.residual[0]


def test_prox_gradient_converges_and_descends():
    prob = _convex_qp()
    cfg = SolverConfig(lambda0=1.0 / 10.0, rho_hat=1e-7)
    cert, trace = run_prox_gradient(prob, cfg, default_start(prob))
    assert cert.converged
    assert verify_certificate(prob, cert, rho_hat=1e-7)
    # with step <= 1/M the composite objective never increases
    assert np.all(np.diff(trace.phi_y) <= 1e-12)


def test_prox_gradient_stationary_start_terminates_immediately():
    # u = 1 is the box face fixed point of the 1-D instance
    from varfista.gallery import make_qp_problem
    prob = make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))
    cert, trace = run_prox_gradient(prob, SolverConfig(lambda0=0.25),
                                    np.array([1.0]))
    assert cert.converged and cert.iterations == 1
    assert cert.residual_norm == 0.0


@pytest.mark.parametrize("runner,step", [(run_fista_constant, 0.05),
                                         (run_prox_gradient, 0.1)])
def test_baseline_certificate_counts_every_oracle_and_prox_call(
        monkeypatch, runner, step):
    # the counts are derived from the iteration count; tally the calls
    calls = {"grad": 0, "prox": 0}
    prox_step = baselines_mod.compute_candidate
    prob = _convex_qp()

    def grad(u):
        calls["grad"] += 1
        return prob.smooth.grad(u)

    def trial(*args, **kwargs):
        calls["prox"] += 1
        return prox_step(*args, **kwargs)

    monkeypatch.setattr(baselines_mod, "compute_candidate", trial)
    counted = CompositeProblem(SmoothOracle(prob.smooth.value, grad),
                               prob.regularizer)
    cert, _ = runner(counted, SolverConfig(lambda0=step, rho_hat=1e-7),
                     default_start(prob))
    assert cert.converged
    assert cert.prox_calls == calls["prox"] == cert.iterations
    assert cert.grad_calls == calls["grad"]


def test_baselines_reject_bad_starts():
    prob = _convex_qp()
    with pytest.raises(ValueError):
        run_fista_constant(prob, SolverConfig(), np.zeros(3))
    with pytest.raises(ValueError):
        run_prox_gradient(prob, SolverConfig(), np.full(6, 9.0))


def test_baseline_tracks_best_point():
    prob = generate_qp(QuadraticSpec(n=6, eig_lo=-1.0, eig_hi=10.0, seed=8))
    cfg = SolverConfig(lambda0=0.05, rho_hat=1e-7, max_outer_iterations=2000)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    mins = np.minimum.accumulate(trace.phi_y)
    assert np.all(trace.phi_ymin <= mins + 1e-12)
    assert np.all(np.diff(trace.phi_ymin) <= 0.0)


def test_adaptive_reduces_to_fista_when_stepsize_never_adapts():
    # lambda0 = gamma / (2M) keeps U * lam below gamma forever on a convex
    # instance, so the adaptive run must replay the frozen-step run exactly
    prob = _convex_qp(n=5, seed=4)
    y0 = default_start(prob)
    lam0 = 0.99 / (2.0 * 10.0)
    cfg = SolverConfig(lambda0=lam0, rho_hat=1e-30, max_outer_iterations=50)
    _, tr_a, _ = solve(prob, cfg, y0)
    cert_b, tr_b = run_fista_constant(prob, cfg, y0)
    assert len(tr_a) == len(tr_b) == 50
    assert np.array_equal(tr_a.Y, tr_b.Y)
    assert np.array_equal(replay_anchors(tr_a)[1], replay_anchors(tr_b)[1])
    assert np.array_equal(tr_a.residual, tr_b.residual)
    # both take U from the one quotient kernel, with the same guard
    assert tr_a.U.tobytes() == tr_b.U.tobytes()
    assert all(x == 0.0 for x in tr_a.xi)


def test_baseline_trace_csv_has_zero_adaptive_columns(tmp_path):
    prob = _convex_qp()
    cfg = SolverConfig(lambda0=0.05, rho_hat=1e-6)
    _, trace = run_fista_constant(prob, cfg, default_start(prob))
    p = tmp_path / "t.csv"
    trace.write_csv(str(p))
    rows = p.read_text().splitlines()[1:]
    for row in rows:
        cols = row.split(",")
        assert float(cols[2]) == 0.0  # xi
        assert float(cols[3]) == 0.0  # tau


@pytest.mark.parametrize("runner,method,call,message", [
    # one NaN from value at call 5, which both used to end converged=True
    (run_fista_constant, "value", 5, "iteration 2: f(y) = nan"),
    (run_prox_gradient, "value", 5, "iteration 4: f(y) = nan"),
    (run_fista_constant, "value", 1, "start point: f(y0) = nan"),
    (run_prox_gradient, "value", 1, "start point: f(y0) = nan"),
    (run_fista_constant, "grad", 2, "iteration 1: residual = nan"),
    (run_prox_gradient, "grad", 3, "iteration 2: residual = nan"),
])
def test_baselines_raise_numerical_failure_on_nonfinite_oracle(
        runner, method, call, message):
    prob, _ = faulty(_convex_qp(n=4, seed=3), method, call, np.nan)
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        runner(prob, SolverConfig(lambda0=0.05, rho_hat=1e-6),
               default_start(prob))


# ---------------------------------------------------------------------------
# adversarial oracles: one run contract for all three methods
# ---------------------------------------------------------------------------

def _solve(problem, config, y0):
    cert, trace, _ = solve(problem, config, y0)
    return cert, trace


METHODS = {"solve": _solve, "fista": run_fista_constant,
           "proxgrad": run_prox_gradient}


def _pinned_coordinate_qp():
    # convex with eigenvalues down to 1e-9; coordinates 0-2 have lo == hi
    base = generate_qp(QuadraticSpec(n=5, eig_lo=1e-9, eig_hi=1.0, seed=2))
    lo, hi = base.regularizer.domain_box
    lo, hi = lo.copy(), hi.copy()
    lo[:3] = hi[:3] = 0.5
    return make_qp_problem(base.smooth.Q, base.smooth.c, lo, hi)


ADVERSARIAL_INSTANCES = [
    audit_corpus(2, 0)[1],  # n = 20, indefinite, box [-1, 1]
    generate_qp(QuadraticSpec(n=3, eig_lo=-1e3, eig_hi=1e-9,
                              box=(-1e4, 1e4), seed=5)),
    generate_qp(QuadraticSpec(n=4, eig_lo=1.0, eig_hi=1e8, seed=1)),
    _pinned_coordinate_qp(),
]
ADVERSARIAL_CONFIG = SolverConfig(lambda0=0.05, rho_hat=1e-8,
                                  max_outer_iterations=300)


@settings(max_examples=400, deadline=None)
@given(method=st.sampled_from(sorted(METHODS)),
       instance=st.integers(0, len(ADVERSARIAL_INSTANCES) - 1),
       which=st.sampled_from(["value", "grad"]),
       fault=st.sampled_from([np.nan, np.inf, -np.inf]),
       call=st.integers(1, 120), entry=st.integers(0, 19))
def test_adversarial_oracle_raises_or_returns_a_finite_run(
        method, instance, which, fault, call, entry):
    # each run raises NumericalFailure exactly when the fault was served,
    # and otherwise returns a finite trace and certificate; Tier-1 turns any
    # RuntimeWarning on the way into an error
    problem, fired = faulty(ADVERSARIAL_INSTANCES[instance], which, call,
                             fault, entry)
    try:
        cert, trace = METHODS[method](problem, ADVERSARIAL_CONFIG,
                                      default_start(problem))
    except NumericalFailure:
        assert fired
        return
    assert not fired
    for column in (trace.lam, trace.xi, trace.tau, trace.U, trace.L,
                   trace.residual, trace.phi_y, trace.phi_ymin):
        assert np.all(np.isfinite(column))
    assert np.all(np.isfinite(cert.y_hat)) and np.all(np.isfinite(cert.v_hat))


@pytest.mark.parametrize("method,instance,lambda0,call,entry,message", [
    ("solve", 0, 1.0, 97, 17, "iteration 49, trial 0: U = nan"),
    ("fista", 1, 0.05, 11, 2, "iteration 6: residual = inf"),
])
def test_infinite_gradient_on_a_pinned_coordinate_raises_without_warning(
        method, instance, lambda0, call, entry, message):
    # the box clamp pins y at this entry, so d = y - x_tilde is 0 there and
    # -inf * 0 enters the U quotient's dot product: NaN, with no warning
    problem, _ = faulty(ADVERSARIAL_INSTANCES[instance], "grad", call,
                         -np.inf, entry)
    config = SolverConfig(lambda0=lambda0, rho_hat=1e-8,
                          max_outer_iterations=300)
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        METHODS[method](problem, config, default_start(problem))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_nonfinite_start_is_rejected_before_any_oracle_call(method):
    # dom h is all of R^2, so the box check alone would let (inf, 0) in
    inf = np.inf
    problem, called = faulty(make_qp_problem(
        np.diag([2.0, 1.0]), np.zeros(2), [-inf, -inf], [inf, inf]),
        "value", 1, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="y0 has a non-finite entry"):
            METHODS[method](problem, SolverConfig(), np.array([inf, 0.0]))
    assert called == []
