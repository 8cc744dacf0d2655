"""Fixed-step reference solvers, and their agreement with the adaptive one."""

import re

import numpy as np
import pytest

from varfista.baselines import (BaselineConfig, run_fista_constant,
                                run_prox_gradient)
from varfista.gallery import (QuadraticOracle, QuadraticSpec, default_start,
                              generate_qp)
from varfista.problems import phi, verify_certificate
from varfista.solver import NumericalFailure, SolverConfig, solve


def _convex_qp(n=6, seed=2):
    return generate_qp(QuadraticSpec(n=n, eig_lo=1.0, eig_hi=10.0, seed=seed))


@pytest.mark.parametrize("field,value", [
    ("step", 0.0), ("rho_hat", 0.0), ("max_outer_iterations", 0),
])
def test_baseline_config_validation(field, value):
    cfg = BaselineConfig()
    setattr(cfg, field, value)
    with pytest.raises(ValueError):
        cfg.validate()


def test_fista_constant_converges_on_convex_instance():
    prob = _convex_qp()
    cfg = BaselineConfig(step=0.99 / 10.0, rho_hat=1e-7)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    assert cert.converged
    assert cert.residual_norm <= 1e-7
    assert verify_certificate(prob, cert, rho_hat=1e-7)
    assert cert.iterations == len(trace)


def test_fista_constant_oversized_step_fails_to_converge():
    prob = _convex_qp()
    cfg = BaselineConfig(step=10.0, rho_hat=1e-7, max_outer_iterations=300)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    assert not cert.converged
    # residuals blow up rather than settle
    assert trace.residual[-1] > trace.residual[0]


def test_prox_gradient_converges_and_descends():
    prob = _convex_qp()
    cfg = BaselineConfig(step=1.0 / 10.0, rho_hat=1e-7)
    cert, trace = run_prox_gradient(prob, cfg, default_start(prob))
    assert cert.converged
    assert verify_certificate(prob, cert, rho_hat=1e-7)
    # with step <= 1/M the composite objective never increases
    vals = np.array(trace.phi_y)
    assert np.all(np.diff(vals) <= 1e-12)


def test_prox_gradient_stationary_start_terminates_immediately():
    # u = 1 is the box face fixed point of the 1-D instance
    from varfista.gallery import make_qp_problem
    prob = make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                           np.array([0.0]), np.array([1.0]))
    cert, trace = run_prox_gradient(prob, BaselineConfig(step=0.25),
                                    np.array([1.0]))
    assert cert.converged and cert.iterations == 1
    assert cert.residual_norm == 0.0


def test_baselines_reject_bad_starts():
    prob = _convex_qp()
    with pytest.raises(ValueError):
        run_fista_constant(prob, BaselineConfig(), np.zeros(3))
    with pytest.raises(ValueError):
        run_prox_gradient(prob, BaselineConfig(), np.full(6, 9.0))


def test_baseline_tracks_best_point():
    prob = generate_qp(QuadraticSpec(n=6, eig_lo=-1.0, eig_hi=10.0, seed=8))
    cfg = BaselineConfig(step=0.05, rho_hat=1e-7, max_outer_iterations=2000)
    cert, trace = run_fista_constant(prob, cfg, default_start(prob))
    mins = np.minimum.accumulate(trace.phi_y)
    assert np.all(np.array(trace.phi_ymin) <= mins + 1e-12)
    assert np.all(np.diff(trace.phi_ymin) <= 0.0)


def test_adaptive_reduces_to_fista_when_stepsize_never_adapts():
    # lambda0 = gamma / (2M) keeps U * lam below gamma forever on a convex
    # instance, so the adaptive run must replay the frozen-step run exactly
    prob = _convex_qp(n=5, seed=4)
    y0 = default_start(prob)
    lam0 = 0.99 / (2.0 * 10.0)
    a_cfg = SolverConfig(lambda0=lam0, rho_hat=1e-30, max_outer_iterations=50)
    b_cfg = BaselineConfig(step=lam0, rho_hat=1e-30, max_outer_iterations=50)
    _, tr_a, _ = solve(prob, a_cfg, y0)
    cert_b, tr_b = run_fista_constant(prob, b_cfg, y0)
    assert len(tr_a) == len(tr_b) == 50
    for i in range(50):
        assert np.array_equal(tr_a.ys[i], tr_b.ys[i])
        assert np.array_equal(tr_a.xs[i], tr_b.xs[i])
        assert tr_a.residual[i] == tr_b.residual[i]
    assert all(x == 0.0 for x in tr_a.xi)


def test_baseline_trace_csv_has_zero_adaptive_columns(tmp_path):
    prob = _convex_qp()
    cfg = BaselineConfig(step=0.05, rho_hat=1e-6)
    _, trace = run_fista_constant(prob, cfg, default_start(prob))
    p = tmp_path / "t.csv"
    trace.write_csv(str(p))
    rows = p.read_text().splitlines()[1:]
    for row in rows:
        cols = row.split(",")
        assert float(cols[2]) == 0.0  # xi
        assert float(cols[3]) == 0.0  # tau


def _spoil(monkeypatch, method, call, bad=np.nan):
    """Make QuadraticOracle.<method> return ``bad`` at its ``call``-th call."""
    original = getattr(QuadraticOracle, method)
    calls = [0]

    def spoiled(self, u):
        calls[0] += 1
        if calls[0] != call:
            return original(self, u)
        return bad if method == "value" else np.full_like(u, bad)

    monkeypatch.setattr(QuadraticOracle, method, spoiled)


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
        monkeypatch, runner, method, call, message):
    prob = _convex_qp(n=4, seed=3)
    _spoil(monkeypatch, method, call)
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        runner(prob, BaselineConfig(step=0.05, rho_hat=1e-6),
               default_start(prob))
