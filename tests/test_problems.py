"""Problem bundle construction, objective helpers, certificate rechecking."""

import numpy as np
import pytest

from varfista.gallery import generate_qp, QuadraticSpec
from varfista.problems import (Certificate, CompositeProblem, SmoothOracle,
                               phi, verify_certificate)
from varfista.prox import (BoxIndicator, ball_projector, box_projector,
                           identity_projector)


def _quad_1d():
    # f(u) = u^2 - 4u over [0, 1]; stationary point at the upper face
    return SmoothOracle(
        value_fn=lambda u: float(u[0] ** 2 - 4.0 * u[0]),
        grad_fn=lambda u: np.array([2.0 * u[0] - 4.0]),
        audit_lipschitz=2.0, audit_curvature=0.0)


def _box_problem():
    reg = BoxIndicator(np.array([0.0]), np.array([1.0]))
    return CompositeProblem(_quad_1d(), reg, identity_projector(), 1)


def test_smooth_oracle_coerces_types():
    f = _quad_1d()
    u = np.array([0.5])
    assert isinstance(f.value(u), float)
    g = f.grad(u)
    assert g.dtype == np.float64 and g.shape == (1,)


def test_domain_must_sit_inside_region():
    reg = BoxIndicator.uniform(2, -1.0, 1.0)
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(2))
    # ball of radius 2 contains the unit box corners (norm sqrt(2))
    CompositeProblem(f, reg, ball_projector(np.zeros(2), 2.0), 2)
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, ball_projector(np.zeros(2), 1.0), 2)
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, box_projector(np.zeros(2), np.ones(2)), 2)


def test_dimension_mismatch_rejected():
    reg = BoxIndicator.uniform(2, -1.0, 1.0)
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(2))
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, identity_projector(), 3)


def test_phi_values_and_infinity():
    prob = _box_problem()
    assert phi(prob, np.array([1.0])) == pytest.approx(-3.0)
    assert phi(prob, np.array([0.5])) == pytest.approx(-1.75)
    assert phi(prob, np.array([2.0])) == np.inf
    with pytest.raises(ValueError):
        phi(prob, np.array([1.0, 2.0]))


def test_linearization_bounded_by_curvature():
    prob = generate_qp(QuadraticSpec(n=8, eig_lo=1.0, eig_hi=10.0, seed=3))
    M = prob.smooth.audit_lipschitz
    rng = np.random.default_rng(1)
    for _ in range(200):
        u1 = rng.uniform(-1.0, 1.0, size=8)
        u2 = rng.uniform(-1.0, 1.0, size=8)
        lin = prob.smooth.value(u2) + float(prob.smooth.grad(u2) @ (u1 - u2))
        gap = prob.smooth.value(u1) - lin
        half = 0.5 * M * float((u1 - u2) @ (u1 - u2))
        assert gap <= half * (1.0 + 1e-9) + 1e-12


def _cert(y, v, resid=None, converged=True):
    y = np.asarray(y, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if resid is None:
        resid = float(np.linalg.norm(v))
    return Certificate(y_hat=y, v_hat=v, residual_norm=resid, iterations=1,
                       prox_calls=1, grad_calls=2, converged=converged)


def test_verify_certificate_accepts_true_stationary_point():
    prob = _box_problem()
    # grad f(1) = -2 lies in -N_{[0,1]}(1), so v = 0 is valid at u = 1
    good = _cert([1.0], [0.0])
    assert verify_certificate(prob, good)
    assert verify_certificate(prob, good, rho_hat=1e-12)


def test_verify_certificate_rejects_false_claims():
    prob = _box_problem()
    assert not verify_certificate(prob, _cert([0.5], [0.0]))
    # v must match the actual gradient excess, not just be small
    assert not verify_certificate(prob, _cert([0.5], [1e-3]))
    assert verify_certificate(prob, _cert([0.5], [-3.0]))  # 2(0.5) - 4
    assert not verify_certificate(prob, _cert([0.5], [-3.0]), rho_hat=1.0)


def test_verify_certificate_stepsize_independent():
    prob = _box_problem()
    good = _cert([1.0], [0.0])
    bad = _cert([0.25], [0.0])
    for s in (0.1, 1.0, 10.0):
        assert verify_certificate(prob, good, s=s)
        assert not verify_certificate(prob, bad, s=s)
    with pytest.raises(ValueError):
        verify_certificate(prob, good, s=0.0)


def test_problem_repr_names_region():
    assert "identity" in repr(_box_problem())
