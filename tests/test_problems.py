"""Problem bundle construction, objective helpers, certificate rechecking."""

from types import SimpleNamespace

import numpy as np
import pytest

from varfista.gallery import generate_qp, QuadraticSpec
from varfista.problems import (Certificate, CompositeProblem, SmoothOracle,
                               phi, verify_certificate)
from varfista.prox import BoxIndicator


def _quad_1d():
    # f(u) = u^2 - 4u over [0, 1]; stationary point at the upper face
    return SmoothOracle(
        value_fn=lambda u: float(u[0] ** 2 - 4.0 * u[0]),
        grad_fn=lambda u: np.array([2.0 * u[0] - 4.0]),
        audit_lipschitz=2.0, audit_curvature=0.0)


def _box_problem():
    reg = BoxIndicator(np.array([0.0]), np.array([1.0]))
    return CompositeProblem(_quad_1d(), reg)


def test_smooth_oracle_coerces_types():
    f = _quad_1d()
    u = np.array([0.5])
    assert isinstance(f.value(u), float)
    g = f.grad(u)
    assert g.dtype == np.float64 and g.shape == (1,)


def test_dimension_mismatch_rejected():
    # the dimension is read from the BoxIndicator's box, whose bounds are
    # 1-D arrays of one shape; any other regularizer is refused at
    # construction
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(2))
    assert CompositeProblem(f, BoxIndicator.uniform(2, -1.0, 1.0)) \
        .dimension == 2
    for lo, hi in ((np.zeros(2), np.ones(3)), (np.zeros((2, 1)),
                                               np.ones((2, 1))),
                   (np.zeros(()), np.ones(()))):
        with pytest.raises(ValueError, match="1-D arrays of equal shape"):
            BoxIndicator(lo, hi)
        with pytest.raises(TypeError, match="SimpleNamespace"):
            CompositeProblem(f, SimpleNamespace(domain_box=(lo, hi)))


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
    assert verify_certificate(prob, good, 1e-6)
    assert verify_certificate(prob, good, rho_hat=1e-12)


def test_verify_certificate_rejects_false_claims():
    prob = _box_problem()
    # at u = 0.5 the least-norm element of grad f + dh is grad f = -3
    assert not verify_certificate(prob, _cert([0.5], [0.0]), 1e-6)
    # a small v does not make a point stationary
    assert not verify_certificate(prob, _cert([0.5], [1e-3]), 1e-2)
    assert verify_certificate(prob, _cert([0.5], [-3.0]), 3.0)  # 2(0.5) - 4
    assert not verify_certificate(prob, _cert([0.5], [-3.0]), rho_hat=1.0)
    # a point outside the box fails, whatever v claims
    assert not verify_certificate(prob, _cert([1.5], [0.0]), 1e6)


def test_verify_certificate_needs_a_box_regularizer():
    # a problem with another regularizer cannot be built, so no
    # certificate of one can reach verify_certificate
    class Zero:
        domain_box = (np.array([0.0]), np.array([1.0]))

    with pytest.raises(TypeError, match="must be a BoxIndicator, not Zero"):
        CompositeProblem(_quad_1d(), Zero())


def test_problem_repr_names_region():
    assert repr(_box_problem()) == "CompositeProblem(dimension=1)"
    wide = CompositeProblem(_quad_1d(), BoxIndicator.uniform(3, 0.0, 1.0))
    assert repr(wide) == "CompositeProblem(dimension=3)"
