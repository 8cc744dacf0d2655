"""Problem bundle construction, objective helpers, certificate rechecking."""

from types import SimpleNamespace

import numpy as np
import pytest

from varfista.gallery import generate_qp, QuadraticSpec
from varfista.problems import (Certificate, CompositeProblem, SmoothOracle,
                               phi, verify_certificate)
from varfista.prox import BoxIndicator, Projector


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


def test_domain_must_sit_inside_region():
    reg = BoxIndicator.uniform(2, -1.0, 1.0)
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(2))
    # a wider box contains the domain; one that cuts a corner off does not
    CompositeProblem(f, reg, Projector(np.full(2, -2.0), np.full(2, 2.0)))
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, Projector(np.array([-1.0, -1.0]),
                                           np.array([1.0, 0.9])))
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, Projector(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError):
        CompositeProblem(f, reg, Projector(np.full(3, -2.0), 2.0))


def test_domain_whose_faces_touch_the_region_faces_is_accepted():
    n = 20
    lo = np.linspace(-3.0, 0.0, n)
    hi = lo + np.linspace(0.0, 2.0, n)  # coordinate 0 has zero width
    lo[1], hi[2] = -np.inf, np.inf  # unbounded faces on unbounded faces
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(n))
    reg = BoxIndicator(lo, hi)
    CompositeProblem(f, reg, Projector(lo, hi))
    CompositeProblem(f, reg, Projector(lo, np.inf))
    cut = hi.copy()
    cut[2] = 9.0  # a bounded Omega cannot hold an unbounded face
    with pytest.raises(ValueError, match="moved by inf"):
        CompositeProblem(f, reg, Projector(lo, cut))


def test_domain_sticking_out_only_at_a_mixed_vertex_is_rejected():
    # every lower face of an even coordinate and every upper face of an odd
    # one lies 0.23e-9 inside dom h: the corners lo and hi each move by
    # sqrt(10) * 0.23e-9 = 0.73e-9, but the vertex taking lo on even and hi
    # on odd coordinates moves by sqrt(20) * 0.23e-9 = 1.03e-9 > 1e-9
    n = 20
    reg = BoxIndicator.uniform(n, -1.0, 1.0)
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(n))
    even = np.arange(n) % 2 == 0
    omega = Projector(np.where(even, -1.0 + 0.23e-9, -1.0),
                      np.where(even, 1.0, 1.0 - 0.23e-9))
    for corner in reg.domain_box:
        moved = np.linalg.norm(omega.project(corner) - corner)
        assert 0.72e-9 < moved < 0.74e-9
    with pytest.raises(ValueError, match="vertex moved by 1.029e-09"):
        CompositeProblem(f, reg, omega)


def test_dimension_mismatch_rejected():
    # the dimension is read from the regularizer's box, so its bounds must
    # be 1-D arrays of one shape
    f = SmoothOracle(lambda u: 0.0, lambda u: np.zeros(2))
    assert CompositeProblem(f, BoxIndicator.uniform(2, -1.0, 1.0)) \
        .dimension == 2
    for lo, hi in ((np.zeros(2), np.ones(3)), (np.zeros((2, 1)),
                                               np.ones((2, 1))),
                   (np.zeros(()), np.ones(()))):
        with pytest.raises(ValueError, match="1-D bounds of one shape"):
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
    class Zero:
        domain_box = (np.array([0.0]), np.array([1.0]))

    prob = CompositeProblem(_quad_1d(), Zero())
    with pytest.raises(TypeError):
        verify_certificate(prob, _cert([1.0], [0.0]), 1e-6)


def test_problem_repr_names_region():
    assert "omega=Projector(lo=array(-inf), hi=array(inf))" in \
        repr(_box_problem())
    wide = CompositeProblem(_quad_1d(), BoxIndicator.uniform(1, 0.0, 1.0),
                            Projector(-2.0, 3.0))
    assert "omega=Projector(lo=array(-2.), hi=array(3.))" in repr(wide)
