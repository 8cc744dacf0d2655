"""Proximal operator and projector properties.

The L1-plus-box prox is checked against a dense 1-D grid minimization first;
the algebraic properties (variational inequality, non-expansiveness) are
property-based.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista.prox import (BoxIndicator, L1PlusBox, ZeroRegularizer,
                           ball_projector, box_projector, clamp_box,
                           identity_projector, project_ball, soft_threshold)

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# soft threshold / clamp / ball projection
# ---------------------------------------------------------------------------

def test_soft_threshold_hand_values():
    z = np.array([3.0, -3.0, 0.5, -0.5, 0.0])
    out = soft_threshold(z, 1.0)
    assert np.array_equal(out, np.array([2.0, -2.0, 0.0, 0.0, 0.0]))


def test_soft_threshold_zero_threshold_is_identity():
    z = np.array([1.5, -2.5, 0.0])
    assert np.array_equal(soft_threshold(z, 0.0), z)


def test_soft_threshold_negative_threshold_rejected():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.1)


@given(st.floats(min_value=-100, max_value=100, **finite),
       st.floats(min_value=0, max_value=50, **finite))
def test_soft_threshold_is_prox_of_l1(z, t):
    # minimizer of t|u| + (u - z)^2 / 2 over a fine grid
    p = float(soft_threshold(np.array([z]), t)[0])
    grid = np.linspace(z - 2 * t - 1, z + 2 * t + 1, 4001)
    grid = np.append(grid, [0.0, p])
    obj = t * np.abs(grid) + 0.5 * (grid - z) ** 2
    assert t * abs(p) + 0.5 * (p - z) ** 2 <= obj.min() + 1e-9


def test_clamp_box_hand_values():
    lo = np.array([0.0, -1.0])
    hi = np.array([1.0, 1.0])
    assert np.array_equal(clamp_box(np.array([2.0, -3.0]), lo, hi),
                          np.array([1.0, -1.0]))
    assert np.array_equal(clamp_box(np.array([0.5, 0.0]), lo, hi),
                          np.array([0.5, 0.0]))


def test_clamp_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        clamp_box(np.array([0.0]), np.array([1.0]), np.array([0.0]))


def test_project_ball_inside_and_outside():
    c = np.zeros(2)
    u = np.array([3.0, 4.0])
    out = project_ball(u, c, 1.0)
    assert np.allclose(out, np.array([0.6, 0.8]))
    inside = np.array([0.1, 0.2])
    assert np.array_equal(project_ball(inside, c, 1.0), inside)


def test_project_ball_negative_radius_rejected():
    with pytest.raises(ValueError):
        project_ball(np.zeros(2), np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

def test_box_indicator_value_and_prox():
    reg = BoxIndicator.uniform(2, -1.0, 1.0)
    assert reg.value(np.array([0.5, -0.5])) == 0.0
    assert reg.value(np.array([1.5, 0.0])) == np.inf
    assert np.array_equal(reg.prox(np.array([2.0, -2.0]), 0.3),
                          np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        reg.prox(np.array([0.0, 0.0]), 0.0)


def test_box_indicator_rejects_bad_bounds():
    with pytest.raises(ValueError):
        BoxIndicator(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxIndicator(np.array([[0.0]]), np.array([[1.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_box_proxes_match_clamp_box_bytes_on_nonfinite_inputs(seed):
    # the regularizers clamp without clamp_box's per-call lo <= hi check;
    # their bounds were validated at construction, so the bytes must equal
    # the checked path's, NaN and infinite entries included
    rng = np.random.default_rng(seed)
    n = 64
    lo = rng.normal(size=n) - 1.0
    hi = lo + rng.random(n) * 2.0
    hi[:4] = lo[:4]  # zero-width coordinates
    lo[4], hi[5] = -np.inf, np.inf
    z = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    special = rng.choice(n, size=12, replace=False)
    z[special] = rng.choice([np.nan, np.inf, -np.inf], size=12)
    s = float(rng.random()) + 0.1
    w = float(rng.random())
    box, l1 = BoxIndicator(lo, hi), L1PlusBox(w, lo, hi)
    assert box.prox(z, s).tobytes() == clamp_box(z, lo, hi).tobytes()
    assert l1.prox(z, s).tobytes() == \
        clamp_box(soft_threshold(z, s * w), lo, hi).tobytes()
    for bad in (0.0, -s, np.nan):
        with pytest.raises(ValueError):
            box.prox(z, bad)
        with pytest.raises(ValueError):
            l1.prox(z, bad)


def test_l1_plus_box_value():
    reg = L1PlusBox.uniform(2, 0.5, -1.0, 1.0)
    assert reg.value(np.array([0.5, -0.5])) == pytest.approx(0.5)
    assert reg.value(np.array([2.0, 0.0])) == np.inf


def _l1_box_prox_grid(z, s, w, lo, hi):
    """Dense-grid oracle for the scalar L1-plus-interval prox."""
    grid = np.linspace(lo, hi, 200_001)
    obj = w * np.abs(grid) + (grid - z) ** 2 / (2.0 * s)
    return grid[int(np.argmin(obj))]


@pytest.mark.parametrize("z,s,w,lo,hi", [
    (2.0, 1.0, 0.5, -1.0, 1.0),
    (-0.3, 0.5, 1.0, -1.0, 1.0),
    (0.2, 2.0, 0.1, -1.0, 1.0),
    (5.0, 1.0, 0.5, 1.0, 3.0),    # interval excludes 0
    (-5.0, 0.7, 2.0, 1.0, 3.0),   # pull against the far face
    (0.0, 1.0, 0.0, -2.0, 2.0),   # no shrinkage
])
def test_l1_plus_box_prox_matches_grid_oracle(z, s, w, lo, hi):
    reg = L1PlusBox(w, np.array([lo]), np.array([hi]))
    got = float(reg.prox(np.array([z]), s)[0])
    want = _l1_box_prox_grid(z, s, w, lo, hi)
    assert abs(got - want) <= (hi - lo) / 200_000 + 1e-12


def test_zero_regularizer():
    reg = ZeroRegularizer(3)
    u = np.array([1.0, -2.0, 0.5])
    assert reg.value(u) == 0.0
    assert np.array_equal(reg.prox(u, 1.0), u)
    lo, hi = reg.domain_box
    assert lo.shape == (3,) and np.all(hi > 0)


# ---------------------------------------------------------------------------
# variational inequality: prox(z, s) beats every feasible point
# ---------------------------------------------------------------------------

def _regs(dim):
    return [BoxIndicator.uniform(dim, -1.0, 1.0),
            L1PlusBox.uniform(dim, 0.3, -1.0, 1.0),
            ZeroRegularizer(dim, bound=2.0)]


@given(st.integers(0, 2), st.integers(0, 10_000),
       st.floats(min_value=0.05, max_value=10.0, **finite))
@settings(max_examples=200, deadline=None)
def test_prox_variational_inequality(reg_idx, seed, s):
    rng = np.random.default_rng(seed)
    dim = 4
    reg = _regs(dim)[reg_idx]
    z = rng.normal(scale=2.0, size=dim)
    p = reg.prox(z, s)
    u = rng.uniform(-1.0, 1.0, size=dim)  # in dom h for all three
    lhs = reg.value(p) + float((p - z) @ (p - z)) / (2.0 * s)
    rhs = reg.value(u) + float((u - z) @ (u - z)) / (2.0 * s)
    assert lhs <= rhs + 1e-10


def test_prox_and_projector_nonexpansive_on_1000_pairs():
    rng = np.random.default_rng(7)
    dim = 5
    regs = _regs(dim)
    projs = [identity_projector(),
             box_projector(np.full(dim, -1.0), np.full(dim, 1.0)),
             ball_projector(np.zeros(dim), 1.5)]
    for _ in range(1000):
        z1 = rng.normal(scale=3.0, size=dim)
        z2 = rng.normal(scale=3.0, size=dim)
        gap = np.linalg.norm(z1 - z2)
        s = float(rng.uniform(0.05, 5.0))
        for reg in regs:
            d = np.linalg.norm(reg.prox(z1, s) - reg.prox(z2, s))
            assert d <= gap * (1.0 + 1e-12) + 1e-15
        for proj in projs:
            d = np.linalg.norm(proj.project(z1) - proj.project(z2))
            assert d <= gap * (1.0 + 1e-12) + 1e-15


def test_projector_kinds():
    assert identity_projector().kind == "identity"
    assert box_projector(np.zeros(1), np.ones(1)).kind == "box"
    assert ball_projector(np.zeros(1), 1.0).kind == "euclidean-ball"
