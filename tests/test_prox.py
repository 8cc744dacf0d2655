"""Proximal operator properties.

The box-plus-l1 prox is checked against a dense 1-D grid minimization first;
the algebraic properties (variational inequality, non-expansiveness) are
property-based.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista.prox import BoxIndicator, soft_threshold

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# soft threshold / box bounds
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


def test_projector_rejects_crossed_bounds():
    # the box checks its own bounds: lo <= hi, which a NaN bound fails
    with pytest.raises(ValueError, match="lo > hi"):
        BoxIndicator(np.array([1.0]), np.array([0.0]))
    for lo, hi in ((np.array([0.0, np.nan]), np.ones(2)),
                   (np.zeros(2), np.array([0.0, np.nan]))):
        with pytest.raises(ValueError, match="lo > hi"):
            BoxIndicator(lo, hi)


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
    # a NaN bound orders with nothing, so no point would lie in dom h
    with pytest.raises(ValueError):
        BoxIndicator(np.array([np.nan]), np.array([0.0]))
    with pytest.raises(ValueError):
        BoxIndicator(np.array([0.0]), np.array([np.nan]), 0.5)


@pytest.mark.parametrize("weight", [-0.5, -np.inf, np.nan, np.inf])
def test_box_indicator_rejects_a_negative_or_nonfinite_weight(weight):
    # a NaN or negative weight must not read as a plain box, and an
    # infinite one would make h(0) = inf * 0 = NaN
    with pytest.raises(ValueError, match="l1 weight"):
        BoxIndicator(np.zeros(1), np.ones(1), weight)


def test_weight_zero_prox_keeps_signed_zeros():
    # at weight 0 the prox is the clamp alone; soft_threshold(z, 0) would
    # give sign(-0.0) * 0.0 = +0.0
    reg = BoxIndicator.uniform(2, -1.0, 1.0)
    out = reg.prox(np.array([-0.0, 0.0]), 1.0)
    assert np.signbit(out[0]) and not np.signbit(out[1])
    assert not np.signbit(soft_threshold(np.array([-0.0]), 0.0)[0])


@pytest.mark.parametrize("make", [
    lambda: BoxIndicator.uniform(2, -1.0, 1.0),
    lambda: BoxIndicator(-np.ones(2), np.ones(2), 0.5),
], ids=["BoxIndicator", "BoxIndicator-weighted"])
def test_box_classes_compare_and_hash_by_identity(make):
    # generated __eq__ over array fields would raise "truth value of an
    # array ... is ambiguous", and a generated __hash__ would raise TypeError
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


@pytest.mark.parametrize("seed", range(6))
def test_box_proxes_match_the_projection_bytes_on_nonfinite_inputs(seed):
    # a box prox is the clamp onto its domain box, so its bytes must equal
    # the clamp's, NaN and infinite entries included
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
    box, l1 = BoxIndicator(lo, hi), BoxIndicator(lo, hi, w)

    def clamp(u):
        return np.minimum(np.maximum(u, lo), hi)

    assert box.prox(z, s).tobytes() == clamp(z).tobytes()
    assert l1.prox(z, s).tobytes() == \
        clamp(soft_threshold(z, s * w)).tobytes()
    for bad in (0.0, -s, np.nan):
        with pytest.raises(ValueError):
            box.prox(z, bad)
        with pytest.raises(ValueError):
            l1.prox(z, bad)


@pytest.mark.parametrize("seed", range(6))
def test_value_at_a_prox_output_skips_only_the_membership_scan(seed):
    # a prox output lies in the box, so h there needs no scan: the value
    # equals ``value``'s bit for bit, infinite entries on open faces
    # included, and only a NaN entry, which ``value`` reads as outside,
    # tells the two apart
    rng = np.random.default_rng(seed)
    n = 64
    lo = rng.normal(size=n) - 1.0
    hi = lo + rng.random(n) * 2.0
    lo[:3], hi[3:6] = -np.inf, np.inf
    z = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    z[rng.choice(n, size=8, replace=False)] = rng.choice([np.inf, -np.inf],
                                                         size=8)
    s = float(rng.random()) + 0.1
    for reg in (BoxIndicator(lo, hi), BoxIndicator(lo, hi,
                                                   float(rng.random()))):
        y = reg.prox(z, s)
        assert np.float64(reg.value_at_prox(y)).tobytes() == \
            np.float64(reg.value(y)).tobytes()
        z_nan = z.copy()
        z_nan[7] = np.nan
        y = reg.prox(z_nan, s)
        assert reg.value(y) == np.inf and reg.value_at_prox(y) != np.inf


def test_l1_plus_box_value():
    reg = BoxIndicator(-np.ones(2), np.ones(2), 0.5)
    assert reg.value(np.array([0.5, -0.5])) == pytest.approx(0.5)
    assert reg.value(np.array([2.0, 0.0])) == np.inf


def _l1_box_prox_grid(z, s, w, lo, hi):
    """Dense-grid oracle for the scalar l1-plus-interval prox."""
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
    reg = BoxIndicator(np.array([lo]), np.array([hi]), w)
    got = float(reg.prox(np.array([z]), s)[0])
    want = _l1_box_prox_grid(z, s, w, lo, hi)
    assert abs(got - want) <= (hi - lo) / 200_000 + 1e-12


# ---------------------------------------------------------------------------
# variational inequality: prox(z, s) beats every feasible point
# ---------------------------------------------------------------------------

def _regs(dim):
    return [BoxIndicator.uniform(dim, -1.0, 1.0),
            BoxIndicator(-np.ones(dim), np.ones(dim), 0.3)]


@given(st.integers(0, 1), st.integers(0, 10_000),
       st.floats(min_value=0.05, max_value=10.0, **finite))
@settings(max_examples=200, deadline=None)
def test_prox_variational_inequality(reg_idx, seed, s):
    rng = np.random.default_rng(seed)
    dim = 4
    reg = _regs(dim)[reg_idx]
    z = rng.normal(scale=2.0, size=dim)
    p = reg.prox(z, s)
    u = rng.uniform(-1.0, 1.0, size=dim)  # in dom h for both
    lhs = reg.value(p) + float((p - z) @ (p - z)) / (2.0 * s)
    rhs = reg.value(u) + float((u - z) @ (u - z)) / (2.0 * s)
    assert lhs <= rhs + 1e-10


def test_prox_and_projector_nonexpansive_on_1000_pairs():
    rng = np.random.default_rng(7)
    dim = 5
    regs = _regs(dim)
    for _ in range(1000):
        z1 = rng.normal(scale=3.0, size=dim)
        z2 = rng.normal(scale=3.0, size=dim)
        gap = np.linalg.norm(z1 - z2)
        s = float(rng.uniform(0.05, 5.0))
        for reg in regs:
            d = np.linalg.norm(reg.prox(z1, s) - reg.prox(z2, s))
            assert d <= gap * (1.0 + 1e-12) + 1e-15

