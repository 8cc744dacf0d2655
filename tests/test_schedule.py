"""Momentum schedule recursion and its growth guarantees."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varfista.momentum import (A0_DEFAULT, advance, check_schedule_bounds,
                               extrapolate)


def test_first_step_is_exact():
    # A0 = 12 makes the discriminant a perfect square: a = (1 + 7) / 2
    a, A = advance(12.0)
    assert a == 4.0
    assert A == 16.0


def test_advance_rejects_negative():
    with pytest.raises(ValueError):
        advance(-3.0)
    # zero is a legal seed: a = 1
    a, A = advance(0.0)
    assert a == 1.0 and A == 1.0


@given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False,
                 allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_advance_root_property(A_prev):
    # a solves a^2 - a - A_prev = 0, so A_new = A_prev + a = a^2
    a, A_new = advance(A_prev)
    assert a > 1.0
    assert abs(a * a - a - A_prev) <= 1e-9 * max(1.0, A_prev)
    assert A_new == A_prev + a


def test_extrapolate_hand_value():
    y = np.array([1.0, 0.0])
    x = np.array([0.0, 2.0])
    # (12 * y + 4 * x) / 16
    out = extrapolate(12.0, 16.0, 4.0, y, x)
    assert np.allclose(out, np.array([0.75, 0.5]))


def test_extrapolate_is_convex_combination():
    rng = np.random.default_rng(0)
    A = A0_DEFAULT
    for _ in range(50):
        y = rng.normal(size=3)
        x = rng.normal(size=3)
        a, A_new = advance(A)
        out = extrapolate(A, A_new, a, y, x)
        lo = np.minimum(y, x) - 1e-12
        hi = np.maximum(y, x) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)
        A = A_new


def test_growth_bounds_small_horizon_independent_recursion():
    # re-run the recursion in plain python and check the three bounds
    A = A0_DEFAULT
    sum_A = 0.0
    sum_a = 0.0
    for k in range(1, 2001):
        a, A = advance(A)
        sum_A += A
        sum_a += a
        assert 0.5 * k <= a <= 4.0 * k
        assert sum_A >= k ** 3 / 12.0
        assert sum_a / sum_A <= 4.0 / k
        assert abs(a * a - A) <= 1e-9 * A


def test_check_schedule_bounds_report():
    rep = check_schedule_bounds(10_000)
    assert rep.passed
    assert rep.lower_margin >= 0.0
    assert rep.upper_margin >= 0.0
    assert rep.sum_margin >= 0.0
    assert rep.ratio_margin >= 0.0
    assert rep.max_rel_gap <= 1e-9


def _schedule_loop_reference(A0, k_max):
    """The schedule check as one sequential loop, margin by margin.

    Returns the report's fields from ``lower_margin`` to ``max_rel_gap``.
    """
    A = A0
    sum_A = 0.0
    sum_a = 0.0
    worst = [math.inf] * 4
    max_gap = 0.0
    for k in range(1, k_max + 1):
        a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * A))
        A_next = A + a
        sum_A += A_next
        sum_a += a
        for j, m in enumerate((a - 0.5 * k, 4.0 * k - a,
                               sum_A - (k * k * k) / 12.0,
                               4.0 / k - sum_a / sum_A)):
            worst[j] = min(worst[j], m)
        max_gap = max(max_gap, abs(A_next - a * a) / A_next)
        A = A_next
    return tuple(worst) + (max_gap,)


def _bits(value):
    return np.asarray(value).tobytes()


def test_check_schedule_bounds_matches_loop_reference():
    # every report field, bit for bit and type for type
    for k_max in (1, 7, 2000):
        rep = dataclasses.astuple(check_schedule_bounds(k_max))
        want = _schedule_loop_reference(A0_DEFAULT, k_max)
        assert [_bits(v) for v in rep[:-1]] == [_bits(v) for v in want]
        assert [type(v) for v in rep[:-1]] == [type(v) for v in want]
        assert rep[-1] is True


def test_check_schedule_bounds_rejects_bad_args():
    with pytest.raises(ValueError):
        check_schedule_bounds(0)
    with pytest.raises(ValueError):  # k^3 would leave int64's exact range
        check_schedule_bounds(2_000_001)


def test_schedule_monotone_growth():
    A = A0_DEFAULT
    prev_a = 0.0
    for _ in range(500):
        a, A = advance(A)
        assert a > prev_a
        prev_a = a
