"""Accumulation-weight schedule that drives the extrapolation step.

The recursion a = (1 + sqrt(1 + 4A))/2, A_next = A + a makes a the positive
root of a^2 - a - A = 0, so A_next = a^2 holds identically and the weights
grow quadratically.  Seeding A at 12 keeps the first weight at exactly 4 and
gives the clean growth envelope k/2 <= a_{k-1} <= 4k that the complexity
accounting leans on; ``check_schedule_bounds`` scans that envelope directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

A0_DEFAULT = 12.0
_IDENTITY_TOL = 1e-9  # relative gap allowed in A_k = a_{k-1}^2

Array = np.ndarray


def advance(A: float):
    """One schedule step: returns (a, A_next) from the current weight sum A."""
    if A < 0.0:
        raise ValueError("accumulated weight A must be non-negative")
    a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * A))
    return a, A + a


def schedule(count: int):
    """Arrays of a_1, a_2, ... and A_1, A_2, ...: ``count`` steps of
    ``advance`` from A0_DEFAULT, bit for bit the values a run uses."""
    a = np.empty(count)
    A_next = np.empty(count)
    A = A0_DEFAULT
    for i in range(count):
        a[i], A = advance(A)
        A_next[i] = A
    return a, A_next


def extrapolate(A_prev: float, A_next: float, a: float, y_prev: Array,
                x_prev: Array) -> Array:
    """Momentum point (A_prev * y_prev + a * x_prev) / A_next."""
    if not A_next > 0.0:
        raise RuntimeError("schedule weight A_next must be positive")
    return (A_prev * y_prev + a * x_prev) / A_next


def momentum_weights(A_prev: float, A_next: float, a: float, c1: float,
                     c2: float) -> Tuple[float, float]:
    """(p, q) with ``extrapolate``'s momentum point equal to
    p y_prev - q y_prev2 in exact arithmetic, when x_prev = c1 y_prev -
    c2 y_prev2 (c1, c2 the anchor weights of ``solver.anchor_weights``):
    p = (A_prev + a c1) / A_next and q = a c2 / A_next."""
    return (A_prev + a * c1) / A_next, a * c2 / A_next


@dataclass(frozen=True)
class ScheduleBoundsReport:
    """Worst-case margins of the schedule growth bounds over k = 1..k_max.

    Each margin is (bound slack) at its worst k; all must be non-negative.
    ``max_rel_gap`` is the largest relative violation of A_k = a_{k-1}^2.
    """

    lower_margin: float
    upper_margin: float
    sum_margin: float
    ratio_margin: float
    max_rel_gap: float
    passed: bool


def check_schedule_bounds(k_max: int) -> ScheduleBoundsReport:
    """Scan the recursion from A0_DEFAULT and check every bound to k_max.

    The bounds are  k/2 <= a_{k-1} <= 4k,  sum_{i<=k} A_i >= k^3/12  and
    (sum_{i<=k} a_{i-1}) / (sum_{i<=k} A_i) <= 4/k, plus the identity
    A_k = a_{k-1}^2 up to a relative gap of 1e-9.  k_max is at most
    2_000_000, so that k^3 stays exact in int64.
    """
    if not 1 <= k_max <= 2_000_000:
        raise ValueError("k_max must lie in [1, 2_000_000]")
    k_max = int(k_max)
    a, A_next = schedule(k_max)
    k = np.arange(1, k_max + 1)
    sum_A = np.cumsum(A_next)  # cumsum adds in order, as a running sum does

    def worst(margin):  # the smallest margin
        return float(margin[np.argmin(margin)])

    lower = worst(a - 0.5 * k)
    upper = worst(4.0 * k - a)
    total = worst(sum_A - (k * k * k) / 12.0)
    ratio = worst(4.0 / k - np.cumsum(a) / sum_A)
    max_gap = float((np.abs(A_next - a * a) / A_next).max())
    passed = (lower >= 0.0 and upper >= 0.0 and total >= 0.0
              and ratio >= 0.0 and max_gap <= _IDENTITY_TOL)
    return ScheduleBoundsReport(
        lower_margin=lower, upper_margin=upper, sum_margin=total,
        ratio_margin=ratio, max_rel_gap=max_gap, passed=passed)
