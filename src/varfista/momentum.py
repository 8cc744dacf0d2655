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

import numpy as np

from ._kernels import schedule_scan

A0_DEFAULT = 12.0

Array = np.ndarray


def advance(A: float):
    """One schedule step: returns (a, A_next) from the current weight sum A."""
    if A < 0.0:
        raise ValueError("accumulated weight A must be non-negative")
    a = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * A))
    return a, A + a


def extrapolate(A_prev: float, A_next: float, a: float, y_prev: Array,
                x_prev: Array) -> Array:
    """Momentum point (A_prev * y_prev + a * x_prev) / A_next."""
    if not A_next > 0.0:
        raise RuntimeError("schedule weight A_next must be positive")
    return (A_prev * y_prev + a * x_prev) / A_next


@dataclass(frozen=True)
class ScheduleBoundsReport:
    """Worst-case margins of the schedule growth bounds over k = 1..k_max.

    Each margin is (bound slack) at its worst k; all must be non-negative.
    ``max_rel_gap`` is the largest relative violation of A_k = a_{k-1}^2.
    """

    k_max: int
    A0: float
    lower_margin: float
    lower_argk: int
    upper_margin: float
    upper_argk: int
    sum_margin: float
    sum_argk: int
    ratio_margin: float
    ratio_argk: int
    max_rel_gap: float
    gap_argk: int
    a_last: float
    A_last: float
    identity_tol: float
    passed: bool


def check_schedule_bounds(k_max: int, A0: float = A0_DEFAULT,
                          identity_tol: float = 1e-9) -> ScheduleBoundsReport:
    """Scan the recursion and check every growth bound up to k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not A0 > 0.0:
        raise ValueError("A0 must be positive")
    (min_lo, k_lo, min_up, k_up, min_sum, k_sum, min_ratio, k_ratio,
     max_gap, k_gap, a_last, A_last) = schedule_scan(float(A0), int(k_max))
    passed = (min_lo >= 0.0 and min_up >= 0.0 and min_sum >= 0.0
              and min_ratio >= 0.0 and max_gap <= identity_tol)
    return ScheduleBoundsReport(
        k_max=int(k_max), A0=float(A0),
        lower_margin=float(min_lo), lower_argk=int(k_lo),
        upper_margin=float(min_up), upper_argk=int(k_up),
        sum_margin=float(min_sum), sum_argk=int(k_sum),
        ratio_margin=float(min_ratio), ratio_argk=int(k_ratio),
        max_rel_gap=float(max_gap), gap_argk=int(k_gap),
        a_last=float(a_last), A_last=float(A_last),
        identity_tol=float(identity_tol), passed=passed)
