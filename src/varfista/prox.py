"""Proximal operators and the box-plus-l1 regularizer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

Array = np.ndarray


def soft_threshold(z: Array, t: float) -> Array:
    """Shrink each component of z toward zero by t, the prox of t*||.||_1."""
    if t < 0.0:
        raise ValueError("threshold must be non-negative")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def _clamp(u: Array, lo: Array, hi: Array) -> Array:
    # no lo <= hi check: the regularizer validates its bounds once, at
    # construction, and calls this on every use
    return np.minimum(np.maximum(u, lo), hi)


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class BoxIndicator:
    """h(u) = weight * ||u||_1 + indicator of the box [lo, hi].

    The bounds are 1-D float64 arrays of one shape with lo <= hi, so a NaN
    bound is rejected; an infinite one leaves its side of the box open.
    The weight is finite and non-negative, 0 by default.  The prox is
    exact: the objective separates per component, and on each component
    the clamp of the unconstrained soft-threshold minimizes the strictly
    convex 1-D function over the interval whether or not the interval
    contains 0.  At weight 0 the prox is the clamp alone, which keeps a
    signed zero that ``soft_threshold(z, 0)`` would turn into +0.0.
    """

    lo: Array
    hi: Array
    weight: float = 0.0

    def __post_init__(self):
        weight = float(self.weight)
        if not 0.0 <= weight < np.inf:
            raise ValueError(f"l1 weight must be finite and non-negative, "
                             f"not {weight}")
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal shape")
        if not np.all(lo <= hi):  # a NaN bound fails too
            raise ValueError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "weight", weight)

    @classmethod
    def uniform(cls, dimension: int, lo: float, hi: float) -> "BoxIndicator":
        return cls(np.full(dimension, float(lo)),
                   np.full(dimension, float(hi)))

    @property
    def domain_box(self) -> Tuple[Array, Array]:
        return self.lo, self.hi

    def value(self, u: Array) -> float:
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lo).all() and (u <= self.hi).all()
        return self.value_at_prox(u) if inside else np.inf

    def value_at_prox(self, y: Array) -> float:
        """h(y) at a point y that ``prox`` returned, with no membership scan.

        A clamp's output lies in the box, so h there is the weighted l1
        norm, and 0 at weight 0.  The one exception is an output that holds
        a NaN, which ``value`` reads as outside; here it gives NaN at a
        positive weight and 0 at weight 0.  ``solve`` relies on that
        exception being harmless: a trial point y with a NaN raises
        NumericalFailure in its own trial, through f(y) or else through U,
        whose squared distance ||y - x_tilde||^2 is NaN, so not within the
        guard, and whose quotient is NaN.  Before the raise, only the best
        point can have taken the NaN y, and a run that raises returns
        nothing.
        """
        if self.weight == 0.0:
            return 0.0
        return self.weight * float(np.sum(np.abs(y)))

    def prox(self, z: Array, s: float) -> Array:
        if not s > 0.0:
            raise ValueError("prox stepsize must be positive")
        if self.weight == 0.0:
            return _clamp(z, self.lo, self.hi)
        return _clamp(soft_threshold(z, s * self.weight), self.lo, self.hi)
