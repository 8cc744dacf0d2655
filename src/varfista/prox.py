"""Proximal operators, projections, and the regularizers built from them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .problems import Projector

Array = np.ndarray


def soft_threshold(z: Array, t: float) -> Array:
    """Shrink each component of z toward zero by t, the prox of t*||.||_1."""
    if t < 0.0:
        raise ValueError("threshold must be non-negative")
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def clamp_box(u: Array, lo: Array, hi: Array) -> Array:
    """Project u componentwise onto [lo, hi]."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if np.any(lo > hi):
        raise ValueError("box has lo > hi")
    return _clamp(np.asarray(u, dtype=np.float64), lo, hi)


def _clamp(u: Array, lo: Array, hi: Array) -> Array:
    # no lo <= hi check: the box regularizers validate their bounds once, at
    # construction, and call this on every prox
    return np.minimum(np.maximum(u, lo), hi)


def project_ball(u: Array, center: Array, radius: float) -> Array:
    """Project u onto the Euclidean ball of given center and radius."""
    if radius < 0.0:
        raise ValueError("radius must be non-negative")
    u = np.asarray(u, dtype=np.float64)
    center = np.asarray(center, dtype=np.float64)
    d = u - center
    nd = np.linalg.norm(d)
    if nd <= radius:
        return u.copy()
    return center + (radius / nd) * d


@dataclass(frozen=True)
class BoxIndicator:
    """h(u) = indicator of the box [lo, hi]; prox is the clamp."""

    lo: Array
    hi: Array

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal shape")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def uniform(cls, dimension: int, lo: float, hi: float) -> "BoxIndicator":
        return cls(np.full(dimension, float(lo)), np.full(dimension, float(hi)))

    @property
    def domain_box(self) -> Tuple[Array, Array]:
        return self.lo, self.hi

    def value(self, u: Array) -> float:
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lo).all() and (u <= self.hi).all()
        return 0.0 if inside else np.inf

    def prox(self, z: Array, s: float) -> Array:
        if not s > 0.0:
            raise ValueError("prox stepsize must be positive")
        return _clamp(z, self.lo, self.hi)


@dataclass(frozen=True)
class L1PlusBox:
    """h(u) = weight * ||u||_1 + indicator of [lo, hi].

    The prox is exact: the objective separates per component, and on each
    component the clamp of the unconstrained soft-threshold minimizes the
    strictly convex 1-D function over the interval regardless of whether the
    interval contains 0.
    """

    weight: float
    lo: Array
    hi: Array

    def __post_init__(self):
        if self.weight < 0.0:
            raise ValueError("L1 weight must be non-negative")
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal shape")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def uniform(cls, dimension: int, weight: float, lo: float,
                hi: float) -> "L1PlusBox":
        return cls(float(weight), np.full(dimension, float(lo)),
                   np.full(dimension, float(hi)))

    @property
    def domain_box(self) -> Tuple[Array, Array]:
        return self.lo, self.hi

    def value(self, u: Array) -> float:
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= self.lo).all() and (u <= self.hi).all()
        if not inside:
            return np.inf
        return self.weight * float(np.sum(np.abs(u)))

    def prox(self, z: Array, s: float) -> Array:
        if not s > 0.0:
            raise ValueError("prox stepsize must be positive")
        return _clamp(soft_threshold(z, s * self.weight), self.lo, self.hi)


@dataclass(frozen=True)
class ZeroRegularizer:
    """h identically zero; prox is the identity.

    The domain is all of R^n; ``bound`` only sets the nominal working box
    reported to diameter-based diagnostics.
    """

    dimension: int
    bound: float = 1e8

    @property
    def domain_box(self) -> Tuple[Array, Array]:
        return (np.full(self.dimension, -self.bound),
                np.full(self.dimension, self.bound))

    def value(self, u: Array) -> float:
        return 0.0

    def prox(self, z: Array, s: float) -> Array:
        if not s > 0.0:
            raise ValueError("prox stepsize must be positive")
        return np.asarray(z, dtype=np.float64).copy()


def identity_projector() -> Projector:
    """Projector for Omega = R^n."""
    return Projector("identity", lambda u: np.asarray(u, dtype=np.float64))


def box_projector(lo: Array, hi: Array) -> Projector:
    """Projector for a box Omega."""
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return Projector("box", lambda u: clamp_box(u, lo, hi))


def ball_projector(center: Array, radius: float) -> Projector:
    """Projector for a Euclidean-ball Omega."""
    center = np.asarray(center, dtype=np.float64)
    radius = float(radius)
    return Projector("euclidean-ball",
                     lambda u: project_ball(u, center, radius))
