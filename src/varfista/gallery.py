"""Seeded quadratic test instances, exact low-dimensional oracles, files.

``generate_qp`` builds box-constrained quadratics with a prescribed spectrum:
the diagonal of chosen eigenvalues is conjugated by a product of random
Householder reflections, so the curvature constants reported for auditing
are exact by construction rather than estimated.  ``active_set_stationary``
and ``global_min_phi`` are the independent oracles (dimension at most 6)
that the test suite checks solver output against: an enumeration of the
active sets of a quadratic plus a ``BoxIndicator`` (an l1 term of any
weight plus a box), whose candidates are
accepted by the stationarity kernel ``_kernels._interval_dist``, and the
least phi over the points it returns.
"""

from __future__ import annotations

import binascii
import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .problems import (Array, CompositeProblem, OraclePoint,
                       _check_audit_constants, phi)
from .prox import BoxIndicator

__all__ = [
    "QuadraticSpec", "QuadraticOracle", "generate_qp", "make_qp_problem",
    "active_set_stationary", "global_min_phi",
    "save_instance", "load_instance", "default_start",
]


@dataclass(frozen=True)
class QuadraticSpec:
    """Generation recipe for a box-constrained quadratic instance.

    ``eig_lo``, ``eig_hi`` and ``c_scale`` must be finite and ``seed``
    non-negative, as ``np.random.default_rng`` takes it; a ValueError names
    the first field that is not.
    """

    n: int
    eig_lo: float
    eig_hi: float
    c_scale: float = 1.0
    box: Tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        for name in ("eig_lo", "eig_hi", "c_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not "
                                 f"{getattr(self, name)}")
        if self.eig_hi < self.eig_lo:
            raise ValueError("eig_hi must be >= eig_lo")
        if not self.box[1] > self.box[0]:
            raise ValueError("box must satisfy hi > lo")
        _check_seed(self.seed)


def _check_seed(seed: int) -> None:
    """ValueError, naming the seed, for a seed ``default_rng`` refuses."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, not {seed}")


# elements of Q (1 MB, half a core's 2 MB L2 cache) applied in one BLAS
# call; a larger Q is applied a block of rows of at most this size at a time
_Q_BLOCK = 131072


class QuadraticOracle:
    """Smooth oracle f(u) = 0.5 u'Qu + c'u with its structure exposed.

    Exposing Q and c lets the exact oracles solve for stationary points
    instead of going through the scalar callables.

    The solvers evaluate it through its records (see ``SmoothOracle``).
    ``point(u)`` makes one product with Q, and its ``OraclePoint`` keeps
    that product as its private part, so f and grad f at one point share
    it: ``gradient`` adds c to it.  ``combine(u, p, first, q, second)``
    forms Q u = p Q first.u - q Q second.u from the two records' products
    with no product of its own; ``solve`` and ``run_fista_constant`` so
    form the momentum point's record from those of the last two accepted
    trial points, and a run makes one product with Q at y0 and one per
    trial.  The combined Q u differs from a fresh product by roundoff, and
    f of any record is formed from its Q u as ``value`` forms it, so the
    f of a ``point`` equals ``value(u)`` bit for bit.  ``value`` and
    ``grad`` make a fresh product on every call; the oracle holds no state
    between calls.

    Every product with Q, of one point or of the rows of a 2-D ``u``, is
    made by ``_products``.  A Q of at most ``_Q_BLOCK`` elements (1 MB,
    n <= 362) takes one BLAS call.  A larger Q is cut into blocks of
    ``step`` rows, the largest multiple of 8 whose block fits the budget
    (128 at n = 1000), plus a tail block of the last n mod step rows; the
    blocks are views of Q, which is stored C-contiguous, so no copy of it
    is made.  One point takes one stacked call over the blocks and one for
    the tail; rows take one call in which each block meets every row while
    it is in cache, so a row block of f(y_k) in the audit reads Q once,
    not once per row.  Both paths block alike: each then makes the same
    gemv on the same block for every vector, so a row's product equals the
    one-point product bit for bit.  Blocking only the rows would not: at
    n = 1001 a blocked product can differ in its last bits from one call
    over all of Q.

    ``value_scale`` is s(u) = 0.5 ||Q||_inf ||u||^2 + ||c||_2 ||u||_2, which
    bounds |f(u)| and the magnitude of both of its terms; where they cancel,
    the rounding error of f(u) scales with s(u), not with |f(u)|.
    """

    def __init__(self, Q: Array, c: Array,
                 audit_lipschitz: Optional[float] = None,
                 audit_curvature: Optional[float] = None):
        Q = np.ascontiguousarray(Q, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != (Q.shape[0],):
            raise ValueError("Q must be square and c must match its size")
        for name, a in (("Q", Q), ("c", c)):
            if not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite")
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ValueError("Q must be symmetric")
        self.Q = Q
        self.c = c
        if audit_lipschitz is None or audit_curvature is None:
            eigs = np.linalg.eigvalsh(Q)
            if audit_lipschitz is None:
                audit_lipschitz = float(np.max(np.abs(eigs)))
            if audit_curvature is None:
                audit_curvature = float(max(0.0, -np.min(eigs)))
        self.audit_lipschitz = audit_lipschitz
        self.audit_curvature = audit_curvature
        _check_audit_constants(self)

    def _products(self, u: Array) -> Array:
        """Q @ u of one point, or of each row of a 2-D ``u``, in the shape
        of ``u``, bit for bit alike; blocked as the class describes."""
        Q = self.Q
        n = Q.shape[0]
        if n * n <= _Q_BLOCK:
            if u.ndim == 1:
                return Q @ u
            return np.matmul(Q, u[:, :, None])[:, :, 0]
        step = max(8, _Q_BLOCK // n // 8 * 8)
        nb = n // step
        m = nb * step
        blocks, tail = Q[:m].reshape(nb, step, n), Q[m:]
        out = np.empty(u.shape)
        if u.ndim == 1:
            np.matmul(blocks, u, out=out[:m].reshape(nb, step))
            np.matmul(tail, u, out=out[m:])
        else:  # block b against every row, then block b + 1
            head = np.matmul(blocks[:, None], u[None, :, :, None])
            out[:, :m] = head.transpose(1, 0, 2, 3).reshape(len(u), m)
            np.matmul(tail, u[:, :, None], out=out[:, m:, None])
        return out

    def _record(self, u: Array, Qu: Array) -> OraclePoint:
        """The record of u with Q u = ``Qu``: f(u) from one dot product
        with ``Qu`` and one with c."""
        return OraclePoint(u, float(0.5 * (u @ Qu) + self.c @ u), Qu)

    def point(self, u: Array) -> OraclePoint:
        """The record of one point u, from one product with Q."""
        return self._record(u, self._products(u))

    def combine(self, u: Array, p: float, first: OraclePoint, q: float,
                second: OraclePoint) -> OraclePoint:
        """The record of u = p first.u - q second.u (in exact arithmetic),
        with Q u = p Q first.u - q Q second.u from the records' products:
        no product with Q.  ``u`` keeps the caller's bits."""
        return self._record(u, p * first.part - q * second.part)

    def gradient(self, point: OraclePoint) -> Array:
        return point.part + self.c

    def value(self, u: Array):
        """f(u) of one point, or of each row of a 2-D ``u``, bit for bit
        alike: per row one product with Q and two dot products."""
        if u.ndim == 1:
            return self.point(u).f
        col = u[:, :, None]
        Qu = self._products(u)[:, :, None]
        uQu = np.matmul(u[:, None, :], Qu)[:, 0, 0]
        return 0.5 * uQu + np.matmul(self.c, col)[:, 0]

    def grad(self, u: Array) -> Array:
        return self._products(u) + self.c

    @cached_property
    def _scale_coefficients(self) -> Tuple[float, float]:
        """(0.5 ||Q||_inf, ||c||_2) for ``value_scale``, on first use.
        ||Q||_inf is the largest absolute row sum, taken a block of rows at
        a time so that no n x n temporary is made."""
        n = self.Q.shape[0]
        q_inf = max(float(np.abs(self.Q[a:b]).sum(axis=1).max())
                    for a, b in _kernels.row_blocks(n, n))
        return 0.5 * q_inf, float(np.linalg.norm(self.c))

    def value_scale(self, u: Array, f_u):
        """s(u) of one point, or of each row of a 2-D ``u``, bit for bit
        alike: a row's ||u||^2 is one dot product either way."""
        half_q_inf, c_norm = self._scale_coefficients
        if u.ndim == 1:
            uu = float(u @ u)
            return half_q_inf * uu + c_norm * math.sqrt(uu)
        uu = np.matmul(u[:, None, :], u[:, :, None])[:, 0, 0]
        return half_q_inf * uu + c_norm * np.sqrt(uu)


def generate_qp(spec: QuadraticSpec) -> CompositeProblem:
    """Instantiate the recipe; deterministic in the seed."""
    rng = np.random.default_rng(spec.seed)
    eigs = np.linspace(spec.eig_lo, spec.eig_hi, spec.n)
    M = np.diag(eigs)
    for _ in range(3):
        v = rng.standard_normal(spec.n)
        v /= np.linalg.norm(v)
        M = M - 2.0 * np.outer(v, v @ M)
        M = M - 2.0 * np.outer(M @ v, v)
    Q = 0.5 * (M + M.T)
    c = spec.c_scale * rng.standard_normal(spec.n)
    oracle = QuadraticOracle(
        Q, c,
        audit_lipschitz=float(np.max(np.abs(eigs))),
        audit_curvature=float(max(0.0, -np.min(eigs))))
    lo, hi = spec.box
    return CompositeProblem(oracle, BoxIndicator.uniform(spec.n, lo, hi))


def make_qp_problem(Q: Array, c: Array, lo: Array, hi: Array,
                    l1_weight: float = 0.0,
                    audit_lipschitz: Optional[float] = None,
                    audit_curvature: Optional[float] = None
                    ) -> CompositeProblem:
    """Box QP plus l1_weight ||u||_1 from explicit data (tests, file
    loading).

    Audit constants left as None are computed from the spectrum of Q.  A
    non-finite entry of Q or c, or a negative or non-finite audit constant
    or l1 weight, raises ValueError naming it.
    """
    oracle = QuadraticOracle(Q, c, audit_lipschitz, audit_curvature)
    reg = BoxIndicator(lo, hi, l1_weight)
    if reg.lo.shape != oracle.c.shape:
        raise ValueError("box bounds must match the size of c")
    return CompositeProblem(oracle, reg)


def default_start(problem: CompositeProblem,
                  seed: Optional[int] = None) -> Array:
    """Feasible start in the domain box: its midpoint, or lo + r (hi - lo)
    with r drawn by ``np.random.default_rng(seed)`` when a seed is given.

    A coordinate whose box midpoint or width is not finite (an infinite
    bound, or a width that overflows) starts at clip(0, lo, hi) instead.
    A negative seed raises ValueError naming it.
    """
    if seed is not None:
        _check_seed(seed)
    lo, hi = problem.regularizer.domain_box
    with np.errstate(invalid="ignore", over="ignore"):
        mid, width = 0.5 * (lo + hi), hi - lo
        start = mid if seed is None else \
            lo + np.random.default_rng(seed).random(problem.dimension) * width
    return np.where(np.isfinite(mid) & np.isfinite(width), start,
                    np.clip(0.0, lo, hi))


def _box_qp_parts(problem: CompositeProblem, use: str):
    """(oracle, regularizer) of a quadratic plus a ``BoxIndicator``.

    Raises TypeError, naming ``use``, for any other smooth term.
    """
    if not isinstance(problem.smooth, QuadraticOracle):
        raise TypeError(f"{use} need a QuadraticOracle")
    return problem.smooth, problem.regularizer


def active_set_stationary(problem: CompositeProblem) -> List[Array]:
    """Exact stationary points of a quadratic plus a ``BoxIndicator``,
    n <= 6.

    A brute-force enumeration of active sets: each coordinate sits at lo,
    at hi or (when the l1 weight w > 0) at the kink 0, or it is free with a
    sign sigma (+-1 when w > 0, else 0).  A free block F solves
    Q_FF u_F = -(c_F + Q_FA u_A + w sigma_F) by ``lstsq``, which also takes
    a singular block.  A candidate inside the box is kept when the kernel
    ``_kernels._interval_dist``, the distance from -grad f(u) to the
    subdifferential of h at u, has norm at most
    16 eps sqrt(n) (||Q||_inf ||u||_inf + ||c||_inf + w).  Each coordinate
    of that residual sums at most n + 2 terms, each bounded by the bracket,
    so evaluating it rounds by at most (n + 2) eps times the bracket, and
    the lstsq solve (backward stable, singular values under n eps of the
    largest dropped) leaves a residual of about n eps times it more: the
    constant 16 covers 2n + 2 for n <= 6, the dimensions whose 5^n patterns
    the enumeration can afford; larger n raises ValueError.  Points within
    1e-9 of a kept one are dropped.
    """
    smooth, reg = _box_qp_parts(problem, "active-set oracles")
    w = reg.weight
    n = problem.dimension
    if n > 6:
        raise ValueError("the active-set enumeration supports dimension "
                         "<= 6 only")
    Q, c = smooth.Q, smooth.c
    lo, hi = reg.domain_box
    size_q, size_c = np.abs(Q).sum(axis=1).max(), np.abs(c).max()
    tol = 16.0 * np.finfo(float).eps * math.sqrt(n)
    # per coordinate, (fixed value, sign) pairs; a NaN value marks it free
    kinks, signs = ((0.0,), (-1.0, 1.0)) if w > 0.0 else ((), (0.0,))
    options = []
    for l, h in zip(lo.tolist(), hi.tolist()):
        fixed = [v for v in dict.fromkeys((l, h) + kinks)
                 if math.isfinite(v) and l <= v <= h]
        options.append([(v, 0.0) for v in fixed]
                       + [(math.nan, s) for s in signs])
    sols: List[Array] = []
    for pattern in itertools.product(*options):
        u, sigma = np.array(pattern).T
        free = np.isnan(u)
        if free.any():
            act = ~free
            rhs = -(c[free] + Q[np.ix_(free, act)] @ u[act] + w * sigma[free])
            u[free] = np.linalg.lstsq(Q[np.ix_(free, free)], rhs,
                                      rcond=None)[0]
        if not np.all((lo <= u) & (u <= hi)):
            continue
        resid = _kernels._interval_dist(-(Q @ u + c), u, lo, hi, w)
        if np.linalg.norm(resid) > tol * (size_q * np.abs(u).max()
                                          + size_c + w):
            continue
        if all(np.linalg.norm(u - s) > 1e-9 for s in sols):
            sols.append(u)
    return sols


def global_min_phi(problem: CompositeProblem) -> Tuple[Array, float]:
    """(u, phi(u)) at the first of the ``active_set_stationary`` points
    with the least phi: the global minimum of phi over a bounded box.

    phi is continuous on the compact box, so it attains its minimum, and a
    minimizer is stationary.  Take a minimizer u* with the fewest free
    coordinates; its pattern's lstsq point u' solves the same free system.
    On that face phi is a quadratic in u_F whose gradient vanishes on the
    solution set, so phi is constant there, along the segment from u* to
    u'.  Had the segment left the face (a coordinate reaching a bound or
    0), the exit point would be a minimizer with fewer free coordinates;
    so u' lies in the face, is a minimizer, is stationary, and is kept.
    Raises ValueError for a box with an infinite bound.
    """
    lo, hi = problem.regularizer.domain_box
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("global_min_phi needs a bounded box")
    return min(((u, phi(problem, u)) for u in active_set_stationary(problem)),
               key=operator.itemgetter(1))


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def save_instance(problem: CompositeProblem, path: str,
                  seed: Optional[int] = None) -> None:
    """Write a quadratic plus a ``BoxIndicator`` as a self-describing JSON
    instance document; other smooth terms raise TypeError.

    Each array field (``Q``, ``c``, ``box_lo``, ``box_hi``) is one base64
    string of the array's little-endian float64 (``<f8``) bytes in C order,
    so the round trip through ``load_instance`` is bit-exact, signed zeros,
    subnormals and infinite box bounds included.  ``seed`` must be an integer
    (numpy integers are stored as ``int``).  The document is serialized
    before the file is opened, so a failure writes nothing."""
    smooth, reg = _box_qp_parts(problem, "instance files")
    lo, hi = reg.domain_box
    doc = {
        "format": "varfista-qp-instance",
        "n": problem.dimension,
        "Q": _encode_array(smooth.Q),
        "c": _encode_array(smooth.c),
        "box_lo": _encode_array(lo),
        "box_hi": _encode_array(hi),
        "l1_weight": float(reg.weight),
        "lipschitz": float(smooth.audit_lipschitz),
        "curvature": float(smooth.audit_curvature),
        "seed": None if seed is None else operator.index(seed),
    }
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_instance(path: str) -> CompositeProblem:
    """Read an instance document written by save_instance.

    Array fields are base64 strings of ``<f8`` bytes in C order, read back
    bit for bit; a plain JSON list of numbers (the form of older files) is
    read too.  A malformed document (a non-finite ``Q`` or ``c`` entry, a
    NaN box bound, a negative or non-finite ``l1_weight``, ``lipschitz`` or
    ``curvature``, and a boolean or a string in a list included) raises
    ValueError naming path and field."""
    with open(path) as fh:
        doc = json.load(fh)
    return _problem_from_document(doc, path)


_REQUIRED_FIELDS = ("n", "Q", "c", "box_lo", "box_hi", "lipschitz",
                    "curvature")


def _encode_array(a: Array) -> str:
    """base64 of the little-endian float64 bytes of ``a``, in C order."""
    raw = np.asarray(a, dtype="<f8").tobytes(order="C")
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _decode_array(doc: dict, key: str, size: int, path: str) -> Array:
    """Field ``key`` as a flat float64 array of ``size`` entries.

    A base64 string is viewed in place (``np.frombuffer``, read-only, no
    copy).  ``binascii`` drops characters outside the base64 alphabet, so
    the string's own length is checked too: with both lengths right, no
    character was dropped or added."""
    value = doc[key]
    if isinstance(value, str):
        nbytes = 8 * size
        try:
            raw = binascii.a2b_base64(value)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise ValueError(f"{path}: field {key!r} is not valid base64 "
                             f"({exc})") from None
        if len(raw) != nbytes or len(value) != 4 * -(-nbytes // 3):
            raise ValueError(f"{path}: field {key!r} is not the base64 of "
                             f"{size} float64 entries")
        return np.frombuffer(raw, dtype="<f8")
    if not isinstance(value, list) or any(isinstance(v, (bool, str))
                                          for v in value):
        raise ValueError(f"{path}: field {key!r} must be a base64 string "
                         "or a list of numbers")
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: field {key!r} is not a flat list of "
                         "numbers") from None
    if arr.shape != (size,):
        raise ValueError(f"{path}: field {key!r} must be a flat list of "
                         f"{size} numbers, not of shape {arr.shape}")
    return arr


def _number(doc: dict, key: str, path: str, default=None) -> float:
    """Field ``key`` (or ``default`` when absent) as a float; a finite,
    non-negative JSON number is required."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: field {key!r} must be a number")
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{path}: field {key!r} must be finite and "
                         f"non-negative, not {float(value)}")
    return float(value)


def _problem_from_document(doc: dict, path: str) -> CompositeProblem:
    """The problem a parsed instance document describes (path for errors)."""
    if (not isinstance(doc, dict)
            or doc.get("format") != "varfista-qp-instance"):
        raise ValueError(f"{path}: not a recognized instance document")
    for key in _REQUIRED_FIELDS:
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"{path}: field 'n' must be a positive integer")
    Q = _decode_array(doc, "Q", n * n, path).reshape(n, n)
    c = _decode_array(doc, "c", n, path)
    lo = _decode_array(doc, "box_lo", n, path)
    hi = _decode_array(doc, "box_hi", n, path)
    # Q and c must be finite; a box bound may be infinite, but not NaN
    for key, a, bad in (("Q", Q, ~np.isfinite(Q)), ("c", c, ~np.isfinite(c)),
                        ("box_lo", lo, np.isnan(lo)),
                        ("box_hi", hi, np.isnan(hi))):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"{path}: field {key!r} has a non-finite entry "
                             f"({a.flat[i]}) at index {i}")
    # keep the stored audit constants (they may be analytic, not recomputed)
    return make_qp_problem(
        Q, c, lo, hi, l1_weight=_number(doc, "l1_weight", path, 0.0),
        audit_lipschitz=_number(doc, "lipschitz", path),
        audit_curvature=_number(doc, "curvature", path))
