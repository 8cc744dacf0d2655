"""Seeded quadratic test instances and exhaustive low-dimensional oracles.

``generate_qp`` builds box-constrained quadratics with a prescribed spectrum:
the diagonal of chosen eigenvalues is conjugated by a product of random
Householder reflections, so the curvature constants reported for auditing
are exact by construction rather than estimated.  ``brute_force_stationary``
and ``global_min_phi`` are the independent dense-grid oracles (dimension at
most 2) that the test suite checks solver output against.  Both call one
kernel each, ``_kernels.qp_stationary_scan`` and ``_kernels.qp_grid_argmin``,
which evaluate the quadratic over ``_kernels.grid_blocks``; a zero-width
box coordinate is the single grid point lo.  For pure box instances the
stationary-point oracle additionally enumerates all 3^n active-set sign
patterns, which is exact up to linear-solve precision.
"""

from __future__ import annotations

import binascii
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from . import _kernels
from .problems import Array, CompositeProblem
from .prox import BoxIndicator, L1PlusBox, Projector

__all__ = [
    "QuadraticSpec", "QuadraticOracle", "generate_qp", "make_qp_problem",
    "brute_force_stationary", "active_set_stationary", "global_min_phi",
    "save_instance", "load_instance", "default_start",
]


@dataclass(frozen=True)
class QuadraticSpec:
    """Generation recipe for a box-constrained quadratic instance."""

    n: int
    eig_lo: float
    eig_hi: float
    c_scale: float = 1.0
    box: Tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if self.eig_hi < self.eig_lo:
            raise ValueError("eig_hi must be >= eig_lo")
        if not self.box[1] > self.box[0]:
            raise ValueError("box must satisfy hi > lo")


class QuadraticOracle:
    """Smooth oracle f(u) = 0.5 u'Qu + c'u with its structure exposed.

    Exposing Q and c lets the dense-grid oracles evaluate millions of grid
    points without going through the scalar callables.

    ``value`` and ``grad`` share a one-slot memo of the product Q @ u: a
    call reuses the stored product when ``u`` is the very array object of
    the previous call and its bytes are unchanged, and computes it afresh
    otherwise.  A reused product therefore comes from the same memory as a
    fresh one and equals it bit for bit, and a caller that mutates ``u`` in
    place gets a fresh product.  So ``solve``, which asks for f and grad f
    at the same momentum point and for grad f at the accepted trial point
    it just evaluated, makes one product with Q per evaluated point.  The
    memo is unguarded state: do not share one oracle across threads.

    ``value_scale`` is s(u) = 0.5 ||Q||_inf ||u||^2 + ||c||_2 ||u||_2, which
    bounds |f(u)| and the magnitude of both of its terms; where they cancel,
    the rounding error of f(u) scales with s(u), not with |f(u)|.
    """

    def __init__(self, Q: Array, c: Array,
                 audit_lipschitz: Optional[float] = None,
                 audit_curvature: Optional[float] = None):
        Q = np.asarray(Q, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or c.shape != (Q.shape[0],):
            raise ValueError("Q must be square and c must match its size")
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
        self._memo_u: Optional[Array] = None
        self._memo_bytes = b""
        self._memo_Qu: Optional[Array] = None

    def _Qu(self, u: Array) -> Array:
        """Q @ u, reused when u is the previous call's array, unmutated."""
        if u is self._memo_u and u.tobytes() == self._memo_bytes:
            return self._memo_Qu
        Qu = self.Q @ u
        self._memo_u, self._memo_bytes, self._memo_Qu = u, u.tobytes(), Qu
        return Qu

    def value(self, u: Array):
        """f(u) of one point, or of each row of a 2-D ``u`` without the
        memo, bit for bit alike: per row one gemv and two dot products."""
        if u.ndim == 1:
            return float(0.5 * (u @ self._Qu(u)) + self.c @ u)
        col = u[:, :, None]
        uQu = np.matmul(u[:, None, :], np.matmul(self.Q, col))[:, 0, 0]
        return 0.5 * uQu + np.matmul(self.c, col)[:, 0]

    def grad(self, u: Array) -> Array:
        return self._Qu(u) + self.c

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
    reg = BoxIndicator.uniform(spec.n, lo, hi)
    return CompositeProblem(oracle, reg, Projector(), spec.n)


def make_qp_problem(Q: Array, c: Array, lo: Array, hi: Array,
                    l1_weight: float = 0.0,
                    audit_lipschitz: Optional[float] = None,
                    audit_curvature: Optional[float] = None
                    ) -> CompositeProblem:
    """Box QP over Omega = R^n from explicit data (tests, file loading).

    Audit constants left as None are computed from the spectrum of Q.
    """
    Q = np.asarray(Q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    oracle = QuadraticOracle(Q, c, audit_lipschitz, audit_curvature)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if l1_weight > 0.0:
        reg = L1PlusBox(float(l1_weight), lo, hi)
    else:
        reg = BoxIndicator(lo, hi)
    return CompositeProblem(oracle, reg, Projector(), n)


def default_start(problem: CompositeProblem) -> Array:
    """Deterministic feasible start: the domain-box midpoint."""
    lo, hi = problem.regularizer.domain_box
    return 0.5 * (lo + hi)


def _box_qp_parts(problem: CompositeProblem, use: str):
    """(oracle, regularizer, l1 weight) of a box or L1-plus-box quadratic.

    Raises TypeError, naming ``use``, for any other problem.
    """
    if not isinstance(problem.smooth, QuadraticOracle):
        raise TypeError(f"{use} need a QuadraticOracle")
    reg = problem.regularizer
    if isinstance(reg, L1PlusBox):
        return problem.smooth, reg, reg.weight
    if isinstance(reg, BoxIndicator):
        return problem.smooth, reg, 0.0
    raise TypeError(f"{use} need a box or L1-plus-box regularizer")


def _require_grid_problem(problem: CompositeProblem):
    if problem.dimension > 2:
        raise ValueError("dense-grid oracles support dimension <= 2 only")
    return _box_qp_parts(problem, "dense-grid oracles")


_SCAN_CAP = 6_000_000


def brute_force_stationary(problem: CompositeProblem,
                           grid_resolution: float = 1e-4) -> List[Array]:
    """Every grid point whose exact stationarity residual is grid-small.

    The residual at u is the Euclidean distance from -grad f(u) to the
    closed-form subdifferential of h at u; points pass when it is below
    (lipschitz + 1) * resolution * sqrt(n).  For pure box instances the
    exact active-set enumeration solutions are appended as well.
    """
    smooth, reg, wl1 = _require_grid_problem(problem)
    lo, hi = reg.domain_box
    tol = (smooth.audit_lipschitz + 1.0) * grid_resolution * math.sqrt(
        problem.dimension)
    pts: List[Array] = list(_kernels.qp_stationary_scan(
        smooth.Q, smooth.c, wl1, lo, hi, grid_resolution, tol, _SCAN_CAP))
    if wl1 == 0.0:
        pts.extend(active_set_stationary(problem))
    return pts


def active_set_stationary(problem: CompositeProblem) -> List[Array]:
    """Exact stationary points of a box-constrained quadratic.

    Enumerates all 3^n patterns assigning each coordinate to its lower bound,
    its upper bound, or the free set; solves the free block and keeps
    solutions that are primal feasible with a consistent gradient sign on
    the active coordinates.
    """
    if not isinstance(problem.smooth, QuadraticOracle):
        raise TypeError("active-set enumeration needs a QuadraticOracle")
    if not isinstance(problem.regularizer, BoxIndicator):
        raise TypeError("active-set enumeration needs a pure box regularizer")
    Q = problem.smooth.Q
    c = problem.smooth.c
    lo, hi = problem.regularizer.domain_box
    n = problem.dimension
    tol = 1e-10
    sols: List[Array] = []
    for code in range(3 ** n):
        pattern = []
        z = code
        for _ in range(n):
            pattern.append(z % 3)  # 0: at lo, 1: free, 2: at hi
            z //= 3
        free = [i for i, p in enumerate(pattern) if p == 1]
        u = np.where(np.array(pattern) == 0, lo, hi).astype(np.float64)
        if free:
            F = np.array(free)
            act = np.array([i for i in range(n) if i not in free], dtype=int)
            rhs = -(c[F] + (Q[np.ix_(F, act)] @ u[act] if act.size else 0.0))
            QFF = Q[np.ix_(F, F)]
            try:
                uf = np.linalg.solve(QFF, rhs)
            except np.linalg.LinAlgError:
                uf, *_ = np.linalg.lstsq(QFF, rhs, rcond=None)
            if np.linalg.norm(QFF @ uf - rhs) > tol * (1.0 + np.abs(rhs).max()):
                continue
            u[F] = uf
            if np.any(uf < lo[F] - tol) or np.any(uf > hi[F] + tol):
                continue
            u[F] = np.clip(uf, lo[F], hi[F])
        g = Q @ u + c
        ok = True
        for i, p in enumerate(pattern):
            if p == 0 and g[i] < -tol:
                ok = False
                break
            if p == 2 and g[i] > tol:
                ok = False
                break
        if not ok:
            continue
        if all(np.linalg.norm(u - s) > 1e-9 for s in sols):
            sols.append(u)
    return sols


def global_min_phi(problem: CompositeProblem,
                   grid_resolution: float = 1e-4) -> Tuple[Array, float]:
    """Dense-grid minimizer of phi over dom h (dimension <= 2)."""
    smooth, reg, wl1 = _require_grid_problem(problem)
    lo, hi = reg.domain_box
    return _kernels.qp_grid_argmin(smooth.Q, smooth.c, wl1, lo, hi,
                                   grid_resolution)


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def save_instance(problem: CompositeProblem, path: str,
                  seed: Optional[int] = None) -> None:
    """Write a box or L1-plus-box QP over Omega = R^n as a self-describing
    JSON instance document; others raise TypeError.

    Each array field (``Q``, ``c``, ``box_lo``, ``box_hi``) is one base64
    string of the array's little-endian float64 (``<f8``) bytes in C order,
    so the round trip through ``load_instance`` is bit-exact, signed zeros,
    subnormals and infinite box bounds included.  ``seed`` must be an integer
    (numpy integers are stored as ``int``).  The document is serialized
    before the file is opened, so a failure writes nothing."""
    smooth, reg, wl1 = _box_qp_parts(problem, "instance files")
    omega = problem.omega
    if not (np.all(omega.lo == -np.inf) and np.all(omega.hi == np.inf)):
        raise TypeError("instance files need Omega = R^n")
    lo, hi = reg.domain_box
    doc = {
        "format": "varfista-qp-instance",
        "n": problem.dimension,
        "Q": _encode_array(smooth.Q),
        "c": _encode_array(smooth.c),
        "box_lo": _encode_array(lo),
        "box_hi": _encode_array(hi),
        "l1_weight": float(wl1),
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
    read too.  A malformed document (a non-finite ``Q`` or ``c`` entry and
    a NaN box bound included) raises ValueError naming path and field."""
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
    if not isinstance(value, list):
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
    """Field ``key`` (or ``default`` when absent) as a float; a JSON
    number is required."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: field {key!r} must be a number")
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
