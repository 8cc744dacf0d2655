"""Adaptive accelerated proximal-gradient solver with on-line curvature control.

The method minimizes phi(u) = f(u) + h(u) without knowing a Lipschitz or
curvature constant for f.  Each outer iteration forms a momentum point
x_tilde from the weight schedule, takes one prox step from it, and then
decides from observed value/gradient data whether that step is trustworthy:

* the stepsize ``lam`` shrinks when the local upper-curvature estimate U
  breaks U * lam <= gamma;
* the concavity weight ``xi`` doubles (from 1) when the committed history
  inequality  xi * lam_{i-1} >= L * lam_i + tau_i  fails for any past i,
  where L is a running lower-curvature estimate built from linearization
  gaps at all committed momentum points.

On convex inputs every lower-curvature gap is non-positive, so L and xi stay
exactly zero and the method reduces to a constant-extrapolation scheme.
This holds in floating point too: a gap's numerator 2[lin_f(u; x_tilde_i) -
f(u)] is formed from values whose terms can be far larger than the values
themselves, so a numerator that is positive but within
2 NOISE_MULT eps (s(u) + s(x_tilde_i) + |grad f(x_tilde_i) . d|) is
roundoff, not concavity, and scores 0.  Here s is the oracle's
value-roundoff scale (``value_scale``), which bounds those terms.  The
committed history is append-only; it feeds both the L recursion and post-run
auditing, which makes memory grow linearly with the iteration count (bounded
by the iteration cap).

Termination: at the end of iteration k the residual
v_k = ((1+tau_k)/lam_k)(x_tilde_k - y_k) + grad f(y_k) - grad f(x_tilde_k)
certifies v_k in grad f(y_k) + sub-diff h(y_k); the run stops once
||v_k|| <= rho_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import _kernels
from ._kernels import c_einsum, row_blocks
from .momentum import A0_DEFAULT, advance, extrapolate, schedule
from .problems import Array, Certificate, CompositeProblem

__all__ = [
    "SolverConfig", "NumericalFailure", "RepeatCapExhausted", "HistoryLedger",
    "IterationTrace", "TRACE_HEADER", "DENOM_EPSILON", "NOISE_MULT", "solve",
    "compute_candidate", "compute_U", "compute_x", "replay_anchors",
    "compute_v", "history_inequality_violated",
]

TRACE_HEADER = "k,lambda,xi,tau,U,L,residual,phi_y,phi_ymin,inner_repeats"

# a curvature quotient over d = u - x_tilde reads 0 when
# ||d||^2 <= DENOM_EPSILON * (1 + ||x_tilde||^2)
DENOM_EPSILON = 1e-12
# a positive gap numerator within 2 NOISE_MULT eps of its value-roundoff
# scale reads 0; the audit's roundoff envelope takes the same multiple
NOISE_MULT = 64.0
_ZERO_BAND = 2.0 * NOISE_MULT * float(np.finfo(np.float64).eps)
_MAX_INNER_REPEATS = 1_000_000  # trials per outer iteration
_CAPACITY = 64  # initial rows of the history buffers; they double when full
# the best-point screen's range: it skips a record only when |F| +
# ||grad f||^2 + ||x_tilde||^2 and |f(u)| + ||u||^2 are at most
# _SCREEN_RANGE**2, where no product or sum of its error bound can overflow
_SCREEN_RANGE = 2.0 ** 500


@dataclass
class SolverConfig:
    """Solver knobs; the defaults are the audited configuration."""

    lambda0: float = 1.0
    theta: float = 2.0
    gamma: float = 0.99
    rho_hat: float = 1e-6
    max_outer_iterations: int = 100_000

    def validate(self) -> None:
        if not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        if not self.theta > 1.0:
            raise ValueError("theta must exceed 1")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.rho_hat > 0.0:
            raise ValueError("rho_hat must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


class NumericalFailure(FloatingPointError):
    """The smooth oracle gave a non-finite value or gradient during a run.

    ``solve`` and both baselines raise it, through ``_require_finite`` only.
    """


class RepeatCapExhausted(RuntimeError):
    """One outer iteration of ``solve`` retried its trial too many times."""


def _double(owner, names) -> None:
    """Double the rows of ``owner``'s named buffers, keeping their data."""
    for name in names:
        old = getattr(owner, name)
        new = np.empty_like(old, shape=(2 * old.shape[0],) + old.shape[1:])
        new[:old.shape[0]] = old
        setattr(owner, name, new)


class HistoryLedger:
    """Append-only linearization records of the run, one per iteration.

    Record i holds x_tilde_i, f and grad f there, its quotient guard
    DENOM_EPSILON (1 + ||x_tilde_i||^2) and the value-roundoff scale
    s(x_tilde_i), in doubling buffers.  s is ``value_scale(u, f_u)``, the
    smooth oracle's; records are scaled in order, as rows, when a gap first
    needs one.  A gap quotient of u against record i reads 0 when
    ||u - x_tilde_i||^2 is within the record's guard, and, by the zero
    rule, when its numerator is positive but at most 2 NOISE_MULT eps
    (s(u) + s(x_tilde_i) + |grad f(x_tilde_i) . d|).  ``_zero_rule``
    applies the rule to quotient arrays, ``_record_gap`` to one record in
    O(n); their quotients agree bit for bit, NaN included, and both compute
    s(u) only where a positive (or NaN) quotient needs it.  The expensive
    part of the lower-curvature recursion, max over i <= k of the gap of
    the incumbent best point against record i, is cached.  The cache is
    keyed like the oracle's Q @ u memo: it hits only when the best point is
    the cached array itself (``is``, no copy kept) with unchanged
    ``tobytes()``.  On a hit each newly appended record is folded in
    through ``_record_gap``; a miss rescans the records with ``_gap_terms``
    and ``_zero_rule``.  Above one row block (k n > ``_kernels._ROW_BLOCK``)
    a miss first screens the records with one product G u and rescans only
    those whose numerator it cannot prove negative (``ymin_ratio_max``);
    each record keeps two scalars for the screen, filled when a screen
    first needs them.  Like ``np.max``, the fold carries a NaN, so cached
    and rescanned maxima agree bit for bit, except that of +0.0 and -0.0
    among the quotients the two may keep different ones.  Every einsum
    here is taken through ``_kernels.c_einsum``, einsum's C entry: the
    bits of ``np.einsum`` without its Python wrapper, which at n = 20
    costs about as much as the product.
    """

    _BUFFERS = ("_X", "_F", "_G", "_FLOOR", "_S", "_P", "_GN")

    def __init__(self, dimension: int, value_scale):
        self._X = np.empty((_CAPACITY, dimension))
        self._F = np.empty(_CAPACITY)
        self._G = np.empty((_CAPACITY, dimension))
        self._FLOOR = np.empty(_CAPACITY)
        self._S = np.empty(_CAPACITY)
        self._P = np.empty(_CAPACITY)  # the screen's a_i plus record margin
        self._GN = np.empty(_CAPACITY)  # ||grad f(x_tilde_i)||
        self._n_rec = 0
        self.value_scale = value_scale
        self._scaled_upto = 0  # records 1..this hold their scale
        self._screen_upto = 0  # records 1..this hold _P and _GN
        self._kappa = (dimension + 8) * 2.0 ** -51  # the screen's 4(n + 8) u
        self.cached_ymin: Optional[Array] = None
        self._cached_bytes = b""
        self.cached_ymin_ratio_max = -math.inf
        self._cached_upto = 0
        self._miss_upto = 0  # records 1..this were rescanned at the last miss
        self._skipped = False  # the cached maximum left screened records out
        self._signed_zero = False  # a -0.0 quotient has been returned

    # -- storage ------------------------------------------------------------

    def append_linearization(self, x_tilde: Array, f_at: float,
                             grad_at: Array) -> int:
        if self._n_rec == self._F.shape[0]:
            _double(self, self._BUFFERS)
        i = self._n_rec
        self._X[i] = x_tilde
        self._F[i] = f_at
        self._G[i] = grad_at
        self._FLOOR[i] = DENOM_EPSILON * (
            1.0 + float(c_einsum("i,i->", x_tilde, x_tilde)))
        self._n_rec += 1
        return i + 1

    def linearization_gaps(self, count: int, u: Array, f_u: float, s_u
                           ) -> Tuple[Array, Array, Array]:
        """Gap rows of u against records 1..count (audit replay).

        ``u`` is one point, with ``f_u`` its value and ``s_u`` its
        value-roundoff scale s(u); or one point per record (rows of a
        count x n array), with ``f_u`` and ``s_u`` one value per record; or
        a block of b points, each scored against every record (a b x 1 x n
        array), with ``f_u`` and ``s_u`` of shape b x 1, which gives b rows
        of results.  The scales must equal the solver's bit for bit, so
        that the zero rule zeroes the same quotients.  Returns
        ``(quotients, den, gd)`` with, per record i and d = u - x_tilde_i:
        the guarded gap quotient after the zero rule, den = ||d||^2 and
        gd = grad f(x_tilde_i) . d.  Each quotient equals ``_record_gap``'s
        bit for bit, in every shape, so a full-replay maximum matches the
        cached one.
        """
        if not 0 <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        q, num, den, gd = self._gap_terms(count, u, f_u)
        return self._zero_rule(count, q, num, gd, lambda: s_u)[0], den, gd

    def record_arrays(self, count: int):
        """Read-only views (X, F, G, FLOOR) of records 1..count, for
        vectorized audits; FLOOR holds each record's quotient guard."""
        if not 0 <= count <= self._n_rec:
            raise IndexError(f"ledger holds {self._n_rec} records")
        return (self._X[:count], self._F[:count], self._G[:count],
                self._FLOOR[:count])

    # -- the zero rule -------------------------------------------------------

    def _record_scales(self, stop: int) -> Array:
        """s(x_tilde) of records 1..stop.  Records not yet scaled up to
        ``stop`` are scaled as rows, a block at a time."""
        lo = self._scaled_upto
        for a, b in row_blocks(stop - lo, self._X.shape[1]):
            rows = slice(lo + a, lo + b)
            self._S[rows] = self.value_scale(self._X[rows], self._F[rows])
        self._scaled_upto = max(lo, stop)
        return self._S[:stop]

    def _zero_rule(self, count: int, q: Array, num: Array, gd: Array,
                   s_u, rows=None) -> Tuple[Array, float]:
        """Quotients ``q`` of u against records 1..count, with numerators
        ``num``, after the zero rule, and their maximum: 0 < num <= 2
        NOISE_MULT eps (s(u) + s(x_tilde_i) + |gd|) reads 0, in place.
        ``rows`` (0-based indices below count) names the records of ``q``
        when it holds only those.  ``s_u()`` gives s(u); it is called only
        when some quotient is positive or NaN.  The maximum is the gate's,
        taken again only when a quotient was zeroed."""
        top = q.max(initial=-math.inf)
        if top <= 0.0:
            return q, top
        scales = self._record_scales(count)
        if rows is not None:
            scales = scales[rows]
        band = _ZERO_BAND * (s_u() + scales + np.abs(gd))
        zero = (q > 0.0) & (num <= band)
        if not zero.any():
            return q, top
        q[zero] = 0.0
        return q, q.max()

    # -- lower-curvature gaps and their cache --------------------------------

    def _gap_terms(self, stop: int, u: Array, f_u: float, rows=None
                   ) -> Tuple[Array, Array, Array, Array]:
        """(quotients before the zero rule, numerators, den, gd) of u
        against records 1..stop, in the shapes of ``linearization_gaps``;
        or, for one point u, against the records ``rows`` alone (0-based
        indices below stop), with each record's bits unchanged.  When the
        differences d = u - x_tilde_i hold more than ``_kernels._SCAN_BLOCK``
        elements, ``_blocked_products`` forms them a block of records at a
        time instead of all at once, with the same bits."""
        if rows is None:
            X, G, F = self._X[:stop], self._G[:stop], self._F[:stop]
            floor = self._FLOOR[:stop]
        else:
            X, G, F, floor = (self._X[rows], self._G[rows], self._F[rows],
                              self._FLOOR[rows])
        width = u.shape[1] if u.ndim == 2 else u.size  # d's elements a record
        if X.shape[0] * width <= _kernels._SCAN_BLOCK:
            d = u - X  # a 1-D u broadcasts; a 2-D u pairs row i with record i
            gd = c_einsum("...j,...j->...", G, d)
            den = c_einsum("...j,...j->...", d, d)
        else:
            gd, den = _blocked_products(u, X, G, width)
        num = 2.0 * (F + gd - f_u)
        ok = ~(den <= floor)
        safe = np.where(ok, den, 1.0)
        return np.where(ok, num / safe, 0.0), num, den, gd

    def _record_gap(self, index: int, u: Array, f_u: float) -> float:
        """2[lin_f(u; x_tilde_i) - f(u)]/||u - x_tilde_i||^2 against 1-based
        record ``index``, in O(n), with the guard and the zero rule.

        The one-record shape of ``linearization_gaps``: the same expression
        for a single record, equal bit for bit to a one-row call and
        cheaper.  The t1 term of L in ``solve`` and the cache's fold use
        it.  A -0.0 quotient (an underflowing or infinite ratio) is noted
        for ``ymin_ratio_max``, since it can reach L.
        """
        i = index - 1
        d = u - self._X[i]
        den = float(c_einsum("i,i->", d, d))
        if den <= self._FLOOR[i]:
            return 0.0
        gd = float(c_einsum("i,i->", self._G[i], d))
        num = 2.0 * (float(self._F[i]) + gd - f_u)
        if 0.0 < num <= _ZERO_BAND * (self.value_scale(u, f_u)
                                      + float(self._record_scales(index)[i])
                                      + abs(gd)):
            return 0.0
        q = num / den
        if q == 0.0 and math.copysign(1.0, q) < 0.0:
            self._signed_zero = True
        return q

    # -- the best-point screen -----------------------------------------------

    def _screen_terms(self, stop: int) -> Tuple[Array, Array]:
        """(P, GN) of records 1..stop for the screen, by ``_screen_pair``.
        Records not yet filled up to ``stop`` are filled as rows, a block
        at a time, or, when only one is missing, as floats: a rescan
        usually finds one new record, and one record costs fewer numpy
        calls that way."""
        lo, kappa = self._screen_upto, self._kappa
        if stop - lo == 1:
            x, g = self._X[lo], self._G[lo]
            p, gn, fits = _screen_pair(
                kappa, float(self._F[lo]), float(c_einsum("i,i->", x, x)),
                float(c_einsum("i,i->", g, g)), float(c_einsum("i,i->", g, x)))
            self._P[lo], self._GN[lo] = (p if fits else math.nan), gn
        else:
            for a, b in row_blocks(stop - lo, self._X.shape[1]):
                rows = slice(lo + a, lo + b)
                X, G = self._X[rows], self._G[rows]
                # a record out of range may overflow or meet inf * 0; its
                # P reads NaN
                with np.errstate(over="ignore", invalid="ignore"):
                    p, gn, fits = _screen_pair(
                        kappa, self._F[rows], c_einsum("ij,ij->i", X, X),
                        c_einsum("ij,ij->i", G, G),
                        c_einsum("ij,ij->i", G, X))
                self._P[rows] = np.where(fits, p, np.nan)
                self._GN[rows] = gn
        self._screen_upto = max(lo, stop)
        return self._P[:stop], self._GN[:stop]

    def _screen(self, stop: int, u: Array, f_u: float) -> Optional[Array]:
        """0-based indices of the records 1..stop that the screen keeps:
        those whose t_i (see ``ymin_ratio_max``) is not < 0, NaN included;
        None when |f(u)| + ||u||^2 > R^2, a non-finite one included."""
        uu = float(c_einsum("i,i->", u, u))
        if not abs(f_u) + uu <= _SCREEN_RANGE ** 2:
            return None
        P, GN = self._screen_terms(stop)
        kappa = self._kappa
        # a record out of range may overflow or meet inf * 0 here too; its
        # P is NaN, so its t is
        with np.errstate(over="ignore", invalid="ignore"):
            t = self._G[:stop] @ u
            t += P
            t += GN * (2.0 * kappa * math.sqrt(uu))
        t += (kappa * abs(f_u) + (1.0 + uu) / _SCREEN_RANGE ** 2) - f_u
        return np.flatnonzero(~(t < 0.0))

    def _screened_max(self, stop: int, u: Array, f_u: float
                      ) -> Optional[float]:
        """The maximum of the records the screen keeps, after the zero
        rule, or -inf when it keeps none; None when the full scan must
        decide: the screen could not run or skipped nothing, or the
        maximum is a zero and a kept quotient is -0.0."""
        keep = self._screen(stop, u, f_u)
        if keep is None or keep.size == stop:
            return None
        self._skipped = True
        if keep.size == 0:
            return -math.inf
        q, num, _, gd = self._gap_terms(stop, u, f_u, keep)
        q, best = self._zero_rule(stop, q, num, gd,
                                  lambda: self.value_scale(u, f_u), keep)
        if best == 0.0 and np.signbit(q[q == 0.0]).any():
            return None
        return float(best)

    def _is_cached(self, ymin: Array) -> bool:
        return (ymin is self.cached_ymin
                and ymin.tobytes() == self._cached_bytes)

    def ymin_ratio_max(self, ymin: Array, f_ymin: float) -> float:
        """Max linearization gap of ymin against every record so far.

        The maximum of ``linearization_gaps`` bit for bit whenever it is
        positive or NaN, and on every rescan within one row block
        (k n <= ``_kernels._ROW_BLOCK``).  Otherwise it is a value <= 0
        that gives L the same bits (below).

        **The screen.**  Above one row block a miss takes one product G u
        over the k records and, with kappa = 4(n + 8) u (u = 2^-53, half
        of eps) and R = ``_SCREEN_RANGE``, forms per record the half
        numerator bound
        t_i = fl(g_i . u + P_i + 2 kappa ||g_i|| ||u||
                 + (kappa |f(u)| + (1 + ||u||^2) / R^2) - f(u)),
        with P_i from ``_screen_terms``.  Records with t_i < 0 are skipped;
        NaN fails the test.  The range is |F| + ||g||^2 + ||x||^2 <= R^2
        for a record, whose P_i is NaN outside it, and |f(u)| + ||u||^2
        <= R^2 for u, which is not screened outside it; non-finite values
        lie outside.  The kept records are rescanned with ``_gap_terms``
        and ``_zero_rule`` on their rows alone.

        **Why a skipped quotient is < 0 or +0.0.**  Let x, g, F be the
        record, d = u - x, N = F + g . d - f(u) the exact half numerator,
        S = |F| + |f(u)| + 2 ||g|| (||u|| + ||x||), theta = (1 + ||u||^2
        + ||x||^2) / R^2 and gamma_j = j u / (1 - j u).  Inside the range
        no sum or product below overflows, and underflowing products err
        by at most 5n 2^-1074 in all, less than theta / 4.
        (1) The full path rounds d once and sums g_j d_j in some order,
        FMA or not, so |fl(g . d) - g . d| <= gamma_(n+1) sum |g_j||d_j|
        <= gamma_(n+1) ||g|| ||d|| (Cauchy-Schwarz), with ||d|| <= ||u||
        + ||x||; two more roundings give a half numerator h with
        |h - N| <= gamma_(n+3) S.  (2) a_i = fl(F - fl(g . x)) and the
        gemv's fl(g . u), in any order, put a_i + fl(g . u) - f(u) within
        gamma_(n+1) S of N.  (3) Forming P_i and t_i adds seven roundings
        of partial sums below 1.01 S, and the margin terms as computed are
        at least (1 - gamma_(2n+8)) of their exact values kappa S and
        theta.  So fl(t_i) < 0, which makes the exact sum of its last
        addition negative, gives h < gamma_(2n+12) S - (1 - gamma_(2n+8))
        (kappa S + theta) + theta / 4, and for n < 2^40 kappa (1 -
        gamma_(2n+8)) > gamma_(2n+12), so h < -theta / 2.  As den <= 2.01
        (1 + ||u||^2 + ||x||^2), the full numerator 2h is < 0 and its
        quotient is negative, far above the underflow to -0.0, or +0.0
        where the guard holds; the zero rule touches only positive
        quotients.

        **Same bits of L.**  The full maximum is the larger of the kept
        rows' maximum and the skipped quotients, which are < 0 or +0.0, so
        it equals the returned value when positive or NaN; otherwise both
        are <= 0, and the returned value is +0.0 only when the full one
        is.  ``solve`` forms L_cand = max(t1, r, L, 0.0) with Python's
        max, which keeps the first of equal values: when L_cand is 0, it is
        the first zero among t1, r, L, 0.0, and L >= 0, so r decides its
        sign only when t1 < 0, r is a zero and L is a zero.  With no -0.0
        anywhere all those zeros are +0.0, and the same holds for every
        later fold, which only takes larger quotients in.  A -0.0 reaches
        L only from a -0.0 quotient that ``_record_gap`` or a rescan
        returned; the ledger then notes it and screens no more.  A cached
        maximum the screen formed is then formed again as it would have
        been with no screen: the full scan's ``np.max`` over the records of
        its miss, then the records appended since, folded in order, since
        ``np.max`` and the fold may keep different ones of equal zeros.  A
        kept -0.0 under a zero maximum also falls back to the full scan.
        """
        n = self._n_rec
        if n == 0:
            return -math.inf
        best = None
        if self._is_cached(ymin):
            best = self.cached_ymin_ratio_max
            for i in range(self._cached_upto + 1, n + 1):
                m = self._record_gap(i, ymin, f_ymin)
                if m > best or m != m:  # a NaN carries, as in np.max
                    best = m
            if self._skipped and self._signed_zero:
                best = None  # formed again below, as with no screen
        else:
            self.cached_ymin = ymin
            self._cached_bytes = ymin.tobytes()
            self._miss_upto = n
            if (n * self._X.shape[1] > _kernels._ROW_BLOCK
                    and not self._signed_zero):
                best = self._screened_max(n, ymin, f_ymin)
        if best is None:
            # the full scan of the last miss's records, then, after a
            # screened miss, the fold of the records appended since
            stop = self._miss_upto
            q, num, _, gd = self._gap_terms(stop, ymin, f_ymin)
            best = float(self._zero_rule(
                stop, q, num, gd, lambda: self.value_scale(ymin, f_ymin))[1])
            self._skipped = False
            for i in range(stop + 1, n + 1):
                m = self._record_gap(i, ymin, f_ymin)
                if m > best or m != m:
                    best = m
            if best == 0.0 and math.copysign(1.0, best) < 0.0:
                self._signed_zero = True
        self.cached_ymin_ratio_max = best
        self._cached_upto = n
        return best


def _screen_pair(kappa: float, f, xx, gg, gx):
    """(P, GN, fits) of records with values f, ||x||^2 = xx, ||g||^2 = gg
    and g . x = gx, as floats or as arrays alike: GN = ||g||, P = a +
    kappa (|f| + 2 ||g|| ||x||) + ||x||^2 / R^2 with a = f - g . x, and
    fits = |f| + ||g||^2 + ||x||^2 <= R^2 (R = ``_SCREEN_RANGE``), false
    for a non-finite record; where it is false, P is not used."""
    gn = gg ** 0.5
    fits = abs(f) + gg + xx <= _SCREEN_RANGE ** 2
    return ((f - gx) + kappa * (abs(f) + 2.0 * gn * xx ** 0.5)
            + xx / _SCREEN_RANGE ** 2), gn, fits


def _blocked_products(u: Array, X: Array, G: Array, width: int
                      ) -> Tuple[Array, Array]:
    """(gd, den) of ``HistoryLedger._gap_terms`` for records X, G, with d
    formed in one reused buffer a block of records at a time, at most
    ``_kernels._SCAN_BLOCK`` elements: d = u - X[a:b] (u[a:b] for paired
    rows), then the block's gd and den written in place by einsum, which
    forms each record's products as it does for the whole array.
    ``width`` is d's elements per record: n, or b n for a b x 1 x n block
    of points."""
    lead = u.shape[:-2]  # (b,) for a b x 1 x n block of points, else ()
    k, n = X.shape
    gd, den = np.empty(lead + (k,)), np.empty(lead + (k,))
    buf = None
    for a, b in row_blocks(k, width, _kernels._SCAN_BLOCK):
        if buf is None:  # the first block is the largest
            buf = np.empty((b - a) * width)
        d = buf[:(b - a) * width].reshape(lead + (b - a, n))
        np.subtract(u[a:b] if u.ndim == 2 else u, X[a:b], out=d)
        c_einsum("...j,...j->...", G[a:b], d, out=gd[..., a:b])
        c_einsum("...j,...j->...", d, d, out=den[..., a:b])
    return gd, den


def _rows(block: str, j=slice(None), first: int = 1) -> property:
    """Column j of a trace buffer, read as a view of rows first..K."""
    return property(lambda t: getattr(t, block)[first:t._n + 1, j])


class IterationTrace:
    """Columnar record of one run: row k holds iteration k, row 0 the start.

    Each quantity is stored once, in doubling numpy buffers, and read as a
    view of rows 1..K: ``lam``, ``xi``, ``tau``, ``U``, ``L``,
    ``residual``, ``phi_y``, ``phi_ymin``, ``inner_repeats`` and
    ``ymin_rows``, or of rows 0..K: ``stepsizes``, lam_0..lam_K, and ``Y``,
    the points y_0..y_K.  ``append`` takes the best point ``ymin`` as an
    array and stores its row: y itself, the previous best point (by
    identity, y0 at first), or else a rejected trial point, copied to
    ``side_rows``; a row r < 0 names ``side_rows[~r]``.  The anchors x_k
    and the weights a_k are not stored; ``replay_anchors`` rebuilds them.
    """

    lam, xi, tau, U, L, residual, phi_y, phi_ymin = (
        _rows("_S", j) for j in range(8))
    inner_repeats, ymin_rows = (_rows("_I", j) for j in range(2))
    stepsizes, Y = _rows("_S", 0, first=0), _rows("_Y", first=0)
    _BUFFERS = ("_S", "_I", "_Y")

    def __init__(self, y0: Array, lambda0: float):
        # column-major blocks, so that every column view is contiguous
        self._S = np.empty((_CAPACITY, 8), order="F")
        self._S[0, 0] = lambda0
        self._I = np.zeros((_CAPACITY, 2), dtype=np.int64, order="F")
        self._Y = np.empty((_CAPACITY, y0.shape[0]))
        self._Y[0] = y0
        self.side_rows: List[Array] = []
        self._ymin = y0  # the last best point, as passed in
        self._n = 0

    def append(self, lam, xi, tau, U, L, residual, phi_y, phi_ymin,
               inner_repeats, y, ymin) -> None:
        k = self._n + 1
        if k == self._S.shape[0]:
            _double(self, self._BUFFERS)
        self._S[k] = (lam, xi, tau, U, L, residual, phi_y, phi_ymin)
        self._Y[k] = y
        if ymin is y:
            row = k
        elif ymin is self._ymin:
            row = self._I[k - 1, 1]
        else:
            row = ~len(self.side_rows)
            self.side_rows.append(ymin.copy())
        self._I[k] = (inner_repeats, row)
        self._ymin = ymin
        self._n = k

    def __len__(self) -> int:
        return self._n

    def point(self, row: int) -> Array:
        """The point a ``ymin_rows`` entry names."""
        return self._Y[row] if row >= 0 else self.side_rows[~row]

    def write_csv(self, path: str) -> None:
        """Write the documented delimited trace, row i as iteration k = i + 1;
        float repr keeps it byte-deterministic for identical runs."""
        with open(path, "w") as fh:
            fh.write(TRACE_HEADER + "\n")
            for k in range(1, self._n + 1):
                fh.write(",".join([str(k), *map(repr, self._S[k].tolist()),
                                   str(self._I[k, 0])]) + "\n")


# ---------------------------------------------------------------------------
# step operations
# ---------------------------------------------------------------------------

def compute_candidate(problem: CompositeProblem, x_tilde: Array, lam: float,
                      xi: float, a: float, grad_x_tilde: Array
                      ) -> Tuple[Array, float]:
    """Prox step from the momentum point under the current (lam, xi).

    Minimizes  lin_f(u; x_tilde) + h(u) + ((1+tau)/(2 lam)) ||u - x_tilde||^2
    with tau = 2 xi lam / a, which collapses to one prox call at stepsize
    s = lam / (1 + tau), with ``grad_x_tilde`` = grad f(x_tilde).
    Returns (y, tau).  This ``regularizer.prox`` call is the one prox call
    of a trial; ``solve`` then takes h(y) from the regularizer's
    ``value_at_prox``, which skips ``value``'s membership scan.
    """
    tau = 2.0 * xi * lam / a
    s = lam / (1.0 + tau)
    y = problem.regularizer.prox(x_tilde - s * grad_x_tilde, s)
    return y, tau


def compute_U(y: Array, f_y: float, x_tilde: Array, f_xt: float, g_xt: Array,
              guard: float) -> float:
    """Local upper-curvature estimate 2[f(y) - lin_f(y; x_tilde)]/||y-x_tilde||^2.

    ``f_xt`` and ``g_xt`` are f and grad f at x_tilde, ``guard`` is its
    quotient guard DENOM_EPSILON (1 + ||x_tilde||^2), the one its ledger
    record holds.  Returns 0 when y is too close to x_tilde for the ratio
    to be meaningful (squared distance <= guard), before the gradient
    enters, so a non-finite one cannot reach a guarded quotient.
    """
    d = y - x_tilde
    den = float(d @ d)
    if den <= guard:
        return 0.0
    # vdot, not @: an infinite gradient entry facing a zero entry of d (a
    # coordinate the box pinned) gives NaN, and NaN reaches U without the
    # RuntimeWarning that the matmul ufunc raises; the two agree bit for bit
    lin = f_xt + float(np.vdot(g_xt, d))
    return 2.0 * (f_y - lin) / den


def _committed_pairs_violated(xi: float, L: float, lam_hist: Array,
                              tau_hist: Array) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i for a committed i."""
    return bool(np.any(xi * lam_hist[:-1] < L * lam_hist[1:] + tau_hist))


def history_inequality_violated(xi: float, lam: float, tau: float, L: float,
                                lam_prev: float, L_committed: float,
                                committed: Callable[[], Tuple[Array, Array]]
                                ) -> bool:
    """True when xi * lam_{i-1} < L * lam_i + tau_i fails somewhere.

    The current trial (lam, tau) plays the role of index k against the last
    committed stepsize ``lam_prev`` = lam_{k-1}; committed pairs cover
    i = 1..k-1.  ``committed()`` returns them as the views (lam_0..lam_{k-1},
    tau_1..tau_{k-1}); it is called only for a scan of the committed pairs,
    so a trial that needs none builds no view.  Comparisons are strict, in
    exact floating point.

    ``L_committed`` is the L every committed pair passed with, together with
    an xi no larger than this one (in ``solve``: the last accepted L and xi,
    since xi never decreases).  When L equals it, no committed pair can
    fail: lam_{i-1} > 0 and rounding is monotone, so
    fl(xi * lam_{i-1}) >= fl(xi_c * lam_{i-1}) >= fl(L * lam_i + tau_i), and
    only the trial pair is checked, in O(1).  Any other L, NaN included (no
    such certificate), scans every committed pair.
    """
    if xi * lam_prev < L * lam + tau:
        return True
    if L != L_committed:
        return _committed_pairs_violated(xi, L, *committed())
    return False


def _retry_step(U: float, lam: float, xi: float, tau: float, L: float,
                lam_prev: float, L_committed: float,
                committed: Callable[[], Tuple[Array, Array]],
                theta: float, gamma: float) -> Optional[Tuple[float, float]]:
    """None to accept the trial, else the (xi, lam) to retry it with.

    U * lam > gamma shrinks lam to min(lam / theta, gamma / U); U > 0 there,
    since gamma > 0.  The history inequality is then checked once, against
    the shrunk (or kept) lam and the trial's tau, and a failure escalates
    xi: 0 -> 1, then doubling.  A trial that needs neither is accepted.
    """
    shrink = U * lam > gamma
    if shrink:
        lam = min(lam / theta, gamma / U)
    if history_inequality_violated(xi, lam, tau, L, lam_prev, L_committed,
                                   committed):
        xi = 1.0 if xi == 0.0 else 2.0 * xi
    elif not shrink:
        return None
    return xi, lam


def compute_x(problem: CompositeProblem, A_prev: float, A_next: float,
              a: float, tau: float, y: Array, y_prev: Array) -> Array:
    """Projected anchor update; the unique minimizer of the anchor subproblem.

    x = P_Omega( ((1+tau) A_next)/(a (tau a + 1)) * y
                 - A_prev/(a (tau a + 1)) * y_prev ).  The scalars may also be
    column vectors, one row per iteration, with y and y_prev as rows.
    """
    denom = a * (tau * a + 1.0)
    z = ((1.0 + tau) * A_next / denom) * y - (A_prev / denom) * y_prev
    return problem.omega.project(z)


def replay_anchors(problem: CompositeProblem, trace: IterationTrace
                   ) -> Tuple[Array, Array]:
    """(a, X): the weights a_1..a_K and the anchors x_1..x_K of a run from
    ``solve`` or ``run_fista_constant``, equal to the run's own bit for bit.

    ``schedule`` replays a_k; ``compute_x`` on column vectors rebuilds x_k
    row by row, one ``row_blocks`` block of iterations at a time, so only X
    outgrows O(K) memory.
    """
    K = len(trace)
    a, A_next = schedule(K)
    a, A = a[:, None], np.r_[A0_DEFAULT, A_next][:, None]
    tau, Y = trace.tau[:, None], trace.Y
    X = np.empty((K, Y.shape[1]))
    for s, e in row_blocks(K, Y.shape[1]):
        X[s:e] = compute_x(problem, A[s:e], A[s + 1:e + 1], a[s:e], tau[s:e],
                           Y[s + 1:e + 1], Y[s:e])
    return a[:, 0], X


def compute_v(x_tilde: Array, y: Array, grad_y: Array, grad_x_tilde: Array,
              lam: float, tau: float) -> Array:
    """Stationarity residual ((1+tau)/lam)(x_tilde - y) + grad f(y) - grad f(x_tilde)."""
    return ((1.0 + tau) / lam) * (x_tilde - y) + grad_y - grad_x_tilde


# ---------------------------------------------------------------------------
# run contract, shared with the baselines
# ---------------------------------------------------------------------------

def _require_finite(k: int, trial: Optional[int], *named: tuple) -> None:
    """Raise NumericalFailure on the first non-finite (name, value) pair.

    The message reads ``<where>: <name> = <value>``, where ``<where>`` is
    "start point" for k = 0, else "iteration k", plus ", trial <trial>"
    when a trial is given.  A pair may carry a third item, a cause, which
    follows after ``; ``.  This is the one place that raises
    NumericalFailure.  It formats a message only on failure; ``solve``
    calls it only once a ``math.isfinite`` test has failed, since it checks
    every trial.
    """
    for pair in named:
        if not math.isfinite(pair[1]):
            name, value, *cause = pair
            where = "start point" if k == 0 else f"iteration {k}"
            if trial is not None:
                where += f", trial {trial}"
            raise NumericalFailure(
                "; ".join([f"{where}: {name} = {value}", *cause]))


def _start(problem: CompositeProblem, config: SolverConfig, y0: Array
           ) -> Tuple[Array, float, float]:
    """Validated (y0, f(y0), phi(y0)), with one value call at y0.

    Raises ValueError for a bad configuration or a y0 of the wrong shape,
    with a non-finite entry or outside dom h, before any oracle call, and
    NumericalFailure when f(y0) is non-finite.
    """
    config.validate()
    y0 = np.asarray(y0, dtype=np.float64)
    if y0.shape != (problem.dimension,):
        raise ValueError("y0 does not match problem dimension")
    if not np.all(np.isfinite(y0)):
        raise ValueError("y0 has a non-finite entry")
    h0 = problem.regularizer.value(y0)
    if not math.isfinite(h0):
        raise ValueError("y0 lies outside dom h")
    f0 = problem.smooth.value(y0)
    _require_finite(0, None, ("f(y0)", f0))
    return y0, f0, f0 + h0


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def solve(problem: CompositeProblem, config: SolverConfig, y0: Array,
          ) -> Tuple[Certificate, IterationTrace, HistoryLedger]:
    """Run the adaptive solver from y0.

    Returns (certificate, trace, ledger): the trace records each accepted
    iteration's scalars and y_k once, the ledger its linearization record;
    ``replay_anchors`` rebuilds the anchors x_k.  Raises ValueError, from
    ``_start`` as the baselines do, for a bad configuration or a y0 of the
    wrong shape, with a non-finite entry or outside dom h;
    RepeatCapExhausted when one iteration retries its trial more than
    ``_MAX_INNER_REPEATS`` times (in practice: inconsistent value/gradient
    oracles); and NumericalFailure, from ``_require_finite``, on the first
    non-finite one of f(y0), f(x_tilde_k), a trial's f(y), U and L, and the
    residual.  Every gradient ``solve`` asks for, at x_tilde_k or at the
    accepted y_k, enters v_k, so a non-finite one surfaces in the iteration
    where it occurs.
    """
    y0, f_y, phi0 = _start(problem, config, y0)
    smooth = problem.smooth
    reg = problem.regularizer

    ledger = HistoryLedger(problem.dimension, smooth.value_scale)
    trace = IterationTrace(y0, config.lambda0)

    def committed():  # the committed pairs, for a history scan
        return trace.stepsizes, trace.tau

    # carried across outer iterations: the last accepted values
    A = A0_DEFAULT
    y = y0
    x = y0.copy()
    ymin = y0
    phi_ymin = phi0
    f_ymin = f_y
    lam = config.lambda0
    xi = 0.0
    L = 0.0
    k = 0
    v = np.zeros_like(y0)
    resid = math.inf

    for k in range(1, config.max_outer_iterations + 1):
        a, A_next = advance(A)
        x_tilde = extrapolate(A, A_next, a, y, x)
        f_xt = smooth.value(x_tilde)
        # each finiteness check is a math.isfinite test first; the one
        # raising helper runs only when a value fails it
        if not math.isfinite(f_xt):
            _require_finite(k, None, ("f(x_tilde)", f_xt))
        g_xt = smooth.grad(x_tilde)
        idx = ledger.append_linearization(x_tilde, f_xt, g_xt)
        guard = float(ledger._FLOOR[idx - 1])

        lam_prev = lam  # lam_{k-1}, the last committed stepsize
        y_prev = y
        # the gap of the previous iterate against this record, fixed
        # across the trials of this iteration
        t1 = ledger._record_gap(idx, y_prev, f_y)
        repeats = 0

        while True:
            y, tau = compute_candidate(problem, x_tilde, lam, xi, a, g_xt)
            f_y = smooth.value(y)
            # h(y) = 0 on the box, plus the l1 term; a NaN in y raises below
            phi_y = f_y + reg.value_at_prox(y)
            U = compute_U(y, f_y, x_tilde, f_xt, g_xt, guard)

            if phi_y < phi_ymin:  # ties keep the incumbent
                phi_ymin, ymin, f_ymin = phi_y, y, f_y

            # lower-curvature recursion: t1, the incumbent's max gap over
            # all records, the previous L, and 0
            L_cand = max(t1, ledger.ymin_ratio_max(ymin, f_ymin), L, 0.0)
            # one check per trial; f(y) comes first, so a non-finite f(y)
            # is named rather than the U or L it spoils
            if not (math.isfinite(f_y) and math.isfinite(U)
                    and math.isfinite(L_cand)):
                _require_finite(
                    k, repeats, ("f(y)", f_y),
                    ("U", U, "grad f at the momentum point is non-finite"),
                    ("L", L_cand, "a recorded gradient is non-finite"))

            retry = _retry_step(U, lam, xi, tau, L_cand, lam_prev, L,
                                committed, config.theta, config.gamma)
            if retry is None:
                break
            if repeats >= _MAX_INNER_REPEATS:
                raise RepeatCapExhausted(
                    f"iteration {k}: inner repeat cap "
                    f"{_MAX_INNER_REPEATS} exhausted; "
                    "value/gradient oracles are likely inconsistent")
            xi, lam = retry
            repeats += 1

        # commit the accepted iteration
        x = compute_x(problem, A, A_next, a, tau, y, y_prev)
        g_y = smooth.grad(y)
        v = compute_v(x_tilde, y, g_y, g_xt, lam, tau)
        resid = math.sqrt(float(v @ v))
        if not math.isfinite(resid):
            _require_finite(k, None, (
                "residual", resid, "grad f at the momentum point or the "
                "accepted trial point is non-finite"))

        trace.append(lam, xi, tau, U, L_cand, resid, phi_y, phi_ymin,
                     repeats, y, ymin)
        A = A_next
        L = L_cand

        if resid <= config.rho_hat:
            break

    # one prox step per trial; one gradient at x_tilde_k and one at y_k
    cert = Certificate(y_hat=y.copy(), v_hat=v.copy(), residual_norm=resid,
                       iterations=k,
                       prox_calls=k + int(trace.inner_repeats.sum()),
                       grad_calls=2 * k, converged=resid <= config.rho_hat)
    return cert, trace, ledger
