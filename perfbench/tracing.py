"""Spans around the public functions of each ``varfista`` module.

The tracer wraps functions and methods from outside the package: wrappers
are installed at class level or in the module namespace the caller looks
them up in, and ``install`` returns a function that puts the originals back.
Nothing under ``src/`` knows about it.

A span records a name, a start, an end and its parent span.  Spans are kept
in flat arrays in memory until the run ends; per-layer figures are then
computed from them.  A layer's self time is its span minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


class Tracer:
    """In-memory span recorder; single-threaded, spans nest strictly."""

    def __init__(self):
        self.labels: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn: Callable, label: str,
             classify: Optional[Callable[..., str]] = None) -> Callable:
        """``fn`` recording one span per call under ``label``, or under the
        label ``classify(*args)`` returns before the call."""
        fixed = self.label_id(label)
        name, parent, start, end = self.name, self.parent, self.start, \
            self.end
        stack = self._stack
        clock = time.perf_counter
        label_id = self.label_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if classify is None else label_id(classify(*args))
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            stack.append(i)
            start.append(clock())
            end.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def arrays(self):
        """(name, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.int64).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())


def _patch(owner, attr: str, new, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, new)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layers' public entry points; returns the undo function."""
    import varfista._kernels as kernels
    import varfista.audit as audit
    import varfista.diagnostics as diagnostics
    import varfista.gallery as gallery
    import varfista.prox as prox
    import varfista.solver as solver

    undo: list = []

    def wrap_attr(owner, attr, label, classify=None):
        _patch(owner, attr, tracer.wrap(getattr(owner, attr), label,
                                        classify), undo)

    # gallery: instance building and the quadratic oracle
    for owner in (gallery, audit):  # audit_corpus calls audit.generate_qp
        wrap_attr(owner, "generate_qp", "gallery.build")
    wrap_attr(audit, "audit_corpus", "gallery.build")
    wrap_attr(gallery, "load_instance", "gallery.build")
    wrap_attr(gallery.QuadraticOracle, "value", "gallery.value")
    wrap_attr(gallery.QuadraticOracle, "grad", "gallery.grad")
    # prox
    wrap_attr(prox.BoxIndicator, "prox", "prox.prox")
    wrap_attr(prox.BoxIndicator, "value", "prox.value")
    # momentum, as solve looks it up
    wrap_attr(solver, "advance", "momentum.advance")
    wrap_attr(solver, "extrapolate", "momentum.extrapolate")
    # solver
    wrap_attr(solver, "solve", "solver.solve")
    wrap_attr(solver, "history_inequality_violated", "solver.history")

    def rescan_kind(ledger, ymin, *rest) -> str:
        cached = ledger.cached_ymin
        hit = (cached is not None and cached.shape == ymin.shape
               and bool(np.all(cached == ymin)))
        return "solver.rescan_incremental" if hit else "solver.rescan_full"

    wrap_attr(solver.HistoryLedger, "ymin_ratio_max", "solver.rescan_full",
              rescan_kind)
    # audit and the modules it calls
    wrap_attr(audit, "audit_run", "audit.audit_run")
    wrap_attr(solver.HistoryLedger, "linearization_gaps", "audit.replay")
    wrap_attr(kernels, "history_margin", "kernels.history_margin")
    wrap_attr(audit, "check_xk_drift", "diagnostics.drift")
    wrap_attr(audit, "verify_certificate", "problems.verify")
    bounds = diagnostics.TheoreticalBounds
    _patch(bounds, "from_problem", classmethod(tracer.wrap(
        bounds.__dict__["from_problem"].__func__, "diagnostics.bounds")),
        undo)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def computed_mb(obj) -> float:
    """Bytes held by an object's arrays, in MB, computed from array sizes.

    Counts numpy arrays among its attributes, arrays inside list attributes
    (each array once), and 8 bytes per scalar list entry.
    """
    seen = set()
    total = 0
    for value in vars(obj).values():
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, np.ndarray):
                if id(item) not in seen:
                    seen.add(id(item))
                    total += item.nbytes
            elif isinstance(value, list):
                total += 8
    return total / 1e6


def layer_metrics(tracer: Tracer, lo: int, hi: int,
                  iterations: int) -> Dict[str, float]:
    """Per-layer figures of the spans with index in [lo, hi).

    Oracle, prox and momentum calls count when ``solve`` encloses them;
    oracle values count for the audit when ``audit_run`` encloses them.
    """
    name, parent, start, end = tracer.arrays()
    dur = end - start
    n = len(name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    root = np.arange(n)
    while True:  # follow parents up to the outermost span
        up = parent[root]
        moved = up >= 0
        if not moved.any():
            break
        root = np.where(moved, up, root)
    sel = np.zeros(n, dtype=bool)
    sel[lo:hi] = True
    ids = {label: i for i, label in enumerate(tracer.labels)}

    def pick(label: str, under: Optional[str] = None):
        if label not in ids:
            return np.zeros(n, dtype=bool)
        mask = sel & (name == ids[label])
        if under is not None:
            mask &= name[root] == ids.get(under, -1)
        return mask

    def count(label, under=None) -> int:
        return int(pick(label, under).sum())

    def secs(label, under=None) -> float:
        return float(dur[pick(label, under)].sum())

    def self_s(label) -> float:
        mask = pick(label)
        return float((dur[mask] - child[mask]).sum())

    solve, audit = "solver.solve", "audit.audit_run"
    trials = count("prox.prox", solve)
    return {
        "gallery.value_calls": count("gallery.value", solve),
        "gallery.value_s": secs("gallery.value", solve),
        "gallery.grad_calls": count("gallery.grad", solve),
        "gallery.grad_s": secs("gallery.grad", solve),
        "prox.calls": trials,
        "prox.s": secs("prox.prox", solve),
        "prox.value_calls": count("prox.value", solve),
        "prox.value_s": secs("prox.value", solve),
        "momentum.s": (secs("momentum.advance", solve)
                       + secs("momentum.extrapolate", solve)),
        "solver.trials": trials,
        "solver.accept_ratio": iterations / trials if trials else 0.0,
        "solver.rescans_full": count("solver.rescan_full"),
        "solver.rescans_incremental": count("solver.rescan_incremental"),
        "solver.rescan_s": (secs("solver.rescan_full")
                            + secs("solver.rescan_incremental")),
        "solver.history_checks": count("solver.history"),
        "solver.history_s": secs("solver.history"),
        "solver.self_s": self_s(solve),
        "audit.replay_calls": count("audit.replay", audit),
        "audit.replay_s": secs("audit.replay", audit),
        "audit.value_calls": count("gallery.value", audit),
        "audit.value_s": secs("gallery.value", audit),
        "audit.self_s": self_s(audit),
        "kernels.history_margin_s": secs("kernels.history_margin"),
        "diagnostics.drift_s": secs("diagnostics.drift"),
        "diagnostics.bounds_s": secs("diagnostics.bounds"),
        "problems.verify_s": secs("problems.verify"),
    }


def build_seconds(tracer: Tracer, lo: int, hi: int) -> float:
    """Time in outermost instance-building spans with index in [lo, hi)."""
    name, parent, start, end = tracer.arrays()
    if "gallery.build" not in tracer.labels:
        return 0.0
    mask = np.zeros(len(name), dtype=bool)
    mask[lo:hi] = True
    mask &= (name == tracer.labels.index("gallery.build")) & (parent < 0)
    return float((end - start)[mask].sum())
