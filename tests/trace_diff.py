"""Compare the traces of two runs column by column (a test helper).

``trace_diff(a, b)`` takes two traces, each an ``IterationTrace`` or the
path of a trace CSV (``IterationTrace.write_csv``).  It reports both
iteration counts and, for each trace column over the iterations both runs
made, the first iteration k whose value differs in its bits and the largest
relative change |a - b| / max(|a|, |b|).  A change of sign of a zero, or of
the bits of a NaN, counts as a difference of relative size 0; a NaN or an
infinity against another value counts as an infinite one.

When a change moves the golden hashes, the traces of the two trees say
what moved:

    PYTHONPATH=<old tree>/src python tests/trace_diff.py --golden OLD
    PYTHONPATH=src python tests/trace_diff.py --golden NEW
    python tests/trace_diff.py OLD NEW

``--golden DIR`` writes the trace CSV of every run of ``test_golden`` to
DIR, from the ``varfista`` on the path; two CSV files or two directories of
them (compared file by file, by name) are diffed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from varfista.solver import TRACE_HEADER, IterationTrace

COLUMNS = TRACE_HEADER.split(",")[1:]
_ATTRIBUTES = ("lam", "xi", "tau", "U", "L", "residual", "phi_y", "phi_ymin",
               "inner_repeats")


def columns(trace) -> Dict[str, np.ndarray]:
    """The trace's columns over iterations 1..K, as float64 arrays."""
    if isinstance(trace, IterationTrace):
        data = [getattr(trace, name) for name in _ATTRIBUTES]
    else:
        rows = Path(trace).read_text().splitlines()[1:]
        data = np.array([[float(v) for v in row.split(",")[1:]]
                         for row in rows]).reshape(len(rows), len(COLUMNS)).T
    return {name: np.array(col, dtype=np.float64)
            for name, col in zip(COLUMNS, data)}


@dataclass
class TraceDiff:
    """Iteration counts of runs a and b, and per column the first differing
    iteration (1-based, None where every common value keeps its bits) and
    the largest relative change (0.0 where none differs)."""

    iterations: Tuple[int, int]
    first_diff: Dict[str, Optional[int]]
    max_rel: Dict[str, float]

    @property
    def identical(self) -> bool:
        return (self.iterations[0] == self.iterations[1]
                and all(k is None for k in self.first_diff.values()))

    def lines(self, name: str) -> List[str]:
        ka, kb = self.iterations
        out = [f"{name}: {ka} -> {kb} iterations"
               + ("; identical" if self.identical else "")]
        out += [f"  {col}: first differs at k = {k}, largest relative "
                f"change {self.max_rel[col]:.3g}"
                for col, k in self.first_diff.items() if k is not None]
        return out


def trace_diff(a, b) -> TraceDiff:
    """The ``TraceDiff`` of two traces or trace CSV paths."""
    ca, cb = columns(a), columns(b)
    ka, kb = len(ca[COLUMNS[0]]), len(cb[COLUMNS[0]])
    m = min(ka, kb)
    first, largest = {}, {}
    for col in COLUMNS:
        x, y = ca[col][:m], cb[col][:m]
        differ = x.view(np.int64) != y.view(np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        same_size = ((x == 0.0) & (y == 0.0)) | (np.isnan(x) & np.isnan(y))
        rel = np.where(~differ | same_size, 0.0,
                       np.where(np.isnan(rel), np.inf, rel))
        hits = np.flatnonzero(differ)
        first[col] = int(hits[0]) + 1 if hits.size else None
        largest[col] = float(rel.max(initial=0.0))
    return TraceDiff((ka, kb), first, largest)


def write_golden(directory: Path) -> None:
    """Write ``<name>.csv`` for every golden run into ``directory``."""
    from test_golden import golden_runs

    directory.mkdir(parents=True, exist_ok=True)
    for name, _, trace in golden_runs():
        trace.write_csv(str(directory / f"{name}.csv"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="two trace CSVs, or two directories of them")
    parser.add_argument("--golden", type=Path,
                        help="write the golden runs' traces to this directory")
    args = parser.parse_args(argv)
    if args.golden is not None:
        write_golden(args.golden)
        return 0
    if len(args.paths) != 2:
        parser.error("give two trace CSVs or two directories")
    old, new = args.paths
    if old.is_dir() and new.is_dir():
        names = sorted({p.name for d in (old, new) for p in d.glob("*.csv")})
        pairs = [(name, old / name, new / name) for name in names]
    else:
        pairs = [(new.name, old, new)]
    for name, a, b in pairs:
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {a.parent if b.exists() else b.parent}")
            continue
        print("\n".join(trace_diff(a, b).lines(Path(name).stem)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
