"""Pacing: wall time rescaled by the machine's speed at the time.

The VM this benchmark was built on is shared.  Interpreter-bound code runs
at one of two speeds, about 1.75x apart, and switches every fraction of a
second to every minute.  Raw wall times therefore varied by 9-38 %
(quartile distance over median, 10 runs) from run to run.

So while a workload process measures, a timer signal (SIGALRM) runs a small
fixed kernel and records how long it took.  An operation's paced time is
its wall time without the sampler's own time, rescaled by REFERENCE /
(mean kernel time of the samples taken during it, or of the last few
before it when it was too short to catch one).  It reads as seconds on a
machine that runs the kernel in its reference time.  The kernels:

* ``interp``: pure-Python steps.  It needs no import, so it samples set-up
  from the worker's first line, every SETUP_INTERVAL seconds.
* ``python``: small numpy steps at n=20, for the n=20 workloads.
* ``l3``: matvecs with a matrix larger than a core's L2 cache, for
  ``dense-n1000``, whose oracle and audit replay stream their data from
  the shared cache.  An untimed matvec first brings the matrix back into
  the cache, so the timed part does not depend on where the program's
  work left it.

Solve and audit are sampled every INTERVAL seconds.  The kernels share no
code with ``varfista``, and ``python3 perfbench/pace.py`` shows that their
times do not move with the footprint of the program that ran before them,
so a change to the program cannot change them.  The handler touches no
program state, so results stay bit for bit the same.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL = 0.05
# set-up is short, so its sampler fires more often
SETUP_INTERVAL = 0.01
# samples used for an operation that caught none
RECENT = 4
# kernel time inside a workload process on an uncontended core of the
# reference machine (2.1 GHz Xeon VM, Python 3.11, numpy 2.4, one OpenBLAS
# thread), in seconds
REFERENCE = {"interp": 0.1e-3, "python": 0.5e-3, "l3": 0.5e-3}
# kernel that paces each workload's solve and audit
KIND = {"corpus-n20": "python", "dense-n1000": "l3", "long-n20": "python"}
# side of the l3 kernel's matrix: 3.9 MB, more than the 2 MB L2 cache of a
# core and far less than the shared L3
L3_N = 700


def _interp_kernel():
    """Pure-Python work; it needs no import, so it can pace set-up."""
    def kernel() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc = (acc * 31 + i) % 1000003
        return time.perf_counter() - t0
    return kernel


def _python_kernel():
    """Small numpy steps at n=20, the kind of work of the n=20 runs."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((20, 20)) / 20.0

    def kernel() -> float:
        t0 = time.perf_counter()
        v = np.ones(20)
        for _ in range(100):
            w = a @ v
            v = np.clip(w / (1.0 + abs(float(w @ w))), -1.0, 1.0)
        return time.perf_counter() - t0
    return kernel


def _l3_kernel():
    """Matvecs streaming a matrix from the shared cache, like the n=1000
    oracle and the audit replay stream theirs."""
    import numpy as np
    a = np.random.default_rng(0).standard_normal((L3_N, L3_N)) / L3_N ** 0.5
    ones = np.ones(L3_N)

    def kernel() -> float:
        # the untimed first matvec brings the matrix back into the cache,
        # from wherever the program's work has pushed it
        x = a @ ones
        t0 = time.perf_counter()
        for _ in range(2):
            x = a @ x
            x /= float(np.linalg.norm(x))
        return time.perf_counter() - t0
    return kernel


KERNELS = {"interp": _interp_kernel, "python": _python_kernel,
           "l3": _l3_kernel}


class Pacer:
    """Samples a reference kernel from a timer signal between ``start`` and
    ``stop``; single-threaded, main thread only."""

    def __init__(self, kind: str):
        self.kind = kind
        self._kernel = KERNELS[kind]()
        self._start = array("d")
        self._spent = array("d")
        self._took = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = self._kernel()
        self._start.append(t0)
        self._spent.append(time.perf_counter() - t0)
        self._took.append(took)

    def start(self, interval: float = INTERVAL) -> None:
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def paced(self, t0: float, t1: float):
        """(wall, paced) seconds of the interval [t0, t1), both without the
        sampler's own time."""
        lo = bisect.bisect_left(self._start, t0)
        hi = bisect.bisect_left(self._start, t1)
        wall = (t1 - t0) - sum(self._spent[lo:hi])
        took = self._took[lo:hi] or self._took[max(0, lo - RECENT):lo]
        return wall, wall * REFERENCE[self.kind] * len(took) / sum(took)


def footprint_check(rounds: int = 2, samples: int = 30) -> None:
    """Print each kernel's median time after 50 ms of streaming over
    buffers of 1 to 64 MB, the way a program of that footprint would leave
    the caches.  A kernel fit for pacing reads the same on every line."""
    import numpy as np
    kernels = {kind: KERNELS[kind]() for kind in ("python", "l3")}
    rng = np.random.default_rng(1)
    for _ in range(rounds):
        for mb in (1, 8, 33, 64):
            buf = rng.standard_normal(mb * 131072)
            took = {kind: [] for kind in kernels}
            for _ in range(samples):
                for kind, kernel in kernels.items():
                    t_end = time.perf_counter() + 0.05
                    while time.perf_counter() < t_end:
                        buf.sum()
                    took[kind].append(kernel())
            print(f"program footprint {mb:2d} MB: " + ", ".join(
                f"{kind} kernel {statistics.median(t) * 1e3:.3f} ms"
                for kind, t in took.items()), flush=True)


if __name__ == "__main__":
    footprint_check()
