"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-n20 --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  Each run starts its workload in fresh
single-threaded processes, one at a time: SETUP_PROBES processes that only
set up, then one that sets up and runs whole passes (solve, audit and check
every instance) until ``--seconds`` have gone by.  ``setup_s`` is the median
set-up; ``solve_s`` and ``audit_s`` are medians of the per-pass sums of
each operation's paced wall time (see pace.py).  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` wrappers are installed around each layer's entry points and
it carries the per-layer metrics.

``--workload all`` runs every workload in turn and prints one line each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-n20", "dense-n1000", "long-n20")
DENSE_FILE = os.path.join(HERE, "generated", "dense-n1000.json")
SETUP_PROBES = 10
TIMEOUT_S = 170.0

# metric names and units, end-to-end (untraced run) and per-layer (traced)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE])
    return env


def _python(argv, timeout: float) -> str:
    """Run a Python script to its end; its standard output."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} timed out after {timeout:.0f} s") \
            from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}")
    return proc.stdout


def _worker(workload: str, seed: int, seconds: float, trace: int,
            setup_only: bool, timeout: float) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    launched = time.perf_counter()
    out = _python(argv + ["--launched", repr(launched)], timeout)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed nothing")
    return json.loads(lines[-1])


def ensure_inputs(workload: str) -> None:
    """Write the dense instance file once per checkout (the build step)."""
    if workload == "dense-n1000" and not os.path.exists(DENSE_FILE):
        _python([os.path.join(HERE, "workloads.py")], 600.0)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run; returns the result object the command prints."""
    ensure_inputs(workload)
    deadline = time.perf_counter() + TIMEOUT_S
    probes = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probes.append(_worker(workload, seed, 0.0, 0, True,
                                  deadline - time.perf_counter()))
    res = _worker(workload, seed, seconds, trace, False,
                  deadline - time.perf_counter())
    probes.append(res)
    setups = [p["setup_s"] for p in probes]
    passes = res["passes"]

    solve_s = statistics.median(p["solve_s"] for p in passes)
    audit_s = statistics.median(p["audit_s"] for p in passes)
    correct = res["correct"]
    if trace:
        counts = [k for k, u in LAYER_UNITS.items() if u == "count"]
        # layer counts, like results, repeat exactly pass by pass
        correct &= all(p["layers"][k] == passes[0]["layers"][k]
                       for p in passes for k in counts)
        values = {k: passes[0]["layers"][k] if k in counts else
                  statistics.median(p["layers"][k] for p in passes)
                  for k in LAYER_UNITS if k != "gallery.build_s"}
        values["gallery.build_s"] = res["gallery.build_s"]
        units = LAYER_UNITS
    else:
        values = {"setup_s": statistics.median(setups),
                  "solve_s": solve_s, "audit_s": audit_s,
                  "iterations": passes[0]["iterations"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = E2E_UNITS
    return {
        "correct": bool(correct),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
        "detail": {"workload": workload, "seed": seed, "trace": trace,
                   "passes": len(passes), "setup_samples": setups,
                   "wall_setup_s": [p["wall_setup_s"] for p in probes],
                   "solve_s": solve_s, "audit_s": audit_s,
                   "wall_solve_s": [p["wall_solve_s"] for p in passes],
                   "wall_audit_s": [p["wall_audit_s"] for p in passes],
                   "failures": passes[0]["failures"]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for res in results:
        d = res.pop("detail")
        figures = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                            for k, m in res["metrics"].items())
        print(f"{d['workload']} seed={d['seed']} passes={d['passes']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}: {figures}")
        for name, bad in d["failures"].items():
            print(f"  failed: {name}: {', '.join(bad)}")
        if d["trace"]:
            print(f"  traced solve_s {d['solve_s']:.6g} s")
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
