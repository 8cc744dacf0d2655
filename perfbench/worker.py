"""One workload process: set up, then run whole passes for the given time.

Started by ``run.py`` with the BLAS thread count already set to one and
``src`` on the path.  ``--launched`` is the parent's ``time.perf_counter()``
just before it started this process (a system-wide monotonic clock on
Linux), so ``setup_s`` covers interpreter start, ``import varfista`` and
building or loading the instances.  Times are paced (see pace.py).  Prints
one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _require_checkout_package(root: str) -> None:
    import varfista
    src = os.path.join(root, "src", "varfista")
    if os.path.dirname(os.path.abspath(varfista.__file__)) != src:
        sys.exit(f"varfista was imported from {varfista.__file__}, "
                 f"not from {src}")


def main() -> None:
    args = _args()
    import pace
    setup_pacer = pace.Pacer("interp")
    setup_pacer.start(pace.SETUP_INTERVAL)
    tracer = restore = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
    import workloads
    ops = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    setup_pacer.stop()
    wall_setup_s, setup_s = setup_pacer.paced(args.launched, ready)
    _require_checkout_package(os.path.dirname(workloads.HERE))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return
    build_end = len(tracer) if tracer else 0

    import checks
    import varfista.audit as vf_audit
    import varfista.solver as vf_solver

    insts = [checks.prepare(op.problem, op.config.rho_hat) for op in ops]

    pacer = pace.Pacer(pace.KIND[args.workload])
    pacer.start()
    passes = []
    first = {}  # op index -> (iterations, y_hat digest, failures) of pass 1
    correct = True
    t_begin = time.perf_counter()
    while True:
        span_lo = len(tracer) if tracer else 0
        solve_s = audit_s = wall_solve_s = wall_audit_s = 0.0
        iterations = failed = 0
        ledger_mb = trace_mb = 0.0
        failures = {}
        for idx, op in enumerate(ops):
            inst, ref = insts[idx]
            t0 = time.perf_counter()
            try:
                cert, trace, ledger = vf_solver.solve(op.problem, op.config,
                                                      op.y0)
            except (RuntimeError, ValueError, FloatingPointError) as exc:
                wall, paced = pacer.paced(t0, time.perf_counter())
                wall_solve_s += wall
                solve_s += paced
                failures[op.name] = [f"solve raised {exc!r}"]
                failed += 1
                continue
            t1 = time.perf_counter()
            report = vf_audit.audit_run(op.problem, op.config, cert, trace,
                                        ledger, op.y0)
            t2 = time.perf_counter()
            wall, paced = pacer.paced(t0, t1)
            wall_solve_s += wall
            solve_s += paced
            wall, paced = pacer.paced(t1, t2)
            wall_audit_s += wall
            audit_s += paced
            iterations += cert.iterations
            bad = checks.check_run(inst, op.config.rho_hat, cert.y_hat,
                                   cert.v_hat, trace.xi, trace.tau, trace.L,
                                   ref)
            if not cert.converged:
                bad.append("iteration-cap")
            bad += [f"audit:{c.name}" for c in report.failures()]
            if bad:
                failed += 1
                failures[op.name] = bad
            if tracer:
                ledger_mb = max(ledger_mb, tracing.computed_mb(ledger))
                trace_mb = max(trace_mb, tracing.computed_mb(trace))
            outcome = (cert.iterations,
                       hashlib.sha256(cert.y_hat.tobytes()).hexdigest(), bad)
            if first.setdefault(idx, outcome) != outcome:
                correct = False  # a rerun of the same inputs differed
            del cert, trace, ledger, report
        record = {"solve_s": solve_s, "audit_s": audit_s,
                  "wall_solve_s": wall_solve_s, "wall_audit_s": wall_audit_s,
                  "iterations": iterations, "attempted": len(ops),
                  "failed": failed, "failures": failures}
        if tracer:
            layers = tracing.layer_metrics(tracer, span_lo, len(tracer),
                                           iterations)
            layers["solver.ledger_mb"] = ledger_mb
            layers["solver.trace_mb"] = trace_mb
            record["layers"] = layers
        passes.append(record)
        if time.perf_counter() - t_begin >= args.seconds:
            break
    pacer.stop()

    out = {"setup_s": setup_s, "wall_setup_s": wall_setup_s,
           "passes": passes, "correct": correct,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer:
        out["gallery.build_s"] = tracing.build_seconds(tracer, 0, build_end)
        restore()
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    finally:
        # a run that raises must not be ended by the pacer's timer signal
        signal.setitimer(signal.ITIMER_REAL, 0.0)
