"""The benchmark's own tests: its checks reject broken results and accept
clean runs of every workload, and neither tracing nor pacing changes a
result.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import varfista.solver as vf_solver  # noqa: E402


class Run:
    """One solved operation with the inputs of its checks."""

    def __init__(self, op):
        self.op = op
        self.cert, self.trace, self.ledger = vf_solver.solve(
            op.problem, op.config, op.y0)
        self.inst, self.ref = checks.prepare(op.problem, op.config.rho_hat)

    def check(self, **override):
        args = dict(y_hat=self.cert.y_hat, v_hat=self.cert.v_hat,
                    xi=self.trace.xi, tau=self.trace.tau, L=self.trace.L)
        args.update(override)
        return checks.check_run(self.inst, self.op.config.rho_hat,
                                reference=self.ref, **args)


@pytest.fixture(scope="module")
def corpus_runs():
    # instances alternate convex / indefinite
    return [Run(op) for op in workloads.corpus_n20()[:6]]


@pytest.fixture(scope="module")
def long_runs():
    return [Run(op) for op in workloads.long_n20()]


def test_clean_corpus_runs_pass(corpus_runs):
    assert any(r.inst.mu > 0.0 for r in corpus_runs)
    assert any(r.inst.mu < 0.0 for r in corpus_runs)
    for run in corpus_runs:
        assert run.check() == [], run.op.name


def test_clean_long_runs_pass(long_runs):
    for run in long_runs[:2]:
        assert run.ref is not None
        assert run.check() == [], run.op.name


def test_convex_escalation_fault_is_caught(long_runs):
    # the third long-n20 instance is strongly convex, yet xi escalates
    assert long_runs[2].check() == ["convex-stays-zero"]


def test_clean_dense_run_passes(tmp_path):
    path = str(tmp_path / "dense.json")
    workloads.write_dense_instance(path)
    (op,) = workloads.dense_n1000(path)
    run = Run(op)
    assert run.cert.iterations == 1681
    assert run.check() == []


def test_checks_hold_the_problem_arrays_not_copies(corpus_runs):
    run = corpus_runs[0]
    assert run.inst.Q is run.op.problem.smooth.Q


def test_seed_orders_the_operations_and_moves_nothing_else():
    one, two = workloads.build("long-n20", 1), workloads.build("long-n20", 2)
    assert [op.name for op in one] != [op.name for op in two]
    assert sorted(op.name for op in one) == sorted(op.name for op in two)
    same = {op.name: op for op in one}
    for op in two:
        assert op.y0.tobytes() == same[op.name].y0.tobytes()


def test_tampered_v_hat_is_rejected(corpus_runs):
    run = corpus_runs[0]
    y, lo, hi = run.cert.y_hat, run.inst.lo, run.inst.hi
    i = int(np.flatnonzero((y > lo) & (y < hi))[0])
    v = run.cert.v_hat.copy()
    v[i] += 0.5 * run.op.config.rho_hat  # small enough to keep ||v|| low
    assert "normal-cone" in run.check(v_hat=v)
    v[i] += 10.0 * run.op.config.rho_hat
    assert "residual" in run.check(v_hat=v)


def test_y_hat_moved_off_box_face_is_rejected(corpus_runs):
    run = next(r for r in corpus_runs
               if np.any(r.cert.y_hat == r.inst.lo)
               or np.any(r.cert.y_hat == r.inst.hi))
    y, lo, hi = run.cert.y_hat.copy(), run.inst.lo, run.inst.hi
    i = int(np.flatnonzero((y == lo) | (y == hi))[0])
    y[i] += 1e-3 if y[i] == lo[i] else -1e-3
    failed = run.check(y_hat=y)
    assert "normal-cone" in failed
    assert "pg-residual" in failed


def test_y_hat_moved_outside_box_is_rejected(corpus_runs):
    run = corpus_runs[0]
    y = run.cert.y_hat.copy()
    y[0] = run.inst.hi[0] + 1e-3
    assert "in-box" in run.check(y_hat=y)


def test_convex_trace_with_one_xi_set_to_one_is_rejected(corpus_runs):
    run = next(r for r in corpus_runs if r.inst.mu > 0.0)
    xi = list(run.trace.xi)
    xi[len(xi) // 2] = 1.0
    assert run.check(xi=xi) == ["convex-stays-zero"]


def test_point_far_from_the_minimiser_is_rejected(long_runs):
    run = long_runs[0]
    u_ref, err = run.ref
    radius = run.op.config.rho_hat / run.inst.mu
    moved = (u_ref + 10.0 * radius / np.sqrt(u_ref.shape[0]), err)
    assert checks.check_run(run.inst, run.op.config.rho_hat, run.cert.y_hat,
                            run.cert.v_hat, run.trace.xi, run.trace.tau,
                            run.trace.L, moved) == ["minimiser"]


def test_tracing_changes_no_result_and_counts_match(corpus_runs):
    op = corpus_runs[1].op
    tracer = tracing.Tracer()
    original = vf_solver.solve
    restore = tracing.install(tracer)
    try:
        cert, trace, ledger = vf_solver.solve(op.problem, op.config, op.y0)
    finally:
        restore()
    assert vf_solver.solve is original
    plain = corpus_runs[1].cert
    assert cert.iterations == plain.iterations
    assert cert.y_hat.tobytes() == plain.y_hat.tobytes()
    layers = tracing.layer_metrics(tracer, 0, len(tracer), cert.iterations)
    assert layers["prox.calls"] == cert.prox_calls
    assert layers["gallery.grad_calls"] == cert.grad_calls
    assert layers["solver.rescans_full"] \
        + layers["solver.rescans_incremental"] == cert.prox_calls
    assert layers["solver.self_s"] > 0.0


def test_pacing_changes_no_result_and_drops_its_own_time(long_runs):
    op = long_runs[0].op
    pacer = pace.Pacer("python")
    pacer.start()
    try:
        t0 = time.perf_counter()
        cert, trace, ledger = vf_solver.solve(op.problem, op.config, op.y0)
        t1 = time.perf_counter()
    finally:
        pacer.stop()
    assert cert.y_hat.tobytes() == long_runs[0].cert.y_hat.tobytes()
    wall, paced = pacer.paced(t0, t1)
    assert 0.0 < wall < t1 - t0  # the sampler ran and its time is dropped
    assert paced > 0.0
