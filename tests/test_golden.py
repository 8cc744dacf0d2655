"""Golden solve traces: one sha256 over the outputs of a fixed set of runs.

Covers the adaptive solver on the clean audit corpus (starts drawn as
``run_audit_suite`` draws them) and on four n=200 indefinite instances, plus
both constant-step baselines on the first six corpus instances.  A second
hash covers one nonconvex run whose lower-curvature estimate L grows (from
0 at k=20, through six positive values), the path on which the history
check rescans committed pairs.  A third covers a capped n=1000 run, whose
products with Q are made a block of rows at a time.  Each run contributes
its trace CSV bytes, ``y_hat``, ``v_hat`` and the certificate counters.  A
refactor that keeps every output bit for bit keeps the hashes; after one
that does not, ``python tests/trace_diff.py --golden DIR`` writes every
golden run's trace, so the traces of two trees can be compared.
"""

import hashlib

import numpy as np

import varfista.solver as solver_mod
from varfista.audit import audit_corpus
from varfista.baselines import run_fista_constant, run_prox_gradient
from varfista.gallery import (QuadraticOracle, QuadraticSpec, default_start,
                              generate_qp)
from varfista.solver import SolverConfig, solve

# Last re-pinned when the momentum point's product with Q came to be
# combined from the last two trial points' products (p Q y_{k-1} - q Q
# y_{k-2}) instead of made afresh: all 38 runs kept their iteration counts
# and their lam, xi, tau and inner_repeats bits, and the prox-gradient
# runs, which form no momentum point, all their bits (the per-run trace
# diff is logged in CHANGES.md).
SOLVE_TRACE_SHA256 = \
    "bc54c8a38810ea656213696da0157f0e11166822d54e7a84079ef4991179c70a"
L_GROWTH_SHA256 = \
    "2da2d4bfc155b490aae3ff53bce79ec561983a5723ff07bbcdf226064265a6b6"
DENSE_N1000_SHA256 = \
    "c5ac7f1592d75b53c7940796b139fc531985127b24e077b2b3c694d475a36990"


def _feed(h, path, cert, trace):
    trace.write_csv(str(path))
    h.update(path.read_bytes())
    h.update(cert.y_hat.tobytes())
    h.update(cert.v_hat.tobytes())
    h.update(repr((cert.iterations, cert.prox_calls, cert.grad_calls,
                   cert.converged)).encode())


def solve_trace_runs():
    """(name, certificate, trace) of the runs under SOLVE_TRACE_SHA256, in
    hash order."""
    corpus = audit_corpus(20, 0)
    rng = np.random.default_rng(0 ^ 0x5eed)
    starts = []
    for problem in corpus:
        lo, hi = problem.regularizer.domain_box
        starts.append(lo + rng.random(problem.dimension) * (hi - lo))
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    for i, (problem, y0) in enumerate(zip(corpus, starts)):
        yield (f"corpus-{i:02d}", *solve(problem, cfg, y0)[:2])
    for seed in range(4):
        problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0,
                                            eig_hi=100.0, seed=seed))
        yield (f"n200-seed{seed}",
               *solve(problem, SolverConfig(rho_hat=1e-6),
                      default_start(problem))[:2])
    base = SolverConfig(lambda0=0.05, max_outer_iterations=3000)
    for i, (problem, y0) in enumerate(zip(corpus[:6], starts[:6])):
        for name, run in (("fista", run_fista_constant),
                          ("proxgrad", run_prox_gradient)):
            yield (f"{name}-corpus-{i:02d}", *run(problem, base, y0))


def l_growth_run():
    """(name, certificate, trace) of the run under L_GROWTH_SHA256: curvature
    down to -1, where L turns positive at k=20 and grows five more times."""
    problem = generate_qp(QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0,
                                        seed=3))
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=2000)
    return ("l-growth", *solve(problem, cfg, default_start(problem))[:2])


def dense_n1000_run():
    """(name, certificate, trace) of the capped run under
    DENSE_N1000_SHA256."""
    problem = generate_qp(QuadraticSpec(n=1000, eig_lo=0.01, eig_hi=100.0,
                                        seed=0))
    cfg = SolverConfig(rho_hat=1e-6, max_outer_iterations=300)
    return ("dense-n1000", *solve(problem, cfg, default_start(problem))[:2])


def golden_runs():
    """Every golden run, as (name, certificate, trace)."""
    yield from solve_trace_runs()
    yield l_growth_run()
    yield dense_n1000_run()


def test_solve_traces_match_golden_hash(tmp_path):
    h = hashlib.sha256()
    path = tmp_path / "trace.csv"
    for _, cert, trace in solve_trace_runs():
        _feed(h, path, cert, trace)
    assert h.hexdigest() == SOLVE_TRACE_SHA256


def test_l_growth_trace_matches_golden_hash(tmp_path, monkeypatch):
    # each growth of L rescans the committed pairs
    scans = []
    original = solver_mod._committed_pairs_violated

    def counted(*args):
        scans.append(args)
        return original(*args)

    monkeypatch.setattr(solver_mod, "_committed_pairs_violated", counted)
    _, cert, trace = l_growth_run()
    assert trace.L[18] == 0.0 < trace.L[19]
    assert len(set(trace.L)) >= 3
    assert scans
    h = hashlib.sha256()
    _feed(h, tmp_path / "trace.csv", cert, trace)
    assert h.hexdigest() == L_GROWTH_SHA256


def test_capped_dense_n1000_trace_matches_golden_hash(tmp_path):
    # the trial points' products with Q are made a block of rows at a
    # time; the momentum points' are combined from them
    _, cert, trace = dense_n1000_run()
    assert cert.iterations == 300
    h = hashlib.sha256()
    _feed(h, tmp_path / "trace.csv", cert, trace)
    assert h.hexdigest() == DENSE_N1000_SHA256


# the combined product's roundoff bound, in units of eps ||Q||_inf
# max(||x_tilde_k||, ||y_{k-1}||, ||y_{k-2}||) (infinity norms).  Both the
# combined and the direct product err by about that much, and p Q y_{k-1}
# - q Q y_{k-2} weighs two products by p + q < 3.  Over the 32 golden runs
# that combine, the largest measured is 1.59 (median per run 0.13 to
# 0.59), so 4 leaves room and still fails a wrong weight, which errs by
# O(1) relative
COMBINED_ROUNDOFF_MULT = 4.0


def test_combined_momentum_products_are_within_roundoff(monkeypatch):
    # replays one convex corpus run, one indefinite n = 200 run and the
    # capped dense n = 1000 run; each momentum point's record is combined
    # from the records of the last two accepted trial points, not made by
    # a product, and the convex runs keep L = xi = tau = 0
    combined = []
    combine = QuadraticOracle.combine

    def recorded(self, u, p, first, q, second):
        point = combine(self, u, p, first, q, second)
        combined.append((self.Q, first.u, second.u, point))
        return point

    monkeypatch.setattr(QuadraticOracle, "combine", recorded)

    def taken(run):  # the run with the combine calls it made
        calls = combined[:]
        combined.clear()
        return run, calls

    runs = solve_trace_runs()
    picked = [taken(next(runs))]  # corpus-00, convex
    for run in runs:
        if run[0] == "n200-seed0":
            picked.append(taken(run))
            break
        combined.clear()
    picked.append(taken(dense_n1000_run()))
    eps = np.finfo(float).eps
    for ((name, cert, trace), calls), convex in zip(picked,
                                                    (True, False, True)):
        assert len(calls) == len(trace) == cert.iterations, name
        Q = calls[0][0]
        q_inf = np.abs(Q).sum(axis=1).max()
        for k, (_, y1, y2, point) in enumerate(calls, start=1):
            assert np.array_equal(y1, trace.Y[k - 1]), (name, k)
            assert np.array_equal(y2, trace.Y[max(k - 2, 0)]), (name, k)
            if k < 2:
                continue
            scale = max(np.abs(point.u).max(), np.abs(y1).max(),
                        np.abs(y2).max())
            err = np.abs(point.part - Q @ point.u).max()
            assert err <= COMBINED_ROUNDOFF_MULT * eps * q_inf * scale, \
                (name, k, err / (eps * q_inf * scale))
        if convex:
            assert not (trace.L.any() or trace.xi.any() or trace.tau.any())
        else:
            assert trace.L.any()
