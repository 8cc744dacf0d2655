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
from varfista.gallery import QuadraticSpec, default_start, generate_qp
from varfista.solver import SolverConfig, solve

# Last re-pinned when U's two dot products moved from BLAS to c_einsum,
# the kernel of the ledger's gap quotients: all 38 runs kept their
# iteration counts, and the prox-gradient runs, which form no U, their
# bits (the per-run trace diff is logged in CHANGES.md).
SOLVE_TRACE_SHA256 = \
    "d7bfb3148ddcd875ad9959d25c2f954b6235b1ed31d0000b7a3fbbe9259acf4d"
L_GROWTH_SHA256 = \
    "1844fa2c849333515c2258ff19cb0a81f531d1a2c60f2db02030427bdbb6a7d1"
DENSE_N1000_SHA256 = \
    "01e52a3f3566d975b0e10f600c50207d8f65f96837adfe735d1f83d2baf4507e"


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
    # pinned when every product with Q was one unblocked BLAS call: the
    # blocked one-point products keep the solver's bits
    _, cert, trace = dense_n1000_run()
    assert cert.iterations == 300
    h = hashlib.sha256()
    _feed(h, tmp_path / "trace.csv", cert, trace)
    assert h.hexdigest() == DENSE_N1000_SHA256
