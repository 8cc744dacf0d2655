"""Golden solve traces: one sha256 over the outputs of a fixed set of runs.

Covers the adaptive solver on the clean audit corpus (starts drawn as
``run_audit_suite`` draws them) and on four n=200 indefinite instances, plus
both constant-step baselines on the first six corpus instances.  A second
hash covers one nonconvex run whose lower-curvature estimate L grows (from
0 at k=20, through six positive values), the path on which the history
check rescans committed pairs.  A third covers a capped n=1000 run, whose
products with Q are made a block of rows at a time.  Each run contributes
its trace CSV bytes, ``y_hat``, ``v_hat`` and the certificate counters.  A
refactor that keeps every output bit for bit keeps the hashes.
"""

import hashlib

import numpy as np

import varfista.solver as solver_mod
from varfista.audit import audit_corpus
from varfista.baselines import run_fista_constant, run_prox_gradient
from varfista.gallery import QuadraticSpec, default_start, generate_qp
from varfista.solver import SolverConfig, solve

SOLVE_TRACE_SHA256 = \
    "9644f6d2000b76e55a4aff131fad8297747ce6cc8030de7dfc2727016026a4db"
L_GROWTH_SHA256 = \
    "6fded4508b249a5145d93043ae4afcd52966739bdce4851b0088ec6ef23f804a"
DENSE_N1000_SHA256 = \
    "4e990ed6a29010ce41884f023683c5e3b9cd96d890e4986634d0572afd16ad92"


def _feed(h, path, cert, trace):
    trace.write_csv(str(path))
    h.update(path.read_bytes())
    h.update(cert.y_hat.tobytes())
    h.update(cert.v_hat.tobytes())
    h.update(repr((cert.iterations, cert.prox_calls, cert.grad_calls,
                   cert.converged)).encode())


def test_solve_traces_match_golden_hash(tmp_path):
    h = hashlib.sha256()
    path = tmp_path / "trace.csv"
    corpus = audit_corpus(20, 0)
    rng = np.random.default_rng(0 ^ 0x5eed)
    starts = []
    for problem in corpus:
        lo, hi = problem.regularizer.domain_box
        starts.append(lo + rng.random(problem.dimension) * (hi - lo))
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
    for problem, y0 in zip(corpus, starts):
        cert, trace, _ = solve(problem, cfg, y0)
        _feed(h, path, cert, trace)
    for seed in range(4):
        problem = generate_qp(QuadraticSpec(n=200, eig_lo=-1.0,
                                            eig_hi=100.0, seed=seed))
        cert, trace, _ = solve(problem, SolverConfig(rho_hat=1e-6),
                               default_start(problem))
        _feed(h, path, cert, trace)
    base = SolverConfig(lambda0=0.05, max_outer_iterations=3000)
    for problem, y0 in zip(corpus[:6], starts[:6]):
        for run in (run_fista_constant, run_prox_gradient):
            cert, trace = run(problem, base, y0)
            _feed(h, path, cert, trace)
    assert h.hexdigest() == SOLVE_TRACE_SHA256


def test_l_growth_trace_matches_golden_hash(tmp_path, monkeypatch):
    # curvature down to -1: L turns positive at k=20 and grows five more
    # times; each growth rescans the committed pairs
    scans = []
    original = solver_mod._committed_pairs_violated

    def counted(*args):
        scans.append(args)
        return original(*args)

    monkeypatch.setattr(solver_mod, "_committed_pairs_violated", counted)
    problem = generate_qp(QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0,
                                        seed=3))
    cfg = SolverConfig(rho_hat=1e-7, max_outer_iterations=2000)
    cert, trace, _ = solve(problem, cfg, default_start(problem))
    assert trace.L[18] == 0.0 < trace.L[19]
    assert len(set(trace.L)) >= 3
    assert scans
    h = hashlib.sha256()
    _feed(h, tmp_path / "trace.csv", cert, trace)
    assert h.hexdigest() == L_GROWTH_SHA256


def test_capped_dense_n1000_trace_matches_golden_hash(tmp_path):
    # pinned when every product with Q was one unblocked BLAS call: the
    # blocked one-point products keep the solver's bits
    problem = generate_qp(QuadraticSpec(n=1000, eig_lo=0.01, eig_hi=100.0,
                                        seed=0))
    cfg = SolverConfig(rho_hat=1e-6, max_outer_iterations=300)
    cert, trace, _ = solve(problem, cfg, default_start(problem))
    assert cert.iterations == 300
    h = hashlib.sha256()
    _feed(h, tmp_path / "trace.csv", cert, trace)
    assert h.hexdigest() == DENSE_N1000_SHA256
