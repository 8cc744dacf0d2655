"""End-to-end acceptance gate for the adaptive solver.

Each test below is one acceptance criterion, named test_criterion_NN_* so
that ``pytest -v`` prints exactly one pass/fail line per criterion.  Every
test also emits a ``CRITERION NN <name>: PASS|FAIL`` line on stdout
(visible with ``-s`` or on failure) with a short numeric detail.

The shared corpus is 20 seeded box-constrained quadratics, alternating
strongly convex and indefinite curvature, each solved once from a seeded
random start and audited.  Criteria that need fresh runs (tolerance
sweeps, baseline equivalence, grid scans) build their own instances.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from varfista.audit import audit_corpus, audit_run
from varfista.baselines import run_fista_constant
from varfista.cli import fit_slope
from varfista.diagnostics import (
    ModelFunction,
    TheoreticalBounds,
    check_xk_drift,
    check_xk_optimality,
)
from varfista.gallery import (
    QuadraticSpec,
    brute_force_stationary,
    default_start,
    generate_qp,
    make_qp_problem,
)
from varfista.momentum import check_schedule_bounds
from varfista.problems import verify_certificate
from varfista.solver import SolverConfig, replay_anchors, solve

CORPUS_CONFIG = SolverConfig(rho_hat=1e-6, max_outer_iterations=10_000)


def _report(num, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {num:02d} {name}: {verdict}{suffix}")
    assert passed, f"criterion {num:02d} {name} failed: {detail}"


@dataclass(frozen=True)
class _Run:
    problem: object
    y0: np.ndarray
    cert: object
    trace: object
    ledger: object
    report: object


def _corpus_start(problem, index):
    rng = np.random.default_rng(1000 + index)
    lo, hi = problem.regularizer.domain_box
    return lo + rng.random(lo.shape[0]) * (hi - lo)


@pytest.fixture(scope="session")
def corpus_runs():
    problems = audit_corpus(20, 0)
    runs = []
    t0 = time.perf_counter()
    for i, prob in enumerate(problems):
        y0 = _corpus_start(prob, i)
        cert, trace, ledger = solve(prob, CORPUS_CONFIG, y0)
        report = audit_run(prob, CORPUS_CONFIG, cert, trace, ledger, y0)
        runs.append(_Run(prob, y0, cert, trace, ledger, report))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_01_schedule_growth_envelope():
    check_schedule_bounds(1000)  # warm-up call, not timed
    t0 = time.perf_counter()
    rep = check_schedule_bounds(100_000)
    elapsed = time.perf_counter() - t0
    margins = (rep.lower_margin, rep.upper_margin, rep.sum_margin,
               rep.ratio_margin)
    ok = (rep.passed and min(margins) >= 0.0
          and rep.max_rel_gap <= 1e-9 and elapsed < 1.0)
    _report(1, "schedule-growth-envelope", ok,
            f"k_max=100000 min_margin={min(margins):.3e} "
            f"max_rel_gap={rep.max_rel_gap:.2e} elapsed={elapsed:.3f}s")


def test_criterion_02_corpus_convergence_and_audit(corpus_runs):
    runs, elapsed = corpus_runs
    converged = sum(r.cert.converged for r in runs)
    within_cap = sum(len(r.trace) <= 10_000 for r in runs)
    audited = sum(r.report.passed for r in runs)
    ok = (converged == 20 and within_cap == 20 and audited == 20
          and elapsed < 60.0)
    _report(2, "corpus-convergence-and-audit", ok,
            f"converged={converged}/20 audits={audited}/20 "
            f"elapsed={elapsed:.2f}s")


def test_criterion_03_convex_runs_stay_unescalated(corpus_runs):
    runs, _ = corpus_runs
    convex = [r for r in runs if r.problem.smooth.audit_curvature == 0.0]
    assert len(convex) == 10
    clean = sum(
        bool(np.all(r.trace.xi == 0.0) and np.all(r.trace.tau == 0.0))
        for r in convex)
    _report(3, "convex-runs-stay-unescalated", clean == 10,
            f"clean={clean}/10 convex runs with xi=tau=0 throughout")


def test_criterion_04_certificates_verify_across_tolerances():
    problems = audit_corpus(4, 0)
    checks = 0
    total = 0
    worst = 0.0
    for i, prob in enumerate(problems):
        y0 = _corpus_start(prob, i)
        for rho in (1e-3, 1e-6):
            total += 1
            cfg = SolverConfig(rho_hat=rho, max_outer_iterations=10_000)
            cert, _, _ = solve(prob, cfg, y0)
            good = (cert.converged and cert.residual_norm <= rho
                    and verify_certificate(prob, cert, s=1.0, tol=1e-8,
                                           rho_hat=rho))
            checks += bool(good)
            worst = max(worst, cert.residual_norm / rho)
    _report(4, "certificate-verification", checks == total,
            f"verified={checks}/{total} worst resid/rho={worst:.2e}")


def _scan_instances():
    """1-D and 2-D instances small enough for a dense grid scan."""
    def one_d(q, c, lo, hi, w=0.0):
        return make_qp_problem(np.array([[q]]), np.array([c]),
                               np.array([lo]), np.array([hi]), l1_weight=w)

    seeded_l1 = generate_qp(QuadraticSpec(n=2, eig_lo=2.0, eig_hi=6.0, seed=9))
    tight = np.full(2, 0.3)
    return [
        one_d(2.0, -4.0, 0.0, 1.0),          # minimizer pinned to a face
        one_d(-1.0, 0.0, -1.0, 1.0),         # concave, both faces stationary
        one_d(2.0, -1.0, -1.0, 1.0, w=0.3),  # l1 shrinkage off the kink
        one_d(2.0, -0.2, -1.0, 1.0, w=0.5),  # l1 weight pins the kink
        generate_qp(QuadraticSpec(n=1, eig_lo=3.0, eig_hi=3.0, seed=5)),
        generate_qp(QuadraticSpec(n=1, eig_lo=-2.0, eig_hi=-2.0, seed=6)),
        generate_qp(QuadraticSpec(n=2, eig_lo=1.0, eig_hi=10.0, seed=0,
                                  box=(-0.3, 0.3))),
        generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6,
                                  box=(-0.3, 0.3))),
        generate_qp(QuadraticSpec(n=2, eig_lo=-2.0, eig_hi=-1.0, seed=2,
                                  box=(-0.3, 0.3))),
        make_qp_problem(seeded_l1.smooth.Q, seeded_l1.smooth.c,
                        -tight, tight, l1_weight=0.3),
    ]


def test_criterion_05_brute_force_agreement():
    cfg = SolverConfig(rho_hat=1e-8, max_outer_iterations=20_000)
    worst = 0.0
    hits = 0
    instances = _scan_instances()
    for prob in instances:
        cert, _, _ = solve(prob, cfg, default_start(prob))
        points = brute_force_stationary(prob, 1e-4)
        dist = min(float(np.linalg.norm(cert.y_hat - p)) for p in points)
        worst = max(worst, dist)
        hits += bool(cert.converged and dist <= 2e-4)
    _report(5, "brute-force-agreement", hits == len(instances),
            f"matched={hits}/{len(instances)} worst_dist={worst:.2e}")


def test_criterion_06_constant_step_equivalence():
    prob = generate_qp(QuadraticSpec(n=20, eig_lo=1.0, eig_hi=10.0, seed=0))
    y0 = default_start(prob)
    lam0 = 0.99 / prob.smooth.audit_lipschitz
    cfg = SolverConfig(lambda0=lam0, rho_hat=1e-30, max_outer_iterations=500)
    _, tr_a, _ = solve(prob, cfg, y0)
    _, tr_b = run_fista_constant(prob, cfg, y0)
    n = min(len(tr_a), len(tr_b))
    dev = float(np.max(np.abs(tr_a.Y[:n + 1] - tr_b.Y[:n + 1])))
    ok = len(tr_a) == 500 and len(tr_b) == 500 and dev <= 1e-10
    _report(6, "constant-step-equivalence", ok,
            f"iterations={n} max_deviation={dev:.2e}")


def test_criterion_07_inner_work_budget(corpus_runs):
    runs, _ = corpus_runs
    cfg = CORPUS_CONFIG
    within = 0
    worst_slack = math.inf
    for r in runs:
        bounds = TheoreticalBounds.from_problem(r.problem, cfg)
        budget = max(
            math.log(cfg.lambda0 / bounds.lambda_floor) / math.log(cfg.theta),
            math.log2(bounds.xi_bar) if bounds.xi_bar > 0.0 else 0.0,
            0.0) + 2.0
        slack = r.cert.iterations + budget - r.cert.prox_calls
        worst_slack = min(worst_slack, slack)
        within += bool(slack >= 0.0)
    _report(7, "inner-work-budget", within == 20,
            f"within={within}/20 tightest slack={worst_slack:.2f} repeats")


# The solver is deterministic, so a ladder's slope repeats bit for bit; the
# margin admits small changes in its retry sequence and nothing more.
_SLOPE_MARGIN = 0.05


def test_criterion_08_tolerance_ladder_rates():
    """The slope of log N against log(1/rho) stays within _SLOPE_MARGIN
    of its measured value: 0.225 on the strongly convex ladder and 0.163
    on the indefinite one."""
    ladder = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    cases = (
        ("convex", QuadraticSpec(n=20, eig_lo=1.0, eig_hi=10.0, seed=0),
         0.225 + _SLOPE_MARGIN),
        ("rough", QuadraticSpec(n=20, eig_lo=-1.0, eig_hi=10.0, seed=1),
         0.163 + _SLOPE_MARGIN),
    )
    t0 = time.perf_counter()
    ok = True
    details = []
    for label, spec, cap in cases:
        prob = generate_qp(spec)
        y0 = default_start(prob)
        iters = []
        for rho in ladder:
            cfg = SolverConfig(rho_hat=rho, max_outer_iterations=200_000)
            cert, _, _ = solve(prob, cfg, y0)
            ok = ok and cert.converged
            iters.append(cert.iterations)
        slope = fit_slope(ladder, iters)
        ok = ok and slope is not None and slope <= cap
        details.append(f"{label} slope={slope:.3f}<= {cap:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(8, "tolerance-ladder-rates", ok,
            "; ".join(details) + f"; elapsed={elapsed:.2f}s")


def test_criterion_09_anchor_subproblem_optimality():
    probes = (
        make_qp_problem(np.array([[2.0]]), np.array([-4.0]),
                        np.array([0.0]), np.array([1.0])),
        generate_qp(QuadraticSpec(n=1, eig_lo=-2.0, eig_hi=-2.0, seed=6)),
        generate_qp(QuadraticSpec(n=2, eig_lo=-1.0, eig_hi=8.0, seed=6)),
    )
    cfg = SolverConfig(rho_hat=1e-30, max_outer_iterations=100)
    checked = 0
    confirmed = 0
    for prob in probes:
        y0 = default_start(prob)
        _, trace, ledger = solve(prob, cfg, y0)
        a, xs = replay_anchors(prob, trace)
        x_prev = y0
        X, F, G, _ = ledger.record_arrays(len(trace))
        for i in range(len(trace)):
            model = ModelFunction(x_tilde=X[i], f_at=float(F[i]),
                                  grad_at=G[i], y_k=trace.Y[i + 1],
                                  lam_k=trace.lam[i], tau_k=trace.tau[i],
                                  regularizer=prob.regularizer)
            verdict = check_xk_optimality(prob, model, xs[i], x_prev, a[i])
            checked += 1
            confirmed += verdict is True
            x_prev = xs[i]
    _report(9, "anchor-subproblem-optimality", confirmed == checked,
            f"confirmed={confirmed}/{checked} iterations across "
            f"{len(probes)} runs")


def test_criterion_10_iterate_drift_bound(corpus_runs):
    runs, _ = corpus_runs
    bounded = 0
    worst = 0.0
    for r in runs:
        bounds = TheoreticalBounds.from_problem(r.problem, CORPUS_CONFIG)
        drift = check_xk_drift(replay_anchors(r.problem, r.trace)[1], r.y0,
                               bounds)
        bounded += bool(drift.passed)
        worst = max(worst, drift.worst_ratio)
    _report(10, "iterate-drift-bound", bounded == 20,
            f"bounded={bounded}/20 worst ratio={worst:.3f} of C")


def test_criterion_11_convex_adaptivity():
    """On convex f, VAR-FISTA keeps the constant-step method's iteration
    count: L and xi stay 0, so its only cost over FISTA at step 0.99/M is
    its adaptive stepsize.  For an accelerated method the iterations to a
    residual grow like lam^(-1/2), and the measured ratios (1.16, 1.17,
    1.02, 1.01, 1.00 on seeds 0-4) equal sqrt(0.99/M / min lam) to two
    digits.  The stepsize only shrinks, to min(lam/theta, gamma/U) once
    U lam > gamma, and U <= M, so lam_K M > gamma/theta: on these runs
    lam_K M lies in (gamma/theta, gamma] = (0.495, 0.99] (0.73-0.99), and
    where it lands there is luck of the instance.  The factor 1.25
    therefore belongs to these five seeds, not to the method: convex least
    squares 0.5 ||Au - b||^2 on a +-1000 box reached 1.51.  It sits far
    below the 4.1-5.6x that an escalation to xi = 1 costs on these
    instances.  The wide box (+-1000) makes the terms of f(u) about 1e7
    while the gap numerators are about 1e-9, the case where roundoff can
    pass for concavity."""
    ratios = []
    for seed in range(5):
        prob = generate_qp(QuadraticSpec(n=20, eig_lo=0.001, eig_hi=100.0,
                                         box=(-1000.0, 1000.0), seed=seed))
        y0 = default_start(prob)
        step = 0.99 / prob.smooth.audit_lipschitz
        cert, trace, _ = solve(prob, SolverConfig(
            rho_hat=1e-2, max_outer_iterations=20_000), y0)
        base, _ = run_fista_constant(prob, SolverConfig(
            lambda0=step, rho_hat=1e-2, max_outer_iterations=20_000), y0)
        assert cert.converged and base.converged
        ratios.append(cert.iterations / base.iterations)
    _report(11, "convex-adaptivity", max(ratios) <= 1.25,
            "iterations / FISTA(0.99/M) = "
            + ", ".join(f"{r:.2f}" for r in ratios) + " (cap 1.25)")
