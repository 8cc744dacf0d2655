"""Command-line front end: run solvers, emit traces, audit runs, fit rates.

Subcommands:

* ``solve``: run one solver on one instance, print a JSON run report, and
  optionally write the iteration trace and audit the run.
* ``slope``: run the adaptive solver across a tolerance ladder and fit the
  log-log slope of iterations against inverse tolerance.
* ``audit``: generate a mixed convex/nonconvex corpus and audit every
  invariant on every run, plus the schedule growth envelope.

Exit codes: 0 success/converged, 1 usage or input error, 2 iteration cap
exhausted, 3 audit violation, 4 non-finite oracle output during a solve,
5 an iteration's inner repeat cap exhausted during a solve.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from .audit import AuditReport, audit_run, certificate_check, \
    run_audit_suite
from .baselines import run_fista_constant, run_prox_gradient
from .gallery import (QuadraticSpec, _problem_from_document, default_start,
                      generate_qp)
from .problems import CompositeProblem, phi
from .solver import (NumericalFailure, RepeatCapExhausted, SolverConfig,
                     solve)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_AUDIT = 3
EXIT_NUMERIC = 4
EXIT_REPEAT_CAP = 5


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with status 1 (argparse default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="varfista",
                     description="Adaptive proximal solver workbench")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    ps = sub.add_parser("solve", help="run a solver on one instance")
    ps.add_argument("--instance", required=True,
                    help="instance file path, or generator spec "
                         "qp:n=..,eig_lo=..,eig_hi=..[,c_scale=..]"
                         "[,box_lo=..][,box_hi=..][,l1=..][,seed=..]")
    ps.add_argument("--solver", choices=["var-fista", "fista", "proxgrad"],
                    default="var-fista")
    ps.add_argument("--rho", type=float, default=None,
                    help="target residual norm (required)")
    ps.add_argument("--lambda0", type=float, default=SolverConfig.lambda0,
                    help="initial stepsize; fixed step for the baselines")
    ps.add_argument("--theta", type=float, default=SolverConfig.theta)
    ps.add_argument("--gamma", type=float, default=SolverConfig.gamma)
    ps.add_argument("--max-iter", type=int,
                    default=SolverConfig.max_outer_iterations)
    ps.add_argument("--trace", default=None, metavar="PATH",
                    help="write the iteration trace as delimited text")
    ps.add_argument("--audit", action="store_true",
                    help="recheck every run invariant after solving")
    ps.add_argument("--seed", type=int, default=None,
                    help="seed for a random feasible start "
                         "(default: box midpoint)")

    pl = sub.add_parser("slope",
                        help="fit iterations vs tolerance on a log-log scale")
    pl.add_argument("--instance", required=True)
    pl.add_argument("--rho-list", default="1e-1,1e-2,1e-3,1e-4,1e-5",
                    help="comma-separated tolerance ladder")
    pl.add_argument("--out", default=None, metavar="PATH",
                    help="write the JSON table here as well as stdout")
    pl.add_argument("--lambda0", type=float, default=SolverConfig.lambda0)
    pl.add_argument("--theta", type=float, default=SolverConfig.theta)
    pl.add_argument("--gamma", type=float, default=SolverConfig.gamma)
    pl.add_argument("--max-iter", type=int, default=200_000)
    pl.add_argument("--seed", type=int, default=None)

    # an audit flag left out stays None: run_audit_suite's default applies
    pa = sub.add_parser("audit",
                        help="run the invariant audit suite on a corpus")
    pa.add_argument("--n-instances", type=int)
    pa.add_argument("--seed", type=int)
    pa.add_argument("--iters", type=int)
    pa.add_argument("--rho", type=float)

    return parser


# ---------------------------------------------------------------------------
# instance loading
# ---------------------------------------------------------------------------

_GENSPEC_DEFAULTS = {
    "n": "20", "eig_lo": "1", "eig_hi": "10", "c_scale": "1",
    "box_lo": "-1", "box_hi": "1", "l1": "0", "seed": "0",
}


def _parse_genspec(text: str) -> Tuple[CompositeProblem, Optional[int]]:
    fields = dict(_GENSPEC_DEFAULTS)
    body = text[len("qp:"):]
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, val = part.partition("=")
        if not sep or key.strip() not in fields:
            raise ValueError(f"bad generator field {part!r}")
        fields[key.strip()] = val.strip()
    spec = QuadraticSpec(n=int(fields["n"]), eig_lo=float(fields["eig_lo"]),
                         eig_hi=float(fields["eig_hi"]),
                         c_scale=float(fields["c_scale"]),
                         box=(float(fields["box_lo"]),
                              float(fields["box_hi"])),
                         seed=int(fields["seed"]))
    problem = generate_qp(spec)
    reg = replace(problem.regularizer, weight=float(fields["l1"]))
    return CompositeProblem(problem.smooth, reg), spec.seed


def _load_problem(text: str) -> Tuple[CompositeProblem, Optional[int]]:
    """Instance from a generator spec or a file; returns (problem, seed)."""
    if text.startswith("qp:"):
        return _parse_genspec(text)
    with open(text) as fh:
        doc = json.load(fh)
    return _problem_from_document(doc, text), doc.get("seed")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    problem, inst_seed = _load_problem(args.instance)
    y0 = default_start(problem, args.seed)

    config = SolverConfig(lambda0=args.lambda0, theta=args.theta,
                          gamma=args.gamma, rho_hat=args.rho,
                          max_outer_iterations=args.max_iter)
    audit_section = None
    if args.solver == "var-fista":
        cert, trace, ledger = solve(problem, config, y0)
        if args.audit:
            audit_section = audit_run(problem, config, cert, trace, ledger,
                                      y0)
    else:
        runner = run_fista_constant if args.solver == "fista" \
            else run_prox_gradient
        cert, trace = runner(problem, config, y0)
        if args.audit:
            audit_section = AuditReport([certificate_check(problem, cert,
                                                           args.rho)])

    if args.trace:
        trace.write_csv(args.trace)

    report = {
        "instance": {"id": args.instance, "seed": inst_seed,
                     "n": problem.dimension},
        "solver": args.solver,
        "config": {"rho_hat": args.rho, "lambda0": args.lambda0,
                   "theta": args.theta, "gamma": args.gamma,
                   "max_iter": args.max_iter, "start_seed": args.seed},
        "certificate": {
            "converged": bool(cert.converged),
            "residual_norm": float(cert.residual_norm),
            "iterations": int(cert.iterations),
            "prox_calls": int(cert.prox_calls),
            "grad_calls": int(cert.grad_calls),
            "phi_at_certificate": float(phi(problem, cert.y_hat)),
        },
        "trace_path": args.trace,
        "audit": None if audit_section is None else {
            "passed": audit_section.passed,
            "checks": [{"name": c.name, "passed": c.passed,
                        "detail": c.detail} for c in audit_section.checks],
        },
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")

    if audit_section is not None and not audit_section.passed:
        return EXIT_AUDIT
    return EXIT_OK if cert.converged else EXIT_CAP


# ---------------------------------------------------------------------------
# slope
# ---------------------------------------------------------------------------

def fit_slope(rhos: List[float], iterations: List[int]) -> Optional[float]:
    """OLS slope of log N against log(1/rho); None below two points."""
    if len(rhos) < 2:
        return None
    x = np.log(1.0 / np.asarray(rhos, dtype=np.float64))
    y = np.log(np.asarray(iterations, dtype=np.float64))
    return float(np.polyfit(x, y, 1)[0])


def _cmd_slope(args) -> int:
    problem, inst_seed = _load_problem(args.instance)
    try:
        rhos = [float(tok) for tok in args.rho_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"bad --rho-list: {exc}") from None
    if not rhos:
        raise ValueError("--rho-list is empty")
    y0 = default_start(problem, args.seed)

    rows = []
    fit_rho, fit_n = [], []
    for rho in rhos:
        config = SolverConfig(lambda0=args.lambda0, theta=args.theta,
                              gamma=args.gamma, rho_hat=rho,
                              max_outer_iterations=args.max_iter)
        cert, _, _ = solve(problem, config, y0)
        rows.append({"rho": rho,
                     "iterations": int(cert.iterations),
                     "converged": bool(cert.converged)})
        if cert.converged:
            fit_rho.append(rho)
            fit_n.append(cert.iterations)

    doc = {
        "instance": {"id": args.instance, "seed": inst_seed,
                     "n": problem.dimension},
        "rows": rows,
        "slope": fit_slope(fit_rho, fit_n),
        "partial": len(fit_rho) != len(rows),
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit suite
# ---------------------------------------------------------------------------

def _cmd_audit(args) -> int:
    given = {key: value for key, value in (
        ("n_instances", args.n_instances), ("seed", args.seed),
        ("max_iterations", args.iters), ("rho_hat", args.rho))
        if value is not None}
    passed, lines = run_audit_suite(**given)
    for line in lines:
        print(line)
    print(f"audit suite: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_AUDIT


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("a command is required (solve, slope, audit)")
    if args.command == "solve" and args.rho is None:
        parser.error("--rho is required")
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "slope":
            return _cmd_slope(args)
        return _cmd_audit(args)
    except NumericalFailure as exc:
        sys.stderr.write(f"varfista: numerical failure: {exc}\n")
        return EXIT_NUMERIC
    except RepeatCapExhausted as exc:
        sys.stderr.write(f"varfista: repeat cap exhausted: {exc}\n")
        return EXIT_REPEAT_CAP
    except (ValueError, TypeError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"varfista: error: {exc}\n")
        return EXIT_USAGE
    except RuntimeError as exc:
        sys.stderr.write(f"varfista: runtime failure: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
