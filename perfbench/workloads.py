"""Instances, start points and solver settings of the benchmark workloads.

This module holds no timing and no checking code: a workload process
imports it during set-up, so set-up pays only for what a user of the
``varfista`` command pays (importing the package and building or loading
the instances).  Instance builders are reached through their module
attributes (``gallery.generate_qp``, ``audit.audit_corpus``, ...) so that the
traced run's wrappers see every call.

Run as a script to write the ``dense-n1000`` instance file again:

    PYTHONPATH=src python3 perfbench/workloads.py
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List

import numpy as np

import varfista.audit as vf_audit
import varfista.gallery as vf_gallery
from varfista.solver import SolverConfig

WORKLOADS = ("corpus-n20", "dense-n1000", "long-n20")

HERE = os.path.dirname(os.path.abspath(__file__))
DENSE_FILE = os.path.join(HERE, "generated", "dense-n1000.json")

# One audit corpus is 20 instances, and its iteration total varies by about
# 19 % (quartile distance over median) from corpus seed to corpus seed.  A
# pass therefore runs several disjoint corpora.  Even twelve of them still
# varied by 2-7 % over ten seeds, and random start points alone by 3 %, so
# the corpora and their starts are fixed and the seed only orders them.
CORPORA_PER_PASS = 12
CORPUS_SIZE = 20


@dataclass
class Operation:
    """One solve, audit and check of one instance from one start point."""

    name: str
    problem: object
    config: SolverConfig
    y0: np.ndarray


def corpus_n20() -> List[Operation]:
    """Audit corpora as ``varfista audit`` builds them, with its start points.

    Corpus j of the pass uses corpus seed ``20 j``, so no instance repeats
    within a pass; starts are drawn as ``run_audit_suite`` draws them.
    """
    ops = []
    for j in range(CORPORA_PER_PASS):
        corpus_seed = CORPUS_SIZE * j
        problems = vf_audit.audit_corpus(CORPUS_SIZE, corpus_seed)
        rng = np.random.default_rng(corpus_seed ^ 0x5eed)
        config = SolverConfig(rho_hat=1e-7, max_outer_iterations=10_000)
        for i, problem in enumerate(problems):
            lo, hi = problem.regularizer.domain_box
            y0 = lo + rng.random(problem.dimension) * (hi - lo)
            ops.append(Operation(f"corpus[{corpus_seed}][{i}]", problem,
                                 config, y0))
    return ops


def dense_spec() -> vf_gallery.QuadraticSpec:
    """The n=1000 instance of the ROADMAP baseline table."""
    return vf_gallery.QuadraticSpec(n=1000, eig_lo=0.01, eig_hi=100.0,
                                    box=(-1.0, 1.0), seed=0)


def write_dense_instance(path: str = DENSE_FILE) -> None:
    """Write the dense-n1000 instance file (atomically)."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    problem = vf_gallery.generate_qp(dense_spec())
    tmp = f"{path}.{os.getpid()}.tmp"
    vf_gallery.save_instance(problem, tmp, seed=dense_spec().seed)
    os.replace(tmp, path)


def dense_n1000(path: str = DENSE_FILE) -> List[Operation]:
    """The dense instance read from its file, from the box midpoint."""
    problem = vf_gallery.load_instance(path)
    config = SolverConfig(rho_hat=1e-6, max_outer_iterations=10_000)
    return [Operation("dense-n1000", problem, config,
                      vf_gallery.default_start(problem))]


# (eig_lo, box half-width, seed, rho_hat); the last one trips the convex
# escalation fault and fails every time.
LONG_RUNS = ((0.01, 300.0, 2, 1e-6),
             (0.01, 300.0, 3, 1e-6),
             (0.001, 1000.0, 0, 1e-2))


def long_n20() -> List[Operation]:
    """Long strongly convex n=20 runs in wide boxes, from the box midpoint."""
    ops = []
    for eig_lo, half, seed, rho in LONG_RUNS:
        spec = vf_gallery.QuadraticSpec(n=20, eig_lo=eig_lo, eig_hi=100.0,
                                        box=(-half, half), seed=seed)
        problem = vf_gallery.generate_qp(spec)
        config = SolverConfig(rho_hat=rho, max_outer_iterations=20_000)
        ops.append(Operation(
            f"long[eig_lo={eig_lo:g},box={half:g},seed={seed},rho={rho:g}]",
            problem, config, vf_gallery.default_start(problem)))
    return ops


def build(workload: str, seed: int) -> List[Operation]:
    """The operations of one pass, in the order the seed shuffles them to.

    The seed moves no instance and no start point, so every seed does the
    same work and gives the same iteration count.
    """
    if workload == "corpus-n20":
        ops = corpus_n20()
    elif workload == "dense-n1000":
        ops = dense_n1000()
    elif workload == "long-n20":
        ops = long_n20()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = np.random.default_rng(seed % 2 ** 32).permutation(len(ops))
    return [ops[i] for i in order]


if __name__ == "__main__":
    write_dense_instance()
