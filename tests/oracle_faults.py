"""Oracle fault injectors for the solver, baseline, audit and CLI tests."""

import numpy as np

from varfista.problems import CompositeProblem, SmoothOracle


def faulty(problem, which, call, fault, entry=0):
    """``(spoiled, fired)``: ``problem`` whose ``call``-th value call
    returns ``fault``, or whose ``call``-th gradient has ``fault`` at
    ``entry``; ``fired`` is non-empty once that call has come."""
    orig = problem.smooth
    fired = []

    def spoiled(fn):
        calls = [0]

        def wrapped(u):
            calls[0] += 1
            out = fn(u)
            if calls[0] != call:
                return out
            fired.append(call)
            if which == "value":
                return fault
            out = out.copy()
            out[entry % out.shape[0]] = fault
            return out
        return wrapped

    value = spoiled(orig.value) if which == "value" else orig.value
    grad = spoiled(orig.grad) if which == "grad" else orig.grad
    bad = SmoothOracle(value, grad, orig.audit_lipschitz,
                       orig.audit_curvature)
    return CompositeProblem(bad, problem.regularizer), fired


def corrupt_gradient_oracle(problem, factor=1.6):
    """``problem`` with its gradient scaled by ``factor``, its values and
    audit metadata kept, which the metadata-coupled checks must flag."""
    orig = problem.smooth
    bad = SmoothOracle(
        value_fn=orig.value,
        grad_fn=lambda u: factor * np.asarray(orig.grad(u)),
        audit_lipschitz=orig.audit_lipschitz,
        audit_curvature=orig.audit_curvature)
    return CompositeProblem(bad, problem.regularizer)


def corrupt_audit_corpus(monkeypatch, factor=1.6):
    """Make ``audit_corpus``, and so ``run_audit_suite`` and ``varfista
    audit``, give its instances with every gradient scaled by ``factor``."""
    import varfista.audit as audit
    clean = audit.audit_corpus
    monkeypatch.setattr(audit, "audit_corpus", lambda n_instances, seed: [
        corrupt_gradient_oracle(p, factor) for p in clean(n_instances, seed)])
