"""One oracle fault injector for the solver and baseline tests."""

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
    return CompositeProblem(bad, problem.regularizer, problem.omega,
                            problem.dimension), fired
