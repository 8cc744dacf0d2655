"""Adaptive proximal-gradient solver workbench.

Solve composite problems min f(u) + h(u) without curvature constants, audit
every invariant the method maintains, and reproduce its iteration-complexity
trends on seeded quadratic instances.  The package exports the names the
README documents; everything else is imported from its submodule.
"""

from .audit import audit_run
from .gallery import (QuadraticSpec, default_start, generate_qp,
                      load_instance, save_instance)
from .problems import verify_certificate
from .solver import SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "QuadraticSpec", "SolverConfig", "audit_run", "default_start",
    "generate_qp", "load_instance", "save_instance", "solve",
    "verify_certificate", "__version__",
]
