"""paretoscan: multi-objective discrete optimization by Pareto inversion.

The engine finds weight-conditioned Pareto-optimal candidates in discrete
spaces with a relax-descend-discretize loop: candidates are lifted to a
continuous relaxation, descended along a non-dominating direction obtained
from a small constrained quadratic program, then rounded back and filtered
through a Pareto archive.  Scanning a grid of weight rays traces out an
approximate Pareto front under a fixed oracle-call budget.

The package binds its six entry points: ``RunConfig``, ``run_inversion``,
``front_scan``, ``make_task``, ``weight_grid`` and ``hypervolume``.
Every other name imports from its own module (``paretoscan.core``,
``paretoscan.qp``, ``paretoscan.relax``, ...).
"""

from .metrics import hypervolume
from .search import RunConfig, front_scan, run_inversion
from .tasks import make_task
from .weights import weight_grid

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "front_scan",
    "hypervolume",
    "make_task",
    "run_inversion",
    "weight_grid",
]
