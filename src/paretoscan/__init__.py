"""paretoscan: multi-objective discrete optimization by Pareto inversion.

The engine finds weight-conditioned Pareto-optimal candidates in discrete
spaces with a relax-descend-discretize loop: candidates are lifted to a
continuous relaxation, descended along a non-dominating direction obtained
from a small constrained quadratic program, then rounded back and filtered
through a Pareto archive.  Scanning a grid of weight rays traces out an
approximate Pareto front under a fixed oracle-call budget.
"""

from .core import (
    DimensionMismatchError,
    Dominance,
    EmptyInputError,
    ParetoArchive,
    dominates,
    pareto_filter,
    relative_max,
)
from .metrics import (
    UnsupportedDimensionError,
    front_coverage,
    hypervolume,
    hypervolume_monte_carlo,
    nonuniformity_report,
)
from .net import DualPathNet
from .qp import (
    DegenerateLossError,
    active_index_set,
    anchor_direction,
    nonuniformity,
    solve_qp,
)
from .relax import (
    InvalidRelaxationError,
    NumericalFailureError,
    TaskContract,
    discretize_select,
    inner_descent,
)
from .search import (
    RunConfig,
    RunResult,
    ScanResult,
    TheoryReport,
    front_scan,
    run_inversion,
    theory_diagnostics,
)
from .tasks import NGramTask, SigmoidOracle, SurrogateTask, SyntheticTask, make_task
from .weights import lift_positive, weight_grid, weights_2d, weights_3d, weights_4d

__version__ = "0.1.0"

__all__ = [
    "DegenerateLossError",
    "DimensionMismatchError",
    "Dominance",
    "DualPathNet",
    "EmptyInputError",
    "InvalidRelaxationError",
    "NGramTask",
    "NumericalFailureError",
    "ParetoArchive",
    "RunConfig",
    "RunResult",
    "ScanResult",
    "SigmoidOracle",
    "SurrogateTask",
    "SyntheticTask",
    "TaskContract",
    "TheoryReport",
    "UnsupportedDimensionError",
    "active_index_set",
    "anchor_direction",
    "discretize_select",
    "dominates",
    "front_coverage",
    "front_scan",
    "hypervolume",
    "hypervolume_monte_carlo",
    "inner_descent",
    "lift_positive",
    "make_task",
    "nonuniformity",
    "nonuniformity_report",
    "pareto_filter",
    "relative_max",
    "run_inversion",
    "solve_qp",
    "theory_diagnostics",
    "weight_grid",
    "weights_2d",
    "weights_3d",
    "weights_4d",
]
