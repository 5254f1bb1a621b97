"""Labelled optimal subpattern assignment (LOSPA) distance.

A metric between multitarget states with a fixed, known number of targets:
per-target localization error and labelling error are combined through an
exact minimization over target pairings.  Setting the labelling penalty
``alpha`` to 0 recovers the plain OSPA distance without cut-off.
"""

from .assignment import (
    AssignmentSolution,
    SolverBackend,
    path_cost,
    solve_brute_force,
    solve_optimal,
    solve_stack,
)
from .core import (
    BaseMetric,
    CostMatrix,
    LospaParams,
    MultiTargetState,
    build_cost_matrix,
    parse_base_metric,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    DuplicateLabel,
    InconsistentShape,
    InvalidCost,
    LabelMismatch,
    LospaError,
    NonFiniteValue,
    ParseError,
    TimestepMismatch,
)
from .evaluate import DemoReport, EvalReport, evaluate, run_demo
from .labelled import LabelledSet, LabelledTarget, from_vector, lospa_sets, to_vector
from .metric import LospaResult, MetricKind, lospa, ospa_no_cutoff
from .trajectory import Trajectory, load_trajectory

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types
    "MultiTargetState",
    "BaseMetric",
    "parse_base_metric",
    "LospaParams",
    "CostMatrix",
    "build_cost_matrix",
    # assignment
    "SolverBackend",
    "AssignmentSolution",
    "path_cost",
    "solve_brute_force",
    "solve_optimal",
    "solve_stack",
    # metric
    "MetricKind",
    "LospaResult",
    "lospa",
    "ospa_no_cutoff",
    # labelled sets
    "LabelledTarget",
    "LabelledSet",
    "from_vector",
    "to_vector",
    "lospa_sets",
    # trajectories and evaluation
    "Trajectory",
    "load_trajectory",
    "EvalReport",
    "evaluate",
    "DemoReport",
    "run_demo",
    # errors
    "LospaError",
    "DimensionMismatch",
    "NonFiniteValue",
    "CapExceeded",
    "InvalidCost",
    "DuplicateLabel",
    "LabelMismatch",
    "ParseError",
    "InconsistentShape",
    "TimestepMismatch",
]
