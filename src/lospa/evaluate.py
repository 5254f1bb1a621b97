"""Per-timestep evaluation of an estimated trajectory against ground truth.

The distance itself is defined per timestep; the mean/max aggregates in the
report are convenience summaries over timesteps, nothing more, and the report
says so in its ``aggregates.note`` field.

Report files are rendered deterministically: fixed key order, two-space
indentation and floats printed with ``REPORT_FLOAT_DIGITS`` significant
digits, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .assignment import SolverBackend, solve_stack
from .constants import ABS_TOL_TRIANGLE, REPORT_FLOAT_DIGITS
from .core import (
    LospaParams,
    MultiTargetState,
    Permutation,
    add_label_penalty_inplace,
    localization_costs,
)
from .errors import DimensionMismatch, TimestepMismatch
from .metric import _distance
from .trajectory import Trajectory

__all__ = ["StepResult", "EvalReport", "evaluate", "DemoCell", "DemoReport", "run_demo"]

_AGGREGATES_NOTE = (
    "mean/max are summaries over timesteps; the distance itself is defined "
    "per timestep only"
)

_FLOAT_SPEC = f".{REPORT_FLOAT_DIGITS}g"

# Cost entries evaluated per chunk of steps (2 MiB of float64): about ten
# thousand steps at t = 5, a single step from t = 512 on.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class StepResult:
    """Distances at one timestep, plus the pairing that attained the labelled one."""

    k: int
    lospa: float
    ospa: float
    optimal_perm: Permutation


@dataclass(frozen=True)
class EvalReport:
    """Per-timestep distances with mean/max summaries and the parameters used."""

    per_step: tuple[StepResult, ...]
    mean_lospa: float
    max_lospa: float
    mean_ospa: float
    params_echo: LospaParams
    backend: SolverBackend

    def to_json_dict(self) -> dict:
        """Report as plain data, in the exact key order of the file format."""
        return {
            "params_echo": {
                "p": float(self.params_echo.p),
                "alpha": float(self.params_echo.alpha),
                "base_metric": self.params_echo.base_metric.describe(),
            },
            "backend": self.backend.value,
            "per_step": [
                {
                    "k": step.k,
                    "lospa": step.lospa,
                    "ospa": step.ospa,
                    "optimal_perm": list(step.optimal_perm),
                }
                for step in self.per_step
            ],
            "aggregates": {
                "mean_lospa": self.mean_lospa,
                "max_lospa": self.max_lospa,
                "mean_ospa": self.mean_ospa,
                "note": _AGGREGATES_NOTE,
            },
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON text (trailing newline included)."""
        return _render(self.to_json_dict(), 0) + "\n"


def _render(value, level: int) -> str:
    # json.dumps cannot pin float formatting, so the few shapes a report
    # contains are rendered by hand; layout matches json.dumps(indent=2).
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_render(val, level + 1)}"
            for key, val in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_render(val, level + 1)}" for val in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, _FLOAT_SPEC)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot render {type(value).__name__} in a report")


def evaluate(
    truth: Trajectory,
    estimate: Trajectory,
    params: LospaParams,
    backend: SolverBackend = SolverBackend.OPTIMAL,
) -> EvalReport:
    """Compute per-timestep labelled and unlabelled distances.

    The estimate is the first argument of every distance call; the metric is
    symmetric, so this is purely a reporting convention, fixed to keep report
    files reproducible.

    Args:
        truth: ground-truth trajectory.
        estimate: estimated trajectory over exactly the same time indices.
        params: distance parameters; the per-step ``ospa`` column is the same
            computation with alpha forced to 0, solved on the same
            localization matrix.
        backend: assignment solver for every step.

    Raises:
        TimestepMismatch: the two trajectories cover different time indices;
            the message lists the offending indices on both sides.
        DimensionMismatch: target count or state dimension differs.
    """
    truth_ks = set(truth.time_indices.tolist())
    est_ks = set(estimate.time_indices.tolist())
    if truth_ks != est_ks:
        missing_in_est = sorted(truth_ks - est_ks)
        missing_in_truth = sorted(est_ks - truth_ks)
        raise TimestepMismatch(
            f"trajectories cover different time indices; missing from estimate: "
            f"{missing_in_est}, missing from truth: {missing_in_truth}"
        )
    if truth.num_targets != estimate.num_targets:
        raise DimensionMismatch(
            f"target counts differ: truth has {truth.num_targets}, "
            f"estimate has {estimate.num_targets}"
        )
    if truth.state_dim != estimate.state_dim:
        raise DimensionMismatch(
            f"state dimensions differ: truth is {truth.state_dim}-dimensional, "
            f"estimate is {estimate.state_dim}-dimensional"
        )

    perms, lospa_totals, ospa_totals = _solve_steps(
        estimate.states, truth.states, params, backend
    )
    t, p = truth.num_targets, params.p
    steps = [
        StepResult(
            k=k,
            lospa=_distance(lospa_total, t, p),
            ospa=_distance(ospa_total, t, p),
            optimal_perm=Permutation(perm),
        )
        for k, lospa_total, ospa_total, perm in zip(
            truth.time_indices.tolist(), lospa_totals.tolist(), ospa_totals.tolist(),
            perms.tolist(),
        )
    ]
    lospa_values = [s.lospa for s in steps]
    ospa_values = [s.ospa for s in steps]
    return EvalReport(
        per_step=tuple(steps),
        mean_lospa=sum(lospa_values) / len(steps),
        max_lospa=max(lospa_values),
        mean_ospa=sum(ospa_values) / len(steps),
        params_echo=params,
        backend=backend,
    )


def _solve_steps(
    est: np.ndarray, truth: np.ndarray, params: LospaParams, backend: SolverBackend
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labelled pairings and labelled/unlabelled totals for every step.

    Works through the (T, t, n_x) state stacks a chunk of steps at a time,
    in one reused (chunk, t, t) buffer: the localization costs are solved
    as they are, then the labelling penalty is added in place and the same
    buffer is solved again.  At alpha = 0 the two solves coincide.
    """
    T, t, _ = est.shape
    size = max(1, _CHUNK_ENTRIES // (t * t))
    buffer = np.empty((min(size, T), t, t))
    perms = np.empty((T, t), dtype=np.intp)
    lospa_totals = np.empty(T)
    ospa_totals = np.empty(T)
    ospa_params = params.with_alpha(0.0)
    for lo in range(0, T, size):
        hi = min(lo + size, T)
        C = localization_costs(est[lo:hi], truth[lo:hi], ospa_params, buffer[: hi - lo])
        perms[lo:hi], ospa_totals[lo:hi] = solve_stack(C, backend)
        if params.alpha > 0.0:
            add_label_penalty_inplace(C, params)
            perms[lo:hi], lospa_totals[lo:hi] = solve_stack(C, backend)
        else:
            lospa_totals[lo:hi] = ospa_totals[lo:hi]
    return perms, lospa_totals, ospa_totals


# --- built-in demo ---------------------------------------------------------

_DEMO_TRUTH = (-10.0, 0.0, 10.0)
_DEMO_ESTIMATES = (
    (-10.1, 0.1, 10.1),  # every target near its own truth
    (0.1, -10.1, 10.1),  # first two targets swapped
    (10.1, -10.1, 0.1),  # all three in the wrong slots
)
# How many targets each estimate pairs across positions at the optimum.
_DEMO_WRONG_PAIRINGS = (0, 2, 3)
_DEMO_ALPHAS = (0.1, 1.0)


@dataclass(frozen=True)
class DemoCell:
    """One demo scenario at one alpha: computed vs. closed-form expected."""

    row: int
    estimate: tuple[float, ...]
    alpha: float
    computed: float
    expected: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= ABS_TOL_TRIANGLE


@dataclass(frozen=True)
class DemoReport:
    """All six demo cells, the shared unlabelled distances, and full reports.

    ``reports`` holds one :class:`EvalReport` per alpha, treating the three
    estimates as a 3-step trajectory against the constant truth; the cells
    and ``ospa_values`` are read from them.
    """

    cells: tuple[DemoCell, ...]
    ospa_values: tuple[float, ...]  # one per estimate; all should equal 0.1
    reports: tuple[EvalReport, ...]

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def render(self) -> str:
        lines = [
            f"truth: {list(_DEMO_TRUTH)}   (p=2, euclidean base metric)",
            "",
            f"{'estimate':<22} {'alpha':>5}  {'computed':<22} {'expected':<22} status",
        ]
        for cell in self.cells:
            lines.append(
                f"{str(list(cell.estimate)):<22} {cell.alpha:>5g}  "
                f"{format(cell.computed, _FLOAT_SPEC):<22} "
                f"{format(cell.expected, _FLOAT_SPEC):<22} "
                f"{'ok' if cell.passed else 'MISMATCH'}"
            )
        lines.append("")
        ospa_txt = ", ".join(format(v, _FLOAT_SPEC) for v in self.ospa_values)
        lines.append(
            f"unlabelled (alpha=0) distance per estimate: {ospa_txt} — identical, "
            f"so only the labelled metric separates the three estimates"
        )
        lines.append(f"demo gate: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_demo(backend: SolverBackend = SolverBackend.OPTIMAL) -> DemoReport:
    """Reproduce the built-in 3-target, 1-D example at alpha = 0.1 and 1.

    Each estimate displaces every target by 0.1; they differ only in how many
    targets sit in another target's slot (0, 2, or 3), so the labelled
    distance is sqrt(0.1**2 + wrong * alpha**2 / 3) while the unlabelled one
    stays 0.1 throughout.
    """
    ks = range(len(_DEMO_ESTIMATES))
    truth = MultiTargetState.from_points(_DEMO_TRUTH).points
    truth_traj = Trajectory(ks, [truth for _ in ks])
    est_traj = Trajectory(ks, [MultiTargetState.from_points(e).points for e in _DEMO_ESTIMATES])
    reports = tuple(
        evaluate(truth_traj, est_traj, LospaParams(p=2.0, alpha=alpha), backend=backend)
        for alpha in _DEMO_ALPHAS
    )
    cells = tuple(
        DemoCell(
            row=row,
            estimate=estimate,
            alpha=alpha,
            computed=step.lospa,
            expected=math.sqrt(0.1**2 + wrong * alpha**2 / 3.0),
        )
        for alpha, report in zip(_DEMO_ALPHAS, reports)
        for row, (estimate, wrong, step) in enumerate(
            zip(_DEMO_ESTIMATES, _DEMO_WRONG_PAIRINGS, report.per_step), start=1
        )
    )
    # Each report's ospa column is the alpha = 0 distance of every estimate.
    ospa_values = tuple(step.ospa for step in reports[0].per_step)
    return DemoReport(cells=cells, ospa_values=ospa_values, reports=reports)
