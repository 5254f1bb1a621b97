"""Per-timestep evaluation of an estimated trajectory against ground truth.

The distance itself is defined per timestep; the mean/max aggregates in the
report are convenience summaries over timesteps, nothing more, and the report
says so in its ``aggregates.note`` field.

Report files are rendered from a fixed template in the layout of
``json.dumps(indent=2)`` (which cannot pin float formatting itself), with
floats printed to ``REPORT_FLOAT_DIGITS`` significant digits, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assignment import SolverBackend, solve_stack
from .constants import ABS_TOL_TRIANGLE, REPORT_FLOAT_DIGITS
from .core import LospaParams, add_label_penalty_inplace, localization_costs
from .errors import DimensionMismatch, TimestepMismatch
from .metric import _distance
from .trajectory import Trajectory

__all__ = ["EvalReport", "evaluate", "DemoCell", "DemoReport", "run_demo"]

_FLOAT_SPEC = f".{REPORT_FLOAT_DIGITS}g"

# A report file; none of its strings needs JSON escapes.
_REPORT = """\
{{
  "params_echo": {{
    "p": {p:{f}},
    "alpha": {alpha:{f}},
    "base_metric": "{metric}"
  }},
  "backend": "{backend}",
  "per_step": [
{steps}
  ],
  "aggregates": {{
    "mean_lospa": {mean_lospa:{f}},
    "max_lospa": {max_lospa:{f}},
    "mean_ospa": {mean_ospa:{f}},
    "note": "mean/max are summaries over timesteps; the distance itself is defined per timestep only"
  }}
}}
"""
# One entry of "per_step"; entries are joined by ",\n".
_STEP = """\
    {{
      "k": {k},
      "lospa": {lospa:{f}},
      "ospa": {ospa:{f}},
      "optimal_perm": [
        {perm}
      ]
    }}"""

# Cost entries evaluated per chunk of steps (2 MiB of float64): about ten
# thousand steps at t = 5, a single step from t = 512 on.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-timestep distances as read-only columns, plus the parameters used.

    Row i of every column is time index ``k[i]``: ``lospa[i]`` is the labelled
    distance there, ``ospa[i]`` its alpha = 0 counterpart, and ``perms[i, j]``
    the truth position paired with estimate position j at the labelled optimum.
    The constructor copies the columns into read-only int64 (``k``, ``perms``)
    and float64 arrays, and is the one place that checks their shapes.
    """

    k: np.ndarray
    lospa: np.ndarray
    ospa: np.ndarray
    perms: np.ndarray
    params_echo: LospaParams
    backend: SolverBackend

    def __post_init__(self):
        names = ("k", "lospa", "ospa", "perms")
        for name, dtype in zip(names, (np.int64, float, float, np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        k, lospa, ospa, perms = shapes = [getattr(self, name).shape for name in names]
        if len(perms) != 2 or perms[0] < 1 or not k == lospa == ospa == perms[:1]:
            raise ValueError(f"report columns need shapes (T,) x 3 and (T, t), T >= 1: {shapes}")

    # Python's left-to-right sums: np.mean sums pairwise, which can move the last bit.
    @property
    def mean_lospa(self) -> float:
        return sum(self.lospa.tolist()) / len(self.lospa)

    @property
    def max_lospa(self) -> float:
        return max(self.lospa.tolist())

    @property
    def mean_ospa(self) -> float:
        return sum(self.ospa.tolist()) / len(self.ospa)

    def to_json(self) -> str:
        """Byte-deterministic JSON text (trailing newline included)."""
        f = _FLOAT_SPEC
        steps = ",\n".join(
            _STEP.format(k=k, lospa=lospa, ospa=ospa, perm=",\n        ".join(map(str, perm)), f=f)
            for k, lospa, ospa, perm in zip(
                self.k.tolist(), self.lospa.tolist(), self.ospa.tolist(), self.perms.tolist()
            )
        )
        echo = self.params_echo
        return _REPORT.format(
            p=float(echo.p), alpha=float(echo.alpha), metric=echo.base_metric.describe(),
            backend=self.backend.value, steps=steps, mean_lospa=self.mean_lospa,
            max_lospa=self.max_lospa, mean_ospa=self.mean_ospa, f=f,
        )


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

    perms, lospa_totals, ospa_totals = _solve_steps(estimate.states, truth.states, params, backend)
    # Python's float ** per value: numpy's vectorised power can differ in
    # the last bit, and the report prints every bit.
    t, p = truth.num_targets, params.p
    return EvalReport(
        k=truth.time_indices,
        lospa=[_distance(total, t, p) for total in lospa_totals.tolist()],
        ospa=[_distance(total, t, p) for total in ospa_totals.tolist()],
        perms=perms,
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
    for lo in range(0, T, size):
        hi = min(lo + size, T)
        C = localization_costs(est[lo:hi], truth[lo:hi], params, buffer[: hi - lo])
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
    truth_traj = Trajectory(ks, np.array([_DEMO_TRUTH for _ in ks])[..., None])
    est_traj = Trajectory(ks, np.array(_DEMO_ESTIMATES)[..., None])
    reports = tuple(
        evaluate(truth_traj, est_traj, LospaParams(p=2.0, alpha=alpha), backend=backend)
        for alpha in _DEMO_ALPHAS
    )
    cells = tuple(
        DemoCell(
            row=row,
            estimate=estimate,
            alpha=alpha,
            computed=computed,
            expected=math.sqrt(0.1**2 + wrong * alpha**2 / 3.0),
        )
        for alpha, report in zip(_DEMO_ALPHAS, reports)
        for row, (estimate, wrong, computed) in enumerate(
            zip(_DEMO_ESTIMATES, _DEMO_WRONG_PAIRINGS, report.lospa.tolist()), start=1
        )
    )
    # Each report's ospa column is the alpha = 0 distance of every estimate.
    ospa_values = tuple(reports[0].ospa.tolist())
    return DemoReport(cells=cells, ospa_values=ospa_values, reports=reports)
