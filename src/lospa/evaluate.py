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
import os
from dataclasses import dataclass

import numpy as np

from . import core
from .assignment import SolverBackend, _lsap_module, _settle, _sum_in_order
from .constants import ABS_TOL_TRIANGLE, REPORT_FLOAT_DIGITS
from .core import (
    LospaParams, _as_int64, _as_real, _echo, _minkowski_costs, _require_same_shape, cost_stack
)
from .errors import TimestepMismatch
from .metric import _distances
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
# One entry of "per_step"; entries are joined by ",\n".  Each step's k and
# the texts of its lospa, ospa and pairing fill it.
_STEP = """\
    {
      "k": %d,
      "lospa": %s,
      "ospa": %s,
      "optimal_perm": [
        %s
      ]
    }"""

# Most in-band pairs per target that _sweep computes before it gives up: a
# near-correct step has about one, an unrelated one a sizeable share of t.
# The band of a row whose estimate sits at another target's truth reaches
# its own truth, so one swapped pair can span most truths between them.
_SWEEP_PAIRS = 4

# Threads in evaluate's LSAP pool.  A one-step chunk's job holds its own
# (2, t, t) buffer only while it runs, so a run keeps at most this many.
_WORKERS = 2


@dataclass(frozen=True, eq=False)
class EvalReport:
    """Per-timestep distances as read-only columns, plus the parameters used.

    Row i of every column is time index ``k[i]``: ``lospa[i]`` is the labelled
    distance there, ``ospa[i]`` its alpha = 0 counterpart, and ``perms[i, j]``
    the truth position paired with estimate position j at the labelled optimum.
    The constructor copies the columns into read-only int64 (``k``, ``perms``)
    and float64 arrays, and is the one place that checks them: it refuses,
    naming the column or field, shapes that do not fit, ragged ones, and
    reports of no step or no target; ``k`` and ``perms`` other than
    integers; distances other than real numbers, negative ones, and NaN or
    infinite ones, which no JSON text can hold; a ``k`` that is not strictly
    increasing; ``perms`` rows that are not permutations of 0..t-1; and a
    ``params_echo`` or ``backend`` of another type.
    """

    k: np.ndarray
    lospa: np.ndarray
    ospa: np.ndarray
    perms: np.ndarray
    params_echo: LospaParams
    backend: SolverBackend

    def __post_init__(self):
        names = ("k", "lospa", "ospa", "perms")
        shapes = []
        for name in names:
            try:
                shapes.append(np.shape(getattr(self, name)))
            except ValueError:  # numpy refuses ragged nested sequences
                raise ValueError(f"report column {name} has rows of different lengths") from None
        k, lospa, ospa, perms = shapes
        if len(perms) != 2 or min(perms) < 1 or not k == lospa == ospa == perms[:1]:
            raise ValueError(f"report columns need shapes (T,) x 3 and (T, t), T, t >= 1: {shapes}")
        for name in names:
            value = getattr(self, name)
            if name == "k":
                column, back = core._time_order(value, "report column k")
            elif name == "perms":
                column = _as_int64(value, "report column perms")
            else:
                column = _as_real(value, lambda why: ValueError(f"report column {name}: {why}"))
                if not np.isfinite(column).all():
                    raise ValueError(f"report column {name} holds NaN or infinity")
                if (column < 0.0).any():
                    raise ValueError(f"report column {name} holds a negative distance")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        k, perms, t = self.k, self.perms, self.perms.shape[1]
        if back is not None:
            raise ValueError(
                f"report column k must be strictly increasing, "
                f"got {k[back]} followed by {k[back + 1]}"
            )
        wrong = (np.sort(perms, axis=1) != np.arange(t)).any(axis=1)
        if wrong.any():
            raise ValueError(
                f"report column perms: row {wrong.argmax()} is not a permutation of 0..{t - 1}"
            )
        for name, kind in (("params_echo", LospaParams), ("backend", SolverBackend)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(
                    f"report field {name} must be a {kind.__name__}, "
                    f"got {_echo(getattr(self, name))}"
                )

    @property
    def mean_lospa(self) -> float:
        return _mean(self.lospa.tolist())

    @property
    def max_lospa(self) -> float:
        return max(self.lospa.tolist())

    @property
    def mean_ospa(self) -> float:
        return _mean(self.ospa.tolist())

    def to_json(self) -> str:
        """Byte-deterministic JSON text (trailing newline included).

        Every step fills one %-template, with its distances printed as
        ``format(x, ".17g")``.  Each text is made once: a step's ``ospa``
        takes its ``lospa`` text when the two floats have the same bits,
        and every identity pairing takes one text made for the report.  The
        aggregates are those of the properties, read from the same values.
        """
        T, t = self.perms.shape
        separator = ",\n        "  # between a pairing's entries
        lospa_values = self.lospa.tolist()
        lospa = [format(x, _FLOAT_SPEC) for x in lospa_values]
        ospa, ospa_values = lospa.copy(), lospa_values.copy()
        differ = (self.lospa.view(np.int64) != self.ospa.view(np.int64)).nonzero()[0]
        for i, x in zip(differ.tolist(), self.ospa[differ].tolist()):
            ospa[i], ospa_values[i] = format(x, _FLOAT_SPEC), x
        perms = [separator.join(map(str, range(t)))] * T
        moved = (self.perms != np.arange(t)).any(axis=1).nonzero()[0]
        for i, row in zip(moved.tolist(), self.perms[moved].tolist()):
            perms[i] = separator.join(map(str, row))
        echo = self.params_echo
        return _REPORT.format(
            p=echo.p, alpha=echo.alpha, metric=echo.base_metric.describe(),
            backend=self.backend.value,
            steps=",\n".join(map(_STEP.__mod__, zip(self.k.tolist(), lospa, ospa, perms))),
            mean_lospa=_mean(lospa_values), max_lospa=max(lospa_values),
            mean_ospa=_mean(ospa_values),
            f=_FLOAT_SPEC,
        )


def _mean(values: list[float]) -> float:
    """Python's left-to-right mean: np.mean sums pairwise, which can move the last bit.

    Finite values whose sum passes the float range are divided before they
    are summed, so the mean stays finite (and the report valid JSON).
    """
    total = sum(values)
    if math.isinf(total):
        return sum(v / len(values) for v in values)
    return total / len(values)


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
            computation with alpha forced to 0, solved in one stack with the
            labelled costs of the same steps.
        backend: assignment solver for every step.

    Raises:
        TimestepMismatch: the two trajectories cover different time indices;
            the message lists the offending indices on both sides.
        DimensionMismatch: target count or state dimension differs.
    """
    # Both are strictly increasing, so equal arrays are equal sets.
    if not np.array_equal(truth.time_indices, estimate.time_indices):
        truth_ks = set(truth.time_indices.tolist())
        est_ks = set(estimate.time_indices.tolist())
        missing_in_est = sorted(truth_ks - est_ks)
        missing_in_truth = sorted(est_ks - truth_ks)
        raise TimestepMismatch(
            f"trajectories cover different time indices; missing from estimate: "
            f"{missing_in_est}, missing from truth: {missing_in_truth}"
        )
    _require_same_shape(truth, estimate, ("truth", "estimate"))

    perms, lospa_totals, ospa_totals = _solve_steps(estimate.states, truth.states, params, backend)
    t, p = truth.num_targets, params.p
    return EvalReport(
        k=truth.time_indices,
        lospa=_distances(lospa_totals.tolist(), t, p),
        ospa=_distances(ospa_totals.tolist(), t, p),
        perms=perms,
        params_echo=params,
        backend=backend,
    )


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _solve_steps(
    est: np.ndarray, truth: np.ndarray, params: LospaParams, backend: SolverBackend
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labelled pairings and labelled/unlabelled totals for every step.

    Works through the (T, t, n_x) state stacks a chunk of n steps at a time,
    n set by ``core._BUILD_BLOCK_ENTRIES`` so that each half of a chunk is
    one block of :func:`cost_stack`: from t = 182, one step.  Where a chunk
    holds one step, on the optimal backend at q in {1, 2}, the main thread
    first offers the step to :func:`_sweep`.  A step whose halves it
    certifies, each by the identity or any other pairing of strict row
    minima, gets its labelled pairing and both totals from it and is neither
    built nor solved.

    Every other chunk is a job: it builds the chunk into a buffer of its
    own, which holds both halves at alpha > 0, and returns
    ``assignment._settle`` of it, given the sweep's proof where there is
    one, so a half the sweep certified is not read again.  When two or more
    one-step chunks are left and the process may run on two or more CPUs,
    one pool of ``_WORKERS`` threads runs them all; scipy releases the GIL
    while it solves.  Otherwise they run in order on this thread, and
    ``concurrent.futures`` is not imported.  Either way results are stored
    in step order, so a run's report, and the error of its earliest failing
    chunk, do not depend on where its jobs ran.  On that error the pool
    cancels the jobs it has not started and waits for the running ones, so
    no worker outlives the run.
    """
    T, t, _ = est.shape
    halves = 2 if params.alpha > 0.0 else 1
    size = max(1, core._BUILD_BLOCK_ENTRIES // (t * t))
    perms = np.empty((T, t), dtype=np.intp)
    totals = np.empty((2, T))  # unlabelled, labelled
    sweep = backend is SolverBackend.OPTIMAL and size == 1 and params.base_metric.q in (1.0, 2.0)
    left, proofs = [], []  # the chunks to build, and what the sweep proved of each half
    for lo in range(0, T, size):
        swept = _sweep(est[lo], truth[lo], params) if sweep else None
        if swept is not None and swept[1].all():
            perms[lo], totals[:, lo] = swept[0][-1], swept[2]
        else:
            left.append(slice(lo, min(lo + size, T)))
            proofs.append(swept and swept[:2])

    def job(steps, proof):
        n = steps.stop - steps.start
        C = cost_stack(est[steps], truth[steps], params, np.empty((halves * n, t, t)))
        return _settle(C, n, params.alpha**params.p, backend, proof)

    if size == 1 and len(left) >= 2 and _cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor

        _lsap_module()  # loaded here, not by two workers at once
        with ThreadPoolExecutor(_WORKERS) as pool:
            results = list(pool.map(job, left, proofs))
    else:
        results = map(job, left, proofs)
    for steps, (chunk_perms, chunk_totals) in zip(left, results):
        perms[steps] = chunk_perms[steps.start - steps.stop :]
        totals[:, steps] = chunk_totals.reshape(halves, -1)  # at alpha = 0, into both
    return perms, totals[1], totals[0]


def _sweep(
    x: np.ndarray, y: np.ndarray, params: LospaParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The row-minimum certificate of each half of one step, read without building it.

    ``x`` and ``y`` are one step's (t, n_x) estimate and truth; q is 1 or 2.
    The certificate keeps a half's row argmins when they form a permutation
    of strict row minima; that pairing is then the half's unique optimum,
    and its total is the row minima summed left to right.  This reads each
    half's row minima without the t x t costs, and returns ``(perms,
    certified, totals)``, one row per half, the localization half first.
    ``certified`` is what ``assignment._certificate`` would read from the
    built step; a half with a tie or colliding argmins is not certified,
    and only a certified half's pairing and total are meaningful:

    * A truth can undercut the diagonal cost of estimate i only if its first
      coordinate lies within ``reach[i]`` of x[i]'s (the diagonal distance
      plus a relative margin).  ``searchsorted`` on the sorted truths finds
      these bands, and their pairs get their exact costs, the bits
      ``cost_stack`` gives them; off the diagonal, the labelled half adds
      alpha**p to each, as ``cost_stack`` does.  Each row's minimum over
      its band is its minimum over the row.
    * A truth outside the band differs from x[i] by more than ``reach[i]``
      in the first coordinate, as the band's edges are rounded to nearest
      and the truths are floats.  Every operation of a cost is monotone
      except the power, which is faithful, so its cost is at least
      ``floor[i]``, the cost of ``reach[i]`` along one axis, less an ulp.
      ``floor`` must clear the diagonal, and so the row minimum, by a few
      ulps, which needs normal diagonal costs: zero and subnormal ones give
      up.  A labelled cost is no smaller than its localization cost.
    * No cost exceeds the one across the states' bounding box.  Unless twice
      that plus alpha**p is finite, it gives up, and ``cost_stack`` raises
      ``InvalidCost`` if a cost does overflow.

    It also gives up once the bands hold more than ``_SWEEP_PAIRS * t``
    pairs.
    """
    t = len(x)
    q, p = params.base_metric.q, params.p

    def costs(a, b):
        return _minkowski_costs(a, b, q, p, np.empty(len(a)), np.empty(len(a)))

    with np.errstate(over="ignore"):
        penalty = np.float64(params.alpha) ** p  # +inf where it overflows
        corners = np.concatenate((x, y))
        widest = float(costs(corners.max(axis=0)[None], corners.min(axis=0)[None])[0])
        if not math.isfinite(2.0 * (widest + penalty)):
            return None
        diag = costs(x, y)
        if not diag.min() >= np.finfo(float).tiny:
            return None
        reach = diag ** (1.0 / p) * (1.0 + 2.0**-20)
        floor = costs(reach[:, None], np.zeros((1, 1)))
        if not (floor > diag * (1.0 + 2.0**-50)).all():
            return None
        order = np.argsort(y[:, 0])
        firsts = y[order, 0]
        start = np.searchsorted(firsts, x[:, 0] - reach, "left")
        stop = np.searchsorted(firsts, x[:, 0] + reach, "right")
    counts = stop - start
    pairs = int(counts.sum())
    if pairs > _SWEEP_PAIRS * t:
        return None
    # Row i's pairs are [heads[i], heads[i] + counts[i]); every band holds
    # its own diagonal, whose cost is below floor, so none is empty.
    heads = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(t), counts)
    cols = order[np.arange(pairs) - np.repeat(heads - start, counts)]
    off = (rows != cols).nonzero()[0]
    band = diag[rows]
    band[off] = costs(x[rows[off]], y[cols[off]])
    labelled = band.copy()
    labelled[off] += penalty
    halves = (band, labelled) if params.alpha > 0.0 else (band,)
    perms, certified, totals = np.zeros((len(halves), t), np.intp), [], []
    for half, psi in zip(halves, perms):
        mins = np.minimum.reduceat(half, heads)
        # Every row attains its minimum, so the argmins hold t columns or
        # more: no column twice means one per row, no tie, and a permutation.
        argmins = cols[half == mins[rows]]
        certified.append(np.bincount(argmins, minlength=t).max() == 1)
        if certified[-1]:
            psi[:] = argmins
        totals.append(_sum_in_order(mins))
    return perms, np.array(certified), np.array(totals)


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


def run_demo() -> DemoReport:
    """Reproduce the built-in 3-target, 1-D example at alpha = 0.1 and 1, on the optimal backend.

    Each estimate displaces every target by 0.1; they differ only in how many
    targets sit in another target's slot (0, 2, or 3), so the labelled
    distance is sqrt(0.1**2 + wrong * alpha**2 / 3) while the unlabelled one
    stays 0.1 throughout.
    """
    ks = range(len(_DEMO_ESTIMATES))
    truth_traj = Trajectory(ks, np.array([_DEMO_TRUTH for _ in ks])[..., None])
    est_traj = Trajectory(ks, np.array(_DEMO_ESTIMATES)[..., None])
    reports = tuple(
        evaluate(truth_traj, est_traj, LospaParams(p=2.0, alpha=alpha)) for alpha in _DEMO_ALPHAS
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
