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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .assignment import SolverBackend, _lsap_module, _settle_job
from .constants import ABS_TOL_TRIANGLE, REPORT_FLOAT_DIGITS
from .core import LospaParams, _minkowski_costs, _require_same_shape, cost_stack
from .errors import TimestepMismatch
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
# One entry of "per_step"; entries are joined by ",\n".  str.format puts in
# the float spec and one "%d" per target, which gives the %-template that
# each step's (k, lospa, ospa, *perm) fills.
_STEP = """\
    {{
      "k": %d,
      "lospa": %{f},
      "ospa": %{f},
      "optimal_perm": [
        {perm}
      ]
    }}"""

# Cost entries per chunk buffer, both halves counted (2 MiB of float64): at
# alpha > 0 about five thousand steps at t = 5, a single step from t = 257 on.
_CHUNK_ENTRIES = 1 << 18

# Most in-band pairs per target that _sweep computes before it gives up: a
# near-correct step has about one, an unrelated one a sizeable share of t.
# The band of a row whose estimate sits at another target's truth reaches
# its own truth, so one swapped pair can span most truths between them.
_SWEEP_PAIRS = 4

# Fewest entries per matrix for which LSAP runs in threads.  On scipy 1.17.1,
# two threads took 0.53-0.75x the serial time from t = 288 up, 1.05-8x at t <= 200.
_THREAD_MIN_ENTRIES = 1 << 17

# Most threads in evaluate's LSAP pool.  A one-step chunk holds its own
# (2, t, t) buffer while its job runs, so a run keeps at most one buffer more
# than this: one being built while each worker holds one.
_WORKERS = 2


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

    @property
    def mean_lospa(self) -> float:
        return _mean(self.lospa)

    @property
    def max_lospa(self) -> float:
        return max(self.lospa.tolist())

    @property
    def mean_ospa(self) -> float:
        return _mean(self.ospa)

    def to_json(self) -> str:
        """Byte-deterministic JSON text (trailing newline included).

        Every step is filled into one %-template built for this report's t,
        from the columns as Python ints and floats; ``"%.17g" % x`` is
        ``format(x, ".17g")``.
        """
        f = _FLOAT_SPEC
        step = _STEP.format(f=f, perm=",\n        ".join(["%d"] * self.perms.shape[1]))
        columns = zip(
            self.k.tolist(), self.lospa.tolist(), self.ospa.tolist(), *self.perms.T.tolist()
        )
        echo = self.params_echo
        return _REPORT.format(
            p=float(echo.p), alpha=float(echo.alpha), metric=echo.base_metric.describe(),
            backend=self.backend.value, steps=",\n".join(map(step.__mod__, columns)),
            mean_lospa=self.mean_lospa, max_lospa=self.max_lospa, mean_ospa=self.mean_ospa,
            f=f,
        )


def _mean(column: np.ndarray) -> float:
    """Python's left-to-right mean: np.mean sums pairwise, which can move the last bit.

    Finite values whose sum passes the float range are divided before they
    are summed, so the mean stays finite (and the report valid JSON).
    """
    values = column.tolist()
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
    truth_ks = set(truth.time_indices.tolist())
    est_ks = set(estimate.time_indices.tolist())
    if truth_ks != est_ks:
        missing_in_est = sorted(truth_ks - est_ks)
        missing_in_truth = sorted(est_ks - truth_ks)
        raise TimestepMismatch(
            f"trajectories cover different time indices; missing from estimate: "
            f"{missing_in_est}, missing from truth: {missing_in_truth}"
        )
    _require_same_shape(truth, estimate, ("truth", "estimate"))

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


def _cpus() -> int:
    """How many CPUs this process may run on: its affinity mask, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _solve_steps(
    est: np.ndarray, truth: np.ndarray, params: LospaParams, backend: SolverBackend
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labelled pairings and labelled/unlabelled totals for every step.

    Works through the (T, t, n_x) state stacks a chunk of n steps at a time.
    On the optimal backend, where a chunk holds a single step and q is 1 or
    2, the step is first offered to :func:`_sweep`.  A step whose halves
    it certifies, each by the identity or any other pairing of strict row
    minima, gets its labelled pairing and both totals from it and is
    neither built nor solved.  Every other chunk is built on the main thread, into a buffer
    of its own that holds both halves at alpha > 0, and
    ``assignment._settle_job`` reads its certificate.  The job that
    settles the rest is large when it leaves LSAP a matrix and one LSAP
    solve reads at least ``_THREAD_MIN_ENTRIES`` entries, so only one-step
    chunks can be; a chunk the certificate settles separates two that need
    LSAP.  A job runs inline when its result is stored, unless its chunk
    and the one built before it are both large.  Then, if the process may
    run on two or more CPUs, one pool of up to ``_WORKERS`` threads starts
    for the rest of the run, and that job and every later large one go to
    it; scipy releases the GIL while it solves.  A lone large chunk, small
    chunks and a one-CPU process never import ``concurrent.futures``.

    Results are stored in step order, the oldest first, while more than
    ``_WORKERS`` jobs are held, or any without a pool: so the main thread
    builds the next chunk while the workers solve earlier ones.  Jobs
    return their results, so what a job computes does not depend on where
    it ran.  On the way out, also by an error, the pool cancels the jobs it
    has not started and waits for the running ones, so no worker outlives
    the run.
    """
    T, t, _ = est.shape
    halves = 2 if params.alpha > 0.0 else 1
    size = max(1, _CHUNK_ENTRIES // (halves * t * t))
    perms = np.empty((T, t), dtype=np.intp)
    totals = np.empty((2, T))  # unlabelled, labelled
    sweep = backend is SolverBackend.OPTIMAL and size == 1 and params.base_metric.q in (1.0, 2.0)
    pool, last_large, held = None, False, deque()  # held: (steps, result) in step order

    def store(steps, result):
        chunk_perms, chunk_totals = result()
        perms[steps] = chunk_perms[steps.start - steps.stop :]
        totals[:, steps] = chunk_totals.reshape(halves, -1)  # at alpha = 0, into both

    try:
        for lo in range(0, T, size):
            swept = _sweep(est[lo], truth[lo], params) if sweep else None
            if swept is not None:
                perms[lo], totals[:, lo] = swept
                continue
            steps = slice(lo, min(lo + size, T))
            n = steps.stop - lo
            C = cost_stack(est[steps], truth[steps], params, np.empty((halves * n, t, t)))
            job, certified = _settle_job(C, n, params.alpha**params.p, backend)
            large = not certified.all() and t * t >= _THREAD_MIN_ENTRIES
            if pool is None and large and last_large and (cpus := _cpus()) >= 2:
                from concurrent.futures import ThreadPoolExecutor

                _lsap_module()  # loaded here, not by two workers at once
                pool = ThreadPoolExecutor(min(_WORKERS, cpus))
            last_large = large
            held.append((steps, pool.submit(job).result if pool is not None and large else job))
            del C, job  # else they would keep a stored chunk's buffer through the next build
            while len(held) > (0 if pool is None else _WORKERS):
                store(*held.popleft())
        while held:
            store(*held.popleft())
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    return perms, totals[1], totals[0]


def _sweep(
    x: np.ndarray, y: np.ndarray, params: LospaParams
) -> tuple[np.ndarray, tuple[float, float]] | None:
    """The pairing and totals the row-minimum certificate would give, else None.

    ``x`` and ``y`` are one step's (t, n_x) estimate and truth; q is 1 or 2.
    The certificate keeps a half's row argmins when they form a permutation
    of strict row minima; that pairing is then the half's unique optimum,
    and its total is the row minima summed left to right.  This reads each
    half's row minima without the t x t costs, and returns
    ``(psi, (localization total, labelled total))`` when both halves are
    certified, psi being the labelled pairing:

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
    pairs, and on a tie or a collision of row argmins in either half.
    """
    t = len(x)
    q, p = params.base_metric.q, params.p

    def costs(a, b):
        return _minkowski_costs(a, b, q, p, np.empty(len(a)), np.empty(len(a)))

    try:
        penalty = params.alpha**p
    except OverflowError:
        return None
    with np.errstate(over="ignore"):
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
    totals = []
    for half in (band, labelled) if params.alpha > 0.0 else (band,):
        mins = np.minimum.reduceat(half, heads)
        # Every row attains its minimum, so psi holds t columns or more:
        # no column twice means one per row, no tie, and a permutation.
        psi = cols[half == mins[rows]]
        if np.bincount(psi, minlength=t).max() > 1:
            return None
        totals.append(float(np.cumsum(mins)[-1]))
    return psi, (totals[0], totals[-1])


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
