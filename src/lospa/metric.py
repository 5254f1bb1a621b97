"""The labelled distance between multitarget states, and its unlabelled limit.

For two states with the same number of targets t, the distance of order p is

    ( (1/t) * min over pairings of sum_j [ b(a_j, b_pair(j))**p
                                           + alpha**p * (j != pair(j)) ] )**(1/p)

where b is the base metric and the minimum runs over all bijections between
the two target sequences.  With alpha > 0 this is a metric on labelled
multitarget states (LOSPA); with alpha = 0 the labelling term vanishes and
the value is the plain OSPA distance without cut-off, which only measures
where the targets are, not how they are ordered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .assignment import SolverBackend, _settle
from .core import BaseMetric, LospaParams, MultiTargetState, _as_readonly, _pair_costs

__all__ = ["MetricKind", "LospaResult", "lospa", "ospa_no_cutoff"]


class MetricKind(Enum):
    """Tags a result as labelled (alpha > 0) or unlabelled (alpha = 0).

    An alpha = 0 result is *not* a labelled metric; the tag keeps callers
    from mistaking one for the other.
    """

    LOSPA = "lospa"
    OSPA = "ospa"


@dataclass(frozen=True, eq=False)
class LospaResult:
    """Distance value plus the pairing that attains it.

    ``optimal_perm``, a read-only int64 ``(t,)`` array like a row of
    ``EvalReport.perms``, pairs position j of the first state with position
    ``optimal_perm[j]`` of the second.
    """

    distance: float
    optimal_perm: np.ndarray
    kind: MetricKind


def lospa(
    A: MultiTargetState,
    B: MultiTargetState,
    params: LospaParams,
    backend: SolverBackend = SolverBackend.OPTIMAL,
) -> LospaResult:
    """Labelled distance between two multitarget states.

    The minimization over pairings is solved exactly by the selected backend;
    both backends return the same distance (the permutation may differ among
    cost ties).

    Args:
        A: first multitarget state.
        B: second multitarget state, same target count and dimension.
        params: order p, labelling penalty alpha, and base metric.
        backend: exact solver; brute force is capped at a small target count.

    Returns:
        The distance, the optimal pairing, and a tag telling whether the
        value is the labelled metric or its alpha = 0 degenerate (OSPA).

    Raises:
        DimensionMismatch: if A and B differ in target count or dimension.
        CapExceeded: brute-force backend with too many targets.
        InvalidCost: if a cost or the minimum total overflows the float64 range.
    """
    perms, totals = _settle(_pair_costs(A, B, params)[-1:], 1, 0.0, backend)
    kind = MetricKind.LOSPA if params.alpha > 0.0 else MetricKind.OSPA
    [distance] = _distances(totals.tolist(), A.num_targets, params.p)
    return LospaResult(distance, _as_readonly(perms[0], np.int64), kind)


def _distances(totals: list[float], t: int, p: float) -> list[float]:
    """The distances from minimum total costs over t targets.

    At p = 2 the root is the correctly rounded ``math.sqrt``; at other p,
    Python's float ``**`` per value: numpy's vectorised power can differ in
    the last bit, and reports print every bit.
    """
    root = math.sqrt if p == 2.0 else lambda x: x ** (1.0 / p)
    return [root(total / t) for total in totals]


def ospa_no_cutoff(
    A: MultiTargetState,
    B: MultiTargetState,
    p: float,
    base_metric: BaseMetric | None = None,
    backend: SolverBackend = SolverBackend.OPTIMAL,
) -> float:
    """OSPA distance without cut-off: the alpha = 0 limit of :func:`lospa`.

    Ignores ordering entirely, so states that differ only in how their
    targets are arranged come out at distance determined by localization
    error alone.
    """
    if base_metric is None:
        base_metric = BaseMetric.euclidean()
    params = LospaParams(p=p, alpha=0.0, base_metric=base_metric)
    return lospa(A, B, params, backend=backend).distance
