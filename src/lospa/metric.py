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

from dataclasses import dataclass
from enum import Enum

from .assignment import AssignmentSolution, SolverBackend, solve
from .core import (
    BaseMetric,
    LospaParams,
    MultiTargetState,
    Permutation,
    add_label_penalty,
    build_cost_matrix,
)

__all__ = ["MetricKind", "LospaResult", "lospa", "lospa_and_ospa", "ospa_no_cutoff"]


class MetricKind(Enum):
    """Tags a result as labelled (alpha > 0) or unlabelled (alpha = 0).

    An alpha = 0 result is *not* a labelled metric; the tag keeps callers
    from mistaking one for the other.
    """

    LOSPA = "lospa"
    OSPA = "ospa"


@dataclass(frozen=True)
class LospaResult:
    """Distance value plus the pairing that attains it."""

    distance: float
    optimal_perm: Permutation
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
    """
    return _result(solve(build_cost_matrix(A, B, params), backend), A.num_targets, params)


def lospa_and_ospa(
    A: MultiTargetState,
    B: MultiTargetState,
    params: LospaParams,
    backend: SolverBackend = SolverBackend.OPTIMAL,
) -> tuple[LospaResult, LospaResult]:
    """:func:`lospa` at ``params`` and at alpha = 0, from one cost build.

    The localization matrix ``b(a_j, b_k)**p`` is built once and solved as
    is, then with the labelling penalty added.  Returns ``(labelled,
    unlabelled)``, each equal to the separate :func:`lospa` call.
    """
    t = A.num_targets
    ospa_params = params.with_alpha(0.0)
    localization = build_cost_matrix(A, B, ospa_params)
    unlabelled = _result(solve(localization, backend), t, ospa_params)
    if params.alpha == 0.0:
        return unlabelled, unlabelled
    labelled = solve(add_label_penalty(localization, params), backend)
    return _result(labelled, t, params), unlabelled


def _result(sol: AssignmentSolution, t: int, params: LospaParams) -> LospaResult:
    distance = (sol.total_cost / t) ** (1.0 / params.p)
    kind = MetricKind.LOSPA if params.alpha > 0.0 else MetricKind.OSPA
    return LospaResult(distance=distance, optimal_perm=sol.perm, kind=kind)


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
