"""Exact solvers for the minimum over permutations of a square cost matrix.

Two interchangeable backends solve ``min over perm of sum_j C[j, perm[j]]``:

* :func:`solve_brute_force` enumerates all t! permutations.  It is the
  reference oracle: deterministic tie-breaking, but factorial cost, so it is
  capped at a small number of targets.
* :func:`solve_optimal` treats the minimization as a linear assignment
  problem and solves it in O(t^3) time.

Both are pure functions; concurrent calls need no synchronization.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .constants import BRUTE_CAP_ENV_VAR, DEFAULT_BRUTE_CAP
from .core import CostMatrix, Permutation
from .errors import CapExceeded, LospaError

__all__ = [
    "AssignmentSolution",
    "SolverBackend",
    "brute_force_cap",
    "solve_brute_force",
    "solve_optimal",
    "solve",
]

# Enumeration chunk size; one chunk covers all permutations up to t = 8.
_CHUNK = 40320


class SolverBackend(Enum):
    """Which exact solver carries out the minimization over permutations."""

    BRUTE_FORCE = "brute"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class AssignmentSolution:
    """An optimal pairing and its total cost (summed left-to-right over rows)."""

    perm: Permutation
    total_cost: float


def brute_force_cap() -> int:
    """Current target-count cap for the brute-force solver.

    The environment variable named by ``BRUTE_CAP_ENV_VAR`` overrides the
    built-in default.
    """
    raw = os.environ.get(BRUTE_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_BRUTE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise LospaError(f"{BRUTE_CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise LospaError(f"{BRUTE_CAP_ENV_VAR} must be >= 1, got {cap}")
    return cap


def _cost_matrix(C: CostMatrix | np.ndarray) -> CostMatrix:
    return C if isinstance(C, CostMatrix) else CostMatrix(C)


def path_cost(C: CostMatrix | np.ndarray, perm: Permutation) -> float:
    """Total cost of a pairing, accumulated left-to-right in double precision."""
    entries = _cost_matrix(C).entries
    total = 0.0
    for j, k in enumerate(perm):
        total += float(entries[j, k])
    return total


@lru_cache(maxsize=None)
def _perm_table(t: int) -> np.ndarray:
    # Cached only for t <= 8 (the largest table is ~2.6 MB).
    return np.array(list(itertools.permutations(range(t))), dtype=np.intp)


def _chunk_min(entries: np.ndarray, perms: np.ndarray) -> tuple[float, np.ndarray]:
    # Column-by-column accumulation reproduces left-to-right summation.
    totals = np.zeros(len(perms))
    for j in range(entries.shape[0]):
        totals += entries[j, perms[:, j]]
    i = int(np.argmin(totals))  # first occurrence, i.e. smallest perm in the chunk
    return float(totals[i]), perms[i]


def solve_brute_force(C: CostMatrix | np.ndarray, cap: int | None = None) -> AssignmentSolution:
    """Exhaustive minimum over all t! pairings.

    Among cost ties the lexicographically smallest permutation wins, which
    makes this solver a deterministic oracle.  Totals are accumulated in row
    order, matching :func:`path_cost` bit for bit.

    Args:
        C: square cost matrix (finite, nonnegative).
        cap: maximum t to enumerate; ``None`` resolves the configured cap.

    Raises:
        CapExceeded: if the matrix is larger than the cap allows.
    """
    entries = _cost_matrix(C).entries
    t = entries.shape[0]
    if cap is None:
        cap = brute_force_cap()
    if t > cap:
        raise CapExceeded(
            f"brute force over {t}! permutations exceeds the cap of {cap} targets; "
            f"use the optimal-assignment backend instead"
        )

    if t <= 8:
        best_total, best_row = _chunk_min(entries, _perm_table(t))
    else:
        # Above the default cap: stream t! rows without materializing them all.
        best_total = np.inf
        best_row = None
        perm_iter = itertools.permutations(range(t))
        while True:
            block = list(itertools.islice(perm_iter, _CHUNK))
            if not block:
                break
            total, row = _chunk_min(entries, np.array(block, dtype=np.intp))
            if total < best_total:  # strict: earlier chunk wins ties
                best_total, best_row = total, row
        assert best_row is not None
    return AssignmentSolution(
        perm=Permutation(tuple(int(v) for v in best_row)), total_cost=best_total
    )


def solve_optimal(C: CostMatrix | np.ndarray) -> AssignmentSolution:
    """Polynomial-time exact minimum via the linear assignment problem.

    Matches the brute-force total cost on every square matrix; the returned
    permutation is unspecified among ties.

    Raises:
        InvalidCost: if the matrix is not square or has non-finite or
            negative entries.
    """
    C = _cost_matrix(C)
    _, cols = linear_sum_assignment(C.entries)
    perm = Permutation(tuple(int(c) for c in cols))
    return AssignmentSolution(perm=perm, total_cost=path_cost(C, perm))


def solve(C: CostMatrix | np.ndarray, backend: SolverBackend) -> AssignmentSolution:
    """Dispatch to the selected backend."""
    if backend is SolverBackend.BRUTE_FORCE:
        return solve_brute_force(C)
    if backend is SolverBackend.OPTIMAL:
        return solve_optimal(C)
    raise ValueError(f"unknown solver backend {backend!r}")
