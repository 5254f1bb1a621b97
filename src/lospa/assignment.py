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
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .constants import DEFAULT_BRUTE_CAP
from .core import CostMatrix, Permutation
from .errors import CapExceeded

__all__ = [
    "AssignmentSolution",
    "SolverBackend",
    "solve_brute_force",
    "solve_optimal",
    "solve",
]


class SolverBackend(Enum):
    """Which exact solver carries out the minimization over permutations."""

    BRUTE_FORCE = "brute"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class AssignmentSolution:
    """An optimal pairing and its total cost (summed left-to-right over rows)."""

    perm: Permutation
    total_cost: float


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
    # t <= DEFAULT_BRUTE_CAP, so the largest table (t = 8) is about 2.6 MB.
    # Every caller shares the cached table, so it is read-only.
    table = np.array(list(itertools.permutations(range(t))), dtype=np.intp)
    table.setflags(write=False)
    return table


def solve_brute_force(
    C: CostMatrix | np.ndarray, cap: int = DEFAULT_BRUTE_CAP
) -> AssignmentSolution:
    """Exhaustive minimum over all t! pairings.

    Among cost ties the lexicographically smallest permutation wins, which
    makes this solver a deterministic oracle.  Totals are accumulated in row
    order, matching :func:`path_cost` bit for bit.

    Args:
        C: square cost matrix (finite, nonnegative).
        cap: maximum t to enumerate; it may lower ``DEFAULT_BRUTE_CAP`` but
            not raise it.

    Raises:
        ValueError: if ``cap`` exceeds ``DEFAULT_BRUTE_CAP``.
        CapExceeded: if the matrix is larger than the cap allows.
    """
    if cap > DEFAULT_BRUTE_CAP:
        raise ValueError(f"cap may be at most {DEFAULT_BRUTE_CAP}, got {cap}")
    entries = _cost_matrix(C).entries
    t = entries.shape[0]
    if t > cap:
        raise CapExceeded(
            f"brute force over {t}! permutations exceeds the cap of {cap} targets; "
            f"use the optimal-assignment backend instead"
        )
    perms = _perm_table(t)
    # Column-by-column accumulation reproduces left-to-right summation.
    totals = np.zeros(len(perms))
    for j in range(t):
        totals += entries[j, perms[:, j]]
    i = int(np.argmin(totals))  # first occurrence, i.e. the smallest tied perm
    return AssignmentSolution(perm=Permutation(perms[i]), total_cost=float(totals[i]))


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
    perm = Permutation(cols)
    return AssignmentSolution(perm=perm, total_cost=path_cost(C, perm))


def solve(C: CostMatrix | np.ndarray, backend: SolverBackend) -> AssignmentSolution:
    """Dispatch to the selected backend."""
    if backend is SolverBackend.BRUTE_FORCE:
        return solve_brute_force(C)
    if backend is SolverBackend.OPTIMAL:
        return solve_optimal(C)
    raise ValueError(f"unknown solver backend {backend!r}")
