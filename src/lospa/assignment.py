"""Exact solvers for the minimum over permutations of a square cost matrix.

Two interchangeable backends solve ``min over perm of sum_j C[j, perm[j]]``:

* the brute-force backend enumerates all t! permutations.  It is the
  reference oracle: deterministic tie-breaking, but factorial cost, so it is
  capped at a small number of targets.
* the optimal backend treats the minimization as a linear assignment problem
  and solves it in O(t^3) time, unless a row-minimum certificate already
  proves the optimum (see :func:`solve_stack`).

:func:`solve_stack` solves an ``(n, t, t)`` stack of matrices at once; every
single-matrix function here is a stack of one.  All are pure functions;
concurrent calls need no synchronization.
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
from .errors import CapExceeded, InvalidCost

__all__ = [
    "AssignmentSolution",
    "SolverBackend",
    "solve_brute_force",
    "solve_optimal",
    "solve",
    "solve_stack",
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


def _check_cap(t: int, cap: int) -> None:
    if t > cap:
        raise CapExceeded(
            f"brute force over {t}! permutations exceeds the cap of {cap} targets; "
            f"use the optimal-assignment backend instead"
        )


def _enumerate(entries: np.ndarray) -> np.ndarray:
    """The lexicographically smallest of the cheapest permutations of one matrix."""
    perms = _perm_table(entries.shape[0])
    # Column-by-column accumulation reproduces left-to-right summation.
    totals = np.zeros(len(perms))
    for j in range(entries.shape[0]):
        totals += entries[j, perms[:, j]]
    return perms[np.argmin(totals)]  # first occurrence, i.e. the smallest tied perm


def _certified(C: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Which matrices have row argmins ``perms`` that form the unique optimum.

    The sum of row minima is a lower bound on every assignment (LP duality
    for the assignment problem), so a permutation that attains every row
    minimum is optimal; when each of those minima is strict, every other
    permutation costs more, so LSAP would return this one too.
    """
    n, t = perms.shape
    # A cheap collision count first: on unrelated estimates it rejects
    # nearly every matrix before the strictness test reads them in full.
    hits = np.bincount((perms + t * np.arange(n)[:, None]).ravel(), minlength=n * t)
    ok = (hits.reshape(n, t) == 1).all(axis=1)
    if ok.any():
        mins = np.take_along_axis(C, perms[:, :, None], axis=2)
        ok &= (np.count_nonzero(C == mins, axis=2) == 1).all(axis=1)
    return ok


def solve_stack(C: np.ndarray, backend: SolverBackend) -> tuple[np.ndarray, np.ndarray]:
    """Solve every matrix of an ``(n, t, t)`` stack of cost matrices.

    The optimal backend returns a matrix's row argmins as they are when
    they form a permutation and every row minimum is strict; every other
    matrix, ties included, goes to ``linear_sum_assignment``.  The
    brute-force backend enumerates every matrix in full.

    Entries are trusted to be finite and nonnegative; :func:`solve`
    validates single matrices through :class:`CostMatrix`.

    Returns:
        ``(perms, totals)``: ``perms[i]`` is an optimal pairing of ``C[i]``
        and ``totals[i]`` its cost, accumulated left to right so that it
        equals :func:`path_cost` bit for bit.

    Raises:
        InvalidCost: if ``C`` is not a non-empty stack of square matrices.
        CapExceeded: brute-force backend with more than
            ``DEFAULT_BRUTE_CAP`` targets.
    """
    if C.ndim != 3 or C.shape[1] != C.shape[2] or 0 in C.shape:
        raise InvalidCost(f"expected an (n, t, t) stack of cost matrices, got shape {C.shape}")
    if backend is SolverBackend.BRUTE_FORCE:
        _check_cap(C.shape[1], DEFAULT_BRUTE_CAP)
        perms = np.array([_enumerate(entries) for entries in C])
    elif backend is SolverBackend.OPTIMAL:
        perms = C.argmin(axis=2)
        for i in np.flatnonzero(~_certified(C, perms)):
            perms[i] = linear_sum_assignment(C[i])[1]
    else:
        raise ValueError(f"unknown solver backend {backend!r}")
    picked = np.take_along_axis(C, perms[:, :, None], axis=2)[:, :, 0]
    # cumsum adds strictly left to right, as path_cost does.
    return perms, np.cumsum(picked, axis=1)[:, -1]


def solve(C: CostMatrix | np.ndarray, backend: SolverBackend) -> AssignmentSolution:
    """Solve one cost matrix with the selected backend, as a stack of one."""
    perms, totals = solve_stack(_cost_matrix(C).entries[None], backend)
    return AssignmentSolution(perm=Permutation(perms[0]), total_cost=float(totals[0]))


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
    C = _cost_matrix(C)
    _check_cap(C.size, cap)
    return solve(C, SolverBackend.BRUTE_FORCE)


def solve_optimal(C: CostMatrix | np.ndarray) -> AssignmentSolution:
    """Polynomial-time exact minimum via the linear assignment problem.

    Matches the brute-force total cost on every square matrix; the returned
    permutation is unspecified among ties.

    Raises:
        InvalidCost: if the matrix is not square or has non-finite or
            negative entries.
    """
    return solve(C, SolverBackend.OPTIMAL)
