"""Exact solvers for the minimum over permutations of a square cost matrix.

Two interchangeable backends solve ``min over perm of sum_j C[j, perm[j]]``:

* the brute-force backend is the reference oracle: it returns the
  lexicographically smallest of the cheapest permutations, with the total
  summed left to right.  It walks the tree of partial pairings (prefixes)
  row by row in lexicographic order and drops only prefixes that provably
  cannot lead to that answer, so its cost is factorial in the worst case
  and it is capped at a small number of targets.
* the optimal backend treats the minimization as a linear assignment problem
  and solves it in O(t^3) time, unless a row-minimum certificate already
  proves the optimum (see :func:`solve_stack`).

:func:`solve_stack` solves an ``(n, t, t)`` stack of matrices at once; every
single-matrix function here is a stack of one.  All are pure functions;
concurrent calls need no synchronization.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def __getattr__(name: str):
    # scipy.optimize is most of a cold start, and certified stacks never
    # need it: it is imported by the first lookup of the solver's name.
    if name == "linear_sum_assignment":
        from scipy.optimize import linear_sum_assignment

        globals()[name] = linear_sum_assignment
        return linear_sum_assignment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _check_cap(t: int, cap: int) -> None:
    if t > cap:
        raise CapExceeded(
            f"brute force over {t}! permutations exceeds the cap of {cap} targets; "
            f"use the optimal-assignment backend instead"
        )


# Most child prefixes the brute-force backend builds in one step; a larger
# frontier is split, in lexicographic order, and its pieces are expanded one
# after the other.  About 100 bytes of working arrays per child.
_FRONTIER_ENTRIES = 1 << 12


def _totals(C: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Cost of ``perms[i]`` on ``C[i]``, summed left to right as :func:`path_cost` does."""
    n, t = perms.shape
    picked = C[np.arange(n)[:, None], np.arange(t), perms]
    # cumsum adds strictly left to right.
    return np.cumsum(picked, axis=1)[:, -1]


def _upper_bound_pairing(C: np.ndarray) -> np.ndarray:
    """Some pairing of every matrix; its total caps what the enumeration keeps.

    Any pairing gives a valid cap, a poor one only a looser one, so the
    brute-force result does not depend on this solver being right.
    """
    return solve_stack(C, SolverBackend.OPTIMAL)[0]


def _dominated(key: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Which entries have an earlier entry with the same key and no larger sum."""
    order = np.lexsort((sums, key))  # by key, then sum, then position
    key = key[order]
    # Within a key, an entry is dominated when an entry sorted before it has
    # a smaller position.  Offsetting each key below all earlier keys lets
    # one running minimum of positions serve every key at once.
    rank = (key[-1] - key) * len(order) + order
    earlier = np.minimum.accumulate(rank)
    out = np.zeros(len(order), dtype=bool)
    out[order[1:]] = earlier[:-1] < rank[1:]
    return out


def _expand(C, row_min, bound, depth, key, cols, sums):
    """Yield the complete pairings that survive below a frontier of prefixes.

    The frontier holds pairings of the first ``depth`` rows, in
    lexicographic order within each matrix and matrices in order: their
    ``key`` (the matrix index shifted left by t, or-ed with the bit set of
    the columns used), their columns ``cols`` and their left-to-right
    partial ``sums``.  Pieces are yielded in the same order.
    """
    t = C.shape[1]
    if depth == t:
        yield key >> t, cols, sums
        return
    if len(key) * (t - depth) > _FRONTIER_ENTRIES and len(key) > 1:
        half = len(key) // 2
        for part in (slice(None, half), slice(half, None)):
            yield from _expand(C, row_min, bound, depth, key[part], cols[part], sums[part])
        return
    # Children in row-major order keep the frontier lexicographic.
    # The low t bits of a key (t <= 8) are its used columns.
    used = np.unpackbits(key.astype(np.uint8)[:, None], axis=1, count=t, bitorder="little")
    parent, col = np.nonzero(used == 0)
    key = key[parent] | (1 << col)
    m = key >> t
    sums = sums[parent] + C[m, depth, col]
    # Every completion costs at least the remaining row minima, and float
    # addition is monotone, so a lower bound above the cap cannot win.
    low = sums
    for row in range(depth + 1, t):
        low = low + row_min[m, row]
    keep = np.flatnonzero(low <= bound[m])
    if depth and len(keep) > 1:  # one-row prefixes all use different columns
        # An earlier prefix over the same columns with no larger sum
        # completes every suffix at no larger cost, and earlier in
        # lexicographic order.
        keep = keep[~_dominated(key[keep], sums[keep])]
    cols = np.concatenate((cols[parent[keep]], col[keep, None]), axis=1, dtype=np.int8)
    yield from _expand(C, row_min, bound, depth + 1, key[keep], cols, sums[keep])


def _enumerate(C: np.ndarray) -> np.ndarray:
    """The lexicographically smallest of the cheapest pairings of each matrix."""
    n, t, _ = C.shape
    bound = _totals(C, _upper_bound_pairing(C))
    root = (np.arange(n) << t, np.empty((n, 0), dtype=np.int8), np.zeros(n))
    m, cols, sums = (
        np.concatenate(parts) for parts in zip(*_expand(C, C.min(axis=2), bound, 0, *root))
    )
    # lexsort is stable: a matrix's first cheapest pairing comes first.
    order = np.lexsort((sums, m))
    first = np.ones(len(order), dtype=bool)
    first[1:] = m[order[1:]] != m[order[:-1]]
    return cols[order[first]].astype(np.intp)


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
    matrix, ties included, goes to scipy's ``linear_sum_assignment``, which
    is imported only when a stack first needs it.

    The brute-force backend extends prefixes one row at a time, for all
    matrices at once, summing each left to right exactly as
    :func:`path_cost` does.  Costs are nonnegative and float64 addition is
    monotone (``a <= a'`` and ``b <= b'`` give ``a + b <= a' + b'``), so
    two rules drop only prefixes that cannot reach the answer:

    * lower bound: the partial sum plus the remaining rows' minima, added
      left to right, exceeds the total of a known pairing of the same
      matrix (here the optimal backend's; a worse pairing only loosens the
      bound, so the result never depends on it);
    * ties: an earlier prefix, in lexicographic order, over the same set of
      columns has a partial sum no larger, so every completion of it costs
      no more and comes first.

    The lexicographically smallest cheapest pairing survives both rules.

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
        perms = _enumerate(C)
    elif backend is SolverBackend.OPTIMAL:
        perms = C.argmin(axis=2)
        uncertified = np.flatnonzero(~_certified(C, perms))
        if len(uncertified):
            # Through the module, so that the first lookup imports the solver.
            lsap = sys.modules[__name__].linear_sum_assignment
            for i in uncertified:
                perms[i] = lsap(C[i])[1]
    else:
        raise ValueError(f"unknown solver backend {backend!r}")
    return perms, _totals(C, perms)


def solve(C: CostMatrix | np.ndarray, backend: SolverBackend) -> AssignmentSolution:
    """Solve one cost matrix with the selected backend, as a stack of one."""
    perms, totals = solve_stack(_cost_matrix(C).entries[None], backend)
    return AssignmentSolution(perm=Permutation(perms[0]), total_cost=float(totals[0]))


def solve_brute_force(
    C: CostMatrix | np.ndarray, cap: int = DEFAULT_BRUTE_CAP
) -> AssignmentSolution:
    """Exact minimum over all t! pairings, by pruned enumeration.

    Among cost ties the lexicographically smallest permutation wins, which
    makes this solver a deterministic oracle.  Totals are accumulated in row
    order, matching :func:`path_cost` bit for bit.  Partial pairings are
    dropped only when a row-minimum lower bound exceeds a known pairing's
    total, or when an earlier partial pairing over the same columns costs no
    more (see :func:`solve_stack`); the result is that of enumerating all t!.

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
