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

:func:`_settle_job` settles every stack, for :func:`solve_stack`, every
single-matrix function here, ``lospa()`` and ``evaluate``.  All are pure
functions; concurrent calls need no synchronization.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import DEFAULT_BRUTE_CAP
from .core import CostMatrix, _as_int, _as_readonly
from .errors import CapExceeded, DimensionMismatch, InvalidCost

__all__ = [
    "AssignmentSolution",
    "SolverBackend",
    "solve_brute_force",
    "solve_optimal",
    "solve_stack",
]


class SolverBackend(Enum):
    """Which exact solver carries out the minimization over permutations."""

    BRUTE_FORCE = "brute"
    OPTIMAL = "optimal"


@dataclass(frozen=True, eq=False)
class AssignmentSolution:
    """An optimal pairing, a read-only int64 ``(t,)`` array pairing row j
    with column ``perm[j]``, and its total cost (summed left-to-right over rows)."""

    perm: np.ndarray
    total_cost: float


def _cost_matrix(C: CostMatrix | np.ndarray) -> CostMatrix:
    return C if isinstance(C, CostMatrix) else CostMatrix(C)


def path_cost(C: CostMatrix | np.ndarray, perm) -> float:
    """Total cost of a pairing, accumulated left-to-right in double precision.

    ``perm[j]`` is the column paired with row j; an index array will do.
    This is the solvers' own sum (:func:`_totals` of a stack of one), so it
    equals their totals bit for bit, the sign of a zero included.

    Raises ValueError if an entry is not an integer (a float, a bool) or the
    entries are not a permutation, DimensionMismatch unless the pairing
    has one entry per row, and InvalidCost if the total overflows the
    float64 range, as the solvers do.
    """
    entries = _cost_matrix(C).entries
    perm = [_as_int(v, "a pairing entry") for v in perm]
    t = len(perm)
    if t != len(entries):
        raise DimensionMismatch(f"pairing has {t} entries, cost matrix has {len(entries)} rows")
    if sorted(perm) != list(range(t)):
        raise ValueError(f"not a permutation of 0..{t - 1}: {tuple(perm)}")
    with np.errstate(over="ignore"):  # a total that overflows raises below
        total = float(_totals(entries[None], np.array([perm], dtype=np.intp))[0])
    if not np.isfinite(total):
        raise InvalidCost("the total cost of the pairing overflows the float64 range")
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
    # cumsum without its Python wrapper; it adds strictly left to right.
    return np.add.accumulate(picked, axis=1)[:, -1]


def _upper_bound_pairing(C: np.ndarray) -> np.ndarray:
    """A greedy pairing of every matrix; its total caps what the enumeration keeps.

    Row by row, each row takes its cheapest column not yet taken.  Entries
    are finite, so a free column always beats a taken one (+inf).  Any
    pairing gives a valid cap, a poor one only a looser one, so the
    brute-force result does not depend on this choice.
    """
    n, t, _ = C.shape
    matrices, perms, free = np.arange(n), np.empty((n, t), dtype=np.intp), np.ones((n, t), bool)
    for j in range(t):
        perms[:, j] = np.where(free, C[:, j], np.inf).argmin(axis=1)
        free[matrices, perms[:, j]] = False
    return perms


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
    parent, col = (used == 0).nonzero()
    key = key[parent] | (1 << col)
    m = key >> t
    sums = sums[parent] + C[m, depth, col]
    # Every completion costs at least the remaining row minima, and float
    # addition is monotone, so a lower bound above the cap cannot win.
    low = sums
    for row in range(depth + 1, t):
        low = low + row_min[m, row]
    keep = (low <= bound[m]).nonzero()[0]
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


@functools.cache
def _lsap_module():
    """The module that ``linear_sum_assignment`` is read from: scipy's LSAP extension.

    The extension is loaded on its own, in about 1 ms, where the
    ``scipy.optimize`` package would take most of a cold start.  It is
    kept here, not in ``sys.modules``, where its loader registers it: a
    later ``import scipy.optimize`` then loads the extension as a plain
    import does, and binds it as the package's ``_lsap``.  A scipy without
    that extension is imported as the package.
    """
    name = "scipy.optimize._lsap"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")  # imports nothing
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "optimize") for d in scipy.submodule_search_locations or ()]
    )
    if spec and isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        try:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except ImportError:
            pass
        else:
            sys.modules.pop(name, None)
            return module
    import scipy.optimize

    return scipy.optimize


def _lsap(M: np.ndarray) -> np.ndarray:
    """The LSAP pairing of one square matrix, from the module :func:`_lsap_module` loads."""
    return _lsap_module().linear_sum_assignment(M)[1]


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
        mins = C[np.arange(n)[:, None], np.arange(t), perms]
        ok &= (np.count_nonzero(C == mins[:, :, None], axis=2) == 1).all(axis=1)
    return ok


# k of the guard t * alpha**p <= 2**k * L(psi) in _reuses_labelled.
_GUARD_BITS = 16


def _settle_job(
    C: np.ndarray, n: int, penalty: float, backend: SolverBackend
) -> tuple[functools.partial, np.ndarray]:
    """Read what can be read at once of a trusted ``(halves * n, t, t)`` stack.

    With two halves, rows [:n] are localization costs and rows [n:] the
    same plus ``penalty``, alpha**p, off the diagonal; with one, the n
    matrices are both.  The optimal backend's row argmins and certificate
    are read here, on the calling thread; the brute-force backend has no
    certificate, and its job enumerates.  Returns ``(job, certified)``:
    ``job()`` settles the rest and gives ``(perms, totals)`` for every
    matrix, and ``certified[i]`` says that matrix i needs no LSAP solve.
    """
    if backend is SolverBackend.OPTIMAL:
        perms = C.argmin(axis=2)
        certified = _certified(C, perms)
    elif backend is SolverBackend.BRUTE_FORCE:
        _check_cap(C.shape[1], DEFAULT_BRUTE_CAP)
        perms, certified = None, np.ones(len(C), dtype=bool)
    else:
        raise ValueError(f"unknown solver backend {backend!r}")
    return functools.partial(_settle, C, perms, certified, n, penalty), certified


def _settle(
    C: np.ndarray, perms: np.ndarray | None, certified: np.ndarray, n: int, penalty: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_settle_job`'s job; raises InvalidCost if a total overflows.

    ``perms`` are the row argmins, kept where ``certified``, or None to
    enumerate.  LSAP solves each other labelled matrix, then each other
    localization one unless its step's labelled pairing serves it
    (:func:`_reuses_labelled`).
    """
    with np.errstate(over="ignore"):  # sums may overflow; a total that does raises below
        if perms is None:
            perms = _enumerate(C)
        # Last matrix first: a step's labelled matrix is settled before its localization one.
        for i in (~certified).nonzero()[0][::-1]:
            reuse = i < len(C) - n and _reuses_labelled(C[i], perms[i + n], penalty)
            perms[i] = perms[i + n] if reuse else _lsap(C[i])
        totals = _totals(C, perms)
    if not np.isfinite(totals).all():
        raise InvalidCost("the total cost of an optimal pairing overflows the float64 range")
    return perms, totals


def _reuses_labelled(loc: np.ndarray, psi: np.ndarray, penalty: float) -> bool:
    """Whether the labelled optimum ``psi`` may stand as the optimum of ``loc``.

    In exact arithmetic, a labelled optimum with no fixed point is also a
    localization optimum.  With L the localization total and Lab the
    labelled one, Lab(sigma) = L(sigma) + a (t - fix sigma) for every
    pairing sigma, where a = alpha**p and fix counts fixed points; so
    L(psi) + t a = Lab(psi) <= Lab(sigma) <= L(sigma) + t a.

    The labelled entries are rounded, fl(b + a), which can hide
    differences in b below about u a, u = 2**-53.  So ``psi`` is taken only
    when it fixes no target and passes the guard t a <= 2**k L(psi), with
    k = ``_GUARD_BITS``.  Then, with sigma* the localization optimum, the
    stored labelled totals are within a factor 1 +- u of Lab, which gives
    (1 - u) (L(psi) + t a) <= (1 + u) (L(sigma*) + t a), so
    (1 - u) L(psi) <= (1 + u) L(sigma*) + 2 u t a
                    <= (1 + u) L(sigma*) + 2**(k + 1) u L(psi),
    and L(psi) <= L(sigma*) (1 + u) / (1 - u (1 + 2**(k + 1))): relative
    to the optimum, within 2 u (1 + 2**k) to first order, 1.5e-11 at
    k = 16, below ``REL_TOL_BACKENDS``.  The sums themselves are rounded
    as on the LSAP path.  Above the guard, LSAP solves ``loc`` itself.
    """
    t = len(psi)
    if (psi == np.arange(t)).any():
        return False
    return t * penalty <= 2.0**_GUARD_BITS * float(_totals(loc[None], psi[None])[0])


def solve_stack(C: np.ndarray, backend: SolverBackend) -> tuple[np.ndarray, np.ndarray]:
    """Solve every matrix of an ``(n, t, t)`` stack of cost matrices.

    The optimal backend keeps a matrix's row argmins when they form a
    permutation of strict row minima; every other matrix, ties included,
    goes to scipy's ``linear_sum_assignment``, loaded on first use by
    :func:`_lsap_module`.  The matrices are solved one after another, in
    the calling thread.

    The brute-force backend extends prefixes one row at a time, for all
    matrices at once, summing each left to right exactly as
    :func:`path_cost` does.  Costs are nonnegative and float64 addition is
    monotone (``a <= a'`` and ``b <= b'`` give ``a + b <= a' + b'``), so
    two rules drop only prefixes that cannot reach the answer:

    * lower bound: the partial sum plus the remaining rows' minima, added
      left to right, exceeds the total of a known pairing of the same
      matrix (here :func:`_upper_bound_pairing`'s greedy one; a worse
      pairing only loosens the bound, so the result never depends on it);
    * ties: an earlier prefix, in lexicographic order, over the same set of
      columns has a partial sum no larger, so every completion of it costs
      no more and comes first.

    The lexicographically smallest cheapest pairing survives both rules.

    The stack is read as float64 once, here, which copies any other dtype
    but never a float64 stack, and checked for NaN and infinity.  It is
    then :func:`_settle_job`'s one-half case, which the other solvers,
    ``lospa()`` and ``evaluate`` reach with stacks checked already.

    Returns:
        ``(perms, totals)``: ``perms[i]`` is an optimal pairing of ``C[i]``
        and ``totals[i]`` its cost, accumulated left to right so that it
        equals :func:`path_cost` bit for bit.

    Raises:
        InvalidCost: if ``C`` is not a non-empty stack of square matrices,
            has a NaN or infinite entry, or a total overflows the float64
            range.
        CapExceeded: brute-force backend with more than
            ``DEFAULT_BRUTE_CAP`` targets.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim != 3 or C.shape[1] != C.shape[2] or 0 in C.shape:
        raise InvalidCost(f"expected an (n, t, t) stack of cost matrices, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise InvalidCost("cost stack contains NaN or infinity")
    return _settle_job(C, len(C), 0.0, backend)[0]()


def _solve_one(C: CostMatrix | np.ndarray, backend: SolverBackend) -> AssignmentSolution:
    """Solve one cost matrix with the selected backend, as a stack of one."""
    perms, totals = _settle_job(_cost_matrix(C).entries[None], 1, 0.0, backend)[0]()
    return AssignmentSolution(_as_readonly(perms[0], np.int64), float(totals[0]))


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
    return _solve_one(C, SolverBackend.BRUTE_FORCE)


def solve_optimal(C: CostMatrix | np.ndarray) -> AssignmentSolution:
    """Polynomial-time exact minimum via the linear assignment problem.

    Matches the brute-force total cost on every square matrix; the returned
    permutation is unspecified among ties.

    Raises:
        InvalidCost: if the matrix is not square or has non-finite or
            negative entries.
    """
    return _solve_one(C, SolverBackend.OPTIMAL)
