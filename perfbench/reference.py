"""Independent reference values for a workload, and the check of a report.

The reference never calls the program: it builds each cost matrix with its
own numpy code and solves it with ``scipy.optimize.linear_sum_assignment``
(optimal backend) or by enumerating ``itertools.permutations`` (brute-force
backend).  A report passes when, at every step, its ``k`` matches the input,
its ``lospa`` and ``ospa`` values match the reference within the relative
tolerance, and its ``optimal_perm`` is a permutation whose labelled cost
gives the reported ``lospa``.  Tied permutations may differ between solvers,
so values are compared, never report bytes.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from scipy.optimize import linear_sum_assignment

from workloads import Workload

# Steps per vectorised chunk of the enumeration; keeps the (steps, t!) table
# of pairing costs near 20 MB at t=8.
_BRUTE_CHUNK = 64


def _distances(est: np.ndarray, truth: np.ndarray, q: float) -> np.ndarray:
    """(..., t, t) base distances: entry (j, k) pairs est target j with truth target k."""
    diff = np.abs(est[..., :, None, :] - truth[..., None, :, :])
    return np.sum(diff**q, axis=-1) ** (1.0 / q)


def _solve_optimal(loc: np.ndarray, penalty: float) -> float:
    cost = loc + penalty * (1.0 - np.eye(len(loc)))
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def reference_values(w: Workload, est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-step labelled (alpha) and unlabelled (alpha=0) distances, shape (T,) each."""
    lospa_total = np.empty(w.T)
    ospa_total = np.empty(w.T)
    penalty = w.alpha**w.p
    if w.backend == "brute":
        perms = np.array(list(itertools.permutations(range(w.t))))
        wrong = (perms != np.arange(w.t)).sum(axis=1)
        for lo in range(0, w.T, _BRUTE_CHUNK):
            loc = _distances(est[lo:lo + _BRUTE_CHUNK], truth[lo:lo + _BRUTE_CHUNK], w.q) ** w.p
            totals = sum(loc[:, j, perms[:, j]] for j in range(w.t))
            ospa_total[lo:lo + len(loc)] = totals.min(axis=1)
            lospa_total[lo:lo + len(loc)] = (totals + penalty * wrong).min(axis=1)
    else:
        for step in range(w.T):
            loc = _distances(est[step], truth[step], w.q) ** w.p
            lospa_total[step] = _solve_optimal(loc, penalty)
            ospa_total[step] = _solve_optimal(loc, 0.0)
    return (lospa_total / w.t) ** (1.0 / w.p), (ospa_total / w.t) ** (1.0 / w.p)


def _mismatches(got: np.ndarray, want: np.ndarray, rel_tol: float) -> np.ndarray:
    return np.flatnonzero(np.abs(got - want) > rel_tol * np.maximum(np.abs(got), np.abs(want)))


def check_report(
    text: str,
    w: Workload,
    ks: np.ndarray,
    est: np.ndarray,
    truth: np.ndarray,
    ref_lospa: np.ndarray,
    ref_ospa: np.ndarray,
    rel_tol: float,
) -> list[str]:
    """Problems found in a report; an empty list means it is correct."""
    try:
        per_step = json.loads(text)["per_step"]
        got_k = np.array([s["k"] for s in per_step])
        got_lospa = np.array([s["lospa"] for s in per_step], dtype=float)
        got_ospa = np.array([s["ospa"] for s in per_step], dtype=float)
        perms = np.array([s["optimal_perm"] for s in per_step], dtype=np.intp)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    if len(per_step) != w.T or perms.shape != (w.T, w.t):
        return [f"report has {len(per_step)} steps / perms of shape {perms.shape}, expected T={w.T}, t={w.t}"]

    problems = []
    if not np.array_equal(got_k, ks):
        problems.append("time indices differ from the input")
    for name, got, want in (("lospa", got_lospa, ref_lospa), ("ospa", got_ospa, ref_ospa)):
        bad = _mismatches(got, want, rel_tol)
        if bad.size:
            s = bad[0]
            problems.append(f"{name} differs from the reference at {bad.size} steps, first k={ks[s]}: {got[s]!r} vs {want[s]!r}")
    if not np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(w.t), perms.shape)):
        problems.append("an optimal_perm is not a permutation")
        return problems

    # Labelled cost of each reported pairing, recomputed from the input arrays.
    paired_truth = np.take_along_axis(truth, perms[:, :, None], axis=1)
    loc = np.sum(np.abs(est - paired_truth) ** w.q, axis=2) ** (1.0 / w.q)
    wrong = (perms != np.arange(w.t)).sum(axis=1)
    attained = ((np.sum(loc**w.p, axis=1) + w.alpha**w.p * wrong) / w.t) ** (1.0 / w.p)
    bad = _mismatches(attained, got_lospa, rel_tol)
    if bad.size:
        problems.append(f"optimal_perm does not attain the reported lospa at {bad.size} steps, first k={ks[bad[0]]}")
    return problems
