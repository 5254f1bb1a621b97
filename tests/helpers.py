"""Shared test utilities, most importantly independent reference oracles.

``enum_lospa`` and ``enum_min_assignment`` deliberately avoid numpy, scipy
and the library under test: plain Python floats, ``math`` and literal
enumeration of every permutation.  Golden values in the tests were frozen
from these functions.  ``subset_dp_totals`` reaches past the enumeration
cap without LSAP.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np

from lospa import MultiTargetState


def qnorm_dist(x, y, q=2.0):
    """q-norm distance between two coordinate sequences (pure Python)."""
    return sum(abs(a - b) ** q for a, b in zip(x, y)) ** (1.0 / q)


def enum_min_assignment(C):
    """Minimum-cost pairing of a square cost matrix by literal enumeration.

    Returns (total, perm) with the total accumulated left-to-right; among
    ties the lexicographically smallest permutation wins.
    """
    t = len(C)
    best_total, best_perm = None, None
    for phi in itertools.permutations(range(t)):
        total = 0.0
        for j in range(t):
            total += C[j][phi[j]]
        if best_total is None or total < best_total:
            best_total, best_perm = total, phi
    return best_total, best_perm


def subset_dp_totals(C):
    """The least left-to-right total over every pairing of each matrix of a stack.

    Over column sets S in order of size, f(S) = min over c in S of
    fl(f(S - {c}) + C[|S| - 1, c]): t * 2**(t - 1) additions per matrix,
    batched over the (n, t, t) stack ``C``, where enumeration takes t!.
    Float addition is monotone, so f(all columns) is exactly the smallest
    of the t! totals summed row by row: the brute-force backend's total,
    bit for bit.  f(no column) is -0.0, to which adding x gives x.
    """
    n, t, _ = C.shape
    masks = np.arange(1 << t)
    sizes = np.array([m.bit_count() for m in masks.tolist()])
    f = np.full((n, 1 << t), np.inf)
    f[:, 0] = -0.0
    for size in range(1, t + 1):
        layer = masks[sizes == size]
        for c in range(t):
            S = layer[(layer >> c) & 1 == 1]
            f[:, S] = np.minimum(f[:, S], f[:, S ^ (1 << c)] + C[:, size - 1, c, None])
    return f[:, -1]


def enum_lospa(A, B, p, alpha, q=2.0):
    """Labelled distance by literal enumeration over all pairings.

    A and B are lists of per-target coordinate lists.
    """
    t = len(A)
    C = [
        [
            qnorm_dist(A[j], B[k], q) ** p + alpha**p * (0.0 if j == k else 1.0)
            for k in range(t)
        ]
        for j in range(t)
    ]
    total, _ = enum_min_assignment(C)
    return (total / t) ** (1.0 / p)


def mts(points):
    """MultiTargetState from a list of coordinate lists (or bare scalars)."""
    return MultiTargetState.from_points(points)


def random_points(rng, t, nx, scale=20.0):
    """t random coordinate lists of length nx, as plain Python floats."""
    return [[float(v) for v in rng.uniform(-scale, scale, size=nx)] for _ in range(t)]


def csv_text(steps, t, nx, sidecar=True, header=None):
    """Render trajectory steps as CSV file text.

    ``steps`` is a list of (k, points) with points a list of t coordinate
    lists of length nx.
    """
    lines = []
    if sidecar:
        lines.append(f"# t={t} nx={nx}")
    if header is None:
        names = [f"x_{i}_{j}" for i in range(1, t + 1) for j in range(1, nx + 1)]
        header = ",".join(["k"] + names)
    lines.append(header)
    for k, points in steps:
        flat = [repr(float(v)) for point in points for v in point]
        lines.append(",".join([str(k)] + flat))
    return "\n".join(lines) + "\n"


def json_doc(steps, t, nx):
    """Trajectory steps as the dict form of the JSON file format."""
    return {
        "t": t,
        "nx": nx,
        "steps": [{"k": k, "targets": points} for k, points in steps],
    }


# The worked 3-target example: truth, the three estimates, and how many
# targets each estimate places in another target's slot.
TRUTH_POINTS = [-10.0, 0.0, 10.0]
ESTIMATE_POINTS = [
    [-10.1, 0.1, 10.1],
    [0.1, -10.1, 10.1],
    [10.1, -10.1, 0.1],
]
WRONG_PAIRINGS = [0, 2, 3]


def expected_table_value(row, alpha):
    """Closed-form labelled distance for estimate ``row`` (1-based) at alpha."""
    return math.sqrt(0.1**2 + WRONG_PAIRINGS[row - 1] * alpha**2 / 3.0)


def source_tree_env():
    """Environment whose PYTHONPATH puts this checkout's ``src`` first."""
    root = Path(__file__).resolve().parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def set_cpus(monkeypatch, n):
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# The report file of EvalReport.to_json, rendered the plain way: one
# %-template per step, built for the report's t, with every float formatted
# where it appears.  The renderer shares texts between steps; this is what
# it must print.
_TEMPLATE_REPORT = """\
{{
  "params_echo": {{
    "p": {p:.17g},
    "alpha": {alpha:.17g},
    "base_metric": "{metric}"
  }},
  "backend": "{backend}",
  "per_step": [
{steps}
  ],
  "aggregates": {{
    "mean_lospa": {mean_lospa:.17g},
    "max_lospa": {max_lospa:.17g},
    "mean_ospa": {mean_ospa:.17g},
    "note": "mean/max are summaries over timesteps; the distance itself is defined per timestep only"
  }}
}}
"""
_TEMPLATE_STEP = """\
    {{
      "k": %d,
      "lospa": %.17g,
      "ospa": %.17g,
      "optimal_perm": [
        {perm}
      ]
    }}"""


def template_report_json(report):
    """``report.to_json()`` as a per-step %-template fills it."""
    step = _TEMPLATE_STEP.format(perm=",\n        ".join(["%d"] * report.perms.shape[1]))
    columns = zip(
        report.k.tolist(), report.lospa.tolist(), report.ospa.tolist(), *report.perms.T.tolist()
    )
    echo = report.params_echo
    return _TEMPLATE_REPORT.format(
        p=float(echo.p), alpha=float(echo.alpha), metric=echo.base_metric.describe(),
        backend=report.backend.value, steps=",\n".join(map(step.__mod__, columns)),
        mean_lospa=report.mean_lospa, max_lospa=report.max_lospa, mean_ospa=report.mean_ospa,
    )
