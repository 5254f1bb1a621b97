"""Benchmark workloads and the seeded generator of their input files.

Each workload fixes the input shape (T timesteps, t targets of dimension
n_x), how the estimate relates to the truth, the distance parameters and the
solver backend.  ``write_inputs`` turns a workload and a seed into a truth
file and an estimate file in the documented CSV or JSON trajectory layout;
the same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Side of the square (cube, for n_x=3) the targets lie in, and the noise
# of a near-correct estimate.  Targets sit tens of units apart, so noise of
# this size never changes which pairing is optimal unless a pair is swapped.
_FIELD = 1000.0
_NEAR_NOISE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "csv" or "json"
    T: int  # timesteps
    t: int  # targets per timestep
    nx: int  # per-target dimension
    estimate: str  # "near": truth plus noise, some steps swap one pair; "random"
    swap_frac: float  # share of steps whose estimate swaps one target pair
    p: float
    alpha: float
    metric: str  # CLI spelling: "euclidean" or "pnorm:<q>"
    backend: str  # "optimal" or "brute"

    @property
    def q(self) -> float:
        return 2.0 if self.metric == "euclidean" else float(self.metric.split(":", 1)[1])

    def working_set(self) -> dict:
        """Bytes of the data structures whose size decides cache behaviour."""
        return {
            "state_arrays_bytes": 2 * self.T * self.t * self.nx * 8,
            "cost_matrix_bytes": self.t * self.t * 8,
            "cost_tensor_bytes": self.T * self.t * self.t * 8,
        }


# BENCHMARK.json gives the reason for each workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_track_small_t", "csv", T=20000, t=5, nx=2, estimate="near",
            swap_frac=0.10, p=2.0, alpha=1.0, metric="euclidean", backend="optimal",
        ),
        Workload(
            "crowd_random", "json", T=20, t=1000, nx=2, estimate="random",
            swap_frac=0.0, p=2.0, alpha=1.0, metric="euclidean", backend="optimal",
        ),
        Workload(
            "crowd_near", "csv", T=20, t=1000, nx=2, estimate="near",
            swap_frac=0.10, p=2.0, alpha=1.0, metric="euclidean", backend="optimal",
        ),
        Workload(
            "oracle_brute_t8", "json", T=1500, t=8, nx=3, estimate="near",
            swap_frac=0.30, p=1.0, alpha=0.5, metric="pnorm:1", backend="brute",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated arrays plus the files the program reads."""

    ks: np.ndarray  # (T,) time indices
    truth: np.ndarray  # (T, t, n_x)
    est: np.ndarray  # (T, t, n_x)
    truth_path: Path
    est_path: Path

    def file_records(self) -> list[dict]:
        """Size and SHA-256 of each input file, to prove two runs read the same bytes."""
        return [
            {
                "file": path.name,
                "bytes": path.stat().st_size,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            }
            for path in (self.truth_path, self.est_path)
        ]


def make_arrays(w: Workload, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time indices, truth and estimate arrays for one workload and seed."""
    rng = np.random.default_rng([seed, zlib.crc32(w.name.encode())])
    # Positions are redrawn at every step: each step is an independent
    # assignment instance, so a run averages over T of them and the solve
    # time at t=1000 does not hinge on one draw of the truth.
    truth = rng.uniform(0.0, _FIELD, size=(w.T, w.t, w.nx))
    if w.estimate == "random":
        est = rng.uniform(0.0, _FIELD, size=truth.shape)
    elif w.estimate == "near":
        est = truth + rng.normal(0.0, _NEAR_NOISE, size=truth.shape)
        # An exact count of swapped steps keeps the work the same for every seed.
        swapped = rng.choice(w.T, size=round(w.swap_frac * w.T), replace=False)
        for step in swapped:
            i, j = rng.choice(w.t, size=2, replace=False)
            est[step, [i, j]] = est[step, [j, i]]
    else:
        raise ValueError(f"unknown estimate kind {w.estimate!r}")
    return np.arange(w.T), truth, est


def _write_csv(path: Path, ks: np.ndarray, states: np.ndarray) -> None:
    T, t, nx = states.shape
    header = ",".join(["k"] + [f"x_{i}_{c}" for i in range(1, t + 1) for c in range(1, nx + 1)])
    lines = [f"# t={t} nx={nx}", header]
    # repr() gives the shortest text that parses back to the same double.
    lines.extend(
        f"{k}," + ",".join(map(repr, row))
        for k, row in zip(ks.tolist(), states.reshape(T, t * nx).tolist())
    )
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, ks: np.ndarray, states: np.ndarray) -> None:
    _, t, nx = states.shape
    doc = {
        "t": t,
        "nx": nx,
        "steps": [{"k": k, "targets": s} for k, s in zip(ks.tolist(), states.tolist())],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def write_inputs(w: Workload, seed: int, directory: Path) -> Inputs:
    """Generate the workload's arrays and write the truth and estimate files."""
    ks, truth, est = make_arrays(w, seed)
    writer = _write_csv if w.fmt == "csv" else _write_json
    truth_path = directory / f"truth.{w.fmt}"
    est_path = directory / f"est.{w.fmt}"
    writer(truth_path, ks, truth)
    writer(est_path, ks, est)
    return Inputs(ks=ks, truth=truth, est=est, truth_path=truth_path, est_path=est_path)
