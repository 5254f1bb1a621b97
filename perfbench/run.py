"""Benchmark of the ``lospa-eval compute`` command on generated trajectories.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's truth and estimate files for the seed into a
scratch directory under ``perfbench/.work``, computes reference distances
from the generated arrays, then runs ``compute`` as a subprocess, one at a
time (a closed loop with one client), until S seconds have passed.  Every
report is checked against the reference; a run that exits non-zero, times
out or fails the check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics: ``setup_s``
(median wall time of ``lospa-eval version``), and the medians over runs of
``wall_s``, ``steps_per_s`` and ``peak_rss_mib``.  With ``--trace 1`` plain
runs alternate with runs under ``tracer.py``, and the last line reports the
per-layer metrics of the traced runs.  The line before it is a record of the
environment, the input files (size and SHA-256) and every run.

The program is run from ``src/`` through the console-script entry point
declared in ``pyproject.toml``; nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from reference import check_report, reference_values
from tracer import COUNT_METRICS, layer_metrics
from workloads import WORKLOADS, Inputs, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 7  # version runs whose median is setup_s
MIN_RUNS = 3  # compute runs per mode, however short --seconds is
RUN_TIMEOUT_S = 60.0


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Run:
    traced: bool
    wall_s: float
    peak_rss_mib: float
    problems: list[str]
    layers: dict | None = None


def _entry_prefix() -> list[str]:
    """Interpreter command that runs the ``lospa-eval`` console script from source."""
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["lospa-eval"]
    except (OSError, KeyError, tomllib.TOMLDecodeError) as exc:
        raise SetupError(f"no lospa-eval entry point in pyproject.toml: {exc!r}") from None
    module, func = target.split(":")
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _spawn(argv: list[str], workdir: Path) -> tuple[int | None, float, float, str]:
    """Exit code (None on timeout), wall seconds, peak RSS in MiB, stderr text."""
    with tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=_child_env())
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        # Reaped by wait4 above (for its rusage); tell Popen not to wait again.
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    timed_out = wall >= RUN_TIMEOUT_S and code < 0
    return (None if timed_out else code), wall, usage.ru_maxrss / 1024.0, text


def _setup_wall(prefix: list[str], workdir: Path) -> float:
    code, wall, _, err = _spawn(prefix + ["version"], workdir)
    if code != 0:
        raise SetupError(f"'lospa-eval version' exited with {code}: {err.strip()}")
    return wall


def _compute_args(w: Workload, inputs: Inputs, report: Path) -> list[str]:
    return [
        "compute", "--truth", str(inputs.truth_path), "--est", str(inputs.est_path),
        "--p", repr(w.p), "--alpha", repr(w.alpha), "--metric", w.metric,
        "--backend", w.backend, "--out", str(report),
    ]


def _rel_tol() -> float:
    sys.path.insert(0, str(SRC))
    try:
        from lospa import constants
    except ImportError as exc:
        raise SetupError(f"cannot import lospa from {SRC}: {exc!r}") from None
    finally:
        sys.path.remove(str(SRC))
    return constants.REL_TOL_BACKENDS


def _cpu_record() -> dict:
    record = {"cpu_model": None, "l2_bytes": None, "l3_bytes": None}
    try:
        with open("/proc/cpuinfo") as fh:
            record["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and size.endswith("K"):
            record[f"l{level}_bytes"] = int(size[:-1]) * 1024
    return record


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu_record(),
    }


def bench(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    prefix = _entry_prefix()
    rel_tol = _rel_tol()
    inputs = write_inputs(w, seed, workdir)
    ref_lospa, ref_ospa = reference_values(w, inputs.est, inputs.truth)
    _setup_wall(prefix, workdir)  # fills the bytecode cache; not measured
    setup = [] if trace else [_setup_wall(prefix, workdir) for _ in range(SETUP_REPEATS)]

    report = workdir / "report.json"
    spans = workdir / "spans.json"
    args = _compute_args(w, inputs, report)
    runs: list[Run] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS * (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and len(runs) % 2 == 1
        report.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans)] + args if traced else prefix + args
        code, wall, rss, err = _spawn(argv, workdir)
        run = Run(traced, wall, rss, [])
        if code != 0:
            run.problems.append(
                "timed out" if code is None else f"exit code {code}: {err.strip()[-500:]}"
            )
        else:
            run.problems = check_report(
                report.read_text(), w, inputs.ks, inputs.est, inputs.truth,
                ref_lospa, ref_ospa, rel_tol,
            )
        if traced and not run.problems:
            run.layers = layer_metrics(json.loads(spans.read_text()), w.T)
        runs.append(run)
        if code is None:
            break

    ok = [r for r in runs if not r.problems]
    plain = [r for r in ok if not r.traced]
    traced_ok = [r for r in ok if r.traced]
    if not plain or (trace and not traced_ok):
        raise SetupError(f"no successful run: {runs[0].problems}")
    failed = len(runs) - len(ok)
    if trace:
        first = traced_ok[0].layers
        if any(r.layers[k] != first[k] for r in traced_ok for k in COUNT_METRICS):
            failed += 1
            print("perfbench: exact counts differ between traced runs", file=sys.stderr)
        values = {k: statistics.median(r.layers[k] for r in traced_ok) for k in first}
        values["trace.overhead_s"] = (
            statistics.median(r.wall_s for r in traced_ok)
            - statistics.median(r.wall_s for r in plain)
        )
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall_s for r in plain),
            "steps_per_s": statistics.median(w.T / r.wall_s for r in plain),
            "peak_rss_mib": statistics.median(r.peak_rss_mib for r in plain),
        }

    for r in runs:
        for problem in r.problems:
            print(f"perfbench: failed run: {problem}", file=sys.stderr)
    record = {
        "workload": w.name,
        "seed": seed,
        "params": {"T": w.T, "t": w.t, "nx": w.nx, "p": w.p, "alpha": w.alpha,
                   "metric": w.metric, "backend": w.backend, "format": w.fmt},
        "environment": _environment(),
        "working_set": w.working_set(),
        "inputs": inputs.file_records(),
        "setup_s": setup,
        "runs": [{"traced": r.traced, "wall_s": r.wall_s, "peak_rss_mib": r.peak_rss_mib,
                  "ok": not r.problems} for r in runs],
        "failed_frac": failed / len(runs),
    }
    print(json.dumps(record))
    spec = metric_spec()["per_layer" if trace else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def metric_spec() -> dict:
    """Metric names and units, as BENCHMARK.json declares them."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir)
        if not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
