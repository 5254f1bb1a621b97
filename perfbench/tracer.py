"""Traced ``lospa-eval`` run: timing wrappers around each layer's public calls.

Run as a fresh process::

    python3 perfbench/tracer.py SPANS.json compute --truth ... --est ...

It replaces each hooked name, in the namespace where the caller looks it
up, with a wrapper that records a span (name, start, end, parent) and a few
exact counts, then calls ``lospa.cli.main`` with the remaining arguments.
Spans are kept in memory and written to SPANS.json when ``main`` returns.
A hook whose module or name no longer exists is listed as missing; its
layer then reads as zero calls, which is not an error.

``layer_metrics`` turns the written spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import Counter

import numpy as np


def _count_load(counts, args, kwargs, result):
    counts["bytes_read"] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])


def _count_build(counts, args, kwargs, result):
    counts["cost_entries"] += int(np.size(getattr(result, "entries", result)))


def _count_solve(counts, args, kwargs, result):
    mapping = tuple(getattr(result, "perm", ()))
    counts["identity_solves"] += mapping == tuple(range(len(mapping)))
    backend = kwargs["backend"] if "backend" in kwargs else args[1]
    if getattr(backend, "value", backend) == "brute":
        counts["perms_enumerated"] += math.factorial(len(mapping))


def _count_render(counts, args, kwargs, result):
    counts["report_bytes"] += len(result.encode())


# (span name, module, attribute path, counter).  Each name is patched where
# its caller looks it up.  importlib.import_module returns the module even
# where the package re-exports a function of the same name
# (``lospa.evaluate`` is both), which plain attribute access would not.
HOOKS = (
    ("trajectory.load", "lospa.cli", "load_trajectory", _count_load),
    ("core.from_array", "lospa.core", "MultiTargetState.from_array", None),
    ("evaluate.evaluate", "lospa.cli", "evaluate", None),
    ("metric.lospa", "lospa.evaluate", "lospa", None),
    ("core.build_cost_matrix", "lospa.metric", "build_cost_matrix", _count_build),
    ("assignment.solve", "lospa.metric", "solve", _count_solve),
    ("evaluate.render", "lospa.evaluate", "EvalReport.to_json", _count_render),
)


# Metrics that are exact counts or ratios of counts: for one seed they repeat
# bit for bit from run to run.
COUNT_METRICS = (
    "trajectory.load_calls", "trajectory.bytes_read", "core.from_array_calls",
    "core.build_cost_matrix_calls", "core.cost_entries", "assignment.solve_calls",
    "assignment.identity_frac", "assignment.perms_enumerated", "metric.lospa_calls",
    "evaluate.steps", "evaluate.builds_per_step", "evaluate.report_bytes",
)


class Tracer:
    """Collects spans and counts from the wrappers it installs."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_idx, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, hooks=HOOKS) -> None:
        for name, module_name, attr_path, counter in hooks:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{attr_path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(name, raw.__func__, counter))
            elif callable(raw):
                patched = self.wrap(name, raw, counter)
            else:
                self.missing.append(f"{module_name}:{attr_path}")
                continue
            setattr(owner, attr, patched)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": self.counts, "missing": self.missing},
                fh,
            )


def layer_metrics(trace: dict, steps: int) -> dict[str, float]:
    """Per-layer times, call counts and exact counts from one traced run."""
    names = trace["names"]
    spans = np.array(trace["spans"], dtype=float).reshape(-1, 4)
    kind = spans[:, 0].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    parent = spans[:, 3].astype(int)
    nested = parent >= 0
    # Single-threaded calls nest without overlap, so the time children cover
    # is the sum of their durations.
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(spans))

    def durations(name):
        return dur[kind == names.index(name)] if name in names else dur[:0]

    def total(name):
        return float(durations(name).sum())

    def calls(name):
        return len(durations(name))

    def pct_us(name, q):
        d = durations(name)
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def self_s(name):
        return float(self_time[kind == names.index(name)].sum()) if name in names else 0.0

    counts = trace["counts"]
    main_s = total("cli.main")
    main_idx = np.flatnonzero(kind == names.index("cli.main")) if "cli.main" in names else []
    top_level_s = float(dur[np.isin(parent, main_idx)].sum())
    load_s = total("trajectory.load")
    solves = calls("assignment.solve")
    return {
        "trajectory.load_s": load_s,
        "trajectory.load_calls": calls("trajectory.load"),
        "trajectory.bytes_read": counts.get("bytes_read", 0),
        "trajectory.load_mb_per_s": counts.get("bytes_read", 0) / 1e6 / load_s if load_s else 0.0,
        "core.from_array_s": total("core.from_array"),
        "core.from_array_calls": calls("core.from_array"),
        "core.build_cost_matrix_s": total("core.build_cost_matrix"),
        "core.build_cost_matrix_calls": calls("core.build_cost_matrix"),
        "core.build_cost_matrix_p50_us": pct_us("core.build_cost_matrix", 50),
        "core.cost_entries": counts.get("cost_entries", 0),
        "assignment.solve_s": total("assignment.solve"),
        "assignment.solve_calls": solves,
        "assignment.solve_p50_us": pct_us("assignment.solve", 50),
        "assignment.solve_p99_us": pct_us("assignment.solve", 99),
        "assignment.identity_frac": counts.get("identity_solves", 0) / solves if solves else 0.0,
        "assignment.perms_enumerated": counts.get("perms_enumerated", 0),
        "metric.lospa_calls": calls("metric.lospa"),
        "metric.lospa_p50_us": pct_us("metric.lospa", 50),
        "metric.lospa_self_s": self_s("metric.lospa"),
        "evaluate.evaluate_s": total("evaluate.evaluate"),
        "evaluate.self_s": self_s("evaluate.evaluate"),
        "evaluate.steps": steps,
        "evaluate.builds_per_step": calls("core.build_cost_matrix") / steps,
        "evaluate.render_s": total("evaluate.render"),
        "evaluate.report_bytes": counts.get("report_bytes", 0),
        "cli.main_s": main_s,
        "cli.self_s": self_s("cli.main"),
        "trace.top_level_share": top_level_s / main_s if main_s else 0.0,
    }


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    import lospa.cli

    tracer = Tracer()
    tracer.install()
    traced_main = tracer.wrap("cli.main", lospa.cli.main)
    try:
        return traced_main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
