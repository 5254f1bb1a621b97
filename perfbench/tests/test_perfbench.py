"""Tests of the benchmark's generator, reference check and tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import dataclasses
import importlib
import json

import numpy as np
import pytest

import tracer
from reference import check_report, reference_values
from workloads import WORKLOADS, write_inputs

# Small versions of the workloads, so each test runs the real CLI in well under a second.
SMALL = {
    "long_track_small_t": dict(T=60),
    "crowd_random": dict(T=3, t=40),
    "oracle_brute_t8": dict(T=20, t=6),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def compute(w, inputs, out, main):
    argv = [
        "compute", "--truth", str(inputs.truth_path), "--est", str(inputs.est_path),
        "--p", repr(w.p), "--alpha", repr(w.alpha), "--metric", w.metric,
        "--backend", w.backend, "--out", str(out),
    ]
    assert main(argv) == 0
    return out.read_text()


@contextlib.contextmanager
def restored_hooks():
    """Undo the tracer's patches on exit, by pinning each hooked name."""
    with pytest.MonkeyPatch.context() as mp:
        for _, module_name, attr_path, _ in tracer.HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            mp.setattr(owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
        yield


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = dataclasses.replace(WORKLOADS[name], T=30, t=min(WORKLOADS[name].t, 50))
    records = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / sub).mkdir()
        records.append(write_inputs(w, seed, tmp_path / sub).file_records())
    assert records[0] == records[1]
    assert [r["sha256"] for r in records[0]] != [r["sha256"] for r in records[2]]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_reference_check_flags_a_value_perturbed_by_1e_6(tmp_path, name):
    from lospa.cli import main
    from lospa.constants import REL_TOL_BACKENDS

    w = small(name)
    inputs = write_inputs(w, 3, tmp_path)
    ref = reference_values(w, inputs.est, inputs.truth)
    text = compute(w, inputs, tmp_path / "report.json", main)

    def check(report_text):
        return check_report(report_text, w, inputs.ks, inputs.est, inputs.truth, *ref, REL_TOL_BACKENDS)

    assert check(text) == []
    for column in ("lospa", "ospa"):
        doc = json.loads(text)
        doc["per_step"][w.T // 2][column] *= 1 + 1e-6
        problems = check(json.dumps(doc))
        assert problems and problems[0].startswith(column)
    doc = json.loads(text)
    doc["per_step"][0]["k"] += 1000
    assert check(json.dumps(doc)) == ["time indices differ from the input"]


def test_reference_check_flags_a_pairing_that_misses_the_cost(tmp_path):
    from lospa.cli import main

    w = small("long_track_small_t")
    inputs = write_inputs(w, 4, tmp_path)
    ref = reference_values(w, inputs.est, inputs.truth)
    doc = json.loads(compute(w, inputs, tmp_path / "report.json", main))
    perm = doc["per_step"][0]["optimal_perm"]
    perm[0], perm[1] = perm[1], perm[0]
    problems = check_report(json.dumps(doc), w, inputs.ks, inputs.est, inputs.truth, *ref, 1e-10)
    assert len(problems) == 1 and "does not attain" in problems[0]


def test_tracer_tolerates_missing_and_uncalled_hooks(tmp_path):
    from lospa.cli import main

    w = small("long_track_small_t")
    inputs = write_inputs(w, 5, tmp_path)
    hooks = [h for h in tracer.HOOKS if h[0] != "metric.lospa"] + [
        ("metric.lospa", "lospa.metric", "ospa_no_cutoff", None),  # exists, never called
        ("gone.module", "lospa.no_such_module", "f", None),
        ("gone.name", "lospa.metric", "no_such_function", None),
        ("gone.method", "lospa.core", "MultiTargetState.no_such_method", None),
    ]
    t = tracer.Tracer()
    with restored_hooks():
        t.install(hooks)
        compute(w, inputs, tmp_path / "report.json", t.wrap("cli.main", main))
    t.dump(tmp_path / "spans.json")

    trace = json.loads((tmp_path / "spans.json").read_text())
    assert trace["missing"] == [
        "lospa.no_such_module:f",
        "lospa.metric:no_such_function",
        "lospa.core:MultiTargetState.no_such_method",
    ]
    layers = tracer.layer_metrics(trace, w.T)
    assert layers["metric.lospa_calls"] == 0
    assert layers["metric.lospa_self_s"] == 0.0
    assert layers["assignment.solve_calls"] == layers["core.build_cost_matrix_calls"] == 2 * w.T
    assert layers["core.from_array_calls"] == 2 * w.T
    assert layers["trace.top_level_share"] > 0.5


def test_traced_counts_repeat_exactly(tmp_path):
    from lospa.cli import main

    w = small("oracle_brute_t8")
    inputs = write_inputs(w, 6, tmp_path)
    counts = []
    for run in range(2):
        t = tracer.Tracer()
        with restored_hooks():
            t.install()
            compute(w, inputs, tmp_path / "report.json", t.wrap("cli.main", main))
        t.dump(tmp_path / "spans.json")
        layers = tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()), w.T)
        counts.append({k: layers[k] for k in tracer.COUNT_METRICS})
    assert counts[0] == counts[1]
    assert counts[0]["assignment.perms_enumerated"] == 2 * w.T * 720
    assert counts[0]["core.cost_entries"] == 2 * w.T * w.t**2
    assert counts[0]["trajectory.bytes_read"] == sum(p.stat().st_size for p in (inputs.truth_path, inputs.est_path))
    assert np.isclose(counts[0]["evaluate.builds_per_step"], 2.0)


def test_benchmark_json_names_every_layer_metric(tmp_path):
    import run
    from lospa.cli import main

    spec = run.metric_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    w = small("crowd_random")
    inputs = write_inputs(w, 1, tmp_path)
    t = tracer.Tracer()
    with restored_hooks():
        t.install()
        compute(w, inputs, tmp_path / "report.json", t.wrap("cli.main", main))
    t.dump(tmp_path / "spans.json")
    names = set(tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()), w.T))
    assert {m["name"] for m in spec["per_layer"]} == names | {"trace.overhead_s"}
