"""Per-timestep evaluation, report rendering, and the built-in demo."""

import json

import numpy as np
import pytest

from lospa import (
    DimensionMismatch,
    LospaParams,
    SolverBackend,
    TimestepMismatch,
    Trajectory,
    evaluate,
    run_demo,
)
from lospa.constants import REL_TOL_EXACT

from helpers import ESTIMATE_POINTS, TRUTH_POINTS, expected_table_value, mts


def trajectory(ks, point_lists):
    return Trajectory(list(ks), [mts(points).points for points in point_lists])


def constant_trajectory(points, n_steps=3):
    return trajectory(range(n_steps), [points] * n_steps)


TRUTH_TRAJ = constant_trajectory(TRUTH_POINTS)


class TestEvaluate:
    def test_first_row_constant_estimate(self):
        est = constant_trajectory(ESTIMATE_POINTS[0])
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        assert len(report.per_step) == 3
        for step in report.per_step:
            assert step.lospa == pytest.approx(0.1, abs=1e-9)
            assert step.ospa == pytest.approx(0.1, abs=1e-9)
        assert report.mean_lospa == pytest.approx(0.1, abs=1e-9)

    def test_second_row_constant_estimate(self):
        est = constant_trajectory(ESTIMATE_POINTS[1])
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        for step in report.per_step:
            assert step.lospa == pytest.approx(expected_table_value(2, 1.0), abs=1e-9)
            assert step.ospa == pytest.approx(0.1, abs=1e-9)

    def test_identical_trajectories_give_zero(self):
        report = evaluate(TRUTH_TRAJ, TRUTH_TRAJ, LospaParams())
        assert all(step.lospa == 0.0 and step.ospa == 0.0 for step in report.per_step)
        assert report.mean_lospa == 0.0
        assert report.max_lospa == 0.0
        assert report.mean_ospa == 0.0

    def test_aggregates_are_mean_and_max(self):
        # Three different estimates as a single trajectory vs constant truth.
        est = trajectory(range(3), ESTIMATE_POINTS)
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        values = [step.lospa for step in report.per_step]
        assert report.mean_lospa == sum(values) / 3
        assert report.max_lospa == max(values)
        assert report.max_lospa == values[2]  # worst labelling last

    def test_timestep_mismatch_lists_indices(self):
        truth = trajectory((0, 1, 2), [[0, 1]] * 3)
        est = trajectory((0, 1, 3), [[0, 1]] * 3)
        with pytest.raises(TimestepMismatch) as err:
            evaluate(truth, est, LospaParams())
        assert "[2]" in str(err.value) and "[3]" in str(err.value)

    def test_shape_mismatches(self):
        with pytest.raises(DimensionMismatch):
            evaluate(TRUTH_TRAJ, constant_trajectory([0, 1]), LospaParams())
        with pytest.raises(DimensionMismatch):
            evaluate(
                TRUTH_TRAJ,
                constant_trajectory([[0, 0], [1, 1], [2, 2]]),
                LospaParams(),
            )

    def test_ospa_never_exceeds_lospa(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            t = int(rng.integers(1, 5))
            steps_t, steps_e = [], []
            for _ in range(4):
                steps_t.append(rng.uniform(-10, 10, size=(t, 2)))
                steps_e.append(rng.uniform(-10, 10, size=(t, 2)))
            report = evaluate(
                Trajectory(range(4), steps_t),
                Trajectory(range(4), steps_e),
                LospaParams(p=2.0, alpha=1.0),
            )
            for step in report.per_step:
                assert step.ospa <= step.lospa + 1e-12

    def test_backend_choice_is_echoed(self):
        report = evaluate(
            TRUTH_TRAJ,
            constant_trajectory(ESTIMATE_POINTS[0]),
            LospaParams(),
            backend=SolverBackend.BRUTE_FORCE,
        )
        assert report.backend is SolverBackend.BRUTE_FORCE


class TestReportJson:
    def make_report(self):
        est = trajectory(range(3), ESTIMATE_POINTS)
        return evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))

    def test_key_order_and_content(self):
        text = self.make_report().to_json()
        doc = json.loads(text)
        assert list(doc.keys()) == ["params_echo", "backend", "per_step", "aggregates"]
        assert list(doc["params_echo"].keys()) == ["p", "alpha", "base_metric"]
        assert list(doc["aggregates"].keys()) == [
            "mean_lospa",
            "max_lospa",
            "mean_ospa",
            "note",
        ]
        assert doc["params_echo"]["base_metric"] == "euclidean"
        assert doc["backend"] == "optimal"
        assert [step["k"] for step in doc["per_step"]] == [0, 1, 2]
        assert doc["per_step"][1]["optimal_perm"] == [1, 0, 2]

    def test_aggregates_marked_as_summaries(self):
        doc = json.loads(self.make_report().to_json())
        assert "summaries" in doc["aggregates"]["note"]

    def test_seventeen_significant_digits(self):
        text = self.make_report().to_json()
        # 0.1 in doubles is 0.1000000000000000055511...; at 17 significant
        # digits it must be spelled out, not shortened to '0.1'.
        assert '"ospa": 0.09999999999999977' in text

    def test_round_trip_is_lossless(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert doc["per_step"][2]["lospa"] == report.per_step[2].lospa
        assert doc["aggregates"]["mean_lospa"] == report.mean_lospa

    def test_byte_determinism(self):
        assert self.make_report().to_json() == self.make_report().to_json()

    def test_trailing_newline(self):
        assert self.make_report().to_json().endswith("}\n")


class TestDemo:
    def test_demo_passes_its_gate(self):
        demo = run_demo()
        assert demo.passed
        assert len(demo.cells) == 6

    def test_demo_cells_match_closed_forms(self):
        demo = run_demo()
        for cell in demo.cells:
            assert cell.expected == expected_table_value(cell.row, cell.alpha)
            assert abs(cell.computed - cell.expected) <= 1e-9

    def test_demo_ospa_shared(self):
        demo = run_demo()
        assert len(demo.ospa_values) == 3
        for value in demo.ospa_values:
            assert value == pytest.approx(0.1, abs=1e-12)

    def test_demo_reports_cover_both_alphas(self):
        demo = run_demo()
        assert [r.params_echo.alpha for r in demo.reports] == [0.1, 1.0]
        for report in demo.reports:
            assert len(report.per_step) == 3

    def test_demo_render_mentions_gate(self):
        text = run_demo().render()
        assert "PASS" in text
        assert text.count("ok") >= 6
