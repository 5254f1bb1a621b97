"""Per-timestep evaluation, report rendering, and the built-in demo."""

import importlib
import json
import math
import subprocess
import sys
import threading
import weakref
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.optimize import linear_sum_assignment

from lospa import assignment
from lospa import (
    BaseMetric,
    CapExceeded,
    DimensionMismatch,
    InvalidCost,
    EvalReport,
    LospaParams,
    SolverBackend,
    TimestepMismatch,
    Trajectory,
    evaluate,
    path_cost,
    run_demo,
)
from lospa.core import cost_stack
from lospa.metric import _distance
from lospa.cli import main
from lospa.constants import REL_TOL_BACKENDS, REL_TOL_EXACT

from helpers import (
    ESTIMATE_POINTS, TRUTH_POINTS, csv_text, enum_lospa, expected_table_value, mts, qnorm_dist,
    set_cpus, source_tree_env,
)

# The package re-exports the function under the module's name.
evaluate_module = importlib.import_module("lospa.evaluate")


def trajectory(ks, point_lists):
    return Trajectory(list(ks), [mts(points).points for points in point_lists])


def constant_trajectory(points, n_steps=3):
    return trajectory(range(n_steps), [points] * n_steps)


TRUTH_TRAJ = constant_trajectory(TRUTH_POINTS)


class TestEvaluate:
    def test_first_row_constant_estimate(self):
        est = constant_trajectory(ESTIMATE_POINTS[0])
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        assert len(report.k) == 3
        for lospa, ospa in zip(report.lospa, report.ospa):
            assert lospa == pytest.approx(0.1, abs=1e-9)
            assert ospa == pytest.approx(0.1, abs=1e-9)
        assert report.mean_lospa == pytest.approx(0.1, abs=1e-9)

    def test_second_row_constant_estimate(self):
        est = constant_trajectory(ESTIMATE_POINTS[1])
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        for lospa, ospa in zip(report.lospa, report.ospa):
            assert lospa == pytest.approx(expected_table_value(2, 1.0), abs=1e-9)
            assert ospa == pytest.approx(0.1, abs=1e-9)

    def test_identical_trajectories_give_zero(self):
        report = evaluate(TRUTH_TRAJ, TRUTH_TRAJ, LospaParams())
        assert np.all(report.lospa == 0.0) and np.all(report.ospa == 0.0)
        assert report.mean_lospa == 0.0
        assert report.max_lospa == 0.0
        assert report.mean_ospa == 0.0

    def test_aggregates_are_mean_and_max(self):
        # Three different estimates as a single trajectory vs constant truth.
        est = trajectory(range(3), ESTIMATE_POINTS)
        report = evaluate(TRUTH_TRAJ, est, LospaParams(p=2.0, alpha=1.0))
        values = report.lospa.tolist()
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
            assert np.all(report.ospa <= report.lospa + 1e-12)

    def test_columns_are_read_only(self):
        report = evaluate(TRUTH_TRAJ, trajectory(range(3), ESTIMATE_POINTS), LospaParams())
        columns = (report.k, report.lospa, report.ospa, report.perms)
        assert [c.shape for c in columns] == [(3,), (3,), (3,), (3, 3)]
        assert [c.dtype for c in columns] == [np.int64, np.float64, np.float64, np.int64]
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_report_copies_and_checks_its_columns(self):
        k, values, perms = np.arange(2), np.array([0.5, 0.25]), np.array([[0, 1], [1, 0]])
        report = EvalReport(k, values, values, perms, LospaParams(), SolverBackend.OPTIMAL)
        values[0], perms[0, 0] = 9.0, 1
        assert report.lospa.tolist() == [0.5, 0.25]
        assert report.perms.tolist() == [[0, 1], [1, 0]]
        assert (report.mean_lospa, report.max_lospa) == (0.375, 0.5)
        for bad in ((k, values[:1], values, perms), (k, values, values, perms[0]),
                    ([], [], [], np.empty((0, 2)))):
            with pytest.raises(ValueError, match="report columns"):
                EvalReport(*bad, LospaParams(), SolverBackend.OPTIMAL)

    def test_backend_choice_is_echoed(self):
        report = evaluate(
            TRUTH_TRAJ,
            constant_trajectory(ESTIMATE_POINTS[0]),
            LospaParams(),
            backend=SolverBackend.BRUTE_FORCE,
        )
        assert report.backend is SolverBackend.BRUTE_FORCE


def near_and_random(rng, T, t, nx=2):
    """(truth, near, random) state stacks of shape (T, t, n_x).

    ``near`` is the truth plus small noise with one target pair swapped at
    every other step (targets sit 10 apart); ``random`` is independent of
    the truth.
    """
    grid = 10.0 * np.arange(t)[:, None] + np.zeros((1, nx))
    truth = grid + rng.normal(scale=0.5, size=(T, t, nx))
    near = truth + rng.normal(scale=0.1, size=(T, t, nx))
    if t > 1:
        for i in range(0, T, 2):
            j, k = rng.choice(t, size=2, replace=False)
            near[i, [j, k]] = near[i, [k, j]]
    random = rng.uniform(-5.0, 10.0 * t, size=(T, t, nx))
    return truth, near, random


class TestChunkedEvaluation:
    """Chunks of steps with certified or LSAP solves, against both referees."""

    @pytest.mark.parametrize("t", [1, 2, 5, 8])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    def test_every_step_matches_oracle_and_brute_force(self, monkeypatch, t, q, alpha):
        # Chunks of 2 steps, so T = 5 ends on a partial chunk.
        monkeypatch.setattr(evaluate_module, "_CHUNK_ENTRIES", 2 * t * t)
        T = 5
        truth, near, random = near_and_random(np.random.default_rng(61 + t), T, t)
        params = LospaParams(p=1.5, alpha=alpha, base_metric=BaseMetric.pnorm(q))
        ks = range(T)
        for est in (near, random):
            truth_traj, est_traj = Trajectory(ks, truth), Trajectory(ks, est)
            report = evaluate(truth_traj, est_traj, params)
            brute = evaluate(truth_traj, est_traj, params, SolverBackend.BRUTE_FORCE)
            for i, (A, B) in enumerate(zip(est.tolist(), truth.tolist())):
                lospa, ospa = report.lospa[i], report.ospa[i]
                assert lospa == pytest.approx(enum_lospa(A, B, 1.5, alpha, q), rel=1e-10)
                assert ospa == pytest.approx(enum_lospa(A, B, 1.5, 0.0, q), rel=1e-10)
                assert lospa == pytest.approx(brute.lospa[i], rel=REL_TOL_BACKENDS)
                assert ospa == pytest.approx(brute.ospa[i], rel=REL_TOL_BACKENDS)
                assert report.perms[i].tolist() == brute.perms[i].tolist()

    @pytest.mark.parametrize("t", [1, 2, 5, 8])
    @pytest.mark.parametrize("q", [1.0, 2.0])
    # At alpha = 20 the swaps of the near estimates cost more than they save,
    # so the labelled pairing differs from the unlabelled one.
    @pytest.mark.parametrize("alpha", [0.6, 20.0])
    def test_stacked_halves_in_chunks_of_two(self, monkeypatch, t, q, alpha):
        # One chunk holds both halves of 2 steps; T = 5 ends on a partial chunk.
        monkeypatch.setattr(evaluate_module, "_CHUNK_ENTRIES", 4 * t * t)
        stacks = []

        def counted(xs, ys, params, out):
            stacks.append(out.shape)
            return cost_stack(xs, ys, params, out)

        monkeypatch.setattr(evaluate_module, "cost_stack", counted)
        T = 5
        truth, near, random = near_and_random(np.random.default_rng(65 + t), T, t)
        params = LospaParams(p=1.5, alpha=alpha, base_metric=BaseMetric.pnorm(q))
        for est in (near, random):
            truth_traj, est_traj = Trajectory(range(T), truth), Trajectory(range(T), est)
            reports = []
            for backend in (SolverBackend.OPTIMAL, SolverBackend.BRUTE_FORCE):
                stacks.clear()
                reports.append(evaluate(truth_traj, est_traj, params, backend))
                assert stacks == [(4, t, t), (4, t, t), (2, t, t)]
            report, brute = reports
            for i, (A, B) in enumerate(zip(est.tolist(), truth.tolist())):
                lospa, ospa = report.lospa[i], report.ospa[i]
                assert lospa == pytest.approx(enum_lospa(A, B, 1.5, alpha, q), rel=1e-10)
                assert ospa == pytest.approx(enum_lospa(A, B, 1.5, 0.0, q), rel=1e-10)
                assert lospa == pytest.approx(brute.lospa[i], rel=REL_TOL_BACKENDS)
                assert ospa == pytest.approx(brute.ospa[i], rel=REL_TOL_BACKENDS)
                assert report.perms[i].tolist() == brute.perms[i].tolist()
                # The pairing reported is the labelled optimum.
                perm = report.perms[i].tolist()
                total = sum(qnorm_dist(A[j], B[perm[j]], q) ** 1.5 + alpha**1.5 * (j != perm[j])
                            for j in range(t))
                assert (total / t) ** (1 / 1.5) == pytest.approx(lospa, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 0.6])
    def test_near_correct_steps_never_reach_lsap(self, lsap_calls, alpha):
        truth, near, _ = near_and_random(np.random.default_rng(63), 40, 6)
        report = evaluate(Trajectory(range(40), truth), Trajectory(range(40), near),
                          LospaParams(alpha=alpha))
        assert lsap_calls == []
        assert np.any(report.perms != np.arange(6), axis=1).sum() == 20

    @pytest.mark.parametrize("alpha, most_per_step", [(0.0, 1), (0.6, 2)])
    def test_random_steps_reach_lsap_once_per_solve(self, lsap_calls, alpha, most_per_step):
        # All 40 steps are one chunk.  Each step's labelled matrix is solved;
        # its localization matrix too where the labelled pairing keeps a
        # target or fails the guard t * alpha**p <= 2**16 * L(psi).
        t, params = 20, LospaParams(alpha=alpha)
        truth, _, random = near_and_random(np.random.default_rng(64), 40, t)
        report = evaluate(Trajectory(range(40), truth), Trajectory(range(40), random), params)
        expected = 40
        if alpha > 0.0:
            for A, B, psi in zip(random.tolist(), truth.tolist(), report.perms.tolist()):
                loc = sum(qnorm_dist(A[j], B[psi[j]]) ** 2.0 for j in range(t))
                kept = any(psi[j] == j for j in range(t))
                expected += kept or t * alpha**2.0 > 2.0**16 * loc
            assert 40 < expected < 80  # both kinds of step occur
        assert len(lsap_calls) == expected <= most_per_step * 40

    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        truth, near, _ = near_and_random(np.random.default_rng(62), 7, 3)
        args = (Trajectory(range(7), truth), Trajectory(range(7), near), LospaParams(alpha=0.6))
        whole = evaluate(*args).to_json()
        monkeypatch.setattr(evaluate_module, "_CHUNK_ENTRIES", 1)
        assert evaluate(*args).to_json() == whole


def dense(*args, **kwargs):
    """``evaluate`` with the sweep off: every step is built and solved as a stack."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate_module, "_sweep", lambda *_: None)
        return evaluate(*args, **kwargs)


def sweep_results(monkeypatch):
    """List that receives what every ``_sweep`` call returns."""
    real, results = evaluate_module._sweep, []

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(evaluate_module, "_sweep", recorded)
    return results


def counted_builds(monkeypatch):
    """List that receives the step count of every ``cost_stack`` call of ``evaluate``."""
    builds = []

    def counted(xs, ys, params, out):
        builds.append(len(xs))
        return cost_stack(xs, ys, params, out)

    monkeypatch.setattr(evaluate_module, "cost_stack", counted)
    return builds


def spread(t, scale=10.0):
    """(t, 1) truths ``scale`` apart, and estimates 1% of that off them."""
    truth = scale * np.arange(t, dtype=float)[:, None]
    noise = np.random.default_rng(t).uniform(-0.01, 0.01, size=truth.shape)
    return truth, truth + scale * noise


def far_target(t, far):
    """``spread(t)`` with the last target moved to ``far``, 1e-12 of it off its truth."""
    truth, est = spread(t)
    if far is not None:
        truth[-1], est[-1] = far, far * (1 + 1e-12)
    return truth, est


class TestSweep:
    """One-step chunks certified by the sorted sweep, against the dense referee."""

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.sampled_from([257, 362, 363, 400]),
        nx=st.integers(1, 3),
        alpha=st.sampled_from([0.0, 0.5]),
        q=st.sampled_from([1.0, 2.0, 3.0]),
        p=st.sampled_from([1.0, 2.0, 7.0]),
        noise=st.sampled_from([1e-3, 0.3, 5.0]),
        duplicates=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_report_bytes_match_the_dense_path(self, t, nx, alpha, q, p, noise, duplicates, seed):
        # Truths about 10 apart; step 1 swaps one pair of estimates.
        rng = np.random.default_rng(seed)
        truth = rng.uniform(0.0, 10.0 * t ** (1 / nx), size=(2, t, nx))
        for _ in range(duplicates):
            i, j = rng.choice(t, size=2, replace=False)
            truth[:, i] = truth[:, j]
        est = truth + rng.normal(scale=noise, size=truth.shape)
        est[1, [0, 1]] = est[1, [1, 0]]
        args = (Trajectory(range(2), truth), Trajectory(range(2), est),
                LospaParams(p=p, alpha=alpha, base_metric=BaseMetric.pnorm(q)))
        assert evaluate(*args).to_json() == dense(*args).to_json()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_cost_stack_only_for_uncertified_steps(self, monkeypatch, alpha):
        # Every other step swaps a pair: steps 0, 2 and 4 are not the
        # identity, but still a pairing of strict row minima in both halves.
        truth, near, _ = near_and_random(np.random.default_rng(66), 6, 400)
        args = (Trajectory(range(6), truth), Trajectory(range(6), near), LospaParams(alpha=alpha))
        expected = dense(*args).to_json()
        builds = counted_builds(monkeypatch)
        results = sweep_results(monkeypatch)
        report = evaluate(*args)
        assert report.to_json() == expected
        assert [r is not None for r in results] == [True] * 6
        assert builds == []
        moved = (report.perms != np.arange(400)).sum(axis=1)
        assert moved.tolist() == [2, 0] * 3

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_colliding_argmins_are_built(self, monkeypatch, lsap_calls, alpha):
        # Truths 0 and 1 lie closer than the noise, and estimates 0 and 1
        # are both nearest truth 0: the localization argmins collide, so
        # the sweep gives up.  LSAP solves the localization half; at
        # alpha = 1 the certificate settles the labelled one.
        truth, near, _ = near_and_random(np.random.default_rng(66), 2, 400)
        truth, near = truth[1:], near[1:]  # step 1 swaps no pair
        truth[0, :2] = [[0.0, 0.0], [0.1, 0.0]]
        near[0, :2] = [[0.04, 0.0], [0.02, 0.0]]
        args = (Trajectory([0], truth), Trajectory([0], near), LospaParams(alpha=alpha))
        expected = dense(*args).to_json()
        lsap_calls.clear()
        builds = counted_builds(monkeypatch)
        results = sweep_results(monkeypatch)
        assert evaluate(*args).to_json() == expected
        assert results == [None]
        assert builds == [1]
        assert len(lsap_calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        t=st.sampled_from([257, 400]),
        nx=st.integers(1, 3),
        alpha=st.sampled_from([0.0, 0.5]),
        q=st.sampled_from([1.0, 2.0]),
        p=st.sampled_from([1.0, 2.0, 7.0]),
        noise=st.sampled_from([1e-3, 0.3, 5.0]),
        swaps=st.integers(0, 3),
        cycle=st.booleans(),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_swept_pairing_and_totals_are_the_built_ones(
        self, t, nx, alpha, q, p, noise, swaps, cycle, duplicate, seed
    ):
        # Truths about 10 apart along the diagonal, two of them the same if
        # ``duplicate``; the estimate moves targets by up to three
        # transpositions and a 3-cycle.
        rng = np.random.default_rng(seed)
        truth = 10.0 * np.arange(t)[:, None] + rng.normal(scale=0.5, size=(t, nx))
        if duplicate:
            i, j = rng.choice(t, size=2, replace=False)
            truth[i] = truth[j]
        est = truth + rng.normal(scale=noise, size=truth.shape)
        for _ in range(swaps):
            i, j = rng.choice(t, size=2, replace=False)
            est[[i, j]] = est[[j, i]]
        if cycle:
            i, j, k = rng.choice(t, size=3, replace=False)
            est[[i, j, k]] = est[[j, k, i]]
        params = LospaParams(p=p, alpha=alpha, base_metric=BaseMetric.pnorm(q))
        swept = evaluate_module._sweep(est, truth, params)
        if swaps == 1 and not cycle and not duplicate and noise == 1e-3:
            assert swept is not None
        if swept is not None:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(evaluate_module, "_sweep", lambda *_: None)
                perms, lospa_totals, ospa_totals = evaluate_module._solve_steps(
                    est[None], truth[None], params, SolverBackend.OPTIMAL
                )
            psi, totals = swept
            assert psi.tolist() == perms[0].tolist()
            built = [ospa_totals[0], lospa_totals[0]]
            assert np.array(totals).view(np.int64).tolist() == np.array(built).view(np.int64).tolist()

    def test_exact_estimates_fall_back(self, monkeypatch):
        # Zero diagonal costs: the identity is still the strict optimum.
        truth, _ = spread(300)
        args = (Trajectory([0], [truth]), Trajectory([0], [truth]), LospaParams(alpha=0.5))
        results = sweep_results(monkeypatch)
        report = evaluate(*args)
        assert results == [None]
        assert report.to_json() == dense(*args).to_json()
        assert report.lospa.tolist() == report.ospa.tolist() == [0.0]

    def test_coordinates_near_a_million_with_tiny_noise(self, monkeypatch):
        # The noise is about one ulp of 1e6, so the band's edges round
        # to within an ulp or two of the estimate's first coordinate.
        t = 300
        rng = np.random.default_rng(67)
        truth = np.zeros((t, 2))
        truth[:, 0] = 1e6 + 1e-8 * np.arange(t)
        est = truth + [1e-10, 0.0] * rng.normal(size=(t, 2))
        est[:, 1] = rng.uniform(1e-10, 2e-10, size=t)  # no diagonal cost is zero
        args = (Trajectory([0], [truth]), Trajectory([0], [est]), LospaParams(alpha=0.5))
        results = sweep_results(monkeypatch)
        assert evaluate(*args).to_json() == dense(*args).to_json()
        assert results[0] is not None

    # Each estimate is ``noise`` off its truth in the second component: at
    # p = 50 every diagonal cost underflows to 0, at p = 7 to a subnormal.
    @pytest.mark.parametrize("p, noise", [(50.0, 1e-9), (7.0, 1e-45)])
    def test_underflowing_powers_fall_back(self, monkeypatch, p, noise):
        first, _ = spread(300, scale=1e-3)
        truth, est = np.hstack((first, 0.0 * first)), np.hstack((first, 0.0 * first + noise))
        args = (Trajectory([0], [truth]), Trajectory([0], [est]), LospaParams(p=p, alpha=0.5))
        results = sweep_results(monkeypatch)
        assert evaluate(*args).to_json() == dense(*args).to_json()
        assert results == [None]

    def test_ties_hidden_by_subnormal_squares_fall_back(self, monkeypatch, lsap_calls):
        # The squares of distances near 1e-160 are subnormal: estimate 0 is
        # 1e-4 farther from truth 1 than from truth 0, beyond its band, yet
        # both costs round to the same float.  The tie sends the
        # localization half to LSAP; alpha breaks it in the labelled half.
        t, s = 300, math.sqrt(2000 * 5e-324)
        truth = np.zeros((t, 2))
        truth[:, 0] = 1e-150 * np.arange(t)
        truth[:2] = [[0.0, s], [s * (1 + 1e-4), 0.0]]
        est = truth + [0.0, 1e-152]
        est[:2] = [[0.0, 0.0], [truth[1, 0] + 1e-152, 0.0]]
        args = (Trajectory([0], [truth]), Trajectory([0], [est]), LospaParams(p=1.0, alpha=0.5))
        expected = dense(*args).to_json()
        lsap_calls.clear()
        results = sweep_results(monkeypatch)
        assert evaluate(*args).to_json() == expected
        assert results == [None]
        assert len(lsap_calls) == 1

    # Only costs to the far last target overflow: (1e110)**3 from the
    # first estimate, and at alpha = 1e154 the labelled sum alone
    # (1.69e308 + 1e308).  At alpha = 1e200, alpha**p itself does.
    @pytest.mark.parametrize(
        "p, alpha, far", [(3.0, 0.5, 1e110), (2.0, 1e154, 1.3e154), (2.0, 1e200, None)]
    )
    def test_overflow_off_the_diagonal_still_raises(self, p, alpha, far):
        truth, est = far_target(300, far)
        args = (Trajectory([0], [truth]), Trajectory([0], [est]), LospaParams(p=p, alpha=alpha))
        with pytest.raises(InvalidCost) as swept:
            evaluate(*args)
        with pytest.raises(InvalidCost) as built:
            dense(*args)
        assert str(swept.value) == str(built.value) == (
            f"cost b(a, b)**p + alpha**p overflows the float64 range (p={p:g}, alpha={alpha:g})"
        )

    def test_overflow_exits_2_through_the_cli(self, tmp_path, capsys):
        paths = tmp_path / "truth.csv", tmp_path / "est.csv"
        for path, states in zip(paths, far_target(300, 1e110)):
            path.write_text(csv_text([(0, states.tolist())], t=300, nx=1))
        code = main(["compute", "--truth", str(paths[0]), "--est", str(paths[1]),
                     "--p", "3", "--alpha", "0.5", "--metric", "euclidean"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "lospa-eval: error: cost b(a, b)**p + alpha**p overflows the float64 range "
            "(p=3, alpha=0.5)\n"
        )

    def test_brute_backend_keeps_its_cap(self, monkeypatch):
        truth, est = spread(300)
        args = (Trajectory([0], [truth]), Trajectory([0], [est]), LospaParams(alpha=0.5))
        results = sweep_results(monkeypatch)
        with pytest.raises(CapExceeded):
            evaluate(*args, backend=SolverBackend.BRUTE_FORCE)
        assert results == []
        evaluate(*args)
        assert results[0] is not None


def two_solve(*args, **kwargs):
    """``evaluate`` with the fixed-point rule off: LSAP solves every uncertified half."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "_reuses_labelled", lambda *_: False)
        return evaluate(*args, **kwargs)


def assert_matches_two_solve(truth, est, params):
    """Check ``evaluate`` against :func:`two_solve` on the same arguments.

    ``k``, ``lospa`` and ``perms`` must match bit for bit, and so must
    ``ospa`` wherever the labelled pairing psi is LSAP's localization
    pairing phi.  Where the rule takes a psi != phi, both can be exact
    localization optima whose left-to-right float sums differ in the last
    bits: there ``ospa`` must be psi's distance, and psi's exact total at
    most phi's times 1 + 2**-52 (1 + 2**16), the bound _reuses_labelled
    derives.
    """
    report, two = evaluate(truth, est, params), two_solve(truth, est, params)
    for name in ("k", "lospa", "perms"):
        assert getattr(report, name).tobytes() == getattr(two, name).tobytes()
    T, t = report.perms.shape
    unlabelled = LospaParams(p=params.p, alpha=0.0, base_metric=params.base_metric)
    loc = cost_stack(est.states, truth.states, unlabelled, np.empty((T, t, t)))
    drift = report.ospa.view(np.int64) != two.ospa.view(np.int64)
    for C, psi, ospa in zip(loc[drift], report.perms[drift], report.ospa[drift].tolist()):
        phi = linear_sum_assignment(C)[1]
        assert (psi != phi).any()
        assert ospa == _distance(path_cost(C, psi), t, params.p)
        exact = [sum(map(Fraction, C[np.arange(t), perm].tolist())) for perm in (psi, phi)]
        assert exact[0] <= exact[1] * (1 + Fraction(1 + 2**16, 2**52))
    return report


def rule_results(monkeypatch):
    """List that receives what every ``_reuses_labelled`` call returns."""
    real, results = assignment._reuses_labelled, []

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(assignment, "_reuses_labelled", recorded)
    return results


def swapped_clusters(t, spread, seed, gap=0.0):
    """(t, 2) truths and estimates in two clusters 1000 apart, ``spread`` wide.

    Estimate j sits in the cluster that does not hold truth j, so every
    labelled optimum keeps no target.  The estimates lie at random in their
    cluster, so their argmins collide and both halves go to LSAP, and
    ``gap`` off the truths' line along the second axis.
    """
    rng = np.random.default_rng(seed)
    m = t // 2
    truth = np.zeros((t, 2))
    truth[:, 0] = np.concatenate((1000.0 + spread * np.arange(m), spread * np.arange(t - m)))
    est = np.full((t, 2), gap)
    est[:m, 0] = spread * rng.uniform(0, t - m, m)
    est[m:, 0] = 1000.0 + spread * rng.uniform(0, m, t - m)
    return truth, est


def one_step(truth, est):
    return Trajectory([0], [truth]), Trajectory([0], [est])


class TestFixedPointRule:
    """A labelled pairing that fixes no target serves the unlabelled half, behind a guard."""

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.integers(257, 420),
        alpha=st.sampled_from([0.5, 1.0, 30.0]),
        p=st.sampled_from([1.0, 2.0, 3.0]),
        q=st.sampled_from([1.0, 2.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Seeds whose swapped clusters drift in ospa's last bits.
    @example(t=260, alpha=1.0, p=1.0, q=1.0, seed=4)
    @example(t=300, alpha=1.0, p=1.0, q=1.0, seed=0)
    def test_report_bytes_match_the_two_solve_path(self, t, alpha, p, q, seed):
        # A random step, a near-correct one and swapped clusters, each a
        # chunk of its own.  At p = q = 1 the clusters' localization matrix
        # often has several optima.
        rng = np.random.default_rng(seed)
        truth, near, random = near_and_random(rng, 3, t)
        est = np.stack((random[0], near[1], random[2]))
        truth[2], est[2] = swapped_clusters(t, 1.0, seed=int(rng.integers(2**32)))
        params = LospaParams(p=p, alpha=alpha, base_metric=BaseMetric.pnorm(q))
        assert_matches_two_solve(Trajectory(range(3), truth), Trajectory(range(3), est), params)

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(2, 40),
        T=st.integers(2, 6),
        alpha=st.sampled_from([0.5, 1.0, 30.0]),
        p=st.sampled_from([1.0, 2.0, 3.0]),
        q=st.sampled_from([1.0, 2.0, 3.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Swapped clusters whose localization optima tie exactly.
    @example(t=36, T=4, alpha=1.0, p=1.0, q=1.0, seed=104362117)
    def test_chunks_of_several_steps_match_the_two_solve_path(self, t, T, alpha, p, q, seed):
        # Every step is in one chunk.  Each is near-correct, random, or
        # swapped clusters, whose labelled optimum keeps no target.
        rng = np.random.default_rng(seed)
        truth, near, random = near_and_random(rng, T, t)
        est = np.where((rng.integers(3, size=T) == 0)[:, None, None], near, random)
        for i in np.flatnonzero(rng.integers(3, size=T) == 0):
            truth[i], est[i] = swapped_clusters(t, 1.0, seed=int(rng.integers(2**32)))
        params = LospaParams(p=p, alpha=alpha, base_metric=BaseMetric.pnorm(q))
        steps = range(T)
        report = assert_matches_two_solve(Trajectory(steps, truth), Trajectory(steps, est), params)
        if t <= 8:
            for i, (A, B) in enumerate(zip(est.tolist(), truth.tolist())):
                lospa, ospa = enum_lospa(A, B, p, alpha, q), enum_lospa(A, B, p, 0.0, q)
                assert report.lospa[i] == pytest.approx(lospa, rel=REL_TOL_BACKENDS)
                assert report.ospa[i] == pytest.approx(ospa, rel=REL_TOL_BACKENDS)

    @pytest.mark.parametrize("t", [2, 3, 5, 8])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_small_t_matches_the_oracle(self, monkeypatch, t, p):
        monkeypatch.setattr(evaluate_module, "_CHUNK_ENTRIES", 1)  # one step per chunk
        results = rule_results(monkeypatch)
        # Even steps keep no target at the labelled optimum, odd ones are random.
        T = 12
        truth, est = np.random.default_rng(80 + t).uniform(0.0, 3.0, size=(2, T, t, 2))
        for i in range(0, T, 2):
            truth[i], est[i] = swapped_clusters(t, 1.0, seed=i)
        params = LospaParams(p=p, alpha=0.3)
        report = evaluate(Trajectory(range(T), truth), Trajectory(range(T), est), params)
        for i, (A, B) in enumerate(zip(est.tolist(), truth.tolist())):
            lospa, ospa = enum_lospa(A, B, p, 0.3), enum_lospa(A, B, p, 0.0)
            assert report.lospa[i] == pytest.approx(lospa, rel=REL_TOL_BACKENDS)
            assert report.ospa[i] == pytest.approx(ospa, rel=REL_TOL_BACKENDS)
        # At t <= 3 a cluster holds too few targets for argmins to collide.
        assert True in results or t <= 3

    def test_guard_refuses_labelled_entries_that_round_alike(self, monkeypatch):
        # Every in-cluster cost is 2**-17 plus less than 1e-17, so every
        # in-cluster labelled entry rounds to 1 + 2**-17: the labelled
        # optimum is an arbitrary one of them, and t * alpha**p is just
        # under 2**17 times its localization total.  The guard must send
        # the step to LSAP.
        truth, est = swapped_clusters(300, 1e-11, seed=81, gap=2.0**-8.5)
        args = (*one_step(truth, est), LospaParams(p=2.0, alpha=1.0))
        results = rule_results(monkeypatch)
        report = evaluate(*args)
        assert results == [False]
        assert report.to_json() == two_solve(*args).to_json()
        # With a guard one bit looser, that arbitrary pairing would stand.
        monkeypatch.setattr(assignment, "_GUARD_BITS", 17)
        assert evaluate(*args).ospa[0] > report.ospa[0]

    def test_lsap_calls_per_step(self, lsap_calls):
        t, params = 300, LospaParams(alpha=1.0)
        # No target kept: the labelled solve serves both halves.
        truth, est = swapped_clusters(t, 0.1, seed=82)
        report = evaluate(*one_step(truth, est), params)
        assert not (report.perms[0] == np.arange(t)).any()
        assert len(lsap_calls) == 1
        # A target kept: the unlabelled half needs its own solve.
        lsap_calls.clear()
        truth, _, random = near_and_random(np.random.default_rng(83), 1, t)
        random[0, 0] = truth[0, 0]
        report = evaluate(*one_step(truth[0], random[0]), params)
        assert report.perms[0, 0] == 0
        assert len(lsap_calls) == 2
        # Exact estimates: the certificate settles both halves.
        lsap_calls.clear()
        evaluate(*one_step(truth[0], truth[0]), params)
        assert lsap_calls == []


class TestScheduledSteps:
    """One-step chunks share one LSAP pool, and a run holds at most three buffers."""

    @pytest.mark.parametrize("cpus, buffers", [(1, 1), (2, 3)])
    def test_buffers_in_use(self, monkeypatch, cpus, buffers):
        # Six random steps: with two CPUs, from step 1 on their jobs run in
        # threads while the next step is built.  Workers start solving only
        # once step 3 is being built, so steps 1 and 2 still hold theirs then.
        set_cpus(monkeypatch, cpus)
        t = 400
        truth, _, est = near_and_random(np.random.default_rng(86), 6, t)
        args = Trajectory(range(6), truth), Trajectory(range(6), est), LospaParams(alpha=0.5)
        alive, peak, builds, step_3 = set(), [0], [], threading.Event()
        real_build, main = evaluate_module.cost_stack, threading.get_ident()

        def build(est, truth, params, out):
            alive.add(id(out))
            weakref.finalize(out, alive.discard, id(out))
            peak[0] = max(peak[0], len(alive))
            builds.append(out.shape)
            if len(builds) == 4:
                step_3.set()
            return real_build(est, truth, params, out)

        lsap = assignment._lsap_module()
        real_lsap = lsap.linear_sum_assignment

        def gated(C):
            if threading.get_ident() != main:
                assert step_3.wait(timeout=60)
            return real_lsap(C)

        monkeypatch.setattr(evaluate_module, "cost_stack", build)
        monkeypatch.setattr(lsap, "linear_sum_assignment", gated)
        report = evaluate(*args)
        monkeypatch.undo()
        assert builds == [(2, t, t)] * 6
        assert peak == [buffers]
        assert report.to_json() == two_solve(*args).to_json()

    def test_overflow_with_jobs_in_flight(self, monkeypatch, tmp_path, capsys, pools):
        # Steps 0-3 are random, so from step 1 on their LSAP jobs run in
        # threads; step 4's build overflows.
        set_cpus(monkeypatch, 2)
        t = 400
        truth, _, est = near_and_random(np.random.default_rng(84), 5, t, nx=1)
        truth[4], est[4] = far_target(t, 1e110)
        params = LospaParams(p=3.0, alpha=0.5)
        with pytest.raises(InvalidCost) as err:
            evaluate(Trajectory(range(5), truth), Trajectory(range(5), est), params)
        message = "cost b(a, b)**p + alpha**p overflows the float64 range (p=3, alpha=0.5)"
        assert str(err.value) == message
        assert pools == [2]
        assert not any(th.name.startswith("ThreadPoolExecutor") for th in threading.enumerate())
        paths = tmp_path / "truth.csv", tmp_path / "est.csv"
        for path, states in zip(paths, (truth, est)):
            path.write_text(csv_text(list(enumerate(states.tolist())), t=t, nx=1))
        code = main(["compute", "--truth", str(paths[0]), "--est", str(paths[1]),
                     "--p", "3", "--alpha", "0.5", "--metric", "euclidean"])
        assert code == 2
        assert capsys.readouterr().err == f"lospa-eval: error: {message}\n"
        assert pools == [2, 2]
        assert not any(th.name.startswith("ThreadPoolExecutor") for th in threading.enumerate())

    # The steps in ``random_steps`` of a near-correct input are random.  In
    # the last case, step 2 is built and certified between them.
    @pytest.mark.parametrize(
        "random_steps, pooled", [([0], False), ([0, 1], True), ([1, 3], False)]
    )
    def test_one_uncertified_step_imports_no_pool(self, tmp_path, random_steps, pooled):
        t, T = 400, 4
        truth, near, random = near_and_random(np.random.default_rng(85), T, t)
        near[1::2] = truth[1::2] + 0.01  # every step certified ...
        near[2] = truth[2]  # ... step 2 by the certificate, not the sweep
        near[random_steps] = random[random_steps]
        paths = tmp_path / "truth.csv", tmp_path / "est.csv"
        for path, states in zip(paths, (truth, near)):
            path.write_text(csv_text(list(enumerate(states.tolist())), t=t, nx=2))
        script = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from lospa.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "compute", "--truth", str(paths[0]),
             "--est", str(paths[1]), "--p", "2", "--alpha", "1", "--metric", "euclidean",
             "--out", str(tmp_path / "report.json")],
            capture_output=True, text=True, timeout=60, env=source_tree_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{pooled}\n"


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
        assert doc["per_step"][2]["lospa"] == report.lospa[2]
        assert doc["aggregates"]["mean_lospa"] == report.mean_lospa

    def test_means_past_the_float_range_stay_finite(self):
        # Two distances of 9e307 sum past the float range; "inf" is not JSON.
        params = LospaParams(p=1.0, alpha=0.5, base_metric=BaseMetric.pnorm(1.0))
        report = evaluate(constant_trajectory([0.0], 2), constant_trajectory([9e307], 2), params)
        doc = json.loads(report.to_json())
        assert doc["aggregates"]["mean_lospa"] == doc["aggregates"]["mean_ospa"] == 9e307

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
            assert len(report.k) == 3

    def test_demo_render_mentions_gate(self):
        text = run_demo().render()
        assert "PASS" in text
        assert text.count("ok") >= 6
