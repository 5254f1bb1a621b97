"""Brute-force oracle and polynomial solver for the pairing minimization."""

import concurrent.futures
import importlib
import os
import re
import threading

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.optimize import linear_sum_assignment

from lospa import assignment
from lospa import (
    CapExceeded,
    CostMatrix,
    DimensionMismatch,
    InvalidCost,
    LospaParams,
    SolverBackend,
    Trajectory,
    build_cost_matrix,
    evaluate,
    path_cost,
    solve_brute_force,
    solve_optimal,
    solve_stack,
)
from lospa.constants import REL_TOL_BACKENDS
from lospa.core import cost_stack

from helpers import enum_min_assignment, mts, set_cpus

# The package re-exports the function under the module's name.
evaluate_module = importlib.import_module("lospa.evaluate")


def test_path_cost_left_to_right():
    C = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert path_cost(C, (0, 1)) == 5.0
    assert path_cost(C, np.array([1, 0])) == 5.0


@pytest.mark.parametrize(
    "C, mapping",
    [(np.arange(9.0).reshape(3, 3), (0, 1)), (np.eye(2), (0, 1, 2))],
    ids=["pairing_too_short", "pairing_too_long"],
)
def test_path_cost_needs_one_pairing_entry_per_row(C, mapping):
    message = f"pairing has {len(mapping)} entries, cost matrix has {len(C)} rows"
    with pytest.raises(DimensionMismatch, match=message):
        path_cost(C, mapping)


def test_path_cost_needs_a_permutation():
    for mapping in ((0, 0, 1), (1, 2, 3)):  # a repeated entry, an entry out of range
        with pytest.raises(ValueError, match=re.escape(f"not a permutation of 0..2: {mapping}")):
            path_cost(np.zeros((3, 3)), mapping)


@pytest.mark.filterwarnings("error")
def test_path_cost_overflow_raises_without_a_warning():
    # Every entry is finite; the total of either pairing is not.
    with pytest.raises(InvalidCost, match="total cost of the pairing overflows"):
        path_cost(np.full((2, 2), 1e308), (0, 1))
    assert path_cost(np.array([[1e308, 0.0], [0.0, 7e307]]), (0, 1)) == 1.7e308


@pytest.mark.parametrize("solver", [solve_brute_force, solve_optimal])
def test_pairing_is_a_read_only_int64_array(solver):
    perm = solver(np.array([[100.0, 1.0], [1.0, 100.0]])).perm
    assert perm.dtype == np.int64 and perm.tolist() == [1, 0]
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = 0


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
def test_integer_stack_solves_as_its_float_copy(backend):
    # Rows 0 and 1 both find their minimum in column 0: one collision.
    ints = np.array([[[0, 1, 2], [0, 1, 3], [5, 0, 9]]])
    perms, totals = solve_stack(ints, backend)
    ref_perms, ref_totals = solve_stack(ints.astype(float), backend)
    assert perms.tolist() == ref_perms.tolist() == [[2, 0, 1]]
    assert totals.dtype == float and totals.tolist() == ref_totals.tolist() == [2.0]


# Its cheapest total is -0.0, which a sum started at +0.0 would lose.
NEGATIVE_ZERO_DIAGONAL = np.array([[-0.0, 1.0], [1.0, -0.0]])


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestBruteForce:
    def test_single_target(self):
        sol = solve_brute_force(np.array([[0.0]]))
        assert tuple(sol.perm) == (0,)
        assert sol.total_cost == 0.0

    def test_two_target_swap(self):
        sol = solve_brute_force(np.array([[100.0, 1.0], [1.0, 100.0]]))
        assert tuple(sol.perm) == (1, 0)
        assert sol.total_cost == 2.0

    def test_worked_three_target_case(self):
        # Estimate with the first two targets swapped, alpha=1, p=2: the
        # minimum pairs positions (0,1,2) with (1,0,2) at total 3*0.01 + 2.
        C = build_cost_matrix(
            mts([0.1, -10.1, 10.1]), mts([-10, 0, 10]), LospaParams(p=2.0, alpha=1.0)
        )
        sol = solve_brute_force(C)
        assert tuple(sol.perm) == (1, 0, 2)
        assert sol.total_cost == pytest.approx(2.03, abs=1e-12)

    def test_tie_break_is_lexicographic(self):
        sol = solve_brute_force(np.zeros((3, 3)))
        assert tuple(sol.perm) == (0, 1, 2)
        sol = solve_brute_force(np.ones((2, 2)))
        assert tuple(sol.perm) == (0, 1)

    def test_cap(self):
        with pytest.raises(CapExceeded) as err:
            solve_brute_force(np.zeros((9, 9)))
        assert "optimal" in str(err.value)
        with pytest.raises(CapExceeded):
            solve_brute_force(np.zeros((3, 3)), cap=2)
        # The cap may only lower the default limit of 8 targets.
        with pytest.raises(ValueError):
            solve_brute_force(np.zeros((2, 2)), cap=9)

    def test_matches_pure_python_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = int(rng.integers(1, 6))
            C = rng.uniform(0.0, 1.0, size=(t, t))
            total, perm = enum_min_assignment(C.tolist())
            sol = solve_brute_force(C)
            assert tuple(sol.perm) == perm
            assert sol.total_cost == total

    def test_total_cost_is_path_cost_exactly(self):
        rng = np.random.default_rng(12)
        for C in (rng.uniform(0.0, 5.0, size=(6, 6)), NEGATIVE_ZERO_DIAGONAL):
            sol = solve_brute_force(C)
            assert same_bits(sol.total_cost, path_cost(C, sol.perm))


@st.composite
def tie_heavy_stacks(draw):
    """(n, t, t) stacks, t = 1..8, built to tie: entries in {0, 1, 2},
    equal matrices, repeated rows, and leading or trailing rows raised by
    1e16, next to which 0 and 1 round to the same total."""
    t = draw(st.integers(1, 8))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["grid", "equal", "duplicate_rows", "absorbed"]))
    row = st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=t, max_size=t)
    stack = []
    for _ in range(n):
        if kind == "equal":
            C = np.full((t, t), draw(st.sampled_from([0.0, 0.1, 1.0, 1e16])))
        else:
            C = np.array(draw(st.lists(row, min_size=t, max_size=t)))
        if kind == "duplicate_rows":
            C = C[draw(st.lists(st.integers(0, t - 1), min_size=t, max_size=t))]
        if kind == "absorbed":
            k = draw(st.integers(0, t - 1))
            C[draw(st.sampled_from([slice(k, None), slice(None, k + 1)]))] += 1e16
        stack.append(C)
    return np.array(stack)


class TestPrunedEnumeration:
    """The pruned brute-force backend against literal enumeration of all t!."""

    @settings(deadline=None, max_examples=60)
    @given(tie_heavy_stacks(), st.sampled_from([None, 8]))
    # (0, 1, 2) and (1, 0, 2) both total 1e16, although the first two rows
    # of (0, 1) sum to 1 and of (1, 0) to 0.
    @example(np.array([[[1.0, 0.0, 1e16], [0.0, 0.0, 1e16], [1e16, 1e16, 1e16]]]), None)
    # Every pairing totals 1e16: 1e16 + 1 rounds down, but 1e16 + (1 + 1)
    # does not, so a bound summed in another order would prune them all.
    @example(np.array([[[1e16, 1e16, 1e16], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]]), None)
    def test_matches_pure_python_enumeration(self, stack, frontier_entries):
        with pytest.MonkeyPatch.context() as mp:
            if frontier_entries is not None:  # split the frontier into many pieces
                mp.setattr(assignment, "_FRONTIER_ENTRIES", frontier_entries)
            perms, totals = solve_stack(stack, SolverBackend.BRUTE_FORCE)
        for C, perm, total in zip(stack, perms, totals):
            expected_total, expected_perm = enum_min_assignment(C.tolist())
            assert tuple(perm) == expected_perm
            assert total == expected_total

    @settings(deadline=None, max_examples=60)
    @given(tie_heavy_stacks())
    def test_upper_bound_pairing_is_a_permutation(self, stack):
        perms = assignment._upper_bound_pairing(stack)
        assert (np.sort(perms, axis=1) == np.arange(stack.shape[1])).all()

    @pytest.mark.parametrize("pairing", ["identity", "worst"])
    def test_upper_bound_pairing_does_not_change_the_result(self, monkeypatch, pairing):
        rng = np.random.default_rng(18)
        stack = np.concatenate(
            [
                rng.uniform(0.0, 1.0, size=(4, 7, 7)),
                rng.integers(0, 3, size=(4, 7, 7)).astype(float),
                rng.choice([0.0, 1.0, 1e16], size=(4, 7, 7)),
            ]
        )
        expected = solve_stack(stack, SolverBackend.BRUTE_FORCE)

        def loose(C):
            if pairing == "identity":
                return np.tile(np.arange(C.shape[1]), (len(C), 1))
            return np.array([linear_sum_assignment(c, maximize=True)[1] for c in C])

        monkeypatch.setattr(assignment, "_upper_bound_pairing", loose)
        perms, totals = solve_stack(stack, SolverBackend.BRUTE_FORCE)
        assert (perms == expected[0]).all()
        assert (totals == expected[1]).all()
        for C, perm, total in zip(stack, perms, totals):
            assert (total, tuple(perm)) == enum_min_assignment(C.tolist())


class TestOptimal:
    def test_two_target_swap(self):
        sol = solve_optimal(np.array([[100.0, 1.0], [1.0, 100.0]]))
        assert sol.total_cost == 2.0

    def test_zero_diagonal(self):
        C = 1000.0 * (1.0 - np.eye(4))
        sol = solve_optimal(C)
        assert tuple(sol.perm) == (0, 1, 2, 3)
        assert sol.total_cost == 0.0

    def test_random_matches_brute(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            C = rng.uniform(0.0, 1.0, size=(6, 6))
            brute = solve_brute_force(C)
            opt = solve_optimal(C)
            assert abs(opt.total_cost - brute.total_cost) <= REL_TOL_BACKENDS * (
                1.0 + brute.total_cost
            )

    def test_invalid_matrices(self):
        with pytest.raises(InvalidCost):
            solve_optimal(np.array([[1.0, float("nan")], [0.0, 1.0]]))
        with pytest.raises(InvalidCost):
            solve_optimal(np.zeros((2, 3)))
        with pytest.raises(InvalidCost):
            solve_optimal(np.array([[-1.0]]))

    def test_total_cost_is_path_cost_exactly(self):
        rng = np.random.default_rng(14)
        for C in (rng.uniform(0.0, 5.0, size=(7, 7)), NEGATIVE_ZERO_DIAGONAL):
            sol = solve_optimal(C)
            assert same_bits(sol.total_cost, path_cost(C, sol.perm))


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_stack_with_a_non_finite_entry_is_refused(backend, bad):
    mixed = np.ones((2, 3, 3))
    mixed[0, 1, 2] = bad  # the first of two matrices
    lone = np.ones((1, 2, 2))
    lone[0, 0, 0] = bad
    for C in (mixed, lone):
        with pytest.raises(InvalidCost, match="cost stack contains NaN or infinity"):
            solve_stack(C, backend)


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
def test_total_overflow(backend):
    # The greedy pairing (row 0 first) sums 1e308 + 1e308 and overflows,
    # and so do the enumeration's partial sums; the optimum, 1.5e308, does
    # not, and comes out without a warning.
    C = np.array([[[1e308, 1.5e308], [0.0, 1e308]]])
    perms, totals = solve_stack(C, backend)
    assert perms.tolist() == [[1, 0]] and totals.tolist() == [1.5e308]
    message = "total cost of an optimal pairing overflows"
    with pytest.raises(InvalidCost, match=message):
        solve_stack(np.full((2, 2, 2), 1e308), backend)
    solver = solve_brute_force if backend is SolverBackend.BRUTE_FORCE else solve_optimal
    with pytest.raises(InvalidCost, match=message):
        solver(np.full((2, 2), 1e308))


class TestCertificate:
    """Row minima that form a permutation, each strict, skip LSAP; ties do not."""

    @pytest.mark.parametrize(
        "C",
        [
            build_cost_matrix(mts([0, 0, 5]), mts([0, 1, 5]), LospaParams(alpha=0.0)).entries,
            np.zeros((4, 4)),
            build_cost_matrix(
                mts([[1, 1], [3, 1], [1, 3]]),
                mts([[0, 1], [2, 1], [2, 3]]),
                LospaParams(p=1.0, alpha=0.0),
            ).entries,
        ],
        ids=["duplicate_targets", "all_zero", "integer_grid"],
    )
    def test_ties_fall_back_to_lsap(self, lsap_calls, C):
        sol = solve_optimal(C)
        assert len(lsap_calls) == 1
        assert tuple(sol.perm) == tuple(linear_sum_assignment(C)[1])

    def test_certified_matrix_skips_lsap(self, lsap_calls):
        C = np.array([[5.0, 1.0, 9.0], [0.5, 4.0, 3.0], [7.0, 8.0, 2.0]])
        assert tuple(solve_optimal(C).perm) == (1, 0, 2)
        assert lsap_calls == []

    @pytest.mark.parametrize("backend", list(SolverBackend))
    def test_stack_matches_single_solves_bit_for_bit(self, backend):
        rng = np.random.default_rng(17)
        stack = rng.uniform(0.0, 5.0, size=(6, 5, 5))
        stack[::2] += 10.0 * (1.0 - np.eye(5))  # every other matrix is certified
        perms, totals = solve_stack(stack, backend)
        solver = solve_brute_force if backend is SolverBackend.BRUTE_FORCE else solve_optimal
        for C, perm, total in zip(stack, perms, totals):
            sol = solver(C)
            assert tuple(perm) == tuple(sol.perm)
            assert total == sol.total_cost == path_cost(C, sol.perm)

    def test_stack_shape_checked(self):
        with pytest.raises(InvalidCost):
            solve_stack(np.zeros((2, 3)), SolverBackend.OPTIMAL)
        with pytest.raises(InvalidCost):
            solve_stack(np.zeros((1, 2, 3)), SolverBackend.OPTIMAL)


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was constructed")


def one_step_chunks(monkeypatch, T, t, certified, seed, alpha=0.5):
    """``evaluate``'s arguments for ``T`` steps of ``t`` targets, one step per chunk.

    At the steps in ``certified`` each estimate sits near its own truth, so
    the certificate settles them.  At every other step every estimate sits
    near truth 0: every row's argmin is column 0, so LSAP solves both halves.
    """
    monkeypatch.setattr(evaluate_module, "_CHUNK_ENTRIES", 1)
    rng = np.random.default_rng(seed)
    truth = 10.0 * np.arange(t)[:, None] + rng.uniform(-1.0, 1.0, size=(T, t, 2))
    est = truth[:, :1] + rng.uniform(-1.0, 1.0, size=(T, t, 2))
    est[certified] = truth[certified] + rng.uniform(-0.1, 0.1, size=(len(certified), t, 2))
    return Trajectory(range(T), truth), Trajectory(range(T), est), LospaParams(alpha=alpha)


class TestThreadedLsap:
    """evaluate's chunk loop solves large uncertified steps in threads, with serial results.

    ``solve_stack`` solves its matrices one after another, in the caller's thread.
    """

    @pytest.mark.parametrize("t", [2, 5, 20])
    def test_pool_matches_serial_bit_for_bit(self, monkeypatch, lsap_calls, pools, t):
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", 1)
        args = one_step_chunks(monkeypatch, 9, t, [0, 3, 6], seed=70 + t)
        set_cpus(monkeypatch, 1)
        serial = evaluate(*args)
        serial_calls = len(lsap_calls)
        assert pools == []
        set_cpus(monkeypatch, 2)
        pooled = evaluate(*args)
        assert pools == [2]
        assert len(lsap_calls) == 2 * serial_calls >= 2
        for name in ("lospa", "ospa", "perms"):
            a, b = getattr(serial, name), getattr(pooled, name)
            assert a.view(np.int64).tolist() == b.view(np.int64).tolist()

    def test_workers_capped_at_two(self, monkeypatch, pools):
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", 1)
        set_cpus(monkeypatch, 8)
        evaluate(*one_step_chunks(monkeypatch, 3, 6, [], seed=74))
        assert pools == [evaluate_module._WORKERS] == [2]

    @pytest.mark.parametrize(
        "cpus, min_entries, certified",
        [(2, 1, [0, 2]), (1, 1, []), (2, 401, [])],
        ids=["one_uncertified", "one_cpu", "below_threshold"],
    )
    def test_no_pool(self, monkeypatch, lsap_calls, cpus, min_entries, certified):
        # At alpha = 0 each uncertified step is one LSAP solve of 400 entries.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", min_entries)
        set_cpus(monkeypatch, cpus)
        truth, est, params = one_step_chunks(monkeypatch, 3, 20, certified, seed=72, alpha=0.0)
        report = evaluate(truth, est, params)
        assert len(lsap_calls) == 3 - len(certified)
        stack = cost_stack(est.states, truth.states, params, np.empty((3, 20, 20)))
        for C, perm in zip(stack, report.perms):
            assert tuple(perm) == tuple(linear_sum_assignment(C)[1])

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, pools, cpus):
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        evaluate(*one_step_chunks(monkeypatch, 4, 5, [], seed=73))
        assert pools == ([2] if cpus == 2 else [])

    @pytest.mark.parametrize(
        "certified, T, pooled",
        [([], 2, [1]), ([1], 3, []), ([0], 4, [2, 3])],
        ids=["consecutive", "certified_between", "late"],
    )
    def test_pool_starts_at_two_consecutive_large_jobs(
        self, monkeypatch, pools, certified, T, pooled
    ):
        # Every uncertified step is large.  A certified step is built, as its
        # estimates equal the truths (the sweep gives up on zero costs), so it
        # separates the steps around it.  The first of two consecutive large
        # steps has run inline when the second comes, which starts the pool.
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", 1)
        set_cpus(monkeypatch, 2)
        truth, est, params = one_step_chunks(monkeypatch, T, 20, [], seed=77)
        states = est.states.copy()
        states[certified] = truth.states[certified]
        stack = cost_stack(states, truth.states, params, np.empty((2 * T, 20, 20)))
        steps = [C.tobytes() for C in stack[:T]]  # localization costs, step by step
        real, main, threads = assignment._settle, threading.get_ident(), {}

        def recorded(C, *args):
            threads[steps.index(C[0].tobytes())] = threading.get_ident()
            return real(C, *args)

        monkeypatch.setattr(assignment, "_settle", recorded)
        evaluate(truth, Trajectory(range(T), states), params)
        assert sorted(threads) == list(range(T))
        assert [step for step, thread in threads.items() if thread != main] == pooled
        assert pools == ([2] if pooled else [])

    def test_worker_exception_comes_out_unchanged(self, monkeypatch, pools):
        lsap = assignment._lsap_module()
        real = lsap.linear_sum_assignment
        boom = ArithmeticError("raised by one worker")
        threads = []

        def failing(C):
            threads.append(threading.get_ident())
            if len(threads) == 3:  # only step 0 is solved in the main thread
                raise boom
            return real(C)

        monkeypatch.setattr(lsap, "linear_sum_assignment", failing)
        monkeypatch.setattr(evaluate_module, "_THREAD_MIN_ENTRIES", 1)
        set_cpus(monkeypatch, 2)
        with pytest.raises(ArithmeticError) as err:
            evaluate(*one_step_chunks(monkeypatch, 4, 6, [], seed=75, alpha=0.0))
        assert err.value is boom
        assert threads[2] != threading.get_ident()
        assert pools == [2]

    def test_solve_stack_starts_no_pool(self, monkeypatch, lsap_calls, pools):
        set_cpus(monkeypatch, 2)
        stack = np.random.default_rng(76).uniform(0.0, 5.0, size=(3, 400, 400))
        perms, totals = solve_stack(stack, SolverBackend.OPTIMAL)
        assert pools == [] and len(lsap_calls) == 3
        for C, perm, total in zip(stack, perms, totals):
            ref = solve_optimal(C)
            assert tuple(perm) == tuple(ref.perm)
            assert total.view(np.int64) == np.float64(ref.total_cost).view(np.int64)


def collision_stack(t, seed, pairs=((0, 1),)):
    """Unlabelled and labelled (alpha = 1) costs of one near-correct step.

    Targets lie hundreds of units apart and carry noise of 0.1, except that
    estimate a sits on truth b for each (a, b) in ``pairs``: rows a and b
    then claim column b in both matrices, and column a is left free.
    """
    rng = np.random.default_rng(seed)
    truth = rng.uniform(0.0, 1000.0, size=(1, t, 2))
    est = truth + rng.normal(0.0, 0.1, size=truth.shape)
    for a, b in pairs:
        est[0, a] = truth[0, b] + rng.normal(0.0, 0.1, size=2)
    return cost_stack(est, truth, LospaParams(), np.empty((2, t, t)))


def free_rows(C):
    """How many rows of each matrix find their argmin column claimed by an earlier row."""
    t = C.shape[1]
    return [int(np.count_nonzero(np.bincount(M.argmin(axis=1), minlength=t) == 0)) for M in C]


def assert_lsap_pairings(C, perms, totals):
    ref = [linear_sum_assignment(M)[1] for M in C]
    assert perms.tolist() == [cols.tolist() for cols in ref]
    ref_totals = np.array([path_cost(M, cols) for M, cols in zip(C, ref)])
    assert totals.view(np.int64).tolist() == ref_totals.view(np.int64).tolist()


class TestRepair:
    """Argmins that collide fail the certificate, and LSAP settles the matrix."""

    @pytest.mark.parametrize("t", [3, 5, 8, 20, 512])
    def test_one_collision_matches_lsap_bit_for_bit(self, lsap_calls, t):
        C = collision_stack(t, seed=80 + t)
        assert free_rows(C) == [1, 1]
        perms, totals = solve_stack(C, SolverBackend.OPTIMAL)
        assert len(lsap_calls) == 2
        assert_lsap_pairings(C, perms, totals)
        if t <= 8:
            brute = solve_stack(C, SolverBackend.BRUTE_FORCE)
            assert perms.tolist() == brute[0].tolist()
            assert totals.view(np.int64).tolist() == brute[1].view(np.int64).tolist()

    @pytest.mark.parametrize(
        "case, calls",
        [("two_free_rows", 2), ("tied_row_minimum", 2), ("duplicate_rows", 1)],
    )
    def test_other_matrices_reach_lsap(self, lsap_calls, case, calls):
        t = 6
        C = collision_stack(t, seed=90, pairs=((0, 1), (2, 3)) if case == "two_free_rows" else ((0, 1),))
        if case == "tied_row_minimum":
            C[:, 4, 5] = C[:, 4, 4]  # row 4 keeps its argmin, but not a strict one
        if case == "duplicate_rows":
            C = C[1:]  # the labelled matrix alone, with two optima
            C[0, 0] = C[0, 1]
        assert free_rows(C) == [2 if case == "two_free_rows" else 1] * calls
        perms, totals = solve_stack(C, SolverBackend.OPTIMAL)
        assert len(lsap_calls) == calls
        assert_lsap_pairings(C, perms, totals)

    def test_tie_lost_to_rounding_reaches_lsap(self, lsap_calls):
        # 0.3 + 0.4 + 1.2 and 0.2 + 0.4 + 1.3 tie in exact arithmetic, but
        # not in float64; the pairing is still LSAP's.
        C = np.array([[[0.3, 0.2, 2.1], [1.7, 1.7, 0.4], [1.3, 1.2, 1.7]]])
        assert free_rows(C) == [1]
        perms, totals = solve_stack(C, SolverBackend.OPTIMAL)
        assert len(lsap_calls) == 1
        assert_lsap_pairings(C, perms, totals)


class TestSolveDispatch:
    def test_backends(self):
        C = CostMatrix(np.array([[100.0, 1.0], [1.0, 100.0]]))
        for backend in SolverBackend:
            assert solve_stack(C.entries[None], backend)[1].tolist() == [2.0]
        assert solve_brute_force(C).total_cost == solve_optimal(C).total_cost == 2.0


class TestStructuralProperties:
    def test_entry_increase_never_decreases_cost(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            t = int(rng.integers(2, 6))
            C = rng.uniform(0.0, 1.0, size=(t, t))
            before = solve_optimal(C).total_cost
            i, j = rng.integers(0, t, size=2)
            C2 = C.copy()
            C2[i, j] += rng.uniform(0.0, 2.0)
            after = solve_optimal(C2).total_cost
            assert after >= before - 1e-12

    def test_scale_equivariance(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            t = int(rng.integers(1, 6))
            C = rng.uniform(0.0, 1.0, size=(t, t))
            k = float(rng.uniform(0.1, 10.0))
            base = solve_optimal(C).total_cost
            scaled = solve_optimal(k * C).total_cost
            assert scaled == pytest.approx(k * base, rel=REL_TOL_BACKENDS)
