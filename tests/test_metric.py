"""The labelled distance itself, against frozen oracle values.

The worked scenario: truth at [-10, 0, 10], three estimates that each
displace every target by 0.1 but put 0, 2, or 3 of them in another target's
slot.  Golden numbers below were frozen from ``helpers.enum_lospa`` (pure
Python enumeration) before the library existed.
"""

import importlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from lospa import (
    BaseMetric,
    CapExceeded,
    DimensionMismatch,
    InvalidCost,
    LospaParams,
    MetricKind,
    MultiTargetState,
    SolverBackend,
    Trajectory,
    build_cost_matrix,
    evaluate,
    lospa,
    ospa_no_cutoff,
    path_cost,
)
from lospa.constants import REL_TOL_EXACT

from helpers import ESTIMATE_POINTS, TRUTH_POINTS, enum_lospa, expected_table_value, mts

TRUTH = mts(TRUTH_POINTS)
ESTIMATES = [mts(points) for points in ESTIMATE_POINTS]

# The package re-exports the function under the module's name.
evaluate_module = importlib.import_module("lospa.evaluate")

# (row, alpha) -> value frozen from the enumeration oracle.
GOLDEN = {
    (1, 0.1): 0.09999999999999977,
    (1, 1.0): 0.09999999999999977,
    (2, 0.1): 0.12909944487358038,
    (2, 1.0): 0.8225975119502044,
    (3, 0.1): 0.14142135623730934,
    (3, 1.0): 1.004987562112089,
}


@pytest.mark.parametrize("row", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_golden_values(row, alpha):
    params = LospaParams(p=2.0, alpha=alpha)
    result = lospa(ESTIMATES[row - 1], TRUTH, params)
    assert result.distance == pytest.approx(GOLDEN[(row, alpha)], rel=REL_TOL_EXACT)
    assert result.distance == pytest.approx(expected_table_value(row, alpha), abs=1e-9)
    assert result.kind is MetricKind.LOSPA


def test_first_row_optimum_is_identity():
    result = lospa(ESTIMATES[0], TRUTH, LospaParams(p=2.0, alpha=0.1))
    assert result.optimal_perm.tolist() == [0, 1, 2]


def test_identity_is_exact_zero():
    X = mts([[1.5, -2.5], [0.0, 3.25]])
    result = lospa(X, X, LospaParams(p=2.0, alpha=1.0))
    assert result.distance == 0.0
    assert result.optimal_perm.tolist() == [0, 1]


def test_two_target_swap_is_exactly_one():
    result = lospa(mts([0, 10]), mts([10, 0]), LospaParams(p=2.0, alpha=1.0))
    assert result.distance == 1.0
    assert tuple(result.optimal_perm) == (1, 0)


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
def test_optimal_perm_is_a_read_only_int64_array(backend):
    perm = lospa(mts([0, 10, 20]), mts([10, 0, 20]), LospaParams(), backend).optimal_perm
    assert perm.dtype == np.int64 and perm.tolist() == [1, 0, 2]
    with pytest.raises(ValueError, match="read-only"):
        perm[0] = 0


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_backends_agree_on_worked_example(alpha):
    params = LospaParams(p=2.0, alpha=alpha)
    for est in ESTIMATES:
        brute = lospa(est, TRUTH, params, backend=SolverBackend.BRUTE_FORCE)
        opt = lospa(est, TRUTH, params, backend=SolverBackend.OPTIMAL)
        assert brute.distance == pytest.approx(opt.distance, rel=REL_TOL_EXACT)


def test_matches_enumeration_oracle_on_random_inputs():
    rng = np.random.default_rng(21)
    for _ in range(100):
        t = int(rng.integers(1, 6))
        nx = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        alpha = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
        A = rng.uniform(-20, 20, size=(t, nx))
        B = rng.uniform(-20, 20, size=(t, nx))
        expected = enum_lospa(A.tolist(), B.tolist(), p, alpha)
        got = lospa(mts(A.tolist()), mts(B.tolist()), LospaParams(p=p, alpha=alpha))
        assert got.distance == pytest.approx(expected, rel=1e-10)


def test_reported_permutation_reproduces_distance():
    rng = np.random.default_rng(22)
    for backend in SolverBackend:
        for _ in range(25):
            t = int(rng.integers(1, 7))
            A = mts(rng.uniform(-5, 5, size=(t, 2)).tolist())
            B = mts(rng.uniform(-5, 5, size=(t, 2)).tolist())
            params = LospaParams(p=1.5, alpha=0.5)
            result = lospa(A, B, params, backend=backend)
            total = path_cost(build_cost_matrix(A, B, params), result.optimal_perm)
            assert total == pytest.approx(
                t * result.distance**params.p, rel=REL_TOL_EXACT
            )


@pytest.mark.parametrize("backend", list(SolverBackend))
@pytest.mark.parametrize("alpha", [0.0, 0.6])
def test_lospa_and_ospa_equal_separate_calls(backend, alpha):
    # evaluate's lospa and ospa columns come from one cost build per step.
    rng = np.random.default_rng(23)
    for _ in range(25):
        t = int(rng.integers(1, 7))
        est, truth = rng.uniform(-5, 5, size=(2, 3, t, 2))
        params = LospaParams(p=1.5, alpha=alpha)
        report = evaluate(Trajectory(range(3), truth), Trajectory(range(3), est), params, backend)
        for i, (A, B) in enumerate(zip(est, truth)):
            A, B = MultiTargetState(A), MultiTargetState(B)
            labelled = lospa(A, B, params, backend=backend)
            unlabelled = lospa(A, B, params.with_alpha(0.0), backend=backend)
            assert (report.lospa[i], report.perms[i].tolist()) == (
                labelled.distance, labelled.optimal_perm.tolist()
            )
            assert report.ospa[i] == unlabelled.distance


def assert_rows_match_lospa(truth, est, params, backend):
    """``lospa()`` on step k gives ``evaluate``'s row k: the distance's bits and the pairing."""
    T = len(truth)
    report = evaluate(Trajectory(range(T), truth), Trajectory(range(T), est), params, backend)
    for k, (A, B) in enumerate(zip(est, truth)):
        result = lospa(MultiTargetState(A), MultiTargetState(B), params, backend)
        assert np.float64(result.distance).view(np.int64) == report.lospa[k].view(np.int64)
        assert result.optimal_perm.tolist() == report.perms[k].tolist()


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
@pytest.mark.parametrize("alpha", [0.0, 0.6])
@pytest.mark.parametrize("t", [1, 2, 3, 5, 8])
def test_lospa_gives_evaluates_rows_bit_for_bit(backend, alpha, t):
    # All six steps are one chunk.  Random steps go to LSAP, near-correct
    # ones are certified, and states on an integer grid tie.
    rng = np.random.default_rng(30 + t)
    truth, est = rng.uniform(-5.0, 5.0, size=(2, 6, t, 2))
    est[2:4] = truth[2:4] + rng.normal(scale=0.01, size=(2, t, 2))
    truth[4:], est[4:] = rng.integers(0, 3, size=(2, 2, t, 2))
    assert_rows_match_lospa(truth, est, LospaParams(p=1.5, alpha=alpha), backend)


def test_lospa_gives_evaluates_rows_at_t_300(monkeypatch, lsap_calls):
    # One step per chunk: a near-correct step that the sweep certifies, an
    # exact one that the sweep gives up on (zero costs) and the certificate
    # settles, and a random one for LSAP.
    t, rng = 300, np.random.default_rng(31)
    truth = 10.0 * np.arange(t)[:, None] + rng.normal(scale=0.5, size=(3, t, 2))
    est = truth.copy()
    est[0] += rng.normal(scale=0.1, size=(t, 2))
    est[2] = rng.uniform(-5.0, 10.0 * t, size=(t, 2))
    real, swept = evaluate_module._sweep, []

    def recorded(*args):
        swept.append(real(*args))
        return swept[-1]

    monkeypatch.setattr(evaluate_module, "_sweep", recorded)
    assert_rows_match_lospa(truth, est, LospaParams(alpha=0.6), SolverBackend.OPTIMAL)
    assert [total is not None for total in swept] == [True, False, False]
    assert swept[0][1].all()
    # evaluate solves both halves of the random step, whose labelled pairing
    # keeps a target; lospa() solves its labelled matrix.
    assert len(lsap_calls) == 3


def relation_states(kind, t, nx, rng):
    """Two (t, n_x) states of one kind, on a grid of 2**-20 within 2**12.

    ``random``: independent; ``near``: the second is the first plus noise of
    0.1, so the row-minimum certificate holds; ``swap``: ``near`` with one
    pair of targets swapped; ``grid``: coordinates in {0, 1, 2}, so costs
    tie.  Every nonzero difference lies between 2**-20 and 2**13, so at
    p, q <= 2 no cost or total underflows or overflows after a scaling by
    2**k, -40 <= k <= 300.
    """
    if kind == "grid":
        a, b = rng.integers(0, 3, size=(2, t, nx)).astype(float)
    else:
        a = rng.uniform(-1000.0, 1000.0, size=(t, nx))
        if kind == "random":
            b = rng.uniform(-1000.0, 1000.0, size=(t, nx))
        else:
            b = a + rng.normal(0.0, 0.1, size=(t, nx))
        if kind == "swap" and t > 1:
            j, k = rng.choice(t, size=2, replace=False)
            b[[j, k]] = b[[k, j]]
    return np.round(a * 2**20) / 2**20, np.round(b * 2**20) / 2**20


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["random", "near", "swap", "grid"]),
    small=st.booleans(),
    p=st.sampled_from([1.0, 1.5, 2.0]),
    q=st.sampled_from([1.0, 2.0, 3.0]),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    k=st.sampled_from([-40, 7, 150, 300]),
    seed=st.integers(0, 2**32 - 1),
)
# libm's pow rounds this p = 2 distance, or its scaled copy, the other way.
@example(kind="random", small=True, p=2.0, q=2.0, alpha=1.0, k=7, seed=2561)
def test_negation_and_scaling_relations(kind, small, p, q, alpha, k, seed):
    """``lospa()`` on negated and on 2**k-scaled states, on every backend it allows.

    Negation leaves every |d| and d**2, so every cost, with the same bits:
    the distance and the pairing are the same.  Scaling the states and alpha
    by 2**k at p, q in {1, 2} scales every difference, cost and total
    exactly, so the pairing is kept and the total is 2**(k p) times the
    first.  The distance, ``total / t`` at p = 1 and its correctly rounded
    square root at p = 2, then scales exactly too.
    """
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, 9)) if small else int(rng.integers(9, 61))
    a, b = relation_states(kind, t, int(rng.integers(1, 4)), rng)
    params = LospaParams(p=p, alpha=alpha, base_metric=BaseMetric.pnorm(q))
    scale = 2.0**k
    for backend in list(SolverBackend) if t <= 8 else [SolverBackend.OPTIMAL]:
        base = lospa(MultiTargetState(a), MultiTargetState(b), params, backend)
        negated = lospa(MultiTargetState(-a), MultiTargetState(-b), params, backend)
        assert negated.distance.hex() == base.distance.hex()
        assert negated.optimal_perm.tolist() == base.optimal_perm.tolist()
        if p in (1.0, 2.0) and q in (1.0, 2.0):
            scaled = lospa(MultiTargetState(a * scale), MultiTargetState(b * scale),
                           params.with_alpha(alpha * scale), backend)
            assert scaled.optimal_perm.tolist() == base.optimal_perm.tolist()
            assert scaled.distance == base.distance * scale


@pytest.mark.parametrize("backend", list(SolverBackend), ids=lambda b: b.value)
def test_overflowing_total_raises(backend):
    # Every cost, 1.69e308, is finite; the sum of two is not.
    with pytest.raises(InvalidCost, match="total cost of an optimal pairing overflows"):
        lospa(mts([1.3e154, 1.3e154]), mts([0, 0]), LospaParams(p=2.0, alpha=0.5), backend)


def test_kind_tag():
    A, B = mts([0, 1]), mts([1, 0])
    assert lospa(A, B, LospaParams(alpha=1.0)).kind is MetricKind.LOSPA
    assert lospa(A, B, LospaParams(alpha=0.0)).kind is MetricKind.OSPA


class TestOspaNoCutoff:
    @pytest.mark.parametrize("row", [1, 2, 3])
    def test_all_estimates_share_ospa(self, row):
        d = ospa_no_cutoff(ESTIMATES[row - 1], TRUTH, p=2.0)
        assert d == pytest.approx(0.1, abs=1e-12)

    def test_identity(self):
        X = mts([3, 7])
        assert ospa_no_cutoff(X, X, p=2.0) == 0.0

    def test_equals_alpha_zero_exactly(self):
        A = mts([[1.0, 2.0], [3.0, 4.0]])
        B = mts([[2.0, 1.0], [4.0, 3.0]])
        via_params = lospa(A, B, LospaParams(p=3.0, alpha=0.0)).distance
        assert ospa_no_cutoff(A, B, p=3.0) == via_params

    def test_ordering_blind(self):
        # A pure shuffle of the same targets costs nothing without labels.
        A = mts([5, -5, 0])
        B = mts([0, 5, -5])
        assert ospa_no_cutoff(A, B, p=2.0) == 0.0


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        lospa(mts([0, 1]), mts([0, 1, 2]), LospaParams())


def test_brute_cap_raises():
    nine = mts(np.arange(9.0))
    with pytest.raises(CapExceeded):
        lospa(nine, nine, LospaParams(), backend=SolverBackend.BRUTE_FORCE)
