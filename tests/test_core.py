"""Domain types, the base metric family, and cost-matrix construction."""

import math
import re
import warnings

import numpy as np
import pytest

from lospa import (
    BaseMetric,
    CostMatrix,
    DimensionMismatch,
    InvalidCost,
    LabelledTarget,
    LospaParams,
    MultiTargetState,
    NonFiniteValue,
    SolverBackend,
    Trajectory,
    build_cost_matrix,
    lospa,
    parse_base_metric,
    solve_stack,
)
from lospa.core import cost_stack

from helpers import mts, qnorm_dist


class TestTargetState:
    """A target's state is one row of a MultiTargetState."""

    def test_holds_coords(self):
        X = MultiTargetState(np.array([[1.0, 2.0]]))
        assert X.state_dim == 2
        assert X.points[0].tolist() == [1.0, 2.0]

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            MultiTargetState(np.array(3.0))
        with pytest.raises(ValueError):
            MultiTargetState(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            MultiTargetState(np.zeros((1, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteValue):
            MultiTargetState(np.array([[1.0, float("nan")]]))
        with pytest.raises(NonFiniteValue):
            MultiTargetState(np.array([[0.0], [float("inf")]]))

    def test_coords_are_read_only(self):
        source = np.array([[1.0]])
        X = MultiTargetState(source)
        with pytest.raises(ValueError):
            X.points[0, 0] = 2.0
        source[0, 0] = 5.0  # the state holds its own copy
        assert X.points[0, 0] == 1.0

    def test_equality_and_hash(self):
        a = mts([[1.0, 2.0]])
        b = mts([[1.0, 2.0]])
        c = mts([[1.0, 3.0]])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_signed_zero_equal_states_hash_equal(self):
        a, b = mts([[0.0, 1.0]]), mts([[-0.0, 1.0]])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestMultiTargetState:
    def test_from_points_scalars_mean_1d(self):
        X = mts([-10, 0, 10])
        assert X.num_targets == 3
        assert X.state_dim == 1
        assert X.points.tolist() == [[-10.0], [0.0], [10.0]]

    def test_from_array_round_trip(self):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        X = MultiTargetState(arr)
        assert np.array_equal(X.points, arr)
        assert X.num_targets == 2
        assert X.points[1].tolist() == [3.0, 4.0]

    def test_needs_at_least_one_target(self):
        with pytest.raises(ValueError):
            MultiTargetState(())
        with pytest.raises(ValueError):
            MultiTargetState(np.zeros((0, 2)))

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            MultiTargetState([[1.0], [1.0, 2.0]])
        with pytest.raises(DimensionMismatch):
            mts([[1.0], [1.0, 2.0]])

    def test_equality(self):
        assert mts([1, 2]) == mts([1, 2])
        assert mts([1, 2]) != mts([2, 1])
        assert mts([1, 2]) != mts([[1, 2]])


def distance(metric, x, y):
    """Base distance between two single coordinate vectors: a cost at p = 1, alpha = 0."""
    params = LospaParams(p=1.0, alpha=0.0, base_metric=metric)
    return float(build_cost_matrix(mts([x]), mts([y]), params).entries[0, 0])


class TestBaseMetric:
    def test_euclidean_identity(self):
        m = BaseMetric.euclidean()
        assert distance(m, [0.0], [0.0]) == 0.0

    def test_euclidean_table_residual(self):
        m = BaseMetric.euclidean()
        assert distance(m, [-10.1], [-10.0]) == pytest.approx(0.1, abs=1e-15)

    def test_euclidean_3_4_5(self):
        m = BaseMetric.euclidean()
        assert distance(m, [3.0, 4.0], [0.0, 0.0]) == 5.0

    def test_manhattan(self):
        m = BaseMetric.pnorm(1.0)
        assert distance(m, [3.0, 4.0], [0.0, 0.0]) == 7.0

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            BaseMetric.pnorm(0.5)

    def test_euclidean_name_requires_q_2(self):
        # It would compute the 3-norm but echo "euclidean" in reports.
        with pytest.raises(ValueError, match="euclidean"):
            BaseMetric(q=3.0)
        assert BaseMetric(q=2.0) == BaseMetric.euclidean()
        assert BaseMetric(q=3.0, name="pnorm").describe() == "pnorm:3"

    def test_cost_entries_match_distance(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        for q in (1.0, 2.0, 3.5):
            params = LospaParams(p=1.0, alpha=0.0, base_metric=BaseMetric.pnorm(q))
            table = build_cost_matrix(mts(xs), mts(ys), params).entries
            for j in range(4):
                for k in range(4):
                    expected = qnorm_dist(xs[j].tolist(), ys[k].tolist(), q)
                    assert table[j, k] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [True, np.True_, "1_5", None])
    def test_q_that_is_not_a_real_number_is_refused(self, q):
        for make in (lambda: BaseMetric(q=q, name="pnorm"), lambda: BaseMetric.pnorm(q)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == f"q-norm exponent q must be a real number, got {q!r}"

    @pytest.mark.parametrize("q", [3, np.int64(3), np.float32(3.0), 3.0])
    def test_python_and_numpy_numbers_are_read_as_floats(self, q):
        metric = BaseMetric.pnorm(q)
        assert type(metric.q) is float and metric.describe() == "pnorm:3"

    def test_describe_parse_round_trip(self):
        for text in ("euclidean", "pnorm:1.5", "pnorm:3"):
            assert parse_base_metric(text).describe() == text

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            parse_base_metric("chebyshev")
        with pytest.raises(ValueError):
            parse_base_metric("pnorm:abc")
        with pytest.raises(ValueError):
            parse_base_metric("pnorm:0.2")

    @pytest.mark.parametrize("q", ["2_0", "1_5", "\u0662", " 2\u00a0"])
    def test_parse_rejects_q_that_is_not_plain_ascii(self, q):
        with pytest.raises(ValueError, match="bad q-norm exponent"):
            parse_base_metric(f"pnorm:{q}")

    @pytest.mark.parametrize("text", ["pnorm:" + "9" * 50_000 + "x", "y" * 50_000])
    def test_parse_error_echoes_the_text_cut(self, text):
        with pytest.raises(ValueError) as err:
            parse_base_metric(text)
        assert len(str(err.value)) < 200 and text[:39] + "…" in str(err.value)


class TestLospaParams:
    def test_defaults(self):
        params = LospaParams()
        assert params.p == 2.0
        assert params.alpha == 1.0
        assert params.base_metric.describe() == "euclidean"

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("inf"), float("nan")])
    def test_bad_p_rejected(self, p):
        with pytest.raises(ValueError):
            LospaParams(p=p)

    @pytest.mark.parametrize("alpha", [-0.1, float("inf"), float("nan")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            LospaParams(alpha=alpha)

    @pytest.mark.parametrize("field, value, why", [
        ("p", True, "order exponent p must be a real number, got True"),
        ("alpha", True, "alpha must be a real number, got True"),
        ("p", "2", "order exponent p must be a real number, got '2'"),
        ("alpha", None, "alpha must be a real number, got None"),
        ("alpha", 10**400, "alpha overflows the float64 range: 1000"),
        ("base_metric", "euclidean", "base_metric must be a BaseMetric, got 'euclidean'"),
    ], ids=["p-bool", "alpha-bool", "p-str", "alpha-None", "alpha-huge-int", "base_metric-str"])
    def test_parameters_of_another_type_are_refused(self, field, value, why):
        with pytest.raises(ValueError) as err:
            LospaParams(**{field: value})
        assert str(err.value).startswith(why)

    def test_python_and_numpy_numbers_are_read_as_floats(self):
        params = LospaParams(p=np.int64(3), alpha=np.float32(0.5))
        assert (params.p, params.alpha) == (3.0, 0.5)
        assert type(params.p) is float and type(params.alpha) is float
        assert LospaParams(p=1, alpha=0) == LospaParams(p=1.0, alpha=0.0)

    def test_alpha_zero_allowed(self):
        assert LospaParams(alpha=0.0).alpha == 0.0

    def test_with_alpha(self):
        params = LospaParams(p=3.0, alpha=1.0, base_metric=BaseMetric.pnorm(1.0))
        zero = params.with_alpha(0.0)
        assert zero.alpha == 0.0
        assert zero.p == 3.0
        assert zero.base_metric == params.base_metric


class TestCostMatrix:
    def test_validation(self):
        with pytest.raises(InvalidCost):
            CostMatrix(np.zeros((2, 3)))
        with pytest.raises(InvalidCost):
            CostMatrix(np.array([[1.0, float("nan")], [0.0, 1.0]]))
        # A negative entry is a cost like any other, as in solve_stack.
        assert CostMatrix(np.array([[-1.0]])).entries.tolist() == [[-1.0]]

    def test_entries_read_only(self):
        C = CostMatrix(np.ones((2, 2)))
        assert C.size == 2
        with pytest.raises(ValueError):
            C.entries[0, 0] = 5.0


class TestBaseDistance:
    """b(x, y) between single targets, as the cost of a one-target pairing."""

    def test_known_distances(self):
        params = LospaParams(p=1.0, alpha=0.0)

        def b(x, y):
            return float(build_cost_matrix(mts([x]), mts([y]), params).entries[0, 0])

        assert b([0.0], [0.0]) == 0.0
        assert b([-10.1], [-10.0]) == pytest.approx(0.1, abs=1e-15)
        assert b([3.0, 4.0], [0.0, 0.0]) == 5.0

    def test_dimension_mismatch_names_both(self):
        with pytest.raises(DimensionMismatch) as err:
            build_cost_matrix(mts([[0.0, 0.0]]), mts([[0.0, 0.0, 0.0]]), LospaParams())
        assert "2" in str(err.value) and "3" in str(err.value)


class TestBuildCostMatrix:
    def test_alpha_zero_squared_gaps(self):
        X = mts([-10, 0, 10])
        C = build_cost_matrix(X, X, LospaParams(p=2.0, alpha=0.0))
        assert np.all(np.diag(C.entries) == 0.0)
        assert C.entries[0, 1] == 100.0

    def test_two_target_swap_entries(self):
        C = build_cost_matrix(mts([0, 10]), mts([10, 0]), LospaParams(p=2.0, alpha=1.0))
        assert C.entries.tolist() == [[100.0, 1.0], [1.0, 100.0]]

    def test_diagonal_of_first_row_estimate(self):
        C = build_cost_matrix(
            mts([-10.1, 0.1, 10.1]), mts([-10, 0, 10]), LospaParams(p=2.0, alpha=0.1)
        )
        assert np.diag(C.entries) == pytest.approx([0.01, 0.01, 0.01], abs=1e-15)

    def test_off_diagonal_gets_alpha_penalty(self):
        params = LospaParams(p=3.0, alpha=2.0)
        C = build_cost_matrix(mts([0, 1]), mts([0, 1]), params)
        assert C.entries[0, 1] == pytest.approx(1.0 + 2.0**3, rel=1e-15)
        assert C.entries[0, 0] == 0.0

    def test_mismatches_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_cost_matrix(mts([0, 1]), mts([0, 1, 2]), LospaParams())
        with pytest.raises(DimensionMismatch):
            build_cost_matrix(
                mts([[0, 0], [1, 1]]), mts([0, 1]), LospaParams()
            )

    def test_label_penalty_on_localization_matches_direct_build(self):
        rng = np.random.default_rng(11)
        A, B = mts(rng.normal(size=(5, 2)).tolist()), mts(rng.normal(size=(5, 2)).tolist())
        params = LospaParams(p=3.0, alpha=0.7, base_metric=BaseMetric.pnorm(1.5))
        localization = build_cost_matrix(A, B, params.with_alpha(0.0)).entries
        direct = build_cost_matrix(A, B, params).entries
        stack = cost_stack(A.points[None], B.points[None], params, np.empty((2, 5, 5)))
        # One sum per entry: the same bits as adding alpha**p off the diagonal.
        expected = localization + params.alpha**params.p * (1.0 - np.eye(5))
        assert np.array_equal(direct, expected)
        assert np.array_equal(stack, [localization, expected])

    def test_overflow_of_the_labelled_sum_alone(self):
        # b**p = 1.69e308 is finite; b**p + alpha**p = 2.69e308 is not.
        A = mts([0.0, 1.3e154])
        params = LospaParams(p=2.0, alpha=1e154)
        assert np.isfinite(build_cost_matrix(A, A, params.with_alpha(0.0)).entries).all()
        with pytest.raises(InvalidCost, match="overflows"):
            build_cost_matrix(A, A, params)
        with pytest.raises(InvalidCost, match="overflows"):
            cost_stack(A.points[None], A.points[None], params, np.empty((2, 2, 2)))

    # alpha**p is +inf once it overflows; at t = 1 no cost holds it, but it still raises.
    @pytest.mark.parametrize("t", [1, 2])
    def test_overflowing_alpha_power(self, t):
        A = mts([float(j) for j in range(t)])
        params = LospaParams(p=2.0, alpha=1e200)
        stack = A.points[None], A.points[None], params, np.empty((2, t, t))
        for call in (lambda: build_cost_matrix(A, A, params), lambda: lospa(A, A, params),
                     lambda: cost_stack(*stack)):
            with pytest.raises(InvalidCost) as err:
                call()
            assert str(err.value) == (
                "cost b(a, b)**p + alpha**p overflows the float64 range (p=2, alpha=1e+200)"
            )


OPTIMAL, BRUTE = SolverBackend.OPTIMAL, SolverBackend.BRUTE_FORCE


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: MultiTargetState([["1"], ["2"]]), ValueError, "got <U1 values"),
        (lambda: MultiTargetState([[True], [False]]), ValueError, "got bool values"),
        (lambda: MultiTargetState(np.array([[1 + 5j], [2]])), ValueError, "got complex128 values"),
        (lambda: MultiTargetState([[b"1"]]), ValueError, "got |S1 values"),
        (lambda: MultiTargetState([[2**70], [1j]]), ValueError, "got object values"),
        (lambda: LabelledTarget(np.array([1j]), 1), ValueError, "got complex128 values"),
        (lambda: Trajectory([0], np.array([[[1 + 1j]]])), ValueError, "got complex128 values"),
        (lambda: Trajectory([0], [[[1j]]]), ValueError, "got complex128 values"),
        (lambda: Trajectory([0], [[[True]]]), ValueError, "got bool values"),
        (lambda: CostMatrix([["1", "2"], ["3", "4"]]), InvalidCost, "got <U1 values"),
        (lambda: CostMatrix(np.eye(2, dtype=bool)), InvalidCost, "got bool values"),
        (lambda: solve_stack([[["1", "2"], ["3", "0"]]], OPTIMAL), InvalidCost, "got <U1 values"),
        (lambda: solve_stack(np.ones((1, 2, 2)) * 1j, BRUTE), InvalidCost, "got complex128 values"),
        # An int beyond int64 makes an object array; its other entries must be real too.
        (lambda: MultiTargetState([[2**70], ["3"]]), ValueError, "got object values"),
        (lambda: MultiTargetState([[2**70], [b"3"]]), ValueError, "got object values"),
        (lambda: MultiTargetState([[2**70], [True]]), ValueError, "got object values"),
        (lambda: MultiTargetState([[2**70], [None]]), ValueError, "got object values"),
        # An int beyond the float64 range cannot be read as a float.
        (lambda: MultiTargetState([[10**400], [1]]), ValueError, "overflows the float64 range"),
        (lambda: Trajectory([0], [[[10**400]]]), ValueError, "overflows the float64 range"),
        (lambda: CostMatrix([[10**400, 1], [1, 0]]), InvalidCost, "overflows the float64 range"),
        (
            lambda: solve_stack([[[10**400, 1], [1, 0]]], OPTIMAL),
            InvalidCost,
            "overflows the float64 range",
        ),
    ],
    ids=[
        "state_str", "state_bool", "state_complex", "state_bytes", "state_object_complex",
        "labelled_target_complex", "trajectory_complex", "trajectory_complex_list",
        "trajectory_bool", "cost_matrix_str", "cost_matrix_bool", "stack_str", "stack_complex",
        "state_object_str", "state_object_bytes", "state_object_bool", "state_object_none",
        "state_overflow", "trajectory_overflow", "cost_matrix_overflow", "stack_overflow",
    ],
)
def test_non_real_arrays_are_refused_not_cast(make, error, message):
    # Casting would read "1" as 1.0 and True as 1.0, or drop an imaginary part;
    # an int too large for a float would escape as a bare OverflowError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would be a cast
        with pytest.raises(error, match=f"{re.escape(message)}$"):
            make()
