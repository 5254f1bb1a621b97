"""Explicit-label sets and their equivalence with the vector-based distance."""

import re

import numpy as np
import pytest

from lospa import (
    DimensionMismatch,
    DuplicateLabel,
    LabelMismatch,
    LabelledSet,
    LabelledTarget,
    LospaParams,
    from_vector,
    lospa,
    lospa_sets,
    path_cost,
    to_vector,
)
from lospa.constants import REL_TOL_EXACT

from helpers import ESTIMATE_POINTS, TRUTH_POINTS, mts


def lset(pairs):
    """LabelledSet from (scalar coordinate, label) pairs."""
    return LabelledSet(
        tuple(LabelledTarget(np.array([float(x)]), label) for x, label in pairs)
    )


class TestLabelledSet:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabel):
            lset([(0.0, 1), (1.0, 1)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            LabelledSet(
                (
                    LabelledTarget(np.array([0.0]), 1),
                    LabelledTarget(np.array([0.0, 1.0]), 2),
                )
            )

    def test_must_be_non_empty(self):
        with pytest.raises(ValueError):
            LabelledSet(())

    def test_unordered_equality(self):
        a = lset([(0.0, 1), (5.0, 2)])
        b = lset([(5.0, 2), (0.0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.labels == frozenset({1, 2})
        assert a != lset([(5.0, 1), (0.0, 2)])

    def test_signed_zero_sets_equal_and_hash_equal(self):
        A, B = mts([[0.0], [1.0]]), mts([[-0.0], [1.0]])
        assert A == B
        a, b = from_vector(A, [1, 2]), from_vector(B, [1, 2])
        assert a == b
        assert hash(a) == hash(b)

    def test_target_state_is_a_private_read_only_copy(self):
        coords = np.array([1.0, 2.0])
        target = LabelledTarget(coords, 4)
        coords[0] = 99.0
        assert target.state.tolist() == [1.0, 2.0]
        assert target.state.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            target.state[1] = 0.0


NOT_INTEGERS = [0.5, 0.9, 1.0, True, np.True_, "7", np.float64(2.0), None]


@pytest.mark.parametrize(
    "build",
    [
        lambda bad: LabelledTarget(np.array([0.0]), bad),
        lambda bad: from_vector(mts([0, 1]), [3, bad]),
        lambda bad: to_vector(lset([(0.0, 3), (1.0, 4)]), [bad, 4]),
        # An entry of a permutation, the pairing path_cost checks.
        lambda bad: path_cost(np.zeros((2, 2)), (bad, 0)),
    ],
    ids=["LabelledTarget", "from_vector", "to_vector", "Permutation"],
)
@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_labels_and_pairings_must_be_integers(build, bad):
    with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {bad!r}")):
        build(bad)


class TestVectorRoundTrip:
    def test_to_vector_sorted_order(self):
        S = lset([(0.0, 2), (-10.0, 1), (10.0, 3)])
        assert to_vector(S, [1, 2, 3]) == mts([-10, 0, 10])

    def test_to_vector_singleton(self):
        assert to_vector(lset([(5.0, 7)]), [7]) == mts([5])

    def test_to_vector_reversed_order(self):
        S = lset([(0.0, 2), (-10.0, 1), (10.0, 3)])
        assert to_vector(S, [3, 2, 1]) == mts([10, 0, -10])

    def test_to_vector_bad_orders(self):
        S = lset([(0.0, 1), (1.0, 2)])
        with pytest.raises(LabelMismatch):
            to_vector(S, [1, 3])
        with pytest.raises(LabelMismatch):
            to_vector(S, [1])
        with pytest.raises(LabelMismatch):
            to_vector(S, [1, 1])

    def test_from_vector(self):
        S = from_vector(mts([-10, 0, 10]), [1, 2, 3])
        assert S.labels == frozenset({1, 2, 3})
        assert to_vector(S, [1, 2, 3]) == mts([-10, 0, 10])

    def test_from_vector_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            from_vector(mts([0, 1]), [1, 2, 3])

    def test_from_vector_duplicate_labels(self):
        with pytest.raises(DuplicateLabel):
            from_vector(mts([0, 1]), [1, 1])


class TestLospaSets:
    def test_worked_first_row(self):
        A = from_vector(mts(ESTIMATE_POINTS[0]), [1, 2, 3])
        B = from_vector(mts(TRUTH_POINTS), [1, 2, 3])
        assert lospa_sets(A, B, LospaParams(p=2.0, alpha=0.1)) == pytest.approx(
            0.1, abs=1e-9
        )

    def test_identity(self):
        A = from_vector(mts([1, 2, 3]), [4, 5, 6])
        assert lospa_sets(A, A, LospaParams()) == 0.0

    def test_storage_order_irrelevant(self):
        import random

        rng = random.Random(31)
        A = from_vector(mts(ESTIMATE_POINTS[1]), [1, 2, 3])
        B = from_vector(mts(TRUTH_POINTS), [1, 2, 3])
        reference = lospa_sets(A, B, LospaParams(p=2.0, alpha=1.0))
        for _ in range(10):
            A_shuffled = LabelledSet(tuple(rng.sample(A.elements, len(A.elements))))
            B_shuffled = LabelledSet(tuple(rng.sample(B.elements, len(B.elements))))
            assert lospa_sets(A_shuffled, B_shuffled, LospaParams(p=2.0, alpha=1.0)) == reference
            assert A_shuffled == A

    def test_label_sets_must_match(self):
        A = from_vector(mts([0, 1]), [1, 2])
        B = from_vector(mts([0, 1]), [1, 3])
        with pytest.raises(LabelMismatch) as err:
            lospa_sets(A, B, LospaParams())
        assert "2" in str(err.value) and "3" in str(err.value)

    def test_relabelling_both_sides_is_invisible(self):
        relabel = {1: 70, 2: -4, 3: 1000}
        params = LospaParams(p=2.0, alpha=1.0)
        A = from_vector(mts(ESTIMATE_POINTS[2]), [1, 2, 3])
        B = from_vector(mts(TRUTH_POINTS), [1, 2, 3])
        A2 = LabelledSet(
            tuple(LabelledTarget(el.state, relabel[el.label]) for el in A)
        )
        B2 = LabelledSet(
            tuple(LabelledTarget(el.state, relabel[el.label]) for el in B)
        )
        assert lospa_sets(A2, B2, params) == lospa_sets(A, B, params)

    def test_equals_vector_distance_for_every_ordering(self):
        import itertools

        rng = np.random.default_rng(32)
        params = LospaParams(p=1.5, alpha=0.7)
        for _ in range(20):
            t = int(rng.integers(1, 5))
            labels = [int(l) for l in rng.choice(1000, size=t, replace=False)]
            XA = mts(rng.uniform(-10, 10, size=(t, 2)).tolist())
            XB = mts(rng.uniform(-10, 10, size=(t, 2)).tolist())
            A = from_vector(XA, labels)
            B = from_vector(XB, labels)
            d_set = lospa_sets(A, B, params)
            for order in itertools.permutations(labels):
                d_vec = lospa(to_vector(A, order), to_vector(B, order), params).distance
                assert abs(d_set - d_vec) <= REL_TOL_EXACT * (1.0 + d_set)
