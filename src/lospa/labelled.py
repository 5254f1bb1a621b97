"""Explicit-label representation of a multitarget state.

A labelled set carries (state, label) pairs with unique integer labels and no
meaningful element order.  When both sets use the same labels, the labelled
distance over sets equals the vector distance after arranging both by any
common label order, so :func:`lospa_sets` reduces to the vector computation.

Labels are integers by design: the labelling penalty only ever tests labels
for equality, and exact equality on floats is fragile.  Storage order is
irrelevant; instances are immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import LospaParams, MultiTargetState, _as_int, _as_readonly
from .errors import DimensionMismatch, DuplicateLabel, LabelMismatch
from .metric import lospa

__all__ = ["LabelledTarget", "LabelledSet", "from_vector", "to_vector", "lospa_sets"]


@dataclass(frozen=True, eq=False)
class LabelledTarget:
    """A target's state vector, copied read-only, and its integer label."""

    state: np.ndarray
    label: int

    def __post_init__(self):
        object.__setattr__(self, "state", _as_readonly(self.state))
        object.__setattr__(self, "label", _as_int(self.label, "a label"))


@dataclass(frozen=True, eq=False, init=False)
class LabelledSet:
    """Unordered collection of labelled targets with pairwise-distinct labels.

    Stored as one :class:`MultiTargetState` plus one label per row, in the
    order the elements were given; that order carries no meaning.
    """

    state: MultiTargetState
    label_order: tuple[int, ...]

    def __init__(self, elements: Iterable[LabelledTarget]):
        elements = tuple(elements)
        if len(elements) < 1:
            raise ValueError("a labelled set needs at least one element")
        labels = tuple(el.label for el in elements)
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise DuplicateLabel(f"labels must be unique, repeated: {dupes}")
        object.__setattr__(self, "state", MultiTargetState([el.state for el in elements]))
        object.__setattr__(self, "label_order", labels)

    @property
    def labels(self) -> frozenset[int]:
        return frozenset(self.label_order)

    @property
    def elements(self) -> tuple[LabelledTarget, ...]:
        return tuple(
            LabelledTarget(row, label) for row, label in zip(self.state.points, self.label_order)
        )

    def __len__(self) -> int:
        return len(self.label_order)

    def __iter__(self):
        return iter(self.elements)

    def _canonical(self) -> MultiTargetState:
        return to_vector(self, sorted(self.label_order))

    def __eq__(self, other) -> bool:
        # Unordered semantics: compare both sets arranged by sorted label.
        if not isinstance(other, LabelledSet):
            return NotImplemented
        return self.labels == other.labels and self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash((self.labels, self._canonical()))


def from_vector(X: MultiTargetState, labels: Sequence[int]) -> LabelledSet:
    """Attach explicit labels to a multitarget state, position by position.

    Element j of the result carries state j of ``X`` and ``labels[j]``.

    Raises:
        ValueError: if a label is not an integer.
        DimensionMismatch: if ``labels`` does not have one entry per target.
        DuplicateLabel: if two labels coincide.
    """
    labels = list(labels)
    if len(labels) != X.num_targets:
        raise DimensionMismatch(f"{X.num_targets} targets but {len(labels)} labels")
    return LabelledSet(LabelledTarget(row, l) for row, l in zip(X.points, labels))


def to_vector(S: LabelledSet, label_order: Sequence[int]) -> MultiTargetState:
    """Arrange a labelled set into a multitarget state by the given label order.

    ``label_order`` must be exactly the labels of ``S``; position j of the
    result holds the state labelled ``label_order[j]``.

    Raises:
        ValueError: if a label is not an integer.
        LabelMismatch: if ``label_order`` misses a label or names an unknown one.
    """
    order = [_as_int(l, "a label") for l in label_order]
    row_of = {label: j for j, label in enumerate(S.label_order)}
    unknown = [l for l in order if l not in row_of]
    if unknown:
        raise LabelMismatch(f"labels not in the set: {unknown}")
    if len(order) != len(row_of) or len(set(order)) != len(order):
        missing = sorted(set(row_of) - set(order))
        raise LabelMismatch(f"label order must cover every label exactly once; missing: {missing}")
    return MultiTargetState(S.state.points[[row_of[l] for l in order]])


def lospa_sets(A: LabelledSet, B: LabelledSet, params: LospaParams) -> float:
    """Labelled distance between two labelled sets over the same labels.

    Equivalent to the vector-domain distance after arranging both sets by any
    common label order; the choice of order does not matter because it
    permutes both sides identically.

    Raises:
        LabelMismatch: if the two sets do not carry identical label sets.
        DimensionMismatch: if state dimensions differ.
    """
    if A.labels != B.labels:
        only_a = sorted(A.labels - B.labels)
        only_b = sorted(B.labels - A.labels)
        raise LabelMismatch(
            f"label sets differ: only in first {only_a}, only in second {only_b}"
        )
    order = sorted(A.labels)
    return lospa(to_vector(A, order), to_vector(B, order), params).distance
