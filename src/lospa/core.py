"""Domain types for multitarget states and the per-pair cost construction.

A multitarget state with a fixed, known number of targets is a (t, n_x)
array: row j is the state vector of target j, and the row index is the
target's implicit label.  The labelled distance between two such states
combines a base metric on the per-target state space with a constant penalty
for every pair matched across different rows.

All types are immutable after construction and validate their invariants
eagerly (non-finite values are rejected up front, never propagated), so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidCost, NonFiniteValue

__all__ = [
    "MultiTargetState",
    "BaseMetric",
    "parse_base_metric",
    "LospaParams",
    "Permutation",
    "CostMatrix",
    "build_cost_matrix",
    "localization_costs",
    "add_label_penalty_inplace",
]


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _as_int(value, what: str) -> int:
    """``value`` as an int if it is an integer; bools, floats and strings raise."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class MultiTargetState:
    """A (t, n_x) array of per-target states, one row per target.

    The row index of each target is its implicit label: row j of one state
    is compared against row j of another when deciding whether a pairing is
    "correctly labelled".

    Args:
        points: t >= 1 rows of n_x >= 1 finite reals; copied and made
            read-only.
    """

    points: np.ndarray

    def __post_init__(self):
        try:
            arr = _as_readonly(self.points)
        except ValueError as exc:
            raise DimensionMismatch(f"targets must be equal-length real vectors: {exc}") from None
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(
                f"a multitarget state must be a (t, n_x) array with t, n_x >= 1, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("multitarget state contains NaN or infinity")
        object.__setattr__(self, "points", arr)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float] | float]) -> "MultiTargetState":
        """Build from an iterable of coordinate vectors (bare scalars mean 1-D)."""
        return cls([np.atleast_1d(pt) for pt in points])

    @property
    def num_targets(self) -> int:
        return self.points.shape[0]

    @property
    def state_dim(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiTargetState):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __hash__(self) -> int:
        # Adding 0.0 maps -0.0 to 0.0, so states that compare equal hash equal.
        return hash((self.points.shape, (self.points + 0.0).tobytes()))

    def __repr__(self) -> str:
        return f"MultiTargetState({self.points.tolist()})"


@dataclass(frozen=True)
class BaseMetric:
    """Per-target distance on the state space: Euclidean or a general q-norm.

    Any q >= 1 gives a valid metric; q = 2 is the Euclidean distance and the
    default.  ``name`` is how reports spell the metric; "euclidean" needs q = 2.
    """

    q: float = 2.0
    name: str = "euclidean"

    def __post_init__(self):
        if not (math.isfinite(self.q) and self.q >= 1.0):
            raise ValueError(f"q-norm exponent must satisfy q >= 1, got {self.q}")
        if self.name not in ("euclidean", "pnorm"):
            raise ValueError(f"unknown base metric name {self.name!r}")
        if self.name == "euclidean" and self.q != 2.0:
            raise ValueError(f"the euclidean base metric has q = 2, got q = {self.q:g}; use pnorm")

    @classmethod
    def euclidean(cls) -> "BaseMetric":
        return cls()

    @classmethod
    def pnorm(cls, q: float) -> "BaseMetric":
        return cls(q=float(q), name="pnorm")

    def describe(self) -> str:
        """Spelling used on the CLI and in report files."""
        if self.name == "euclidean":
            return "euclidean"
        return f"pnorm:{self.q:g}"

    def pairwise(
        self, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """All-pairs distances between rows of two (t, n_x) arrays.

        ``out``, if given, is a C-contiguous float64 (t, t) array that
        receives the distances and is returned.
        """
        # Imported here: scipy is most of a cold start, and small stacks are
        # built without it (see localization_costs).
        from scipy.spatial.distance import cdist

        return cdist(xs, ys, "minkowski", p=self.q, out=out)


def parse_base_metric(text: str) -> BaseMetric:
    """Parse the CLI spelling: ``euclidean`` or ``pnorm:<q>``."""
    if text == "euclidean":
        return BaseMetric.euclidean()
    if text.startswith("pnorm:"):
        try:
            q = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad q-norm exponent in {text!r}") from None
        return BaseMetric.pnorm(q)
    raise ValueError(f"unknown base metric {text!r}; expected 'euclidean' or 'pnorm:<q>'")


@dataclass(frozen=True)
class LospaParams:
    """Parameters of the labelled distance.

    Args:
        p: order exponent, 1 <= p < infinity.
        alpha: labelling-error penalty, in the units of the base metric;
            alpha > 0 gives the labelled metric, alpha = 0 degenerates to
            plain OSPA without cut-off (localization only).
        base_metric: per-target distance on the state space.
    """

    p: float = 2.0
    alpha: float = 1.0
    base_metric: BaseMetric = field(default_factory=BaseMetric.euclidean)

    def __post_init__(self):
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"order exponent must satisfy 1 <= p < inf, got {self.p}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    def with_alpha(self, alpha: float) -> "LospaParams":
        return LospaParams(p=self.p, alpha=alpha, base_metric=self.base_metric)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0, ..., t-1}, stored as the image tuple (0-based).

    ``mapping[j] = k`` pairs position j of the first state with position k
    of the second.  Any sequence of integers, an index array included, is
    stored as a tuple of ints; any other entry (a float, a bool) raises.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(_as_int(v, "a pairing entry") for v in self.mapping)
        t = len(mapping)
        if t < 1 or sorted(mapping) != list(range(t)):
            raise ValueError(f"not a permutation of 0..{t - 1}: {mapping}")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, t: int) -> "Permutation":
        return cls(tuple(range(t)))

    @property
    def is_identity(self) -> bool:
        return all(j == k for j, k in enumerate(self.mapping))

    def __len__(self) -> int:
        return len(self.mapping)

    def __iter__(self):
        return iter(self.mapping)

    def __getitem__(self, j: int) -> int:
        return self.mapping[j]


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Square matrix of per-pair matching costs.

    ``entries[j, k]`` is the cost of pairing target j of the first state with
    target k of the second: base distance to the p-th power, plus alpha**p
    when j != k (wrong label).  This constructor is the one place where cost
    entries are validated.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _as_readonly(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidCost(f"cost matrix must be square and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidCost("cost matrix contains NaN or infinity")
        if np.any(arr < 0.0):
            raise InvalidCost("cost matrix contains negative entries")
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _overflow(params: LospaParams) -> InvalidCost:
    # Every input is finite and nonnegative, so a non-finite cost is overflow.
    return InvalidCost(
        f"cost b(a, b)**p + alpha**p overflows the float64 range "
        f"(p={params.p:g}, alpha={params.alpha:g})"
    )


# Largest t whose stacks localization_costs builds in numpy; beyond it one
# cdist call per matrix is faster (1.3-1.5x at t = 24, about 2x at t = 32).
_NUMPY_BUILD_MAX_T = 16


def _minkowski_stack(xs: np.ndarray, ys: np.ndarray, q: float, out: np.ndarray) -> None:
    """``cdist(x, y, "minkowski", p=q)`` for every pair of a stack, q in {1, 2}.

    Components are added left to right, as cdist adds them, and q = 2 takes
    one square root at the end, so each entry equals cdist's bit for bit.
    """
    out.fill(0.0)
    for c in range(xs.shape[2]):
        d = xs[:, :, None, c] - ys[:, None, :, c]
        if q == 2.0:
            d *= d
        else:
            np.abs(d, out=d)
        out += d
    if q == 2.0:
        np.sqrt(out, out=out)


def localization_costs(
    xs: np.ndarray, ys: np.ndarray, params: LospaParams, out: np.ndarray
) -> np.ndarray:
    """Fill an (n, t, t) stack with ``b(xs[i][j], ys[i][k])**p`` and return it.

    ``xs`` and ``ys`` are (n, t, n_x) stacks of validated states.  For
    q in {1, 2} and t <= 16 the whole stack is built in numpy at once;
    otherwise each pair is one ``base_metric.pairwise`` call written
    straight into ``out[i]``.  Both give the same bits.  ``params.alpha``
    only appears in the overflow message.

    Raises:
        InvalidCost: if a cost overflows the float64 range.
    """
    q = params.base_metric.q
    with np.errstate(over="ignore"):
        if q in (1.0, 2.0) and xs.shape[1] <= _NUMPY_BUILD_MAX_T:
            _minkowski_stack(xs, ys, q, out)
        else:
            for x, y, o in zip(xs, ys, out):
                params.base_metric.pairwise(x, y, out=o)
        out **= params.p
    if not math.isfinite(out.max()):
        raise _overflow(params)
    return out


def add_label_penalty_inplace(C: np.ndarray, params: LospaParams) -> np.ndarray:
    """Add ``alpha**p`` to every off-diagonal entry of an (n, t, t) stack.

    Applied to localization costs this gives the labelled costs of
    :func:`build_cost_matrix` exactly: each off-diagonal entry is one sum,
    and the diagonal is restored untouched.

    Raises:
        InvalidCost: if a cost overflows the float64 range.
    """
    try:
        penalty = params.alpha**params.p
    except OverflowError:
        raise _overflow(params) from None
    diagonal = C.diagonal(axis1=1, axis2=2).copy()
    with np.errstate(over="ignore"):
        C += penalty
    rows = np.arange(C.shape[1])
    C[:, rows, rows] = diagonal
    if not math.isfinite(C.max()):
        raise _overflow(params)
    return C


def build_cost_matrix(
    A: MultiTargetState, B: MultiTargetState, params: LospaParams
) -> CostMatrix:
    """Per-pair matching costs between two multitarget states.

    Entry (j, k) is ``b(a_j, b_k)**p + alpha**p * (0 if j == k else 1)``:
    the localization cost of the pairing plus the flat labelling penalty for
    matching across positions.

    Raises:
        DimensionMismatch: if the two states differ in target count or
            state dimension.
        InvalidCost: if a cost overflows the float64 range.
    """
    if A.num_targets != B.num_targets:
        raise DimensionMismatch(
            f"target counts differ: first has {A.num_targets}, second has {B.num_targets}"
        )
    if A.state_dim != B.state_dim:
        raise DimensionMismatch(
            f"state dimensions differ: first is {A.state_dim}, second is {B.state_dim}"
        )
    t = A.num_targets
    C = localization_costs(A.points[None], B.points[None], params, np.empty((1, t, t)))
    if params.alpha > 0.0:
        add_label_penalty_inplace(C, params)
    return CostMatrix(C[0])
