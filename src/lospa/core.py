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
import numbers
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
    "CostMatrix",
    "build_cost_matrix",
    "cost_stack",
]


def _as_real(values, error=ValueError, copy=True) -> np.ndarray:
    """``values`` as a new float64 array, or themselves if ``copy`` is false and they are one.

    Integer and float arrays are read, and object arrays whose entries are
    all real numbers (``numbers.Real``, not bool).  Bool, complex, string
    and bytes arrays, and object arrays with any other entry (a string, a
    bool, None), raise ``error`` naming their dtype, rather than be cast;
    an entry beyond the float64 range raises ``error`` naming the overflow.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "iuf" or arr.dtype.kind == "O" and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in arr.flat
    ):
        try:
            return arr.astype(float, copy=copy)
        except OverflowError:
            raise error("a value overflows the float64 range") from None
    raise error(f"expected real numbers, got {arr.dtype} values")


def _as_int64(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array; bool, float, string and object arrays raise.

    Integer arrays whose dtype casts safely to int64 are read; ``what``
    names the values in the ``ValueError`` that refuses any other.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ValueError(f"{what} must be 64-bit integers, got {arr.dtype} values")
    return arr.astype(np.int64)


def _time_order(values, what: str) -> tuple[np.ndarray, int | None]:
    """``values`` read by :func:`_as_int64`, and the index i of the first pair
    ``(ks[i], ks[i + 1])`` not strictly increasing, or None: the one time-order check."""
    ks = _as_int64(values, what)
    back = np.flatnonzero(ks[1:] <= ks[:-1])  # np.diff would wrap past int64
    return ks, int(back[0]) if back.size else None


def _checked_costs(C) -> np.ndarray:
    """``C`` as a float64 ``(n, t, t)`` stack of finite costs, n, t >= 1, copied
    only from another real dtype: the one cost check, for ``solve_stack`` and,
    as a stack of one, :class:`CostMatrix`.  Anything else raises InvalidCost."""
    C = _as_real(C, InvalidCost, copy=False)
    if C.ndim != 3 or C.shape[1] != C.shape[2] or 0 in C.shape:
        raise InvalidCost(f"expected an (n, t, t) stack of cost matrices, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise InvalidCost("cost stack contains NaN or infinity")
    return C


def _as_readonly(arr: np.ndarray, dtype=float) -> np.ndarray:
    out = _as_real(arr) if dtype is float else np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _echo(value) -> str:
    """``repr(value)`` for an error message, cut to 40 characters and an ellipsis."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "…"


def _as_float(value, what: str) -> float:
    """``value`` as a float if it is a real number; bools, strings and None raise.

    Reads what :func:`_as_real` reads in an object array: any
    ``numbers.Real`` but bool, so Python and numpy ints and floats.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{what} overflows the float64 range: {_echo(value)}") from None
    raise ValueError(f"{what} must be a real number, got {_echo(value)}")


def _as_int(value, what: str) -> int:
    """``value`` as an int if it is an integer; bools, floats and strings raise."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{what} must be an integer, got {_echo(value)}")


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
            arr = np.asarray(self.points)
        except ValueError as exc:
            raise DimensionMismatch(f"targets must be equal-length real vectors: {exc}") from None
        arr = _as_readonly(arr)
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
    default.  ``q`` is read as a float from a real number other than bool.
    ``name`` is how reports spell the metric; "euclidean" needs q = 2.
    """

    q: float = 2.0
    name: str = "euclidean"

    def __post_init__(self):
        object.__setattr__(self, "q", _as_float(self.q, "q-norm exponent q"))
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
        return cls(q=q, name="pnorm")

    def describe(self) -> str:
        """Spelling used on the CLI and in report files."""
        if self.name == "euclidean":
            return "euclidean"
        return f"pnorm:{self.q:g}"


def _plain_number(text: str, kind=float):
    """``kind(text)``; refuses '_' and non-ASCII digits, which int() and float() read."""
    if "_" not in text and text.isascii():
        try:
            return kind(text)
        except ValueError:
            pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"expected {what} in plain ASCII, got {_echo(text)}")


def parse_base_metric(text: str) -> BaseMetric:
    """Parse the CLI spelling: ``euclidean`` or ``pnorm:<q>``, q a plain ASCII number."""
    if text == "euclidean":
        return BaseMetric.euclidean()
    if text.startswith("pnorm:"):
        try:
            q = _plain_number(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad q-norm exponent in {_echo(text)}") from None
        return BaseMetric.pnorm(q)
    raise ValueError(f"unknown base metric {_echo(text)}; expected 'euclidean' or 'pnorm:<q>'")


@dataclass(frozen=True)
class LospaParams:
    """Parameters of the labelled distance.

    ``p`` and ``alpha`` are read as floats from real numbers other than
    bool; any other value raises ``ValueError``, as does a ``base_metric``
    that is not a :class:`BaseMetric`.

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
        object.__setattr__(self, "p", _as_float(self.p, "order exponent p"))
        object.__setattr__(self, "alpha", _as_float(self.alpha, "alpha"))
        if not isinstance(self.base_metric, BaseMetric):
            raise ValueError(f"base_metric must be a BaseMetric, got {_echo(self.base_metric)}")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"order exponent must satisfy 1 <= p < inf, got {self.p}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")

    def with_alpha(self, alpha: float) -> "LospaParams":
        return LospaParams(p=self.p, alpha=alpha, base_metric=self.base_metric)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Square matrix of per-pair matching costs.

    ``entries[j, k]`` is the cost of pairing target j of the first state with
    target k of the second: base distance to the p-th power, plus alpha**p
    when j != k (wrong label).  The entries are a read-only copy, checked by
    :func:`_checked_costs`.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _checked_costs([self.entries])[0]  # the list makes a new array
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


# Entries per block of cost_stack, of its one temporary, and of each half of
# an evaluate chunk: whole matrices up to t = 256, rows of one matrix beyond.
_BUILD_BLOCK_ENTRIES = 1 << 16


def _minkowski_costs(
    a: np.ndarray, b: np.ndarray, q: float, p: float, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with ``b(a, b)**p`` and return it.

    ``a`` and ``b`` broadcast to ``out.shape`` plus a last axis of n_x
    components; ``scratch`` has ``out``'s shape.  The components' ``|d|``,
    ``d**2`` or ``|d|**q`` are added left to right, the first written
    straight into ``out``, then come the root (``sqrt`` at q = 2, ``**(1/q)``
    at q not in {1, 2}) and the power p.  The q-th powers and root are
    ``np.float_power``, libm's ``pow``, as in cdist: so these are cdist's
    bits, and the same bits for an entry wherever it is computed, without
    importing scipy's distance module, which costs more than most runs' builds.
    """
    term = np.square if q == 2.0 else np.abs
    for c in range(a.shape[-1]):
        d = scratch if c else out
        term(np.subtract(a[..., c], b[..., c], out=d), out=d)
        if q not in (1.0, 2.0):
            np.float_power(d, q, out=d)
        if c:
            out += d
    if q == 2.0:
        np.sqrt(out, out=out)
    elif q != 1.0:
        np.float_power(out, 1.0 / q, out=out)
    out **= p
    return out


def cost_stack(
    xs: np.ndarray, ys: np.ndarray, params: LospaParams, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the costs of the n pairs ``(xs[i], ys[i])`` and return it.

    ``xs`` and ``ys`` are (n, t, n_x) stacks of validated states.  ``out[:n]``
    gets ``b(xs[i][j], ys[i][k])**p``.  If ``out`` holds 2n matrices,
    ``out[n:]`` gets the labelled costs of :func:`build_cost_matrix`: the
    same plus ``alpha**p`` off the diagonal, one sum per entry.  Each block,
    rows of every matrix of a half in ``_BUILD_BLOCK_ENTRIES`` entries, is
    one :func:`_minkowski_costs` call, finished while it is in cache.
    Callers pass one matrix, or at most one block per half.

    Raises:
        InvalidCost: if a cost overflows the float64 range.
    """
    n, t, _ = xs.shape
    q, p = params.base_metric.q, params.p
    loc, labelled = out[:n], out[n:]
    rows = min(t, max(1, _BUILD_BLOCK_ENTRIES // (n * t)))
    scratch = np.empty(n * rows * t)
    with np.errstate(over="ignore"):
        penalty = np.float64(params.alpha) ** p  # +inf where it overflows
        for j in range(0, t, rows):
            block = loc[:, j : j + rows]
            d = scratch[: block.size].reshape(block.shape)
            _minkowski_costs(xs[:, j : j + rows, None], ys[:, None], q, p, block, d)
            if len(labelled):
                np.add(block, penalty, out=labelled[:, j : j + rows])
    if len(labelled):
        diagonal = np.arange(t)
        labelled[:, diagonal, diagonal] = loc[:, diagonal, diagonal]
    # The last half is entrywise no smaller than the first, so it holds any
    # overflow; alpha**p is checked too, as at t = 1 no cost holds it.  Every
    # input is finite and nonnegative, so a non-finite cost is overflow.
    if not math.isfinite(max(out[-n:].max(), penalty)):
        raise InvalidCost(
            f"cost b(a, b)**p + alpha**p overflows the float64 range "
            f"(p={params.p:g}, alpha={params.alpha:g})"
        )
    return out


def _require_same_shape(a, b, names: tuple[str, str]) -> None:
    """Raise DimensionMismatch unless ``a`` and ``b`` share t and n_x.

    ``a`` and ``b`` are states or trajectories; ``names`` spell them in the message.
    """
    for what, x, y in (
        ("target counts", a.num_targets, b.num_targets),
        ("state dimensions", a.state_dim, b.state_dim),
    ):
        if x != y:
            raise DimensionMismatch(f"{what} differ: {names[0]} has {x}, {names[1]} has {y}")


def _pair_costs(A: MultiTargetState, B: MultiTargetState, params: LospaParams) -> np.ndarray:
    """The unlabelled costs of one pair, then its labelled costs if alpha > 0: (1 or 2, t, t)."""
    _require_same_shape(A, B, ("first", "second"))
    t, halves = A.num_targets, 2 if params.alpha > 0.0 else 1
    return cost_stack(A.points[None], B.points[None], params, np.empty((halves, t, t)))


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
    return CostMatrix(_pair_costs(A, B, params)[-1])
