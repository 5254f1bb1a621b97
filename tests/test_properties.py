"""Randomized invariants: metric axioms, backend agreement, equivalences."""

import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.spatial.distance import cdist

from lospa import (
    BaseMetric,
    EvalReport,
    InvalidCost,
    LabelledSet,
    LabelledTarget,
    LospaError,
    LospaParams,
    SolverBackend,
    from_vector,
    load_trajectory,
    lospa,
    lospa_sets,
    ospa_no_cutoff,
)
from lospa.constants import ABS_TOL_TRIANGLE, REL_TOL_BACKENDS, REL_TOL_EXACT
from lospa import core
from lospa.core import cost_stack

from helpers import enum_lospa, mts

coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
p_values = st.sampled_from([1.0, 1.5, 2.0, 3.0])
alpha_values = st.sampled_from([0.0, 0.1, 1.0, 10.0])
metrics = st.sampled_from([BaseMetric.euclidean(), BaseMetric.pnorm(1.0), BaseMetric.pnorm(3.0)])


@st.composite
def state_lists(draw, n_states, max_t=5, max_nx=3):
    t = draw(st.integers(1, max_t))
    nx = draw(st.integers(1, max_nx))
    point = st.lists(coord, min_size=nx, max_size=nx)
    state = st.lists(point, min_size=t, max_size=t)
    return [draw(state) for _ in range(n_states)]


@st.composite
def params_st(draw):
    return LospaParams(
        p=draw(p_values), alpha=draw(alpha_values), base_metric=draw(metrics)
    )


@given(state_lists(1), params_st())
def test_identity(states, params):
    (A,) = states
    assert lospa(mts(A), mts(A), params).distance == 0.0


@given(state_lists(2), params_st())
def test_symmetry(states, params):
    A, B = (mts(s) for s in states)
    d_ab = lospa(A, B, params).distance
    d_ba = lospa(B, A, params).distance
    assert abs(d_ab - d_ba) <= REL_TOL_EXACT * (1.0 + d_ab)


@given(state_lists(3), params_st())
def test_triangle_inequality(states, params):
    X, Y, Z = (mts(s) for s in states)
    d_xy = lospa(X, Y, params).distance
    d_xz = lospa(X, Z, params).distance
    d_zy = lospa(Z, Y, params).distance
    assert d_xy <= d_xz + d_zy + ABS_TOL_TRIANGLE


@given(state_lists(2), params_st())
def test_backends_agree(states, params):
    A, B = (mts(s) for s in states)
    brute = lospa(A, B, params, backend=SolverBackend.BRUTE_FORCE)
    opt = lospa(A, B, params, backend=SolverBackend.OPTIMAL)
    assert abs(brute.distance - opt.distance) <= REL_TOL_BACKENDS * (1.0 + brute.distance)


@given(state_lists(2), p_values)
def test_alpha_monotonicity(states, p):
    A, B = (mts(s) for s in states)
    grid = [0.0, 0.5, 1.0, 2.0]
    values = [lospa(A, B, LospaParams(p=p, alpha=a)).distance for a in grid]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo - REL_TOL_EXACT * (1.0 + hi)


@given(state_lists(2), p_values)
def test_ospa_is_alpha_zero(states, p):
    A, B = (mts(s) for s in states)
    assert ospa_no_cutoff(A, B, p) == lospa(A, B, LospaParams(p=p, alpha=0.0)).distance


@settings(deadline=None)
@given(state_lists(2, max_t=4), p_values, alpha_values)
def test_matches_pure_python_enumeration(states, p, alpha):
    A, B = states
    expected = enum_lospa(A, B, p, alpha)
    got = lospa(mts(A), mts(B), LospaParams(p=p, alpha=alpha)).distance
    assert abs(got - expected) <= 1e-10 * (1.0 + expected)


@st.composite
def labelled_pairs(draw, max_t=4):
    t = draw(st.integers(1, max_t))
    nx = draw(st.integers(1, 2))
    point = st.lists(coord, min_size=nx, max_size=nx)
    state = st.lists(point, min_size=t, max_size=t)
    labels = draw(st.lists(st.integers(-1000, 1000), min_size=t, max_size=t, unique=True))
    shuffle_a = draw(st.permutations(range(t)))
    shuffle_b = draw(st.permutations(range(t)))
    offset = draw(st.integers(1, 10_000))
    return draw(state), draw(state), labels, shuffle_a, shuffle_b, offset


@given(labelled_pairs(), params_st())
def test_set_and_vector_domains_agree(data, params):
    points_a, points_b, labels, shuffle_a, shuffle_b, offset = data
    A = from_vector(mts(points_a), labels)
    B = from_vector(mts(points_b), labels)
    d_vec = lospa(mts(points_a), mts(points_b), params).distance

    # Shuffle internal storage of both sets independently.
    A = LabelledSet(tuple(A.elements[i] for i in shuffle_a))
    B = LabelledSet(tuple(B.elements[i] for i in shuffle_b))
    assert abs(lospa_sets(A, B, params) - d_vec) <= REL_TOL_EXACT * (1.0 + d_vec)

    # Injective relabelling applied to both sides changes nothing.
    A2 = LabelledSet(
        tuple(LabelledTarget(el.state, 3 * el.label + offset * 7000) for el in A)
    )
    B2 = LabelledSet(
        tuple(LabelledTarget(el.state, 3 * el.label + offset * 7000) for el in B)
    )
    assert abs(lospa_sets(A2, B2, params) - d_vec) <= REL_TOL_EXACT * (1.0 + d_vec)


@st.composite
def state_stacks(draw):
    """Two (n, t, n_x) stacks with coordinates of magnitude 1e-150 to 1e150.

    From t = 257 on, the default block of the numpy build no longer holds
    a whole matrix, so each matrix is built in blocks of rows.
    """
    n = draw(st.integers(1, 3))
    t = draw(st.sampled_from([1, 2, 5, 16, 17, 100, 257]))
    nx = draw(st.integers(1, 16))
    low = draw(st.integers(-150, 148))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stack():
        sign = rng.choice([-1.0, 1.0], size=(n, t, nx))
        return sign * 10.0 ** rng.uniform(low, low + 2, size=(n, t, nx))

    return stack(), stack()


@settings(deadline=None)
@given(
    state_stacks(),
    # pnorm:1.5 and pnorm:3 reach the build's float_power q-th powers and
    # roots, and at pnorm:3 a difference above about 5.6e102 overflows.
    st.sampled_from([
        BaseMetric.euclidean(), BaseMetric.pnorm(1.0), BaseMetric.pnorm(2.0),
        BaseMetric.pnorm(1.5), BaseMetric.pnorm(3.0),
    ]),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    # Smaller blocks split small matrices into rows too, and stacks into groups
    # of matrices with a shorter last group (60 entries hold two 5 x 5 matrices).
    st.sampled_from([None, 1, 7, 60, 300]),
)
# |2e120|**3 overflows: the build raises where the reference is infinite.
@example((np.full((1, 1, 1), 1e120), np.full((1, 1, 1), -1e120)), BaseMetric.pnorm(3.0),
         1.0, 0.0, None)
def test_cost_build_matches_cdist_bit_for_bit(stacks, metric, p, alpha, block):
    """Both halves: cdist's b**p, and the same plus alpha**p off the diagonal.

    Where a reference cost overflows, the build raises InvalidCost instead.
    """
    xs, ys = stacks
    params = LospaParams(p=p, alpha=alpha, base_metric=metric)
    n, t, _ = xs.shape
    with np.errstate(over="ignore"):
        ref = np.array([cdist(x, y, "minkowski", p=metric.q) for x, y in zip(xs, ys)]) ** p
    labelled = np.where(np.eye(t, dtype=bool), ref, ref + alpha**p)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(core, "_BUILD_BLOCK_ENTRIES", block)
        if not np.isfinite(labelled).all():
            with pytest.raises(InvalidCost, match="overflows the float64 range"):
                cost_stack(xs, ys, params, np.empty((2 * n, t, t)))
            return
        out = cost_stack(xs, ys, params, np.empty((2 * n, t, t)))
    assert np.array_equal(out[:n].view(np.int64), ref.view(np.int64))
    assert np.array_equal(out[n:].view(np.int64), labelled.view(np.int64))


@st.composite
def report_columns(draw):
    """k, lospa, ospa and perms columns of a report of 1-20 steps.

    Time indices are strictly increasing and span int64, and distances run
    from 0 through subnormals to 1e308.
    """
    t = draw(st.sampled_from([1, 2, 5, 17]))
    T = draw(st.integers(1, 20))
    ks = sorted(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=T, max_size=T,
                              unique=True)))
    distances = st.lists(st.floats(min_value=0.0, max_value=1e308), min_size=T, max_size=T)
    perms = [list(draw(st.permutations(range(t)))) for _ in range(T)]
    return ks, draw(distances), draw(distances), perms


@given(report_columns())
def test_report_json_round_trips_every_column(columns):
    ks, lospa_col, ospa_col, perms = columns
    report = EvalReport(k=ks, lospa=lospa_col, ospa=ospa_col, perms=perms,
                        params_echo=LospaParams(), backend=SolverBackend.OPTIMAL)
    doc = json.loads(report.to_json())
    steps = doc["per_step"]
    assert [step["k"] for step in steps] == ks
    assert [step["optimal_perm"] for step in steps] == perms
    # An integral distance such as 0.0 is written "0", which json reads as an int.
    got = np.array([[step["lospa"] for step in steps], [step["ospa"] for step in steps]],
                   dtype=float)
    assert got.tobytes() == np.array([lospa_col, ospa_col]).tobytes()
    assert doc["aggregates"]["mean_lospa"] == report.mean_lospa
    assert doc["aggregates"]["mean_ospa"] == report.mean_ospa


# Pieces of CSV and JSON text, and bytes that are not UTF-8, for the loader.
_FRAGMENTS = [
    piece.encode() if isinstance(piece, str) else piece
    for piece in [
        "0", "1", "9", "-2", "1.5", "1e5", "nan", ",", '"', "#", " ", "\n", "\r\n", "\r",
        "# t=1 nx=1", "# t=2 nx=1", "k", "x_1_1", "x_2_1", "[", "]", "{", "}", ":",
        '"t"', '"nx"', '"steps"', '"k"', '"targets"', "true", "null",
        '{"t":1,"nx":1,"steps":[{"k":0,"targets":', "[[1.0]]}]}",
        "\ufeff", "\x00", "\x1c", "\u00e9", "\u0663", "\u00a0", b"\xff", b"\xc3",
        "[" * 500, "9" * 65537,  # two nest 1,000 deep, or make a 131,074-character cell
    ]
]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40), st.sampled_from(["csv", "json"]))
def test_loader_raises_only_input_errors(tmp_path_factory, pieces, fmt):
    """Any file either loads or raises an error that the CLI turns into exit 2."""
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    # Writing a new file is far cheaper than rewriting one on some filesystems.
    path.unlink(missing_ok=True)
    path.write_bytes(b"".join(pieces))
    try:
        load_trajectory(path, fmt)
    except (LospaError, ValueError, OSError):
        pass
