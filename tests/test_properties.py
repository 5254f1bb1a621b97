"""Randomized invariants: metric axioms, backend agreement, equivalences."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings
from scipy.spatial.distance import cdist

from lospa import (
    BaseMetric,
    LabelledSet,
    LabelledTarget,
    LospaParams,
    SolverBackend,
    from_vector,
    lospa,
    lospa_sets,
    ospa_no_cutoff,
)
from lospa.constants import ABS_TOL_TRIANGLE, REL_TOL_BACKENDS, REL_TOL_EXACT
from lospa.core import localization_costs

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

    t = 16 and t = 17 sit on both sides of the size up to which the costs
    are built in numpy rather than by cdist.
    """
    n = draw(st.integers(1, 3))
    t = draw(st.sampled_from([1, 2, 5, 16, 17]))
    nx = draw(st.integers(1, 16))
    low = draw(st.integers(-150, 148))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def stack():
        sign = rng.choice([-1.0, 1.0], size=(n, t, nx))
        return sign * 10.0 ** rng.uniform(low, low + 2, size=(n, t, nx))

    return stack(), stack()


@given(
    state_stacks(),
    st.sampled_from([BaseMetric.euclidean(), BaseMetric.pnorm(1.0), BaseMetric.pnorm(2.0)]),
    st.sampled_from([1.0, 1.5, 2.0]),
)
def test_cost_build_matches_cdist_bit_for_bit(stacks, metric, p):
    xs, ys = stacks
    params = LospaParams(p=p, alpha=1.0, base_metric=metric)
    n, t, _ = xs.shape
    out = localization_costs(xs, ys, params, np.empty((n, t, t)))
    ref = np.array([cdist(x, y, "minkowski", p=metric.q) for x, y in zip(xs, ys)]) ** p
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
