"""Property tests of the candidate-lattice format against per-candidate copies.

``discretize_box`` must give, as one (k, dim) array, exactly the points the
list-returning version gave. The batched margin-descent adversaries must pick
exactly the candidate that the per-candidate loops in ``oracles`` pick.

The loops score one successor state at a time; the batched adversaries score
all successors in one margin call. For the table margins below, each value
depends only on its own row, so the two agree bit for bit, and the property
covers every NaN, +-inf and exact-tie rule. A halfspace margin's dot product
can round differently on a batch than on one state (a matrix-vector product
against a dot product). Candidates whose margins are equal only in exact
arithmetic may then break the other way. So the built-in margins run on
inputs that each enter one state coordinate, with normal components that are
0 or at least 0.25 in magnitude: there, candidate margins either tie exactly
or lie many ulps apart.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    seed_discretize_box,
    seed_margin_descent_disturbance,
    seed_margin_descent_policy,
)
from safefilter import (
    Box,
    MarginFunction,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    make_planar_double_integrator,
    margin_descent_disturbance,
    margin_descent_policy,
    margin_halfspace,
    margin_keepout_ball,
    margin_min,
)
from safefilter.reachability import _first_min

PROPERTY = settings(max_examples=150, deadline=None)

MODELS = {
    "double_integrator": make_double_integrator(1.0, 0.1, 0.1),
    "double_integrator_nominal": make_double_integrator(1.0, 0.0, 0.1),
    "dubins_car": make_dubins_car(1.0, 1.0, 0.2, 0.1),
    "inverted_pendulum": make_inverted_pendulum(2.0, 0.1, 0.05),
    "linear_scalar": make_linear_model(
        np.array([[1.0]]), np.array([[1.0]]), Box([-1.0], [1.0]), Box([-0.1], [0.1])
    ),
    "linear_coupled": make_linear_model(
        np.array([[1.0, 0.1], [0.05, 0.97]]), np.array([[0.5, 0.2], [0.1, -0.3]]),
        Box([-1.0, -0.5], [1.0, 0.5]), Box([-0.1, -0.2], [0.1, 0.2]),
    ),
    "planar_double_integrator": make_planar_double_integrator(1.0, 0.1),
}
# every control and disturbance coordinate enters exactly one state coordinate
SINGLE_ENTRY = [
    "double_integrator", "double_integrator_nominal", "dubins_car",
    "inverted_pendulum", "linear_scalar",
]
SPECIAL = [math.nan, math.inf, -math.inf, -1.0, 0.0, 0.0, 2.5]

finite = st.floats(-10.0, 10.0)


# hypothesis favours short floats such as 0.5 or 3.0; a third of one rounds
off = st.floats(-1e6, 1e6).map(lambda v: v / 3.0)


@st.composite
def boxes(draw):
    dim = draw(st.integers(0, 3))
    lower = st.one_of(st.floats(-1e6, 1e6), off)
    width = st.one_of(st.floats(0.0, 1e6), off.map(abs))
    lo = np.array(draw(st.lists(lower, min_size=dim, max_size=dim)))
    widths = np.array(draw(st.lists(width, min_size=dim, max_size=dim)))
    counts = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    return Box(lo, lo + widths), counts


@given(boxes())
@PROPERTY
def test_discretize_box_matches_list_lattice(box_counts):
    box, counts = box_counts
    got = discretize_box(box, counts)
    want = np.stack(seed_discretize_box(box, counts))
    assert got.dtype == np.float64
    assert got.shape == (math.prod(counts), box.dim)
    assert got.tobytes() == want.tobytes()


def test_discretize_box_edge_cases():
    assert discretize_box(Box([], []), []).shape == (1, 0)
    assert discretize_box(Box([-1.0, 0.0], [3.0, 2.0]), [1, 1]).tolist() == [[1.0, 1.0]]
    with pytest.raises(ValueError, match="counts length"):
        discretize_box(Box([], []), [2])
    with pytest.raises(ValueError, match="at least 1"):
        discretize_box(Box([0.0], [1.0]), [0])


def table_margin(table, coordinate, scale):
    """A margin that looks up ``table`` by a bucket of one coordinate; each
    value depends on its own row only."""
    table = np.asarray(table, dtype=np.float64)

    def fn(x):
        bucket = np.mod(np.floor(x[..., coordinate] * scale), table.size)
        return table[bucket.astype(np.intp)]

    return MarginFunction(fn, name="table")


@st.composite
def table_margins(draw, state_dim):
    table = draw(st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=6))
    coordinate = draw(st.integers(0, state_dim - 1))
    return table_margin(table, coordinate, draw(st.sampled_from([1.0, 10.0, 40.0, 100.0])))


@st.composite
def builtin_margins(draw, state_dim):
    components = st.sampled_from([-2.0, -1.0, -0.25, 0.0, 0.5, 1.0])
    normal = draw(st.lists(components, min_size=state_dim, max_size=state_dim)
                  .filter(lambda n: any(n)))
    halfspace = margin_halfspace(normal, draw(st.floats(-5.0, 5.0)))
    center = draw(st.lists(st.floats(-5.0, 5.0), min_size=state_dim, max_size=state_dim))
    ball = margin_keepout_ball(center, draw(st.floats(0.1, 5.0)))
    return draw(st.sampled_from([halfspace, ball, margin_min([halfspace, ball])]))


@st.composite
def cases(draw, names, margins, disturbance=False):
    """A model, a margin, a control (or, with ``disturbance``, a disturbance)
    lattice, a state and a control."""
    if disturbance:
        names = [n for n in names if MODELS[n].disturbance_dim]
    model = MODELS[draw(st.sampled_from(names))]
    x = np.array(draw(st.lists(finite, min_size=model.state_dim, max_size=model.state_dim)))
    box = model.disturbance_set if disturbance else model.control_set
    counts = draw(st.lists(st.integers(1, 7), min_size=box.dim, max_size=box.dim))
    u = model.control_set.lower + np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=model.control_dim,
                      max_size=model.control_dim))
    ) * (model.control_set.upper - model.control_set.lower)
    return model, draw(margins(model.state_dim)), discretize_box(box, counts), x, u


def _policies_agree(case):
    model, margin, lattice, x, _ = case
    got = margin_descent_policy(model, margin, lattice)(x, None)
    want = seed_margin_descent_policy(model, margin, list(lattice))(x, None)
    assert got.tobytes() == want.tobytes()


def _disturbances_agree(case):
    model, margin, lattice, x, u = case
    got = margin_descent_disturbance(model, margin, lattice)(x, u, None)
    want = seed_margin_descent_disturbance(model, margin, list(lattice))(x, u, None)
    assert got.tobytes() == want.tobytes()


@given(cases(list(MODELS), table_margins))
@PROPERTY
def test_policy_matches_loop_on_special_margins(case):
    _policies_agree(case)


@given(cases(list(MODELS), table_margins, disturbance=True))
@PROPERTY
def test_disturbance_matches_loop_on_special_margins(case):
    _disturbances_agree(case)


@given(cases(SINGLE_ENTRY, builtin_margins))
@PROPERTY
def test_policy_matches_loop_on_builtin_margins(case):
    _policies_agree(case)


@given(cases(SINGLE_ENTRY, builtin_margins, disturbance=True))
@PROPERTY
def test_disturbance_matches_loop_on_builtin_margins(case):
    _disturbances_agree(case)


@pytest.mark.parametrize(
    "table, want",
    [
        ([math.nan] * 5, 0),  # all NaN: the first candidate
        ([math.inf] * 5, 0),  # nothing below +inf: the first candidate
        ([math.nan, math.inf, math.nan, math.inf, math.nan], 0),
        ([math.nan, 3.0, 1.0, 1.0, math.nan], 2),  # NaN never wins; ties go low
        ([0.0, -math.inf, 5.0, -math.inf, math.nan], 1),
    ],
)
def test_tie_and_nan_rules(table, want):
    # the double integrator's candidate velocities land in consecutive buckets
    model = MODELS["double_integrator_nominal"]
    u_lattice = discretize_box(model.control_set, [5])
    margin = table_margin(table, 1, 20.0)
    x = np.array([0.0, 0.125])  # next velocities 0.025 + 0.05 * i: bucket i
    got = margin_descent_policy(model, margin, u_lattice)(x, None)
    assert got.tobytes() == u_lattice[want].tobytes()
    assert got.tobytes() == seed_margin_descent_policy(model, margin, u_lattice)(x, None).tobytes()


@pytest.mark.parametrize(
    "values, want",
    [
        ([math.nan] * 5, 0),
        ([math.inf] * 3, 0),
        ([math.nan, math.inf, math.nan], 0),
        ([math.nan, 3.0, 1.0, 1.0, math.nan], 2),
        ([0.0, -math.inf, 5.0, -math.inf, math.nan], 1),
        ([math.inf, math.nan, 7.0], 2),
        ([-math.inf], 0),
        ([0.0, -0.0, -1e-300], 2),
        ([-0.0, 0.0], 0),  # -0.0 == 0.0: a tie, the lowest index
        ([0.0, -0.0], 0),
    ],
)
def test_first_min_rules(values, want):
    assert _first_min(np.array(values)) == want


@given(st.lists(st.sampled_from(SPECIAL + [-0.0, 1e-300, -2.5]) | finite, min_size=1, max_size=20))
@PROPERTY
def test_first_min_matches_numpy_argmin(values):
    # the numpy form of the rules: fmin turns NaN into +inf, argmin takes the first least
    assert _first_min(np.array(values)) == int(np.argmin(np.fmin(values, np.inf)))
