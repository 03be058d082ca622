"""The value-grid terminal check against the seed ``grid_box_min`` in oracles.py.

``grid_box_min`` reads the node points strictly inside a box from the grid and
interpolates only the points on its faces; it must equal the seed's minimum
over the whole face-and-node mesh (``==``, with NaN matching NaN). The terminal
set's ``box_containment`` settles most boxes from node values alone and, in
any grid dimension, interpolates only the face points in a cell with a corner
node that is not >= 0; it must equal ``seed >= 0.0`` on every box, and
``grid_box_min(grid, X) >= 0.0`` on the boxes of the property tests.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SeedBox, seed_grid_box_min
from safefilter import (
    Box,
    ValueGrid,
    grid_box_min,
    make_double_integrator,
    margin_halfspace,
    solve,
    value_grid_terminal_set,
)
from safefilter import reachability
from safefilter.reachability import _EXACT_BOX_MIN_CAP

# grids with +inf and -inf in one cell interpolate to NaN there, on both sides
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")


@pytest.fixture(scope="module")
def wall_grid():
    model = make_double_integrator(1.0, 0.1, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    return grid


def _boxes(grid, rng, n):
    """Boxes of the grid's dimension, shape (n, 2, dim): random ones, faces
    snapped onto nodes (the first and last node included), zero-width
    dimensions, points, boxes covering most of the domain and boxes that
    leave the domain."""
    lo_d, hi_d = grid.domain.lower, grid.domain.upper
    span = hi_d - lo_d
    dim = lo_d.size
    a = rng.uniform(lo_d, hi_d, size=(n, dim))
    b = a + rng.uniform(0.0, 1.0, size=(n, dim)) ** 3 * span
    b = np.minimum(b, hi_d)
    k = n // 8
    # faces on nodes, with index 0 and n - 1 forced into some boxes
    for j, c in enumerate(grid.axes):
        i = np.sort(rng.integers(0, c.size, size=(2, 2 * k)), axis=0)
        i[0, : k // 4] = 0
        i[1, k // 4 : k // 2] = c.size - 1
        a[k : 3 * k, j], b[k : 3 * k, j] = c[i[0]], c[i[1]]
    # one snapped face and one random face
    a[3 * k : 4 * k, 0] = grid.axes[0][rng.integers(0, grid.shape[0], size=k)]
    b[3 * k : 4 * k, 0] = np.maximum(a[3 * k : 4 * k, 0], b[3 * k : 4 * k, 0])
    # zero-width dimensions (on a node or not) and points
    flat = rng.random((k, dim)) < 0.5
    b[4 * k : 5 * k] = np.where(flat, a[4 * k : 5 * k], b[4 * k : 5 * k])
    b[5 * k : 6 * k] = a[5 * k : 6 * k]
    # most of the domain
    a[6 * k : 7 * k] = lo_d + rng.uniform(0.0, 0.02, size=(k, dim)) * span
    b[6 * k : 7 * k] = hi_d - rng.uniform(0.0, 0.02, size=(k, dim)) * span
    # leaving the domain on one side or both
    out = rng.uniform(0.0, 0.1, size=(k, dim)) * span
    side = rng.integers(0, 3, size=(k, dim))
    a[7 * k : 8 * k] -= np.where(side != 1, out, 0.0)
    b[7 * k : 8 * k] += np.where(side != 0, out, 0.0)
    return np.stack([a, b], axis=1)


def _same(x, y):
    return x == y or (np.isnan(x) and np.isnan(y))


def _check(grid, boxes):
    terminal = value_grid_terminal_set(grid)
    outcomes = set()
    for B in boxes:
        seed = seed_grid_box_min(grid, SeedBox(B[0], B[1]))
        got = grid_box_min(grid, B)
        assert _same(got, seed), (B, got, seed)
        assert terminal.box_containment(B) == (seed >= 0.0), (B, seed)
        outcomes.add(seed >= 0.0)
    return outcomes


def test_solved_wall_grid_matches_seed(wall_grid):
    boxes = _boxes(wall_grid, np.random.default_rng(11), 5000)
    assert _check(wall_grid, boxes) == {False, True}
    # the same node values with a nonnegative sentinel: boxes leaving the
    # domain are then contained
    grid = ValueGrid(wall_grid.domain, wall_grid.shape, wall_grid.values, 0.25)
    assert _check(grid, boxes[-700:]) == {False, True}


def _special_values(rng, size, negative=0.05):
    """Mostly nonnegative values with -0.0, 0.0, NaN, +-inf and a few negatives."""
    v = rng.uniform(0.0, 1.0, size)
    pick = rng.random(size)
    v[pick < negative] = -rng.uniform(0.0, 1.0, int((pick < negative).sum()))
    v[(pick >= 0.05) & (pick < 0.08)] = -0.0
    v[(pick >= 0.08) & (pick < 0.10)] = 0.0
    v[(pick >= 0.10) & (pick < 0.11)] = np.inf
    v[(pick >= 0.11) & (pick < 0.115)] = -np.inf
    v[(pick >= 0.115) & (pick < 0.12)] = np.nan
    return v


@pytest.mark.parametrize(
    "seed, shape, sentinel",
    [
        (1, (61, 61), -np.inf),
        (2, (61, 61), 0.0),
        (3, (61, 61), -0.0),
        (4, (61, 61), np.nan),
        (5, (40,), 1.0),
        (6, (40,), -0.5),
        (7, (9, 7, 8), -np.inf),
        (8, (9, 7, 8), 0.5),
    ],
)
def test_special_value_grids_match_seed(seed, shape, sentinel):
    rng = np.random.default_rng(seed)
    dim = len(shape)
    domain = Box(-1.0 - np.arange(dim), 2.0 + 0.5 * np.arange(dim))
    grid = ValueGrid(domain, shape, _special_values(rng, int(np.prod(shape))), sentinel)
    outcomes = _check(grid, _boxes(grid, rng, 800))
    assert True in outcomes and False in outcomes


def test_nonnegative_grid_with_zeros_and_inf_is_contained_everywhere():
    rng = np.random.default_rng(5)
    values = rng.choice([0.0, -0.0, 1.0, np.inf], size=21 * 21)
    grid = ValueGrid(Box([0.0, 0.0], [1.0, 1.0]), (21, 21), values)
    boxes = _boxes(grid, rng, 400)
    inside = np.all((boxes[:, 0] >= 0.0) & (boxes[:, 1] <= 1.0), axis=1)
    assert inside.any() and not inside.all()
    terminal = value_grid_terminal_set(grid)
    for B, ok in zip(boxes, inside):
        assert terminal.box_containment(B) == ok
    _check(grid, boxes)


def test_boxes_above_the_exact_cap_match_seed():
    # 300 x 300 nodes: a box spanning most of the domain has more than
    # _EXACT_BOX_MIN_CAP mesh points and takes the covering-cell node bound
    rng = np.random.default_rng(3)
    shape = (300, 300)
    grid = ValueGrid(Box([0.0, 0.0], [1.0, 1.0]), shape,
                     _special_values(rng, 90_000, negative=0.0002))
    boxes = np.array([
        [[0.0, 0.0], [1.0, 1.0]],
        [[0.001, 0.002], [0.999, 0.995]],
        [[0.1, 0.0], [0.95, 1.0]],
        [[0.0, 0.5], [1.0, 0.5]],  # zero-width in one dimension: exact path
    ])
    counts = [np.prod([((c > lo) & (c < hi)).sum() + (2 if hi > lo else 1)
                       for c, lo, hi in zip(grid.axes, B[0], B[1])]) for B in boxes]
    assert max(counts) > _EXACT_BOX_MIN_CAP > min(counts)
    _check(grid, boxes)
    clean = ValueGrid(grid.domain, shape, np.abs(np.nan_to_num(grid.values)))
    assert _check(clean, boxes) == {True}


def _nodes_within(grid, B):
    """Node values of the grid inside the box B."""
    idx = np.ix_(*[np.flatnonzero((c >= lo) & (c <= hi)) for c, lo, hi in zip(grid.axes, *B)])
    return grid.values.reshape(grid.shape)[idx]


def test_node_settled_boxes_make_no_values_at_call(wall_grid, monkeypatch):
    points, box_min_calls = [], []
    values_at = ValueGrid.values_at
    monkeypatch.setattr(
        ValueGrid, "values_at", lambda self, pts: points.append(len(pts)) or values_at(self, pts)
    )
    grid_box_min = reachability.grid_box_min
    monkeypatch.setattr(
        reachability, "grid_box_min",
        lambda grid, X: box_min_calls.append(1) or grid_box_min(grid, X),
    )
    terminal = value_grid_terminal_set(wall_grid)
    safe = np.array([[2.0, -0.3], [2.5, 0.3]])  # every covering node is >= 0
    unsafe = np.array([[0.0, -2.0], [1.0, -1.0]])  # fast toward the wall
    outside = np.array([[-0.1, 0.0], [0.5, 0.5]])
    block = wall_grid.values.reshape(wall_grid.shape)
    step = 0.1  # the node spacing is 0.05 and 1/15
    assert (_nodes_within(wall_grid, safe + [[-step], [step]]) >= 0.0).all()
    assert (_nodes_within(wall_grid, unsafe + [[1e-9], [-1e-9]]) < 0.0).any()
    assert terminal.box_containment(safe)
    assert not terminal.box_containment(unsafe)
    assert not terminal.box_containment(outside)
    assert points == [] and box_min_calls == []

    # a box whose inner nodes are >= 0 but whose covering cells hold a
    # negative node is decided without grid_box_min: of its face points, only
    # those in a cell with a corner node that is not >= 0 are interpolated
    c0, c1 = wall_grid.axes
    neg = np.argwhere(block < 0.0)
    i, j = next((i, j) for i, j in neg
                if 0 < i < 59 and 0 < j < 59 and (block[i + 1, j - 1 : j + 2] >= 0.0).all()
                and (block[i + 2, j - 1 : j + 2] >= 0.0).all())
    edge = np.array([[0.5 * (c0[i] + c0[i + 1]), c1[j - 1]], [c0[i + 2], c1[j + 1]]])
    expected = seed_grid_box_min(wall_grid, SeedBox(*edge)) >= 0.0
    # mesh: 2 + 1 inner nodes by 2 + 1 inner nodes, of which 8 are face points
    near_negative, face_points = _face_points_in_negative_cells(wall_grid, edge)
    assert face_points == 3 * 3 - 1 and 0 < near_negative < face_points
    points.clear()
    assert terminal.box_containment(edge) == expected
    assert box_min_calls == []
    assert points == [near_negative]

    # the same on a 3-D grid: nodes 0, 0.2, ..., 1 per axis, all 1 but a
    # negative one outside the box in a covering cell
    values = np.ones((6, 6, 6))
    values[1, 2, 2] = -3.0
    cube = ValueGrid(Box([0.0] * 3, [1.0] * 3), (6, 6, 6), values)
    box = np.array([[0.3] * 3, [0.7] * 3])
    assert (_nodes_within(cube, box) >= 0.0).all()
    # mesh: 2 faces + 2 inner nodes per axis, so 4 ** 3 - 2 ** 3 face points
    expected = seed_grid_box_min(cube, SeedBox(*box)) >= 0.0
    near_negative, face_points = _face_points_in_negative_cells(cube, box)
    assert face_points == 56 and 0 < near_negative < face_points
    points.clear()
    assert value_grid_terminal_set(cube).box_containment(box) == expected
    assert box_min_calls == []
    assert points == [near_negative]


def _face_points_in_negative_cells(grid, B):
    """(points of ``grid_box_min``'s face-and-node mesh over the box B that lie
    on a face and in a cell with a corner node that is not >= 0, all its face
    points), with each point's cell found as ``values_at`` finds it."""
    block = grid.values.reshape(grid.shape)
    faces = [[lo] if hi <= lo else [lo, hi] for lo, hi in zip(*B)]
    inner = [list(c[(c > lo) & (c < hi)]) for c, lo, hi in zip(grid.axes, *B)]
    near_negative = face_points = 0
    for p in itertools.product(*(f + n for f, n in zip(faces, inner))):
        if not any(q in f for q, f in zip(p, faces)):
            continue  # a node inside the box, read from the grid
        face_points += 1
        cell = [np.searchsorted(c[1:-1], q, side="right") for c, q in zip(grid.axes, p)]
        near_negative += not (block[tuple(slice(k, k + 2) for k in cell)] >= 0.0).all()
    return near_negative, face_points


# --- the terminal verdict against grid_box_min, as properties ----------------------

PROPERTY = settings(max_examples=300, deadline=None)


@pytest.fixture(scope="module")
def stock_grid():
    """The stock config's 61x61 grid: the wall margin set back by 0.1."""
    model = make_double_integrator(1.0, 0.1, 0.1)
    grid, report = solve(model, margin_halfspace([1.0, 0.0], 0.1),
                         (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3], 1e-6, 1000)
    assert report.converged
    return grid


def _special_grids():
    domain = Box([-1.0, -2.0], [2.0, 2.5])
    grids = [ValueGrid(domain, (61, 61), _special_values(np.random.default_rng(seed), 61 * 61),
                       sentinel)
             for seed, sentinel in ((21, -np.inf), (22, 0.0), (23, np.nan))]
    for seed, shape in ((24, (40,)), (25, (9, 7, 8))):
        dim = len(shape)
        grids.append(ValueGrid(Box(-1.0 - np.arange(dim), 2.0 + 0.5 * np.arange(dim)), shape,
                               _special_values(np.random.default_rng(seed), int(np.prod(shape))),
                               -np.inf))
    return grids


SPECIAL_GRIDS = _special_grids()


@st.composite
def _node_boxes(draw, grid, centres):
    """A box around a node of ``centres``: per axis a half-width (zero for a
    zero-width axis), and each face either where it falls or snapped to the
    nearest node."""
    k = draw(st.sampled_from(centres))
    lower, upper = [], []
    for c, i in zip(grid.axes, np.unravel_index(k, grid.shape)):
        half = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.4)))
        faces = [c[i] - half, c[i] + half] if half else [c[i]] * 2
        for f, snap in enumerate(draw(st.lists(st.booleans(), min_size=2, max_size=2))):
            if snap and half:
                faces[f] = c[np.abs(c - faces[f]).argmin()]
        lower.append(min(faces))
        upper.append(max(faces))
    return np.array([lower, upper])


def _verdicts_agree(grid, X):
    assert value_grid_terminal_set(grid).box_containment(X) == (grid_box_min(grid, X) >= 0.0), X


@PROPERTY
@given(data=st.data())
def test_terminal_verdict_equals_grid_box_min_near_the_zero_level(stock_grid, data):
    centres = np.flatnonzero(np.abs(stock_grid.values) < 0.3)
    _verdicts_agree(stock_grid, data.draw(_node_boxes(stock_grid, centres)))


@PROPERTY
@given(grid=st.sampled_from(SPECIAL_GRIDS), data=st.data())
def test_terminal_verdict_equals_grid_box_min_on_special_value_grids(grid, data):
    centres = np.arange(grid.values.size)
    _verdicts_agree(grid, data.draw(_node_boxes(grid, centres)))
