import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safefilter.intervals import (
    Box,
    amin,
    cos_interval,
    first_min,
    float_rows,
    linear_image,
    maximum,
    minimum,
    sin_interval,
    support,
)


def corners_of(box):
    """All 2^dim corner points of a box."""
    return [np.array(c) for c in product(*zip(box.lower, box.upper))]


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0])
    b = Box([0.0, -1.0], [1.0, 1.0])
    assert b.dim == 2
    assert np.allclose(b.center, [0.5, 0.0])


@pytest.mark.parametrize("lower, upper", [
    ([0.0, math.nan], [3.0, 2.0]),
    ([math.nan], [1.0]),
    ([0.0], [math.nan]),
    ([-math.nan, 0.0], [-math.nan, 1.0]),
])
def test_box_rejects_nan_bounds(lower, upper):
    with pytest.raises(ValueError, match="must not be NaN"):
        Box(lower, upper)
    with pytest.raises(ValueError, match="must not be NaN"):
        Box(np.array(lower), np.array(upper))


def test_box_copies_its_bounds():
    lower, upper = np.zeros(2), np.ones(2)
    box = Box(lower, upper)
    lower[0] = 5.0  # the caller's arrays stay writable
    upper[1] = 7.0
    assert box.lower.tolist() == [0.0, 0.0] and box.upper.tolist() == [1.0, 1.0]
    assert float_rows(box) == ((0.0, 0.0), (1.0, 1.0))
    for bound in (box.lower, box.upper):
        with pytest.raises(ValueError, match="read-only"):
            bound[0] = 3.0


def test_box_membership_and_corners():
    b = Box([-1.0, 0.0], [1.0, 2.0])
    assert b.contains([0.0, 1.0])
    assert b.contains([1.0, 2.0])  # boundary included
    assert not b.contains([1.0001, 1.0])
    assert all(b.contains(c) for c in corners_of(b))
    assert not b.contains([np.nan, 1.0])


def test_zero_dimensional_box():
    b = Box([], [])
    assert b.dim == 0
    assert b.contains(np.zeros(0))
    assert np.asarray(b).shape == (2, 0)
    rng = np.random.default_rng(0)
    assert b.sample(rng).shape == (0,)


def test_box_minkowski_and_support():
    a = np.asarray(Box([0.0, 0.0], [1.0, 1.0]))
    d = np.asarray(Box([-0.1, -0.2], [0.1, 0.2]))
    s = a + d  # the Minkowski sum of two boxes adds their bounds
    assert np.allclose(s, [[-0.1, -0.2], [1.1, 1.2]])
    assert support(a, [1.0, -1.0]) == pytest.approx(1.0)
    # on a stack, one support per box; supports add over Minkowski sums
    assert np.allclose(support(np.stack([a, d, s]), [1.0, -1.0]), [1.0, 0.3, 1.3])
    # a stack of directions against a stack of boxes broadcasts
    dirs = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert np.allclose(support(np.stack([a, s])[None], dirs[:, None]), [[1.0, 1.1], [0.0, 0.2]])


def test_box_sampling_within_bounds():
    rng = np.random.default_rng(3)
    b = Box([-2.0, 1.0], [-1.0, 4.0])
    pts = b.sample(rng, 200)
    assert pts.shape == (200, 2)
    assert np.all(pts >= b.lower) and np.all(pts <= b.upper)


def test_trig_enclosures_quarter_turn():
    cl, cu = cos_interval(0.0, math.pi / 2)
    assert cl <= 0.0 <= cu and cu >= 1.0 - 1e-9
    sl, su = sin_interval(0.0, math.pi / 2)
    assert sl <= 0.0 and su >= 1.0 - 1e-9


def test_trig_enclosures_sound_on_samples():
    rng = np.random.default_rng(11)
    for _ in range(300):
        lo = rng.uniform(-10, 10)
        hi = lo + rng.uniform(0, 7)
        cl, cu = cos_interval(lo, hi)
        sl, su = sin_interval(lo, hi)
        ts = rng.uniform(lo, hi, size=50)
        assert np.all(np.cos(ts) >= cl) and np.all(np.cos(ts) <= cu)
        assert np.all(np.sin(ts) >= sl) and np.all(np.sin(ts) <= su)


def test_linear_image_matches_sampling():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(3, 2))
    box = Box([-1.0, 0.5], [2.0, 1.5])
    img = linear_image(M, box)
    pts = box.sample(rng, 500)
    mapped = pts @ M.T
    assert np.all(mapped >= img[0] - 1e-12)
    assert np.all(mapped <= img[1] + 1e-12)
    corners = np.array([M @ c for c in corners_of(box)])
    assert np.allclose(corners.min(axis=0), img[0])
    assert np.allclose(corners.max(axis=0), img[1])


@pytest.mark.parametrize(
    "bounds",
    [np.zeros(2), (0.0, 1.0), np.zeros((3, 1)), [[0.0], [0.5], [1.0]], np.zeros((2, 1, 1)),
     np.float64(1.0)],
    ids=["flat_array", "flat_tuple", "three_rows", "three_row_lists", "3d", "scalar"],
)
def test_float_rows_rejects_bounds_that_are_not_two_rows(bounds):
    with pytest.raises(ValueError, match=r"bounds must be \(2, n\)"):
        float_rows(bounds)


# --- numpy's float reductions on Python floats -------------------------------

PROPERTY = settings(max_examples=300, deadline=None)
nan, inf = math.nan, math.inf
# NaN, +-inf and signed zeros often, any other float too
floats = st.sampled_from([nan, inf, -inf, 0.0, -0.0, 1e-300, -2.5, 1.0]) | st.floats()


def assert_same_float(got, want):
    """Equal bytes, or both NaN."""
    assert type(got) is float
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# (decrease, h) pairs as the CBF monitor passes them: the monitor value is
# min(h, decrease), NaN when either is
@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(2.0, 1.0)
@example(1.0, 2.0)
@example(1.5, 1.5)
@example(inf, -1.0)
@example(-inf, inf)
@example(1.0, nan)
@example(nan, nan)
@example(nan, 1.0)
@given(floats, floats)
@PROPERTY
def test_minimum_matches_np_minimum(a, b):
    assert_same_float(minimum(a, b), float(np.minimum(a, b)))


@example(-0.0, 0.0)
@example(0.0, -0.0)
@example(nan, 1.0)
@example(1.0, nan)
@given(floats, floats)
@PROPERTY
def test_maximum_matches_np_maximum(a, b):
    assert_same_float(maximum(a, b), float(np.maximum(a, b)))


# a lattice row's worst value: NaN if any value is, a 0.0 / -0.0 tie as numpy
# breaks it; rows of up to 8 values, as numpy's scalar loop takes them
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([1.0, nan, -inf])
@example([-inf, 1.0, nan])
@given(st.lists(floats, min_size=1, max_size=8))
@PROPERTY
def test_amin_matches_ndarray_min(values):
    assert_same_float(amin(values), float(np.array(values).min()))


# the index rules: ties go to the lowest index, a NaN never wins, and 0 when
# no value is below +inf
@example([nan] * 5)
@example([inf] * 3)
@example([nan, inf, nan])
@example([nan, 3.0, 1.0, 1.0, nan])
@example([0.0, -inf, 5.0, -inf, nan])
@example([inf, nan, 7.0])
@example([-inf])
@example([0.0, -0.0, -1e-300])
@example([-0.0, 0.0])
@example([0.0, -0.0])
@given(st.lists(floats, min_size=1, max_size=20))
@PROPERTY
def test_first_min_matches_numpy_argmin_of_fmin(values):
    assert first_min(values) == int(np.argmin(np.fmin(values, np.inf)))
