import math

import numpy as np
import pytest

from safefilter.intervals import Box, cos_interval, linear_image, sin_interval


def test_box_validation():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0])
    b = Box([0.0, -1.0], [1.0, 1.0])
    assert b.dim == 2
    assert np.allclose(b.center, [0.5, 0.0])


def test_box_membership_and_corners():
    b = Box([-1.0, 0.0], [1.0, 2.0])
    assert b.contains([0.0, 1.0])
    assert b.contains([1.0, 2.0])  # boundary included
    assert not b.contains([1.0001, 1.0])
    corners = b.corners()
    assert len(corners) == 4
    assert any(np.array_equal(c, [-1.0, 0.0]) for c in corners)
    assert any(np.array_equal(c, [1.0, 2.0]) for c in corners)


def test_zero_dimensional_box():
    b = Box([], [])
    assert b.dim == 0
    assert b.contains(np.zeros(0))
    corners = b.corners()
    assert len(corners) == 1 and corners[0].shape == (0,)
    rng = np.random.default_rng(0)
    assert b.sample(rng).shape == (0,)


def test_box_set_operations():
    a = Box([0.0], [2.0])
    b = Box([1.0], [3.0])
    assert a.contains_box(Box([0.5], [1.5]))
    assert not a.contains_box(b)


def test_box_minkowski_and_support():
    a = Box([0.0, 0.0], [1.0, 1.0])
    d = Box([-0.1, -0.2], [0.1, 0.2])
    s = a.add(d)
    assert np.allclose(s.lower, [-0.1, -0.2])
    assert np.allclose(s.upper, [1.1, 1.2])
    assert a.support([1.0, -1.0]) == pytest.approx(1.0)


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
    corners = np.array([M @ c for c in box.corners()])
    assert np.allclose(corners.min(axis=0), img[0])
    assert np.allclose(corners.max(axis=0), img[1])
