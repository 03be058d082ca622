"""The interval-step contract of the five built-in models, and an exact
``linear_image``.

Every built-in ``interval_step`` takes the state, control and disturbance
boxes as float rows ``((lower...), (upper...))`` and returns float rows: a
tuple of two tuples of ``state_dim`` Python floats. The returned box contains
``step(x, u, d)`` for every corner of the three input boxes and for points
sampled inside them. Dubins and the pendulum get heading boxes that wrap
around: bounds beyond ±pi and widths near and above 2 pi. The linear model's
matrix products round in another order than ``linear_image``'s sums, so its
successors may lie outside by rounding; they are checked within ``verify``'s
1e-12, the others exactly.

``linear_image`` must be exact on floats: with each vertex image summed as
``linear_image`` sums its terms, every vertex image lies in the returned
bounds, and each face of the bounds equals the image of some vertex.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    Box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    make_planar_double_integrator,
)
from safefilter.intervals import float_rows, linear_image

DT = 0.1
PROPERTY = settings(max_examples=150, deadline=None)
TWO_PI = 2.0 * math.pi

# name: (model, index of the heading coordinate or None, containment tolerance)
MODELS = {
    "double_integrator": (make_double_integrator(1.0, 0.2, DT), None, 0.0),
    "double_integrator_no_d": (make_double_integrator(1.0, 0.0, DT), None, 0.0),
    "dubins": (make_dubins_car(1.0, 1.0, 0.2, DT), 2, 0.0),
    "dubins_no_d": (make_dubins_car(1.0, 1.0, 0.0, DT), 2, 0.0),
    "pendulum": (make_inverted_pendulum(1.5, 0.2, DT), 0, 0.0),
    "pendulum_no_d": (make_inverted_pendulum(1.5, 0.0, DT), 0, 0.0),
    "linear": (
        make_linear_model(
            np.array([[0.9, -0.3], [0.2, 0.7]]),
            np.array([[0.5, 0.0], [-1.0, 0.25]]),
            Box([-1.0, -0.5], [1.0, 0.5]),
            Box([-0.05, -0.02], [0.05, 0.02]),
        ),
        None,
        1e-12,
    ),
    "planar": (make_planar_double_integrator(1.0, DT), None, 0.0),
}

signed = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 10.0))
heading_width = st.one_of(
    st.floats(0.0, 8.0),
    st.floats(TWO_PI - 1e-9, TWO_PI + 1e-9),
    st.sampled_from([0.0, TWO_PI]),
)


@st.composite
def state_rows(draw, n, heading):
    """Float rows of a state box; the heading box, if any, may wrap around."""
    lower, upper = [], []
    for i in range(n):
        if i == heading:
            lo = draw(st.floats(-4.0 * math.pi, 4.0 * math.pi))
            hi = lo + draw(heading_width)
        else:
            lo = draw(signed)
            hi = lo + draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
        lower.append(lo)
        upper.append(hi)
    return tuple(lower), tuple(upper)


@st.composite
def sub_rows(draw, box):
    """Float rows of a box inside ``box``: a point, the box itself or a sub-box."""
    lo, hi = float_rows(box)
    kind = draw(st.sampled_from(["point", "whole", "sub"]))
    if kind == "whole":
        return lo, hi
    pairs = []
    for l, h in zip(lo, hi):
        ends = [l, h] + [z for z in (0.0, -0.0) if l <= z <= h]
        a = draw(st.one_of(st.sampled_from(ends), st.floats(l, h)))
        b = a if kind == "point" else draw(st.floats(l, h))
        pairs.append((min(a, b), max(a, b)))
    return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


def _corners(rows):
    return [np.array(c) for c in itertools.product(*zip(*rows))]


def _samples(rng, rows, k):
    lo, hi = np.array(rows[0]), np.array(rows[1])
    return lo + rng.uniform(size=(k, lo.size)) * (hi - lo)


@pytest.mark.parametrize("name", sorted(MODELS))
@PROPERTY
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_interval_step_returns_float_rows_that_contain_successors(name, data, seed):
    model, heading, tol = MODELS[name]
    X = data.draw(state_rows(model.state_dim, heading))
    U = data.draw(sub_rows(model.control_set))
    D = data.draw(sub_rows(model.disturbance_set))
    out = model.interval_step(X, U, D)
    assert type(out) is tuple and len(out) == 2
    for row in out:
        assert type(row) is tuple and len(row) == model.state_dim
        assert all(type(v) is float for v in row), row
    lower, upper = np.array(out)

    rng = np.random.default_rng(seed)
    corners = list(itertools.product(_corners(X), _corners(U), _corners(D)))
    xs = np.array([c[0] for c in corners] + list(_samples(rng, X, 20)))
    us = np.array([c[1] for c in corners] + list(_samples(rng, U, 20)))
    ds = np.array([c[2] for c in corners] + list(_samples(rng, D, 20)))
    successors = model.step(xs, us, ds)
    inside = (lower - tol <= successors) & (successors <= upper + tol)
    bad = np.flatnonzero(~inside.all(axis=1))
    assert bad.size == 0, (X, U, D, out, xs[bad[0]], us[bad[0]], ds[bad[0]], successors[bad[0]])


entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@PROPERTY
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 5))
def test_linear_image_is_exact_on_the_vertices(data, m, n):
    M = np.array(data.draw(st.lists(entry, min_size=m * n, max_size=m * n))).reshape(m, n)
    bounds = data.draw(state_rows(n, None))
    lower, upper = linear_image(M, bounds)
    # each vertex image summed as linear_image sums its terms
    images = np.array([(M * v).sum(axis=1) for v in _corners(bounds)])
    assert (images >= lower).all() and (images <= upper).all(), (M, bounds, lower, upper)
    assert (images.min(axis=0) == lower).all() and (images.max(axis=0) == upper).all()
