"""The double integrator's interval step on Python floats.

``make_double_integrator``'s ``interval_step`` must equal the model's own
``step`` applied to the lower row and to the upper row of the bounds, bit for
bit (``tobytes``), with and without a disturbance, on bounds with signed zeros
and infinities. With NaN bounds the NaNs must sit where ``step`` puts them and
every other entry must match bit for bit; the NaNs themselves are compared as
NaN, because when both operands of an addition are NaN, IEEE 754 leaves open
which one the sum keeps, and CPython's float addition keeps the right one's
sign where numpy's array loops keep the left one's (x86-64). It takes float
rows and returns float rows: two tuples of two Python floats. Its box contains
the successors of the state box's corners and samples under corner and
sampled controls and disturbances.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import Box, make_double_integrator
from safefilter.intervals import float_rows

DT = 0.1
PROPERTY = settings(max_examples=400, deadline=None)
MODELS = {d_max: make_double_integrator(1.0, d_max, DT) for d_max in (0.1, 0.0)}

SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -1e308, 1e308]
no_nan = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False))
any_float = st.one_of(st.sampled_from([math.nan, -math.nan]), no_nan)
finite = st.floats(-10.0, 10.0)


def _bounds(elements, n):
    """(2, n) bounds drawn entry by entry, in any order."""
    return st.lists(elements, min_size=2 * n, max_size=2 * n).map(
        lambda v: np.array(v, dtype=np.float64).reshape(2, n))


def _sorted_bounds(elements, n):
    """(2, n) bounds with lower <= upper."""
    return _bounds(elements, n).map(lambda b: np.sort(b, axis=0))


def _rowwise_step(model, X, U, D):
    return np.stack([model.step(X[r], U[r], D[r]) for r in range(2)])


def _check_rows(model, X, U, D):
    """The interval step on float rows against ``step`` on each row of the
    arrays; returns both as arrays."""
    with np.errstate(invalid="ignore", over="ignore"):
        expected = _rowwise_step(model, X, U, D)
    out = model.interval_step(float_rows(X), float_rows(U), float_rows(D))
    assert type(out) is tuple and len(out) == 2
    assert all(type(row) is tuple and len(row) == 2 for row in out)
    assert all(type(v) is float for row in out for v in row)
    return np.array(out), expected


@pytest.mark.parametrize("d_max", [0.1, 0.0])
@PROPERTY
@given(X=_bounds(no_nan, 2), U=_bounds(no_nan, 1), D=_bounds(no_nan, 1))
def test_interval_step_equals_step_on_each_row_bitwise(d_max, X, U, D):
    model = MODELS[d_max]
    out, expected = _check_rows(model, X, U, D if d_max else np.empty((2, 0)))
    assert out.tobytes() == expected.tobytes(), (X, U, D, out, expected)


@pytest.mark.parametrize("d_max", [0.1, 0.0])
@PROPERTY
@given(X=_bounds(any_float, 2), U=_bounds(any_float, 1), D=_bounds(any_float, 1))
def test_interval_step_with_nan_bounds_equals_step_on_each_row(d_max, X, U, D):
    model = MODELS[d_max]
    out, expected = _check_rows(model, X, U, D if d_max else np.empty((2, 0)))
    nan = np.isnan(expected)
    assert (np.isnan(out) == nan).all(), (X, U, D, out, expected)
    assert out[~nan].tobytes() == expected[~nan].tobytes(), (X, U, D, out, expected)


def test_a_negative_zero_control_still_gets_the_zero_disturbance_added():
    # -0.0 + (-0.0 + 0.0) * dt is +0.0, where -0.0 + -0.0 * dt would be -0.0
    out = MODELS[0.0].interval_step(((-0.0, -0.0), (-0.0, -0.0)), ((-0.0,), (-0.0,)), ((), ()))
    assert np.array(out).tobytes() == np.array([[-0.0, 0.0], [-0.0, 0.0]]).tobytes()


@pytest.mark.parametrize("d_max", [0.1, 0.0])
@PROPERTY
@given(
    X=_sorted_bounds(finite, 2),
    U=_sorted_bounds(st.floats(-1.0, 1.0), 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_interval_step_contains_corner_and_sampled_successors(d_max, X, U, seed):
    model = MODELS[d_max]
    D = model.disturbance_set
    image = Box(*model.interval_step(float_rows(X), float_rows(U), float_rows(D)))
    rng = np.random.default_rng(seed)
    states = [np.array(c) for c in itertools.product(*X.T)] + list(Box(*X).sample(rng, 4))
    controls = list(U) + list(Box(*U).sample(rng, 2))
    disturbances = list(np.asarray(D)) + list(D.sample(rng, 2))
    for x, u, d in itertools.product(states, controls, disturbances):
        assert image.contains(model.step(x, u, d)), (x, u, d, image)
