"""Fixed control enclosures in the interval tube, and the tube's soundness.

``optimal_fallback`` declares its enclosure as the fixed control set, which
``propagate_frs`` clips once per tube. Its tubes must be byte-identical to
those of the same policy with the per-step callable ``control_box=lambda X: U``
it replaces. A fixed enclosure is validated when the fallback is built and
against the control set only when a nondegenerate box needs it, and every step
after the first receives the same immutable float rows with no policy call: an
interval step that tries to write into them fails, and one that writes into an
array copy leaves the tube unchanged. The tube's point test on Python floats
must agree with numpy's widths. The
property test samples states of each tube box, steps them under the fallback
and a disturbance, and requires the successors to lie in the next box.
"""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safefilter import (
    Box,
    FallbackPolicy,
    braking_fallback,
    discretize_box,
    make_double_integrator,
    margin_halfspace,
    mps_monitor,
    optimal_fallback,
    propagate_frs,
    solve,
    value_grid_terminal_set,
)
import safefilter.shielding as shielding
from safefilter.intervals import float_rows
from safefilter.shielding import _is_point

DT = 0.1
PAIRS = 400  # states and candidates per disturbance bound
PROPERTY = settings(max_examples=100, deadline=None)


def _model_and_optimal(d_max):
    model = make_double_integrator(1.0, d_max, DT)
    grid, _ = solve(
        model, margin_halfspace([1.0, 0.0], 0.1), (Box([0.0, -2.0], [3.0, 2.0]), (21, 21)),
        [5], [3] if d_max else [], 1e-6, 200,
    )
    u5 = discretize_box(model.control_set, [5])
    d3 = discretize_box(model.disturbance_set, [3] if d_max else [])
    return model, grid, optimal_fallback(model, grid, u5, d3)


@pytest.fixture(scope="module")
def setups():
    return {d_max: _model_and_optimal(d_max) for d_max in (0.1, 0.0)}


def _states_and_candidates(model, rng, n):
    """Random states and candidates, with at-rest states, signed zeros and
    states whose tube leaves the grid's domain [0, 3] x [-2, 2] mixed in."""
    xs = rng.uniform([0.0, -1.5], [3.0, 1.5], size=(n, 2))
    us = model.control_set.sample(rng, n)
    k = n // 5
    xs[:k, 1] = 0.0
    xs[k:2 * k] = np.where(rng.random((k, 2)) < 0.5, -0.0, xs[k:2 * k])
    xs[k:2 * k, 1] = -0.0
    xs[2 * k:3 * k] = rng.uniform([2.6, 1.5], [3.5, 2.5], size=(k, 2))  # leaves the domain
    xs[3 * k:3 * k + k // 2] = rng.uniform([-0.5, -2.5], [0.3, -1.5], size=(k // 2, 2))
    us[:2 * k:2] = -0.0
    us[1:2 * k:2] = 0.0
    return xs, us


@pytest.mark.parametrize("d_max", [0.1, 0.0])
def test_fixed_enclosure_tubes_match_callable_bytewise(setups, d_max):
    model, grid, fixed = setups[d_max]
    U = np.asarray(model.control_set)
    callable_form = FallbackPolicy(fixed.policy, control_box=lambda X: U, name=fixed.name)
    terminal = value_grid_terminal_set(grid)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    rng = np.random.default_rng(15 + int(10 * d_max))
    xs, us = _states_and_candidates(model, rng, PAIRS)
    left = 0
    for i, (x, u) in enumerate(zip(xs, us)):
        horizon = i % 10 + 1
        tube = propagate_frs(model, fixed, x, u, horizon).bounds
        expected = propagate_frs(model, callable_form, x, u, horizon).bounds
        assert tube.tobytes() == expected.tobytes(), (x, u, horizon)
        assert mps_monitor(model, fixed, terminal, wall, x, u, horizon) == mps_monitor(
            model, callable_form, terminal, wall, x, u, horizon
        )
        left += bool((tube[:, 1, 0] > 3.0).any() or (tube[:, 0, 0] < 0.0).any())
    assert left > PAIRS // 10  # tubes that leave the grid's domain are exercised


# --- validation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "bounds",
    [
        [1.0, 1.0],
        [[-1.0], [0.0], [1.0]],
        [[[-1.0]], [[1.0]]],
        np.empty((2, 0)),
        [[np.nan], [1.0]],
        [[-1.0], [np.nan]],
        [[0.5], [-0.5]],
        [[-1.0, 0.2], [1.0, 0.1]],
    ],
)
def test_fixed_enclosure_rejected_when_built(bounds):
    with pytest.raises(ValueError, match="fixed control enclosure"):
        FallbackPolicy(lambda x: np.array([0.0]), control_box=bounds)


def test_fixed_enclosure_is_stored_read_only_and_hashes():
    given_bounds = np.array([[-0.5], [0.5]])
    fb = FallbackPolicy(lambda x: np.array([0.0]), control_box=given_bounds)
    assert fb.control_box is not given_bounds and not fb.control_box.flags.writeable
    given_bounds[0, 0] = 5.0  # the fallback keeps its own copy
    assert fb.control_box[0, 0] == -0.5
    assert fb == dataclasses.replace(fb) and hash(fb) == hash(dataclasses.replace(fb))


def test_enclosure_missing_control_set_raises_only_for_a_nondegenerate_box():
    outside = np.array([[2.0], [3.0]])
    fb = FallbackPolicy(lambda x: np.array([0.0]), control_box=outside)
    at_rest = np.array([1.0, 0.0])
    # without disturbance every box is a point, where the policy is evaluated
    points = propagate_frs(make_double_integrator(1.0, 0.0, DT), fb, at_rest, [0.5], 10)
    assert (points.bounds[:, 0] == points.bounds[:, 1]).all()
    with pytest.raises(ValueError, match="does not meet the control set"):
        propagate_frs(make_double_integrator(1.0, 0.1, DT), fb, at_rest, [0.5], 10)


def test_enclosure_of_another_control_dimension_raises():
    fb = FallbackPolicy(lambda x: np.array([0.0]), control_box=[[-1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="shape"):
        propagate_frs(make_double_integrator(1.0, 0.1, DT), fb, [1.0, 0.0], [0.0], 3)


_FORMS = {
    "float_rows": lambda rows: rows,
    "array": np.array,
    "box": lambda rows: Box(*rows),
    "lists": lambda rows: [list(rows[0]), list(rows[1])],
}


@pytest.mark.parametrize("form", _FORMS)
def test_callable_enclosure_forms_give_the_same_tube(monkeypatch, form):
    """A callable ``control_box`` may return float rows, an array, a ``Box``
    or nested lists; all give the braking fallback's tube byte for byte.
    Float rows pass through ``float_rows`` as they are, with no numpy call."""
    model = make_double_integrator(1.0, 0.1, DT)
    brake = braking_fallback(model, DT)
    convert = _FORMS[form]
    other = FallbackPolicy(brake.policy, control_box=lambda X: convert(brake.control_box(X)))
    if form == "float_rows":
        def no_conversion(*args, **kwargs):
            raise AssertionError("float rows were converted")

        with monkeypatch.context() as patch:
            patch.setattr(np, "asarray", no_conversion)
            X = ((1.0, 0.4), (1.1, 0.6))
            enc = shielding._control_enclosure(other, X, ((-1.0,), (1.0,)))
        assert enc == brake.control_box(X)
    rng = np.random.default_rng(21)
    xs, us = _states_and_candidates(model, rng, 60)
    for i, (x, u) in enumerate(zip(xs, us)):
        horizon = i % 10 + 1
        tube = propagate_frs(model, other, x, u, horizon).bounds
        expected = propagate_frs(model, brake, x, u, horizon).bounds
        assert tube.tobytes() == expected.tobytes(), (x, u, horizon)


@pytest.mark.parametrize(
    "enclosure",
    [((-1.0, -1.0), (1.0, 1.0)), ((-1.0,), (1.0, 1.0)), ((-1.0,),),
     np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([-1.0, 1.0]), (-1.0, 1.0),
     np.array([[-1.0], [0.0], [1.0]]), ((-1.0,), (0.0,), (1.0,))],
    ids=["two_controls", "ragged", "one_row", "array_two_controls", "flat_array", "flat_tuple",
         "three_row_array", "three_rows"],
)
def test_callable_enclosure_of_the_wrong_length_raises(enclosure):
    fb = FallbackPolicy(lambda x: np.array([0.0]), control_box=lambda X: enclosure)
    with pytest.raises(ValueError):
        propagate_frs(make_double_integrator(1.0, 0.1, DT), fb, [1.0, 0.0], [0.0], 3)


def test_interval_step_cannot_write_into_a_fixed_enclosure():
    model = make_double_integrator(1.0, 0.1, DT)
    fb = FallbackPolicy(lambda x: np.array([0.0]), control_box=np.asarray(model.control_set))
    controls = []

    def overwriting_step(X, U, D):
        out = model.interval_step(X, U, D)
        controls.append(U)
        if len(controls) > 1:  # the fixed enclosure, from the second step on
            U[0] = (0.0,)
        return out

    writer = dataclasses.replace(model, interval_step=overwriting_step)
    with pytest.raises(TypeError, match="does not support item assignment"):
        propagate_frs(writer, fb, [1.0, 0.3], [0.2], 10)
    assert len(controls) == 2 and controls[1] == float_rows(model.control_set)

    def copy_writing_step(X, U, D):
        np.asarray(U)[...] = 0.0  # a copy: the enclosure itself stays as it was
        return model.interval_step(X, U, D)

    copier = dataclasses.replace(model, interval_step=copy_writing_step)
    tube = propagate_frs(copier, fb, [1.0, 0.3], [0.2], 10).bounds
    assert tube.tobytes() == propagate_frs(model, fb, [1.0, 0.3], [0.2], 10).bounds.tobytes()
    assert (fb.control_box == np.asarray(model.control_set)).all()


@pytest.mark.parametrize(
    "bounds",
    [
        [[1.0, 2.0], [1.0, 2.0]],
        [[0.0, -0.0], [-0.0, 0.0]],
        [[1.0, 2.0], [1.0, 2.5]],
        [[1.0, 2.0], [0.5, 1.0]],
        [[1.0, np.nan], [1.0, 2.0]],
        [[np.inf, 0.0], [np.inf, 0.0]],
        [[-np.inf, 0.0], [np.inf, 0.0]],
        [[np.inf, 0.0], [-np.inf, 0.0]],
        [[3.0], [3.0 + 1e-300]],
    ],
)
def test_point_test_matches_numpy_widths(bounds):
    X = np.array(bounds)
    with np.errstate(invalid="ignore"):  # inf - inf
        assert _is_point(float_rows(X)) == bool((X[1] - X[0] <= 0.0).all())


# --- work per tube ----------------------------------------------------------------


def test_fixed_enclosure_tube_work_count():
    model = make_double_integrator(1.0, 0.1, DT)
    controls, policy_calls = [], []

    def recording_step(X, U, D):
        controls.append(U)
        return model.interval_step(X, U, D)

    def policy(x):
        policy_calls.append(x)
        return np.array([0.0])

    recorder = dataclasses.replace(model, interval_step=recording_step)
    fb = FallbackPolicy(policy, control_box=np.asarray(model.control_set))
    tube = propagate_frs(recorder, fb, [1.0, 0.3], [0.2], 10)
    assert (tube.bounds[1:, 1] > tube.bounds[1:, 0]).any(axis=-1).all()  # nondegenerate
    assert len(controls) == 10 and not policy_calls
    first = controls[1]
    assert all(c is first for c in controls[1:])
    assert type(first) is tuple and all(type(row) is tuple for row in first)  # immutable
    assert np.array(first).tobytes() == np.asarray(model.control_set).tobytes()


# --- soundness ------------------------------------------------------------------


def _fallbacks(model, optimal):
    return {
        "optimal": optimal,
        "braking": braking_fallback(model, DT),
        "lipschitz": FallbackPolicy(
            lambda x: np.array([np.clip(-2.0 * x[1], -1.0, 1.0)]), lipschitz=2.0
        ),
    }


@pytest.mark.parametrize("name", ["optimal", "braking", "lipschitz"])
@PROPERTY
@given(
    x0=st.tuples(st.floats(-0.5, 3.5), st.floats(-2.0, 2.0)),
    u0=st.floats(-1.0, 1.0),
    horizon=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_frs_tube_contains_sampled_successors(setups, name, x0, u0, horizon, seed):
    model, _, optimal = setups[0.1]
    fb = _fallbacks(model, optimal)[name]
    D = model.disturbance_set
    tube = propagate_frs(model, fb, np.array(x0), np.array([u0]), horizon)
    rng = np.random.default_rng(seed)
    for tau in range(1, tube.horizon):
        box, nxt = tube.sets[tau], tube.sets[tau + 1]
        corners = [np.array(c) for c in itertools.product(*zip(box.lower, box.upper))]
        for i, x in enumerate(corners + list(box.sample(rng, 4))):
            d = (D.lower, D.upper, D.sample(rng))[i % 3]
            assert nxt.contains(model.step(x, fb(x), d), tol=1e-9), (tau, x, d)
