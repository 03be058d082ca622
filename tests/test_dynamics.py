import math
from itertools import product

import numpy as np
import pytest

from safefilter import (
    Box,
    InputDomainError,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    margin_halfspace,
    margin_keepout_ball,
    margin_min,
    step,
)
from safefilter.intervals import float_rows

DT = 0.1


def test_double_integrator_fixed_point():
    m = make_double_integrator(1.0, 0.0, DT)
    x = step(m, [1.0, 0.0], [0.0], np.zeros(0))
    assert np.array_equal(x, [1.0, 0.0])


def test_double_integrator_euler_step():
    m = make_double_integrator(1.0, 0.0, DT)
    x = step(m, [0.0, 1.0], [1.0], np.zeros(0))
    assert np.allclose(x, [0.1, 1.1], atol=1e-15)


def test_double_integrator_braking_from_negative_velocity():
    m = make_double_integrator(1.0, 0.0, DT)
    x = step(m, [0.0, -1.0], [1.0], np.zeros(0))
    assert x[1] == pytest.approx(-1.0 + DT)


def test_dubins_straight_line():
    m = make_dubins_car(1.0, 1.0, 0.0, DT)
    x = step(m, [0.0, 0.0, 0.0], [0.0], np.zeros(0))
    assert np.allclose(x, [0.1, 0.0, 0.0], atol=1e-15)
    y = step(m, [0.0, 0.0, math.pi / 2], [0.0], np.zeros(0))
    assert y[0] == pytest.approx(0.0, abs=1e-15)
    assert y[1] == pytest.approx(0.1)
    assert y[2] == pytest.approx(math.pi / 2)


def test_pendulum_steps():
    m = make_inverted_pendulum(1.0, 0.0, DT)
    x = step(m, [0.0, 0.0], [0.0], np.zeros(0))
    assert np.array_equal(x, [0.0, 0.0])
    y = step(m, [math.pi / 2, 0.0], [0.0], np.zeros(0))
    assert y[1] == pytest.approx(DT * 1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_double_integrator(0.0, 0.0, DT)
    with pytest.raises(ValueError):
        make_double_integrator(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        make_dubins_car(0.0, 1.0, 0.0, DT)
    with pytest.raises(ValueError):
        make_inverted_pendulum(-1.0, 0.0, DT)


def test_disturbance_dimension_convention():
    assert make_double_integrator(1.0, 0.5, DT).disturbance_dim == 1
    assert make_double_integrator(1.0, 0.0, DT).disturbance_dim == 0


def test_input_validation_errors():
    m = make_double_integrator(1.0, 0.5, DT)
    with pytest.raises(InputDomainError):
        step(m, [0.0, 0.0], [1.5], [0.0])
    with pytest.raises(InputDomainError):
        step(m, [0.0, 0.0], [0.5], [0.6])


def test_step_determinism():
    m = make_dubins_car(1.0, 1.0, 0.3, DT)
    x = np.array([0.3, -0.2, 1.1])
    u = np.array([0.5])
    d = np.array([0.1])
    a = step(m, x, u, d)
    b = step(m, x, u, d)
    assert a.tobytes() == b.tobytes()


def test_interval_step_double_integrator_example():
    m = make_double_integrator(1.0, 0.1, DT)
    X = float_rows(Box([0.0, 1.0], [0.1, 1.0]))
    out = m.interval_step(X, ((0.0,), (0.0,)), float_rows(m.disturbance_set))
    assert np.allclose(out[0], [0.1, 1.0 - 0.1 * DT])
    assert np.allclose(out[1], [0.2, 1.0 + 0.1 * DT])


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_double_integrator(1.0, 0.2, DT),
        lambda: make_dubins_car(1.0, 1.0, 0.2, DT),
        lambda: make_inverted_pendulum(1.5, 0.2, DT),
    ],
)
def test_interval_step_containment(make):
    m = make()
    rng = np.random.default_rng(42)
    n_boxes = 25
    per_box = 400  # 10^4 samples per model
    for _ in range(n_boxes):
        center = rng.uniform(-2.0, 2.0, size=m.state_dim)
        half = rng.uniform(0.0, 0.5, size=m.state_dim)
        X = Box(center - half, center + half)
        u = m.control_set.sample(rng)
        U = (tuple(u.tolist()),) * 2
        out = m.interval_step(float_rows(X), U, float_rows(m.disturbance_set))
        xs = X.sample(rng, per_box)
        ds = m.disturbance_set.sample(rng, per_box)
        for x, d in zip(xs, ds):
            assert Box(out[0], out[1]).contains(m.step(x, u, d), tol=0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_double_integrator(1.0, 0.0, DT),
        lambda: make_dubins_car(1.0, 1.0, 0.0, DT),
        lambda: make_inverted_pendulum(1.5, 0.0, DT),
    ],
)
def test_forward_euler_consistency_with_affine_form(make):
    m = make()
    drift, input_map = m.continuous_affine
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=m.state_dim)
        u = m.control_set.sample(rng)
        euler = x + m.dt * (np.asarray(drift(x)) + np.asarray(input_map(x)) @ u)
        assert np.allclose(m.step(x, u, np.zeros(0)), euler, atol=1e-12)


def test_linear_model_step_and_interval():
    A = np.array([[1.0, 0.1], [0.0, 1.0]])
    B = np.array([[0.0], [0.1]])
    m = make_linear_model(A, B, Box([-1.0], [1.0]), Box([-0.05, -0.05], [0.05, 0.05]))
    x = step(m, [1.0, 2.0], [0.5], [0.01, -0.01])
    assert np.allclose(x, A @ [1.0, 2.0] + B @ [0.5] + [0.01, -0.01])
    out = m.interval_step(((0.0, 0.0), (1.0, 1.0)), ((0.0,), (0.0,)), float_rows(m.disturbance_set))
    rng = np.random.default_rng(1)
    for _ in range(200):
        xx = rng.uniform(0, 1, 2)
        dd = m.disturbance_set.sample(rng)
        assert Box(out[0], out[1]).contains(m.step(xx, np.array([0.0]), dd), tol=1e-12)


# --- margins -----------------------------------------------------------------


def test_margin_halfspace_values():
    g = margin_halfspace([1.0, 0.0], 0.0)
    assert g(np.array([-1.0, 5.0])) == pytest.approx(-1.0)
    assert g(np.array([2.0, -3.0])) == pytest.approx(2.0)


def test_margin_ball_and_min_composition():
    wall = margin_halfspace([1.0, 0.0], 0.0)
    ball = margin_keepout_ball([0.0, 0.0], 1.0)
    x = np.array([3.0, 4.0])
    assert ball(x) == pytest.approx(4.0)
    both = margin_min([wall, ball])
    assert both(x) == pytest.approx(3.0)


def test_margin_validation():
    with pytest.raises(ValueError):
        margin_halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        margin_keepout_ball([0.0], 0.0)
    with pytest.raises(ValueError):
        margin_min([])


def test_margin_gradients():
    ball = margin_keepout_ball([1.0, -1.0], 0.5)
    x = np.array([2.0, 0.0])
    grad = ball.gradient(x)
    eps = 1e-6
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = eps
        fd = (ball(x + dx) - ball(x - dx)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-6)
    assert np.array_equal(ball.gradient(np.array([1.0, -1.0])), [0.0, 0.0])


def test_margin_box_lower_bounds_are_sound_and_tight():
    rng = np.random.default_rng(2)
    margins = [
        margin_halfspace([1.0, -2.0], 0.3),
        margin_keepout_ball([0.5, 0.5], 0.7),
        margin_min([margin_halfspace([1.0, 0.0], 0.0), margin_keepout_ball([0.0, 0.0], 1.0)]),
    ]
    for g in margins:
        for _ in range(50):
            c = rng.uniform(-2, 2, 2)
            half = rng.uniform(0, 1, 2)
            box = Box(c - half, c + half)
            lb = g.box_lower(box)
            vals = g(box.sample(rng, 200))
            assert np.all(vals >= lb - 1e-12)
    # exact for halfspaces: attained at a corner
    g = margin_halfspace([1.0, -2.0], 0.3)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    corner_min = min(float(g(np.array(c))) for c in product(*zip(box.lower, box.upper)))
    assert g.box_lower(box) == pytest.approx(corner_min)


def test_margin_batched_evaluation():
    g = margin_keepout_ball([0.0, 0.0], 1.0)
    pts = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert np.allclose(g(pts), [4.0, -1.0])


# --- lattices -----------------------------------------------------------------


def test_discretize_box_examples():
    pts = discretize_box(Box([-1.0], [1.0]), [3])
    assert np.allclose(np.array(pts).ravel(), [-1.0, 0.0, 1.0])
    pts = discretize_box(Box([-1.0, 0.0], [1.0, 2.0]), [2, 2])
    assert len(pts) == 4
    assert np.array_equal(pts[0], [-1.0, 0.0])
    assert np.array_equal(pts[-1], [1.0, 2.0])
    pts = discretize_box(Box([-1.0], [1.0]), [1])
    assert len(pts) == 1 and pts[0][0] == 0.0


def test_discretize_box_errors_and_zero_dim():
    with pytest.raises(ValueError):
        discretize_box(Box([-1.0], [1.0]), [0])
    with pytest.raises(ValueError):
        discretize_box(Box([-1.0], [1.0]), [2, 2])
    pts = discretize_box(Box([], []), [])
    assert len(pts) == 1 and pts[0].shape == (0,)


def test_margin_gradients_batched_per_row():
    ball = margin_keepout_ball([0.0, 0.0], 1.0)
    pts = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0], [3.0, 4.0]])
    grads = ball.gradient(pts)
    # each row is normalized on its own; the center gets a zero subgradient
    assert np.array_equal(grads, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.6, 0.8]])
    for x, gr in zip(pts, grads):
        assert np.array_equal(ball.gradient(x), gr)

    wall = margin_halfspace([1.0, 0.0], 0.0)
    both = margin_min([wall, ball])
    # per row, the gradient of the active (smallest) child margin; ties go to
    # the first child
    rows = np.array([[0.5, 0.0], [3.0, 4.0], [0.0, 2.0], [2.0, 0.0], [4.0, 3.0]])
    assert wall(rows[4]) == ball(rows[4])
    want = np.array([ball.gradient(rows[0]), wall.gradient(rows[1]),
                     wall.gradient(rows[2]), ball.gradient(rows[3]),
                     wall.gradient(rows[4])])
    assert np.array_equal(both.gradient(rows), want)
    for x, gr in zip(rows, want):
        assert np.array_equal(both.gradient(x), gr)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("i", [0, 1])
def test_step_rejects_non_finite_state(bad, i):
    m = make_double_integrator(1.0, 0.5, DT)
    x = np.array([0.5, -0.5])
    x[i] = bad
    with pytest.raises(InputDomainError, match="not finite"):
        step(m, x, [0.0], [0.0])


def test_step_input_checks_and_bits():
    m = make_double_integrator(1.0, 0.5, DT)
    x = np.array([0.5, -0.5])
    # the box bounds themselves are admissible, the next float past them is not
    for u, d in (([1.0], [0.5]), ([-1.0], [-0.5]), (1.0, 0.5)):
        assert step(m, x, u, d).tobytes() == m.step(x, np.atleast_1d(u), np.atleast_1d(d)).tobytes()
    for u, d in (([np.nextafter(1.0, 2.0)], [0.0]), ([np.nan], [0.0]),
                 ([0.0], [np.nextafter(-0.5, -1.0)]), ([0.0], [np.nan])):
        with pytest.raises(InputDomainError):
            step(m, x, u, d)
    for u, d in (([0.0, 0.0], [0.0]), ([0.0], np.zeros(0)), ([[0.0, 0.0]], [0.0])):
        with pytest.raises(ValueError) as err:
            step(m, x, u, d)
        assert not isinstance(err.value, InputDomainError)
    rng = np.random.default_rng(5)
    models = [m, make_dubins_car(1.0, 1.0, 0.3, DT), make_inverted_pendulum(2.0, 0.0, DT)]
    for model in models:
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, model.state_dim)
            u = model.control_set.sample(rng)
            d = model.disturbance_set.sample(rng)
            assert step(model, x, u, d).tobytes() == model.step(x, u, d).tobytes()


def test_box_contains_matches_bound_comparison():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    assert box.contains([1.0, 0.0]) and box.contains(np.array([-1.0, 2.0]))
    assert not box.contains([1.0 + 1e-12, 0.0])
    assert box.contains([1.0 + 1e-12, 0.0], tol=1e-9)
    assert not box.contains([0.0, np.nan], tol=1.0)
    assert Box([], []).contains(np.zeros(0))
    with pytest.raises(ValueError):
        box.contains([0.0])
