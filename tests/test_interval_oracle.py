"""The array-native interval tube against the Box-based oracle in oracles.py.

Tube bounds must be ``np.array_equal`` to the oracle's boxes and monitor values
identical, on random, at-rest and signed-zero states and candidates, for every
built-in interval step and each kind of fallback enclosure. ``np.array_equal``
compares values, so a bound of -0.0 matches +0.0: where a monotone model passes
``step`` as its interval step, ``u + 0.0`` on the disturbance-free input
channel turns the oracle's -0.0 (v = -0.0, u = -0.0) into +0.0. Margin box lower
bounds are compared byte for byte.
"""
import numpy as np
import pytest

from oracles import (
    SeedBox,
    SeedFallback,
    seed_ball_box_lower,
    seed_box,
    seed_braking_box_containment,
    seed_braking_control_box,
    seed_double_integrator_interval,
    seed_dubins_interval,
    seed_grid_box_min,
    seed_halfspace_box_lower,
    seed_linear_image,
    seed_linear_interval,
    seed_min_box_lower,
    seed_mps_monitor,
    seed_pendulum_interval,
    seed_planar_interval,
    seed_propagate_frs,
)
from safefilter import (
    Box,
    FallbackPolicy,
    TerminalSafeSet,
    braking_fallback,
    braking_terminal_set,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    make_planar_double_integrator,
    margin_halfspace,
    margin_keepout_ball,
    margin_min,
    mps_monitor,
    optimal_fallback,
    propagate_frs,
    solve,
    value_grid_terminal_set,
)
from safefilter.intervals import linear_image

DT = 0.1
PAIRS = 1000  # states and candidates per case


# --- margins: (library margin, oracle box lower bound) -------------------------


def halfspace(normal, offset):
    return margin_halfspace(normal, offset), seed_halfspace_box_lower(normal, offset)


def ball(center, radius):
    return margin_keepout_ball(center, radius), seed_ball_box_lower(center, radius)


def minimum(*parts):
    return margin_min([p[0] for p in parts]), seed_min_box_lower([p[1] for p in parts])


def box_terminal(lower, upper):
    """A box terminal set, for models without a built-in one."""
    box, sbox = Box(lower, upper), SeedBox(lower, upper)

    def contains_bounds(bounds):
        lo, hi = np.asarray(bounds, dtype=np.float64)
        return bool(np.all(lo >= box.lower) and np.all(hi <= box.upper))

    terminal = TerminalSafeSet(box.contains, contains_bounds, name="box")
    return terminal, sbox.contains_box


# --- cases ----------------------------------------------------------------------


def _wall_grid(model):
    grid, _ = solve(
        model, margin_halfspace([1.0, 0.0], 0.1), (Box([0.0, -2.0], [3.0, 2.0]), (21, 21)),
        [5], [3] if model.disturbance_dim else [], 1e-6, 200,
    )
    return grid


def _grid_terminal(grid):
    return value_grid_terminal_set(grid), lambda box: seed_grid_box_min(grid, box) >= 0.0


def _double_integrator_cases(d_max):
    model = make_double_integrator(1.0, d_max, DT)
    seed_step = seed_double_integrator_interval(DT)
    grid = _wall_grid(model)
    u5 = discretize_box(model.control_set, [5])
    d3 = discretize_box(model.disturbance_set, [3] if d_max else [])
    wall = minimum(halfspace([1.0, 0.0], 0.0), halfspace([-1.0, 0.0], -3.0))
    if d_max:
        terminal = _grid_terminal(grid)
    else:
        terminal = (
            braking_terminal_set(model, DT, Box([0.5], [2.5])),
            seed_braking_box_containment(1.0, DT, DT, 0.5, 2.5),
        )
    fb = braking_fallback(model, DT)
    braking = (fb, SeedFallback(fb.policy, seed_braking_control_box(1.0, DT, DT), None))
    opt = optimal_fallback(model, grid, u5, d3)
    optimal = (opt, SeedFallback(opt.policy, lambda box: seed_box(model.control_set), None))
    lip = FallbackPolicy(lambda x: np.array([np.clip(-2.0 * x[1], -1.0, 1.0)]), lipschitz=2.0)
    lipschitz = (lip, SeedFallback(lip.policy, None, 2.0))
    tag = f"di_d{d_max}"
    grid_terminal = _grid_terminal(grid)
    return [
        (f"{tag}_braking", model, seed_step, braking, wall, terminal, 8),
        (f"{tag}_optimal", model, seed_step, optimal, wall, grid_terminal, 6),
        (f"{tag}_lipschitz", model, seed_step, lipschitz, wall, terminal, 8),
    ]


def _dubins_case():
    model = make_dubins_car(1.0, 1.0, 0.1, DT)
    fb = FallbackPolicy(lambda x: np.array([1.0]), control_box=lambda X: np.array([[1.0], [1.0]]))
    sfb = SeedFallback(fb.policy, lambda box: SeedBox([1.0], [1.0]), None)
    margin = minimum(ball([0.5, 0.5, 0.0], 0.3), halfspace([0.0, 1.0, 0.0], -2.0))
    terminal = box_terminal([-3.0, -3.0, -10.0], [3.0, 3.0, 10.0])
    return ("dubins", model, seed_dubins_interval(1.0, DT), (fb, sfb), margin, terminal, 8)


def _pendulum_case():
    model = make_inverted_pendulum(1.5, 0.1, DT)
    fb = FallbackPolicy(
        lambda x: np.array([np.clip(-3.0 * x[0] - 1.0 * x[1], -1.5, 1.5)]), lipschitz=3.0
    )
    margin = halfspace([1.0, 0.0], -1.0)
    terminal = box_terminal([-0.5, -1.0], [0.5, 1.0])
    return ("pendulum", model, seed_pendulum_interval(DT), (fb, SeedFallback(fb.policy, None, 3.0)),
            margin, terminal, 8)


def _linear_case():
    A = np.array([[0.9, -0.3], [0.2, 0.7]])
    B = np.array([[0.5], [-1.0]])
    K = np.array([[-0.4, 0.6]])
    model = make_linear_model(A, B, Box([-1.0], [1.0]), Box([-0.05, -0.02], [0.05, 0.02]))
    fb = FallbackPolicy(lambda x: np.clip(K @ x, -1.0, 1.0), control_box=lambda X: linear_image(K, X))
    sfb = SeedFallback(fb.policy, lambda box: seed_linear_image(K, box), None)
    margin = ball([1.0, 0.0], 0.4)
    terminal = box_terminal([-2.0, -2.0], [2.0, 2.0])
    return ("linear", model, seed_linear_interval(A, B), (fb, sfb), margin, terminal, 4)


def _planar_case():
    model = make_planar_double_integrator(1.0, DT)
    fb = FallbackPolicy(lambda x: np.clip(-x[2:] / DT, -1.0, 1.0), lipschitz=1.0 / DT)
    sfb = SeedFallback(fb.policy, None, 1.0 / DT)
    margin = minimum(
        ball([1.0, 1.0, 0.0, 0.0], 0.5),
        halfspace([1.0, 0.0, 0.0, 0.0], -2.0),
        halfspace([0.0, 1.0, 0.0, 0.0], -2.0),
    )
    terminal = box_terminal([-2.0, -2.0, -0.5, -0.5], [2.0, 2.0, 0.5, 0.5])
    return ("planar", model, seed_planar_interval(DT), (fb, sfb), margin, terminal, 6)


@pytest.fixture(scope="module")
def cases():
    out = _double_integrator_cases(0.1) + _double_integrator_cases(0.0)
    out += [_dubins_case(), _pendulum_case(), _linear_case(), _planar_case()]
    return {case[0]: case for case in out}


CASE_NAMES = [
    "di_d0.1_braking", "di_d0.1_optimal", "di_d0.1_lipschitz",
    "di_d0.0_braking", "di_d0.0_optimal", "di_d0.0_lipschitz",
    "dubins", "pendulum", "linear", "planar",
]


def _states_and_candidates(model, rng, n):
    """Random states and candidates, with at-rest and signed-zero entries mixed in."""
    xs = rng.uniform(-1.5, 1.5, size=(n, model.state_dim))
    if model.name == "double_integrator":
        xs[:, 0] += 1.5  # inside the wall grid's domain
    us = model.control_set.sample(rng, n)
    k = n // 4
    xs[:k, model.state_dim // 2:] = 0.0  # at rest
    xs[k:2 * k] = np.where(rng.random((k, model.state_dim)) < 0.5, -0.0, xs[k:2 * k])
    xs[k:2 * k, model.state_dim // 2:] = -0.0
    us[:2 * k:2] = -0.0
    us[1:2 * k:2] = 0.0
    us[2 * k:2 * k + 20] = model.control_set.lower
    us[2 * k + 20:2 * k + 40] = model.control_set.upper
    return xs, us


@pytest.mark.parametrize("name", CASE_NAMES)
def test_tube_matches_box_oracle(cases, name):
    _, model, seed_step, (fb, sfb), (margin, seed_lower), (terminal, seed_contains), horizon = (
        cases[name]
    )
    U, D = seed_box(model.control_set), seed_box(model.disturbance_set)
    rng = np.random.default_rng(sum(map(ord, name)))
    xs, us = _states_and_candidates(model, rng, PAIRS)
    passed = raised = 0
    for x, u in zip(xs, us):
        try:
            sets = seed_propagate_frs(seed_step, U, D, sfb, x, u, horizon)
        except ValueError as e:  # an enclosure that misses the control set
            raised += 1
            for call in (propagate_frs, mps_monitor):
                args = (terminal, margin) if call is mps_monitor else ()
                with pytest.raises(ValueError, match=str(e)):
                    call(model, fb, *args, x, u, horizon)
            continue
        tube = propagate_frs(model, fb, x, u, horizon)
        expected = np.stack([np.stack([s.lower, s.upper]) for s in sets])
        assert np.array_equal(tube.bounds, expected), (x, u)
        value = seed_mps_monitor(sets, seed_lower, seed_contains)
        assert mps_monitor(model, fb, terminal, margin, x, u, horizon) == value, (x, u)
        passed += value > 0
    assert 0 < passed < PAIRS - raised  # both monitor outcomes are exercised
    assert raised < PAIRS // 10


def _random_bounds(rng, n_boxes, dim):
    c = rng.uniform(-2.0, 2.0, size=(n_boxes, dim))
    half = rng.uniform(0.0, 1.0, size=(n_boxes, dim))
    half[: n_boxes // 10] = 0.0  # points
    return np.stack([c - half, c + half], axis=-2)


@pytest.mark.parametrize("dim", [2, 3])
def test_box_lower_matches_box_oracle_bytewise(dim):
    rng = np.random.default_rng(dim)
    margins = {
        "halfspace": halfspace(rng.normal(size=dim), 0.3),
        "ball": ball(rng.uniform(-1.0, 1.0, dim), 0.7),
        "min": minimum(halfspace(rng.normal(size=dim), -0.2), ball(np.zeros(dim), 1.0)),
    }
    bounds = _random_bounds(rng, 5000, dim)
    for name, (margin, seed_lower) in margins.items():
        expected = np.array([seed_lower(SeedBox(lo, hi)) for lo, hi in bounds])
        single = np.array([margin.box_lower(B) for B in bounds])
        assert single.tobytes() == expected.tobytes(), name
        rows = np.array([margin.box_lower((tuple(lo), tuple(hi))) for lo, hi in bounds.tolist()])
        assert rows.tobytes() == expected.tobytes(), name
