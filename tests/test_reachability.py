import math

import numpy as np
import pytest

from safefilter import (
    Box,
    MarginFunction,
    SystemModel,
    ValueGrid,
    backward_step,
    discretize_box,
    grid_box_min,
    load_value_grid,
    make_double_integrator,
    margin_halfspace,
    optimal_safety_policy,
    safe_membership,
    save_value_grid,
    solve,
    value_at,
)


def identity_model(dim=2):
    return SystemModel(
        state_dim=dim,
        control_dim=1,
        disturbance_dim=0,
        dt=0.1,
        step=lambda x, u, d: np.asarray(x, dtype=np.float64),
        control_set=Box([-1.0], [1.0]),
        disturbance_set=Box([], []),
        interval_step=lambda X, u, D: X,
        name="identity",
    )


def scalar_model(dt=0.1, d_max=0.3):
    has_d = d_max > 0

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        dd = d[..., 0] if has_d else 0.0
        return np.stack([x[..., 0] + (u[..., 0] + dd) * dt], axis=-1)

    return SystemModel(
        state_dim=1,
        control_dim=1,
        disturbance_dim=1 if has_d else 0,
        dt=dt,
        step=step_fn,
        control_set=Box([-1.0], [1.0]),
        disturbance_set=Box([-d_max], [d_max]) if has_d else Box([], []),
        interval_step=lambda X, u, D: Box(
            X.lower + (np.atleast_1d(u)[0] + (D.lower[0] if D.dim else 0.0)) * dt,
            X.upper + (np.atleast_1d(u)[0] + (D.upper[0] if D.dim else 0.0)) * dt,
        ),
        name="scalar",
    )


# --- interpolation -----------------------------------------------------------


def test_interpolation_exact_at_nodes():
    rng = np.random.default_rng(0)
    grid = ValueGrid(Box([0.0, -1.0], [1.0, 1.0]), (7, 5), rng.normal(size=35))
    for idx, node in enumerate(grid.nodes):
        assert value_at(grid, node) == grid.values[idx]


def test_interpolation_linear_1d():
    grid = ValueGrid(Box([0.0], [1.0]), (2,), [0.0, 1.0])
    assert value_at(grid, [0.25]) == pytest.approx(0.25)


def test_out_of_domain_sentinel_and_membership():
    grid = ValueGrid(Box([0.0], [1.0]), (2,), [0.0, 1.0])
    assert value_at(grid, [1.5]) == -math.inf
    assert not safe_membership(grid, [1.5])
    assert safe_membership(grid, [0.0])  # boundary value 0 counts as safe


def test_deep_failure_states_are_unsafe():
    # inside the failure set the value stays below the (negative) margin
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.5)  # failure: p < 0.5
    grid, _ = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (31, 31)), [3], [1])
    assert value_at(grid, [0.2, 0.0]) <= float(g(np.array([0.2, 0.0]))) < 0
    assert not safe_membership(grid, [0.2, 0.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        ValueGrid(Box([0.0], [1.0]), (1,), [0.0])
    with pytest.raises(ValueError):
        ValueGrid(Box([0.0], [1.0]), (3,), [0.0, 1.0])


# --- backward step -----------------------------------------------------------


def test_backward_step_identity_dynamics_fixed_point():
    model = identity_model()
    g = margin_halfspace([1.0, 0.0], -0.5)
    grid = ValueGrid(Box([-1.0, -1.0], [1.0, 1.0]), (9, 9), np.zeros(81))
    g_vals = np.array([float(g(x)) for x in grid.nodes])
    v_next = grid.with_values(g_vals)
    out = backward_step(model, g, v_next, discretize_box(model.control_set, [2]), [np.zeros(0)])
    assert np.allclose(out.values, g_vals, atol=1e-14)
    rng = np.random.default_rng(1)
    w = v_next.with_values(g_vals - rng.uniform(0, 1, size=81))
    out2 = backward_step(model, g, w, discretize_box(model.control_set, [2]), [np.zeros(0)])
    assert np.allclose(out2.values, np.minimum(g_vals, w.values), atol=1e-14)


def test_backward_step_hand_value():
    model = scalar_model(dt=0.1, d_max=0.0)
    g = margin_halfspace([1.0], 0.0)
    grid = ValueGrid(Box([-1.0], [1.0]), (21,), np.linspace(-1, 1, 21))
    out = backward_step(model, g, grid, [np.array([-1.0]), np.array([1.0])], [np.zeros(0)])
    # node at x=0: min(0, max(V(-0.1), V(0.1))) = min(0, 0.1) = 0
    j = 10
    assert grid.nodes[j][0] == 0.0
    assert out.values[j] == pytest.approx(0.0, abs=1e-15)


def test_backward_step_never_exceeds_margin():
    model = scalar_model(d_max=0.3)
    g = margin_halfspace([1.0], -0.5)
    grid = ValueGrid(Box([-1.0], [1.0]), (11,), np.full(11, 10.0))
    out = backward_step(
        model, g, grid,
        discretize_box(model.control_set, [3]),
        discretize_box(model.disturbance_set, [2]),
    )
    g_vals = np.array([float(g(x)) for x in grid.nodes])
    assert np.all(out.values <= g_vals + 1e-15)


def test_backward_step_dimension_mismatch():
    model = scalar_model()
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid = ValueGrid(Box([0.0, 0.0], [1.0, 1.0]), (3, 3), np.zeros(9))
    with pytest.raises(ValueError):
        backward_step(model, g, grid, [np.array([0.0])], [])


# --- brute-force game-tree oracle ---------------------------------------------

from oracles import game_tree_node_values as _oracle_node_values  # noqa: E402


def test_backward_step_matches_game_tree_oracle():
    model = scalar_model(dt=0.1, d_max=0.3)
    g = margin_halfspace([1.0], -0.5)
    u_cands = discretize_box(model.control_set, [3])
    d_cands = discretize_box(model.disturbance_set, [2])
    grid = ValueGrid(Box([-1.0], [1.0]), (5,), np.zeros(5))
    g_vals = np.array([float(g(x)) for x in grid.nodes])
    v = grid.with_values(g_vals)
    horizon = 4
    for _ in range(horizon):
        v = backward_step(model, g, v, u_cands, d_cands)
    oracle = _oracle_node_values(model, g, grid, u_cands, d_cands, horizon)
    assert np.allclose(v.values, oracle, atol=1e-12)


# --- solve --------------------------------------------------------------------


def test_solve_identity_converges_immediately():
    model = identity_model()
    g = margin_halfspace([1.0, 0.0], -2.0)  # nonnegative over the domain
    grid, report = solve(model, g, (Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)), [2], [1])
    assert report.converged
    assert report.iterations == 1
    assert report.final_residual == 0.0
    assert report.converged == (report.final_residual <= 1e-6)


def test_solve_monotone_and_below_margin():
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    spec = (Box([0.0, -2.0], [3.0, 2.0]), (41, 41))
    grid, report = solve(model, g, spec, [3], [1])
    assert report.converged
    g_vals = np.array([float(g(x)) for x in grid.nodes])
    assert np.all(grid.values <= g_vals + 1e-12)


def test_solve_values_nonincreasing_and_residuals_contract():
    # iterate the raw backup directly to observe the per-iteration sequences
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid = ValueGrid(Box([0.0, -2.0], [3.0, 2.0]), (31, 31), np.zeros(961),
                     out_of_domain_value=-1.0)
    g_vals = np.array([float(g(x)) for x in grid.nodes])
    v = grid.with_values(g_vals)
    u_cands = discretize_box(model.control_set, [3])
    residuals = []
    prev = v.values
    for _ in range(40):
        v = backward_step(model, g, v, u_cands, [np.zeros(0)])
        assert np.all(v.values <= prev + 1e-12)
        residuals.append(float(np.max(np.abs(v.values - prev))))
        prev = v.values
    for a, b in zip(residuals[1:], residuals[2:]):
        assert b <= a + 1e-12


def test_solve_wall_benchmark_level_set():
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    domain = Box([0.0, -2.0], [3.0, 2.0])
    grid, report = solve(model, g, (domain, (61, 61)), [3], [1])
    assert report.converged
    vals = grid.values.reshape(61, 61)
    axes_p = np.linspace(0, 3, 61)
    axes_v = np.linspace(-2, 2, 61)
    cell = math.hypot(axes_p[1] - axes_p[0], axes_v[1] - axes_v[0])
    for j, v in enumerate(axes_v):
        if v >= 0 or v * v / 2 > 3 - 0.1:
            continue
        col = vals[:, j]
        nonneg = np.where(col >= 0)[0]
        assert len(nonneg) > 0
        i = nonneg[0]
        if i == 0:
            p_hat = axes_p[0]
        else:
            p_hat = axes_p[i - 1] + (axes_p[1] - axes_p[0]) * (-col[i - 1]) / (col[i] - col[i - 1])
        assert abs(p_hat - v * v / 2) <= 2 * cell


def test_solve_disturbance_shrinks_safe_set():
    g = margin_halfspace([1.0, 0.0], 0.0)
    spec = (Box([0.0, -2.0], [3.0, 2.0]), (41, 41))
    robust, _ = solve(make_double_integrator(1.0, 0.5, 0.1), g, spec, [3], [2])
    nominal, _ = solve(make_double_integrator(1.0, 0.0, 0.1), g, spec, [3], [1])
    assert np.all(robust.values <= nominal.values + 1e-9)


def test_solve_nonconvergence_reported():
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (41, 41)), [3], [1],
                         tolerance=1e-12, max_iters=3)
    assert not report.converged
    assert report.iterations == 3
    assert grid.values.shape == (41 * 41,)


def test_solve_validation():
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        solve(model, g, (Box([0.0, -1.0], [1.0, 1.0]), (5, 5)), [3], [1], tolerance=-1.0)


@pytest.mark.parametrize(
    "fn", [lambda x: 1.0, lambda x: x[0] - 0.5], ids=["constant", "first_row"]
)
def test_solve_rejects_margin_that_does_not_broadcast(fn):
    # margins are evaluated on all grid nodes in one call, like step
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = MarginFunction(fn, name="scalar_only")
    with pytest.raises(ValueError, match="margin 'scalar_only'.*must broadcast"):
        solve(model, g, (Box([0.0, -1.0], [1.0, 1.0]), (5, 5)), [3], [1])


# --- policy -------------------------------------------------------------------


def test_optimal_policy_brakes_near_wall():
    model = make_double_integrator(1.0, 0.0, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, _ = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [3], [1])
    policy = optimal_safety_policy(model, grid, discretize_box(model.control_set, [3]), [np.zeros(0)])
    u = policy(np.array([0.6, -1.0]))
    assert u[0] == 1.0


def test_optimal_policy_tie_breaks_to_lowest_index():
    model = identity_model()
    g = margin_halfspace([1.0, 0.0], -2.0)
    grid, _ = solve(model, g, (Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)), [3], [1])
    policy = optimal_safety_policy(
        model, grid, discretize_box(model.control_set, [3]), [np.zeros(0)]
    )
    # identity dynamics: every candidate ties, the first must win
    assert policy(np.array([0.0, 0.0]))[0] == -1.0


# --- file format ----------------------------------------------------------------


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    grid = ValueGrid(Box([0.0, -3.0], [4.0, 3.0]), (7, 9), rng.normal(size=63))
    path = tmp_path / "grid.bin"
    save_value_grid(grid, path)
    loaded = load_value_grid(path)
    assert loaded.shape == grid.shape
    assert np.array_equal(loaded.values, grid.values)
    assert np.array_equal(loaded.domain.lower, grid.domain.lower)
    assert np.array_equal(loaded.domain.upper, grid.domain.upper)
    assert loaded.out_of_domain_value == grid.out_of_domain_value


def test_grid_file_bytes_deterministic(tmp_path):
    grid = ValueGrid(Box([0.0], [1.0]), (4,), [0.0, 0.5, -1.25, math.inf * -1])
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_value_grid(grid, p1)
    save_value_grid(grid, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_grid_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOT-A-GRID 1 1 2 0.0 1.0 -inf\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_value_grid(path)


# --- box minimum -----------------------------------------------------------------


def test_grid_box_min_exact_and_sound():
    rng = np.random.default_rng(8)
    grid = ValueGrid(Box([0.0, -1.0], [2.0, 1.0]), (21, 17), rng.normal(size=21 * 17))
    for _ in range(60):
        c = rng.uniform([0.2, -0.8], [1.8, 0.8])
        half = rng.uniform(0, 0.3, 2)
        box = Box(c - half, c + half)
        lb = grid_box_min(grid, box)
        samples = box.sample(rng, 300)
        vals = grid.values_at(samples)
        assert np.all(vals >= lb - 1e-9)
    point = np.array([0.7, 0.3])
    assert grid_box_min(grid, Box(point, point)) == pytest.approx(value_at(grid, point), abs=0)


def test_grid_box_min_edge_cases():
    grid = ValueGrid(Box([0.0], [1.0]), (5,), [1.0, 2.0, 3.0, 4.0, 5.0])
    assert grid_box_min(grid, Box([0.5], [2.0])) == grid.out_of_domain_value
    assert grid_box_min(grid, Box([0.0], [1.0])) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "header, match",
    [
        (b"SAFEFILTER-VALUEGRID 1 2 61\n", "fields"),
        (b"SAFEFILTER-VALUEGRID\n", "fields"),
        (b"SAFEFILTER-VALUEGRID 1 x 2 0.0 1.0 -inf\n", "version and dimension"),
        (b"SAFEFILTER-VALUEGRID 1 1 two 0.0 1.0 -inf\n", "shape"),
        (b"SAFEFILTER-VALUEGRID 1 1 2 0.0 one -inf\n", "bounds"),
        (b"SAFEFILTER-VALUEGRID 1 1 1 0.0 1.0 -inf\n", "2 nodes"),
        (b"SAFEFILTER-VALUEGRID 1 1 2 0.0 1.0 -inf\n", "missing node values"),
        (b"SAFEFILTER-VALUEGRID 1 1 99999999999999 0.0 1.0 -inf\n", "missing node values"),
        (b"\xff\xfe 1 1 2\n", "ASCII"),
        pytest.param(
            b"SAFEFILTER-VALUEGRID " + b"1" * (64 * 1024), "header exceeds 65536 bytes",
            id="no_newline_within_limit",
        ),
    ],
)
def test_grid_file_rejects_malformed_header(tmp_path, header, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(ValueError, match=match):
        load_value_grid(path)


# --- grid domains --------------------------------------------------------------


@pytest.mark.parametrize(
    "lower, upper, shape",
    [
        ([0.0, 0.0], [3.0, 0.0], (61, 61)),  # a zero-width axis
        ([1.0], [1.0], (2,)),
        ([0.0, math.nan], [3.0, 2.0], (5, 5)),
        ([0.0, -2.0], [math.nan, 2.0], (5, 5)),
        ([0.0, -math.inf], [3.0, 2.0], (5, 5)),
        ([0.0], [math.inf], (5,)),
        ([0.0], [5e-324], (3,)),  # the middle node rounds onto the lower one
        ([-1e308], [1e308], (3,)),  # the width overflows
    ],
)
def test_grid_domain_needs_finite_distinct_nodes(lower, upper, shape):
    # a NaN bound is rejected by Box already, before a grid can be built on it
    nan = any(map(math.isnan, lower + upper))
    with pytest.raises(ValueError, match="must not be NaN" if nan else "grid domain axis"):
        ValueGrid(Box(lower, upper), shape, np.zeros(math.prod(shape)))


def test_grid_file_with_a_degenerate_domain_is_rejected(tmp_path):
    for bounds in ("0.0 0.0 3.0 0.0", "0.0 0.0 3.0 nan"):
        path = tmp_path / "bad.bin"
        path.write_bytes(f"SAFEFILTER-VALUEGRID 1 2 2 2 {bounds} -inf\n".encode()
                         + np.full(4, -0.8).tobytes())
        with pytest.raises(ValueError, match="grid domain axis 1"):
            load_value_grid(path)


def test_solve_rejects_a_zero_width_axis():
    model = make_double_integrator(1.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="grid domain axis 1"):
        solve(model, margin_halfspace([1.0, 0.0], 0.1),
              (Box([0.0, 0.0], [3.0, 0.0]), (61, 61)), [5], [3])
