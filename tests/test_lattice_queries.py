"""Batched candidate-lattice queries against per-candidate reference loops.

The optimal safety policy, the worst-case next value and the grid adversary
each evaluate a whole (control, disturbance) lattice with one ``step`` and one
``values_at`` call, and reduce the values on Python floats. The loops below
evaluate the lattice one candidate at a time and reduce with ``ndarray.min``,
as the library did before, and serve as the exactness oracle. Node tables
of ties, signed zeros, +-inf and NaN check the reductions' rules; a linear
model with random matrices pins the state-block shape of the one ``step``.
"""
import math

import numpy as np
import pytest

from safefilter import (
    Box,
    SystemModel,
    ValueGrid,
    adversarial_disturbance,
    backward_step,
    discretize_box,
    make_double_integrator,
    make_linear_model,
    margin_descent_disturbance,
    margin_descent_policy,
    margin_halfspace,
    optimal_safety_policy,
    solve,
    value_at,
)
from safefilter.reachability import successor_states, worst_case_next_value

from test_reachability import identity_model


def reference_worst_case_next_value(model, grid, x, u, d_candidates):
    x = np.asarray(x, dtype=np.float64)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    if len(d_candidates) > 1:
        ds = np.stack([np.atleast_1d(d) for d in d_candidates])
        xs = np.broadcast_to(x, (len(d_candidates), x.size))
        return float(grid.values_at(model.step(xs, u, ds)).min())
    return min(value_at(grid, model.step(x, u, d)) for d in d_candidates)


def reference_optimal_safety_policy(model, grid, u_candidates, d_candidates):
    u_candidates = [np.atleast_1d(np.asarray(u, dtype=np.float64)) for u in u_candidates]
    d_candidates = [np.atleast_1d(np.asarray(d, dtype=np.float64)) for d in d_candidates]

    def policy(x):
        x = np.asarray(x, dtype=np.float64)
        best_u = u_candidates[0]
        best_val = -math.inf
        for u in u_candidates:
            worst = reference_worst_case_next_value(model, grid, x, u, d_candidates)
            if worst > best_val:
                best_val = worst
                best_u = u
        return best_u.copy()

    return policy


def reference_adversarial_disturbance(model, grid, d_candidates):
    cands = [np.atleast_1d(np.asarray(d, dtype=np.float64)) for d in d_candidates]

    def policy(x, u, rng):
        best = cands[0]
        best_val = math.inf
        for d in cands:
            val = value_at(grid, model.step(x, u, d))
            if val < best_val:
                best_val = val
                best = d
        return best.copy()

    return policy


@pytest.fixture(scope="module")
def robust_di():
    model = make_double_integrator(1.0, 0.1, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    u_cands = discretize_box(model.control_set, [5])
    d_cands = discretize_box(model.disturbance_set, [3])
    # same node values with a -inf sentinel: every candidate leaving the
    # domain then scores -inf, and the policy must fall back to candidate 0
    inf_grid = ValueGrid(grid.domain, grid.shape, grid.values)
    return model, grid, inf_grid, u_cands, d_cands


def _states(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    # a box well beyond the [0, 3] x [-2, 2] domain, plus states far enough
    # outside that every successor leaves it
    inside_and_edge = rng.uniform([-0.5, -2.6], [3.5, 2.6], size=(n, 2))
    far = np.array([[10.0, 0.0], [-10.0, 5.0], [1.5, 9.0], [1.5, -9.0], [-4.0, -4.0]])
    return np.concatenate([inside_and_edge, far])


def test_policy_matches_per_candidate_loop(robust_di):
    model, grid, inf_grid, u_cands, d_cands = robust_di
    states = _states()
    for g in (grid, inf_grid):
        batched = optimal_safety_policy(model, g, u_cands, d_cands)
        reference = reference_optimal_safety_policy(model, g, u_cands, d_cands)
        for x in states:
            assert batched(x).tobytes() == reference(x).tobytes(), x
    # the all-out-of-domain states pick candidate 0 on the -inf grid
    policy = optimal_safety_policy(model, inf_grid, u_cands, d_cands)
    for x in states[-5:]:
        assert all(
            worst_case_next_value(model, inf_grid, x, u, d_cands) == -math.inf for u in u_cands
        )
        assert policy(x).tobytes() == u_cands[0].tobytes()


def test_worst_case_value_matches_per_candidate_loop(robust_di):
    model, grid, inf_grid, u_cands, d_cands = robust_di
    states = _states(seed=1)
    for g in (grid, inf_grid):
        for x in states:
            for u in (u_cands[0], u_cands[3]):
                got = worst_case_next_value(model, g, x, u, d_cands)
                want = reference_worst_case_next_value(model, g, x, u, d_cands)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), x
            # a single disturbance candidate is one point per query
            got = worst_case_next_value(model, g, x, u_cands[1], d_cands[:1])
            want = reference_worst_case_next_value(model, g, x, u_cands[1], d_cands[:1])
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), x


def test_adversary_matches_per_candidate_loop(robust_di):
    model, grid, inf_grid, u_cands, d_cands = robust_di
    states = _states(seed=2)
    rng = np.random.default_rng(3)
    controls = rng.uniform(-1.0, 1.0, size=(len(states), 1))
    for g in (grid, inf_grid):
        batched = adversarial_disturbance(model, g, d_cands)
        reference = reference_adversarial_disturbance(model, g, d_cands)
        for x, u in zip(states, controls):
            assert batched(x, u, None).tobytes() == reference(x, u, None).tobytes(), x
    # every successor out of domain: all -inf, lowest index wins
    adversary = adversarial_disturbance(model, inf_grid, d_cands)
    assert adversary(states[-1], controls[-1], None).tobytes() == d_cands[0].tobytes()


def test_identity_model_tie_matches_per_candidate_loop():
    model = identity_model()
    g = margin_halfspace([1.0, 0.0], -2.0)
    grid, _ = solve(model, g, (Box([-1.0, -1.0], [1.0, 1.0]), (5, 5)), [3], [1])
    u_cands = discretize_box(model.control_set, [3])
    d_cands = [np.zeros(0)]
    batched = optimal_safety_policy(model, grid, u_cands, d_cands)
    reference = reference_optimal_safety_policy(model, grid, u_cands, d_cands)
    for x in ([0.0, 0.0], [0.7, -0.3], [5.0, 5.0]):
        x = np.asarray(x)
        assert batched(x).tobytes() == reference(x).tobytes() == u_cands[0].tobytes()


def test_step_without_batch_support_is_rejected():
    def scalar_only_step(x, u, d):
        # flattens its input: broadcasts over nothing
        x = np.asarray(x, dtype=np.float64).ravel()
        return np.array([x[0] + 0.1 * x[1], x[1] + 0.1 * float(np.ravel(u)[0])])

    model = SystemModel(
        state_dim=2, control_dim=1, disturbance_dim=0, dt=0.1, step=scalar_only_step,
        control_set=Box([-1.0], [1.0]), disturbance_set=Box([], []),
        interval_step=lambda X, u, D: X, name="scalar_only",
    )
    grid = ValueGrid(Box([0.0, -1.0], [1.0, 1.0]), (5, 5), np.zeros(25))
    u_cands = discretize_box(model.control_set, [3])
    d_cands = [np.zeros(0)]
    x = np.array([0.5, 0.0])
    policy = optimal_safety_policy(model, grid, u_cands, d_cands)
    with pytest.raises(ValueError, match="scalar_only"):
        policy(x)
    with pytest.raises(ValueError, match="scalar_only"):
        worst_case_next_value(model, grid, x, u_cands[0], [np.zeros(0), np.zeros(0)])
    with pytest.raises(ValueError, match="scalar_only"):
        adversarial_disturbance(model, grid, [np.zeros(0), np.zeros(0)])(x, u_cands[0], None)
    with pytest.raises(ValueError, match="scalar_only"):
        backward_step(model, margin_halfspace([1.0, 0.0], 0.0), grid, u_cands, d_cands)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="model 'scalar_only'.*must broadcast"):
        margin_descent_policy(model, wall, u_cands)(x, None)
    with pytest.raises(ValueError, match="model 'scalar_only'.*must broadcast"):
        margin_descent_disturbance(model, wall, [np.zeros(0), np.zeros(0)])(x, u_cands[0], None)


def test_nan_nodes_never_win_lattice_picks():
    # NaN node values make some candidates' values NaN; the batched policy and
    # adversary must skip them exactly as the reference loops do (a NaN never
    # compares better)
    model = make_double_integrator(1.0, 0.1, 0.1)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    grid, _ = solve(model, wall, (Box([0.0, -2.0], [3.0, 2.0]), (41, 41)), [5], [3])
    rng = np.random.default_rng(12)
    values = grid.values.copy()
    values[rng.choice(values.size, 40, replace=False)] = np.nan
    nan_grid = ValueGrid(grid.domain, grid.shape, values, grid.out_of_domain_value)
    u_cands = discretize_box(model.control_set, [5])
    d_cands = discretize_box(model.disturbance_set, [3])
    states = rng.uniform([0.0, -2.0], [3.0, 2.0], size=(2000, 2))
    controls = rng.uniform(-1.0, 1.0, size=(len(states), 1))

    policy = optimal_safety_policy(model, nan_grid, u_cands, d_cands)
    ref_policy = reference_optimal_safety_policy(model, nan_grid, u_cands, d_cands)
    adversary = adversarial_disturbance(model, nan_grid, d_cands)
    ref_adversary = reference_adversarial_disturbance(model, nan_grid, d_cands)
    mixed = 0
    for x, u in zip(states, controls):
        worst = [worst_case_next_value(model, nan_grid, x, v, d_cands) for v in u_cands]
        mixed += any(map(math.isnan, worst)) and not all(map(math.isnan, worst))
        assert policy(x).tobytes() == ref_policy(x).tobytes(), x
        assert adversary(x, u, None).tobytes() == ref_adversary(x, u, None).tobytes(), x
    assert mixed > 100  # the NaN nodes touch many lattices


def _node_table(values, oodv=-math.inf):
    """x' = x + (u, 0) + d on a 7x7 grid with unit spacing: from a node, integer
    controls and disturbances reach nodes, whose values are read exactly, so
    a lattice's scores are the table entries it lands on."""
    model = make_linear_model(np.eye(2), np.array([[1.0], [0.0]]), Box([-3.0], [3.0]),
                              Box([-3.0, -3.0], [3.0, 3.0]))
    grid = ValueGrid(Box([0.0, 0.0], [6.0, 6.0]), (7, 7), values, oodv)
    return model, grid


def _assert_lattice_queries_match_loops(model, grid, x, u_cands, d_cands):
    x = np.asarray(x, dtype=np.float64)
    policy = optimal_safety_policy(model, grid, u_cands, d_cands)
    reference = reference_optimal_safety_policy(model, grid, u_cands, d_cands)
    assert policy(x).tobytes() == reference(x).tobytes(), x
    adversary = adversarial_disturbance(model, grid, d_cands)
    ref_adversary = reference_adversarial_disturbance(model, grid, d_cands)
    for u in u_cands:
        got = worst_case_next_value(model, grid, x, u, d_cands)
        want = reference_worst_case_next_value(model, grid, x, u, d_cands)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, u)
        assert adversary(x, u, None).tobytes() == ref_adversary(x, u, None).tobytes(), (x, u)


def test_a_nan_disturbance_entry_makes_its_control_score_nan():
    # from (3, 3), control k reaches column 2 + k and disturbance j row 2 + j;
    # control 2 scores best (row minimum 5) until one of its entries is NaN
    values = np.full((7, 7), 1.0)
    values[4, 2:5] = 5.0
    u_cands = np.array([[-1.0], [0.0], [1.0]])
    d_cands = np.array([[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]])
    x = np.array([3.0, 3.0])
    model, grid = _node_table(values)
    assert optimal_safety_policy(model, grid, u_cands, d_cands)(x)[0] == 1.0
    for j in range(3):
        nan_values = values.copy()
        nan_values[4, 2 + j] = np.nan
        model, grid = _node_table(nan_values)
        assert math.isnan(worst_case_next_value(model, grid, x, u_cands[2], d_cands))
        assert optimal_safety_policy(model, grid, u_cands, d_cands)(x)[0] == -1.0
        _assert_lattice_queries_match_loops(model, grid, x, u_cands, d_cands)


def test_lattice_queries_match_loops_on_node_tables():
    """Tables of ties, signed zeros, +-inf and NaN, lattices with repeated
    rows (exact ties) and states whose successors all leave the domain, under
    three sentinels; every pick and worst value equals the loops'."""
    rng = np.random.default_rng(21)
    entries = np.array([0.0, -0.0, 1.0, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan])
    far = [np.array([12.0, 3.0]), np.array([-9.0, -9.0])]
    for trial in range(60):
        model, grid = _node_table(rng.choice(entries, size=49),
                                  [-math.inf, math.nan, -0.0][trial % 3])
        u_cands = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), 1)).astype(float)
        d_cands = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), 2)).astype(float)
        starts = [rng.integers(0, 7, size=2).astype(float) for _ in range(8)]
        for x in starts + far:
            _assert_lattice_queries_match_loops(model, grid, x, u_cands, d_cands)
    # every successor out of domain: no score beats the first candidate's
    u_cands = np.array([[-1.0], [0.0], [1.0]])
    d_cands = np.array([[0.0, -1.0], [0.0, 1.0]])
    for oodv in (-math.inf, math.nan):
        model, grid = _node_table(np.ones(49), oodv)
        for x in far:
            assert optimal_safety_policy(model, grid, u_cands, d_cands)(x)[0] == -1.0


@pytest.mark.parametrize("n", [2, 3])
def test_successor_states_step_the_lattice_block(n):
    """``successor_states`` equals ``step`` on the (|U|, |D|, n) state block,
    bit for bit, and with one control row the (1, |D|, n) block. A linear
    model's ``u @ B.T`` rounds differently on flat (|U| * |D|, n) rows, so
    this pins the block shape."""
    rng = np.random.default_rng(n)
    for trial in range(200):
        m = int(rng.integers(1, 4))
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, m))
        model = make_linear_model(A, B, Box(-np.ones(m), np.ones(m)),
                                  Box(-0.1 * np.ones(n), 0.1 * np.ones(n)))
        x = rng.standard_normal(n)
        U = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 6)), m))
        # every other case has one disturbance row, as margin descent does
        D = rng.uniform(-0.1, 0.1, (1 if trial % 2 else int(rng.integers(2, 5)), n))
        for lattice in (U, U[:1]):
            block = model.step(np.tile(x, (len(lattice), len(D), 1)), lattice[:, None], D[None])
            got = successor_states(model, x, lattice, D)
            assert got.tobytes() == block.reshape(-1, n).tobytes(), (trial, len(lattice))
