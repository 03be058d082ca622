"""Experiments through ``run_scenario`` and logs through ``write_series_csv``
against the per-seed loops and hand-rolled CSV blocks they replaced.

The oracles in ``oracles.py`` are verbatim copies of the old code. Reports
must agree field by field (compared by ``repr``, so a NaN or a signed zero
counts), and files byte for byte.
"""
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    seed_monte_carlo_safety,
    seed_separation_experiment,
    seed_write_comparison,
    seed_write_decisions_csv,
)
from safefilter import (
    Box,
    Scenario,
    adversarial_disturbance,
    compare_filters,
    discretize_box,
    exploration_filter,
    least_restrictive_filter,
    load_occupancy_world,
    make_double_integrator,
    make_planar_double_integrator,
    margin_descent_policy,
    margin_halfspace,
    monte_carlo_safety,
    mps_filter,
    optimal_fallback,
    passthrough_filter,
    proportional_policy,
    random_disturbance,
    random_policy,
    run_episode,
    run_scenario,
    separation_experiment,
    solve,
    value_grid_terminal_set,
    write_decisions_csv,
    zero_disturbance,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def wall():
    model = make_double_integrator(1.0, 0.1, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    u5 = discretize_box(model.control_set, [5])
    d3 = discretize_box(model.disturbance_set, [3])
    filters = {
        "none": passthrough_filter(model),
        "least_restrictive": least_restrictive_filter(model, grid, u5, d3),
        "mps": mps_filter(
            model, optimal_fallback(model, grid, u5, d3), value_grid_terminal_set(grid), g, 6
        ),
    }
    disturbances = {
        "random": random_disturbance(model),
        "adversarial": adversarial_disturbance(model, grid, d3),
        "zero": zero_disturbance(model),
    }
    return model, g, u5, filters, disturbances


@pytest.fixture(scope="module")
def planar():
    model = make_planar_double_integrator(u_max=1.0, dt=0.1)
    margin = margin_halfspace([1.0, 0.0, 0.0, 0.0], 0.5)
    world = load_occupancy_world(CONFIG_DIR / "worlds" / "room.txt", 0.5)
    flt = exploration_filter(model, 1.2, world, 15)
    scenario = Scenario(
        np.array([1.0, 1.0, 0.0, 0.0]), 40, margin, random_policy(model.control_set),
        zero_disturbance(model),
    )
    return model, flt, scenario


def _same_fields(a, b) -> bool:
    return repr(astuple(a)) == repr(astuple(b))


def _goal_run(model, g, dist, steps=80, control_weight=0.1):
    task = proportional_policy([[1.0, 1.5]], [-1.0, 0.0], model.control_set)
    return Scenario(
        np.array([1.5, 0.0]), steps, g, task, dist,
        goal=np.array([-1.0, 0.0]), control_weight=control_weight,
    )


@pytest.mark.parametrize("dist, flt_name, control_weight", [
    ("random", "least_restrictive", 0.1),
    ("adversarial", "least_restrictive", 0.3),
    ("adversarial", "mps", 0.1),
    ("zero", "mps", 0.0),
])
def test_separation_matches_per_seed_loop(wall, dist, flt_name, control_weight):
    model, g, _, filters, disturbances = wall
    scenario = _goal_run(model, g, disturbances[dist], control_weight=control_weight)
    flt = filters[flt_name]
    seeds = [0, 1, 2]
    got = separation_experiment(model, flt, scenario, seeds)
    want = seed_separation_experiment(
        model, flt, scenario.task_policy, g, scenario.x0, scenario.steps, seeds,
        scenario.disturbance_policy, scenario.goal, control_weight,
    )
    assert got.seeds == want.seeds
    assert len(got.unfiltered) == len(got.filtered) == len(seeds)
    for a, b in zip(got.unfiltered + got.filtered, want.unfiltered + want.filtered):
        assert _same_fields(a, b), (a, b)
    assert got.unfiltered_violations > 0 and got.filtered_violations == 0
    assert repr(got.mean_cost_inflation) == repr(want.mean_cost_inflation)


@pytest.mark.parametrize("flt_name, dist, steps, n, seed", [
    ("none", None, 40, 12, 7),
    ("least_restrictive", "adversarial", 40, 8, 100),
    ("mps", "random", 30, 6, 3),
    ("least_restrictive", None, 0, 3, 0),
])
def test_monte_carlo_matches_per_seed_loop(wall, flt_name, dist, steps, n, seed):
    model, g, u5, filters, disturbances = wall
    task = margin_descent_policy(model, g, u5)
    dist_policy = disturbances[dist] if dist else None
    args = (model, filters[flt_name], task, np.array([1.5, 0.0]), steps, n, g)
    got = monte_carlo_safety(*args, seed=seed, disturbance_policy=dist_policy)
    want = seed_monte_carlo_safety(*args, seed=seed, disturbance_policy=dist_policy)
    assert _same_fields(got, want), (got, want)
    assert (got.failures > 0) == (flt_name == "none" and steps > 0)


def test_run_scenario_yields_one_episode_at_a_time(wall):
    model, g, u5, filters, disturbances = wall
    started = []
    scenario = _goal_run(model, g, disturbances["random"], steps=5)
    flt = filters["least_restrictive"]
    task = scenario.task_policy

    def counting_task(x, rng):
        started.append(None)
        return task(x, rng)

    scenario.task_policy = counting_task
    episodes = run_scenario(model, flt, scenario, [4, 5, 6])
    assert started == []
    traj, metrics = next(episodes)
    assert traj.seed == 4 and len(started) == 5
    ref_traj, ref_metrics = run_episode(
        model, flt, counting_task, scenario.disturbance_policy, scenario.x0, 5, 4, g,
        scenario.goal, scenario.control_weight,
    )
    assert traj.states.tobytes() == ref_traj.states.tobytes()
    assert _same_fields(metrics, ref_metrics)
    assert [t.seed for t, _ in episodes] == [5, 6]


def _decision_cases(wall, planar):
    model, g, u5, filters, disturbances = wall
    lr = filters["least_restrictive"]
    goal_task = proportional_policy([[1.0, 1.5]], [-1.0, 0.0], model.control_set)

    def sometimes_nan(x, rng):
        # a non-finite candidate is overridden with monitor value NaN
        return np.array([np.nan]) if rng.uniform() < 0.3 else goal_task(x, rng)

    di = [
        ("random", lr, goal_task, disturbances["random"], 60, 1),
        ("adversarial", lr, margin_descent_policy(model, g, u5), disturbances["adversarial"], 60, 2),
        ("mps_adversarial", filters["mps"], goal_task, disturbances["adversarial"], 40, 3),
        ("zero_steps", lr, goal_task, disturbances["random"], 0, 4),
        ("nan_candidates", lr, sometimes_nan, disturbances["random"], 40, 5),
    ]
    cases = {
        name: (model, flt, task, dist, np.array([1.5, 0.0]), steps, seed, g)
        for name, flt, task, dist, steps, seed in di
    }
    p_model, p_flt, p_scenario = planar
    cases["planar"] = (
        p_model, p_flt, p_scenario.task_policy, p_scenario.disturbance_policy,
        p_scenario.x0, p_scenario.steps, 6, p_scenario.failure_margin,
    )
    return cases


@pytest.mark.parametrize(
    "case", ["random", "adversarial", "mps_adversarial", "zero_steps", "nan_candidates", "planar"]
)
def test_decisions_csv_bytes_match_old_writer(wall, planar, tmp_path, case):
    traj, _ = run_episode(*_decision_cases(wall, planar)[case])
    write_decisions_csv(traj, tmp_path / "new.csv")
    seed_write_decisions_csv(traj, tmp_path / "old.csv")
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == traj.steps + 1
    if case == "nan_candidates":
        assert b",nan," in new


def _compare_cases(wall, planar):
    model, g, u5, filters, disturbances = wall
    named = list(filters.items())
    cases = {
        dist: (model, named, _goal_run(model, g, disturbances[dist], steps=60))
        for dist in ("random", "adversarial")
    }
    cases["zero_steps"] = (model, named, _goal_run(model, g, disturbances["random"], steps=0))
    p_model, p_flt, p_scenario = planar
    cases["planar"] = (p_model, [("none", passthrough_filter(p_model)), ("exploration", p_flt)],
                       p_scenario)
    return cases


@pytest.mark.parametrize("case", ["random", "adversarial", "zero_steps", "planar"])
def test_compare_csv_bytes_match_old_writer(wall, planar, tmp_path, case):
    model, named, scenario = _compare_cases(wall, planar)[case]
    seeds = [0, 1]
    rows = compare_filters(model, named, scenario, seeds, out_dir=tmp_path / "new")
    traces = {
        name: run_episode(
            model, flt, scenario.task_policy, scenario.disturbance_policy, scenario.x0,
            scenario.steps, seeds[0], scenario.failure_margin, scenario.goal,
            scenario.control_weight,
        )[0]
        for name, flt in named
    }
    seed_write_comparison(rows, traces, tmp_path / "old")
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "new").iterdir())
    assert names == ["comparison.csv"] + sorted(f"trace_{name}.csv" for name, _ in named)
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
