import numpy as np
import pytest

from safefilter import (
    Box,
    DeploymentRejected,
    Monitor,
    Scenario,
    adversarial_disturbance,
    clopper_pearson,
    compare_filters,
    constant_policy,
    discretize_box,
    least_restrictive_filter,
    make_double_integrator,
    margin_descent_policy,
    margin_halfspace,
    monte_carlo_safety,
    passthrough_filter,
    proportional_policy,
    random_disturbance,
    replay_states,
    SafetyFilter,
    run_episode,
    separation_experiment,
    solve,
    verify_monitor_soundness,
    write_decisions_csv,
    zero_disturbance,
)

DT = 0.1


@pytest.fixture(scope="module")
def bench():
    model = make_double_integrator(1.0, 0.1, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    u_cands = discretize_box(model.control_set, [5])
    d_cands = discretize_box(model.disturbance_set, [3])
    flt = least_restrictive_filter(model, grid, u_cands, d_cands)
    return model, g, grid, u_cands, d_cands, flt


def test_zero_step_episode(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    traj, metrics = run_episode(
        model, flt, constant_policy([0.0]), zero_disturbance(model),
        [1.5, 0.0], 0, 7, g,
    )
    assert traj.steps == 0
    assert len(traj.states) == 1
    assert metrics.violations == 0
    assert metrics.task_cost == 0.0
    assert metrics.intervention_rate == 0.0


def test_null_filter_benign_world(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    traj, metrics = run_episode(
        model, passthrough_filter(model), constant_policy([0.0]),
        zero_disturbance(model), [1.5, 0.0], 50, 3, g,
    )
    assert metrics.violations == 0
    assert metrics.intervention_count == 0
    assert metrics.chatter_count == 0


def test_adversarial_task_filtered_is_safe(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    task = margin_descent_policy(model, g, u_cands)
    dist = adversarial_disturbance(model, grid, d_cands)
    traj, metrics = run_episode(model, flt, task, dist, [1.5, 0.0], 200, 11, g)
    assert metrics.violations == 0
    assert metrics.intervention_count > 0
    assert all(d.monitor_value >= 0 for d in traj.decisions if not d.overridden)


def test_deployment_rejection(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    with pytest.raises(DeploymentRejected):
        run_episode(model, flt, constant_policy([0.0]), zero_disturbance(model),
                    [0.02, -1.5], 10, 0, g)


def test_replay_bit_exact(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    task = proportional_policy([[0.5, 1.0]], [0.5, 0.0], model.control_set)
    dist = random_disturbance(model)
    traj1, m1 = run_episode(model, flt, task, dist, [1.5, 0.0], 120, 42, g)
    traj2, m2 = run_episode(model, flt, task, dist, [1.5, 0.0], 120, 42, g)
    assert traj1.states.tobytes() == traj2.states.tobytes()
    assert traj1.controls.tobytes() == traj2.controls.tobytes()
    assert traj1.disturbances.tobytes() == traj2.disturbances.tobytes()
    replayed = replay_states(model, traj1)
    assert replayed.tobytes() == traj1.states.tobytes()


def test_adversarial_disturbance_picks_worst(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    dist = adversarial_disturbance(model, grid, d_cands)
    rng = np.random.default_rng(0)
    # near the wall with inward velocity the worst disturbance pushes down
    d = dist(np.array([0.6, -1.0]), np.array([1.0]), rng)
    assert d[0] == -0.1
    # singleton lattice behaves as a constant policy
    single = adversarial_disturbance(model, grid, [np.array([0.05])])
    assert single(np.array([1.0, 0.0]), np.array([0.0]), rng)[0] == 0.05


def test_adversarial_disturbance_tie_break(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    # mirror-image candidates at a symmetric state tie: lowest index wins
    sym_grid, _ = solve(
        make_double_integrator(1.0, 0.1, DT), margin_halfspace([0.0, 1.0], -5.0),
        (Box([-1.0, -1.0], [1.0, 1.0]), (21, 21)), [3], [3],
    )
    dist = adversarial_disturbance(model, sym_grid, [np.array([-0.1]), np.array([0.1])])
    rng = np.random.default_rng(0)
    d = dist(np.array([0.0, 0.0]), np.array([0.0]), rng)
    assert d[0] == -0.1


def test_monitor_trace_soundness(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    task = margin_descent_policy(model, g, u_cands)
    traj, _ = run_episode(model, flt, task, random_disturbance(model), [2.0, 0.5], 150, 5, g)
    for d in traj.decisions:
        if not d.overridden:
            assert d.monitor_value >= 0


def test_separation_experiment(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    # goal beyond the wall: unfiltered runs crash, filtered runs never do
    task = proportional_policy([[1.0, 1.2]], [-1.0, 0.0], model.control_set)
    scenario = Scenario(np.array([1.5, 0.0]), 200, g, task, zero_disturbance(model),
                        goal=np.array([-1.0, 0.0]))
    report = separation_experiment(model, flt, scenario, seeds=[0, 1, 2])
    assert report.unfiltered_violations > 0
    assert report.filtered_violations == 0
    assert np.isfinite(report.mean_cost_inflation)
    for m_f, m_u in zip(report.filtered, report.unfiltered):
        assert m_f.task_cost >= m_u.task_cost  # interventions only constrain


def test_separation_benign_goal_identical(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    task = proportional_policy([[1.0, 1.5]], [2.0, 0.0], model.control_set)
    scenario = Scenario(np.array([1.8, 0.0]), 100, g, task, zero_disturbance(model),
                        goal=np.array([2.0, 0.0]))
    report = separation_experiment(model, flt, scenario, seeds=[0])
    assert report.filtered[0].intervention_count == 0
    assert report.mean_cost_inflation == pytest.approx(0.0, abs=1e-12)


def test_clopper_pearson_intervals():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = clopper_pearson(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = clopper_pearson(0, 1)  # degenerate single trial spans almost everything
    assert lo == 0.0 and hi == pytest.approx(0.975)
    with pytest.raises(ValueError):
        clopper_pearson(0, 0)


def test_monte_carlo_safety(bench):
    model, g, grid, u_cands, d_cands, flt = bench
    task = margin_descent_policy(model, g, u_cands)
    report = monte_carlo_safety(model, flt, task, [1.5, 0.0], 40, 50, g, seed=100)
    assert report.failures == 0
    assert report.estimate == 0.0
    assert report.upper < 0.1
    raw = monte_carlo_safety(model, passthrough_filter(model), task, [1.5, 0.0], 60, 30, g, seed=7)
    assert raw.estimate > 0.9


def test_compare_filters_table(bench, tmp_path):
    model, g, grid, u_cands, d_cands, flt = bench
    scenario = Scenario(
        x0=np.array([1.5, 0.0]),
        steps=80,
        failure_margin=g,
        task_policy=margin_descent_policy(model, g, u_cands),
        disturbance_policy=adversarial_disturbance(model, grid, d_cands),
    )
    rows = compare_filters(
        model, [("least_restrictive", flt)], scenario, seeds=[0, 1], out_dir=tmp_path
    )
    assert len(rows) == 1
    assert rows[0].violations == 0
    assert (tmp_path / "comparison.csv").exists()
    header = (tmp_path / "comparison.csv").read_text().splitlines()[0]
    assert header.startswith("filter,violations,intervention_rate,task_cost")
    assert (tmp_path / "trace_least_restrictive.csv").exists()


def test_decisions_csv(bench, tmp_path):
    model, g, grid, u_cands, d_cands, flt = bench
    traj, _ = run_episode(
        model, flt, constant_policy([0.2]), zero_disturbance(model), [1.5, 0.0], 5, 0, g
    )
    path = tmp_path / "decisions.csv"
    write_decisions_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x0,x1,candidate0,applied0,monitor_value,overridden"
    assert len(lines) == 6


def test_nan_deployment_monitor_value_is_rejected(bench):
    # a monitor value that is not >= 0 certifies nothing, NaN included
    model, g, grid, u_cands, d_cands, _ = bench
    nan_monitor = SafetyFilter(Monitor(lambda x, u: float("nan")), lambda x: np.zeros(1))
    with pytest.raises(DeploymentRejected):
        run_episode(model, nan_monitor, constant_policy([0.0]), zero_disturbance(model),
                    [1.5, 0.0], 10, 0, g)
    report = verify_monitor_soundness(model, nan_monitor, [np.array([1.5, 0.0])], 2, d_cands, g)
    assert report.certified_states == 0 and report.nodes_expanded == 0
