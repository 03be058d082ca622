"""Acceptance suite: one test per shipped acceptance criterion, with pinned
tolerances and one printed PASS/FAIL line each (run with -s to see them live).

Criteria 3/4 share one closed-loop matrix: every certified filter runs against
goal-seeking, random, and adversarial task policies under adversarial
lattice disturbances, 20 seeds x 200 steps on its own benchmark.
"""
import json
import math
import time

import numpy as np
import pytest
import yaml

from oracles import game_tree_node_values

from safefilter import (
    Box,
    Scenario,
    SystemModel,
    ValueGrid,
    adversarial_disturbance,
    backward_step,
    builtin_barrier_double_integrator,
    cbf_constraint,
    cbf_qp_filter,
    discretize_box,
    euler_slack_bound,
    least_restrictive_filter,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    margin_descent_disturbance,
    margin_descent_policy,
    margin_halfspace,
    monte_carlo_safety,
    mps_filter,
    optimal_fallback,
    propagate_frs,
    proportional_policy,
    random_disturbance,
    random_policy,
    replay_states,
    run_episode,
    separation_experiment,
    solve,
    tube_mpc_filter,
    value_grid_terminal_set,
    zero_disturbance,
)
from safefilter.cli import EXIT_OK, main as cli_main
from safefilter.intervals import float_rows

DT = 0.1


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- shared benchmarks --------------------------------------------------------


@pytest.fixture(scope="module")
def robust_bench():
    """Double integrator against a wall with bounded disturbance. The grid
    certificate is solved against a wall set back two grid cells from the
    physical one (conservatism injected at the grid approximation)."""
    model = make_double_integrator(1.0, 0.1, DT)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    setback = margin_halfspace([1.0, 0.0], 0.1)
    grid, report = solve(model, setback, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    return {
        "model": model,
        "wall": wall,
        "setback": setback,
        "grid": grid,
        "u5": discretize_box(model.control_set, [5]),
        "u3": discretize_box(model.control_set, [3]),
        "d3": discretize_box(model.disturbance_set, [3]),
        "x0": np.array([1.5, 0.0]),
    }


@pytest.fixture(scope="module")
def tube_bench():
    A = np.array([[1.0]])
    B = np.array([[1.0]])
    K = np.array([[-0.5]])
    U = Box([-1.0], [1.0])
    D = Box([-0.1], [0.1])
    model = make_linear_model(A, B, U, D)
    margin = margin_halfspace([-1.0], -2.0)  # safe iff x <= 2

    def factory():
        return tube_mpc_filter(A, B, K, U, D, [([-1.0], -2.0)], Box([-0.5], [0.5]), 5)

    return {"A": A, "B": B, "K": K, "U": U, "D": D, "model": model,
            "margin": margin, "factory": factory, "x0": np.array([1.0])}


@pytest.fixture(scope="module")
def cbf_bench():
    model = make_double_integrator(1.0, 0.0, DT)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    # barrier synthesized against a wall set back by the documented Euler
    # slack bound for the speeds this scenario can reach
    barrier = builtin_barrier_double_integrator(1.0, kappa=0.5 / DT, wall=0.15)
    return {"model": model, "wall": wall, "barrier": barrier,
            "factory": lambda: cbf_qp_filter(model, barrier), "x0": np.array([2.0, 0.0])}


@pytest.fixture(scope="module")
def matrix_results(robust_bench, tube_bench, cbf_bench):
    """Criterion 3's full closed-loop matrix; criterion 4 audits its logs."""
    rb, tb, cb = robust_bench, tube_bench, cbf_bench
    model_r, wall = rb["model"], rb["wall"]
    adv_dist = adversarial_disturbance(model_r, rb["grid"], rb["d3"])

    def lr_factory():
        return least_restrictive_filter(model_r, rb["grid"], rb["u5"], rb["d3"])

    def mps_factory():
        return mps_filter(
            model_r,
            optimal_fallback(model_r, rb["grid"], rb["u5"], rb["d3"]),
            value_grid_terminal_set(rb["grid"]),
            rb["setback"],
            horizon=10,
        )

    di_tasks = lambda model: {
        "goal": proportional_policy([[1.0, 1.5]], [0.5, 0.0], model.control_set),
        "random": random_policy(model.control_set),
        "adversarial": margin_descent_policy(model, wall, rb["u3"]),
    }
    benches = {
        "least_restrictive": (model_r, lr_factory, wall, rb["x0"], di_tasks(model_r), adv_dist),
        "mps": (model_r, mps_factory, wall, rb["x0"], di_tasks(model_r), adv_dist),
        "cbf_qp": (
            cb["model"], cb["factory"], cb["wall"], cb["x0"], di_tasks(cb["model"]),
            zero_disturbance(cb["model"]),  # adversarial over the singleton lattice
        ),
        "tube_mpc": (
            tb["model"], tb["factory"], tb["margin"], tb["x0"],
            {
                "goal": proportional_policy([[1.0]], [0.0], tb["U"]),
                "random": random_policy(tb["U"]),
                "adversarial": margin_descent_policy(tb["model"], tb["margin"],
                                                     discretize_box(tb["U"], [3])),
            },
            margin_descent_disturbance(tb["model"], tb["margin"], discretize_box(tb["D"], [3])),
        ),
    }
    results = {}
    for name, (model, factory, margin, x0, tasks, dist) in benches.items():
        flt = factory()
        for task_name, task in tasks.items():
            cell = [
                run_episode(model, flt, task, dist, x0, 200, seed, margin)
                for seed in range(20)
            ]
            results[(name, task_name)] = cell
    return results


# --- criterion 1 ----------------------------------------------------------------


def test_criterion_1_hj_level_set_accuracy():
    model = make_double_integrator(1.0, 0.0, 0.05)
    g = margin_halfspace([1.0, 0.0], 0.0)
    domain = Box([0.0, -3.0], [4.0, 3.0])
    start = time.perf_counter()
    grid, report = solve(model, g, (domain, (161, 161)), [3], [1], 1e-6, 1000)
    elapsed = time.perf_counter() - start
    assert report.converged
    axes_p = np.linspace(0.0, 4.0, 161)
    axes_v = np.linspace(-3.0, 3.0, 161)
    dp = axes_p[1] - axes_p[0]
    # the grid is anisotropic; a grid cell as a length is its diagonal
    cell = math.hypot(dp, axes_v[1] - axes_v[0])
    vals = grid.values.reshape(161, 161)
    sup_err = 0.0
    for j, v in enumerate(axes_v):
        if v >= -1e-12:
            continue
        p_star = v * v / 2.0
        if p_star > 4.0 - 2 * dp:
            continue  # analytic boundary leaves the gridded domain
        col = vals[:, j]
        nonneg = np.where(col >= 0)[0]
        assert len(nonneg), f"slice v={v} lost its safe region"
        i = nonneg[0]
        p_hat = axes_p[0] if i == 0 else axes_p[i - 1] + dp * (-col[i - 1]) / (col[i] - col[i - 1])
        sup_err = max(sup_err, abs(p_hat - p_star))
    _report(
        "criterion 1 (HJ level-set accuracy)",
        sup_err <= 2 * cell and elapsed < 60.0,
        f"sup slice error {sup_err:.4f} <= 2 cells {2 * cell:.4f}, solve {elapsed:.1f}s < 60s",
    )


# --- criterion 2 ----------------------------------------------------------------


def test_criterion_2_game_tree_equivalence():
    dt = 0.1

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        return np.stack([x[..., 0] + (u[..., 0] + d[..., 0]) * dt], axis=-1)

    model = SystemModel(
        state_dim=1, control_dim=1, disturbance_dim=1, dt=dt, step=step_fn,
        control_set=Box([-1.0], [1.0]), disturbance_set=Box([-0.3], [0.3]),
        interval_step=lambda X, u, D: X, name="toy",
    )
    g = margin_halfspace([1.0], -0.5)
    u_cands = discretize_box(model.control_set, [3])
    d_cands = discretize_box(model.disturbance_set, [2])
    grid = ValueGrid(Box([-1.0], [1.0]), (5,), np.zeros(5))
    v = grid.with_values(np.array([float(g(x)) for x in grid.nodes]))
    for _ in range(4):
        v = backward_step(model, g, v, u_cands, d_cands)
    oracle = game_tree_node_values(model, g, grid, u_cands, d_cands, 4)
    err = float(np.max(np.abs(v.values - oracle)))
    _report(
        "criterion 2 (game-tree DP equivalence)",
        err <= 1e-12,
        f"max |backup - exhaustive tree| = {err:.2e} <= 1e-12 over 5 nodes, horizon 4",
    )


# --- criteria 3 and 4 -------------------------------------------------------------


def test_criterion_3_recursive_safety_matrix(matrix_results):
    violations = {
        key: sum(m.violations for _, m in cell) for key, cell in matrix_results.items()
    }
    total = sum(violations.values())
    _report(
        "criterion 3 (recursive safety matrix)",
        total == 0,
        f"violations by cell all zero across {len(violations)} cells "
        f"(4 filters x 3 tasks x 20 seeds x 200 steps)",
    )


def test_criterion_4_non_interference(matrix_results):
    checked = 0
    worst = 0.0
    for (filter_name, _task), cell in matrix_results.items():
        for traj, _metrics in cell:
            for d in traj.decisions:
                if d.monitor_value >= 0:
                    checked += 1
                    worst = max(worst, float(np.max(np.abs(d.applied - d.candidate))))
    _report(
        "criterion 4 (non-interference)",
        worst <= 1e-12 and checked > 10_000,
        f"max |applied - candidate| = {worst:.2e} over {checked} monitor-passing decisions",
    )


# --- criterion 5 ----------------------------------------------------------------


def test_criterion_5_conservatism_ordering(robust_bench):
    rb = robust_bench
    model, grid = rb["model"], rb["grid"]
    lr = least_restrictive_filter(model, grid, rb["u5"], rb["d3"])
    shield = mps_filter(
        model, optimal_fallback(model, grid, rb["u5"], rb["d3"]),
        value_grid_terminal_set(grid), rb["setback"], horizon=10,
    )
    lattice = discretize_box(Box([0.0, -2.0], [3.0, 2.0]), [41, 41])
    shield_passes = 0
    subset_ok = True
    for x in lattice:
        for u in rb["u3"]:
            if shield.monitor(x, u) >= 0:
                shield_passes += 1
                if lr.monitor(x, u) < 0:
                    subset_ok = False

    # horizon 1, zero disturbance, maximal-safe-set terminal, optimal fallback:
    # decisions coincide exactly with the least-restrictive filter
    model0 = make_double_integrator(1.0, 0.0, DT)
    wall = margin_halfspace([1.0, 0.0], 0.0)
    grid0, report = solve(model0, wall, (Box([0.0, -2.0], [3.0, 2.0]), (41, 41)), [3], [1])
    assert report.converged
    u_cands = discretize_box(model0.control_set, [3])
    lr0 = least_restrictive_filter(model0, grid0, u_cands, [np.zeros(0)])
    shield0 = mps_filter(
        model0, optimal_fallback(model0, grid0, u_cands, [np.zeros(0)]),
        value_grid_terminal_set(grid0), wall, horizon=1,
    )
    coincide = True
    for x in lattice:
        for u in u_cands:
            pass_lr = lr0.monitor(x, u) >= 0
            pass_sh = shield0.monitor(x, u) >= 0
            if pass_lr != pass_sh:
                coincide = False
                break
            if not pass_lr and not np.array_equal(
                shield0.intervene(x, u, shield0.monitor(x, u)), lr0.intervene(x, u, lr0.monitor(x, u))
            ):
                coincide = False
                break
        if not coincide:
            break
    _report(
        "criterion 5 (conservatism ordering)",
        subset_ok and coincide and shield_passes > 0,
        f"shield pass-region ({shield_passes} lattice decisions) is a subset of the "
        f"least-restrictive region; horizon-1 deterministic decisions coincide on 41x41",
    )


# --- criterion 6 ----------------------------------------------------------------


def test_criterion_6_containment_and_corruption_oracle(robust_bench, tube_bench, tmp_path, capsys):
    rng = np.random.default_rng(2024)
    bad = 0
    # one-step interval containment: 10^4 samples per dynamics benchmark
    for model in (
        make_double_integrator(1.0, 0.2, DT),
        make_dubins_car(1.0, 1.0, 0.2, DT),
        make_inverted_pendulum(1.5, 0.2, DT),
    ):
        for _ in range(10_000):
            c = rng.uniform(-2, 2, model.state_dim)
            h = rng.uniform(0, 0.4, model.state_dim)
            Xb = Box(c - h, c + h)
            u = model.control_set.sample(rng)
            U = (tuple(u.tolist()),) * 2
            out = model.interval_step(float_rows(Xb), U, float_rows(model.disturbance_set))
            if not Box(out[0], out[1]).contains(
                model.step(Xb.sample(rng), u, model.disturbance_set.sample(rng))
            ):
                bad += 1
    # fallback tube containment on the robust benchmark: 10^4 samples
    rb = robust_bench
    fb = optimal_fallback(rb["model"], rb["grid"], rb["u5"], rb["d3"])
    tube = propagate_frs(rb["model"], fb, rb["x0"], np.array([0.5]), horizon=10)
    for _ in range(1_000):
        for tau in range(1, 10):
            x = tube.sets[tau].sample(rng)
            d = rb["model"].disturbance_set.sample(rng)
            if not tube.sets[tau + 1].contains(rb["model"].step(x, fb(x), d), tol=1e-9):
                bad += 1
    # tube-MPC error bounds: 10^4 random disturbance sequences
    tb = tube_bench
    flt = tb["factory"]()
    closed = tb["A"] + tb["B"] @ tb["K"]
    for _ in range(10_000):
        err = np.zeros(1)
        for tau in range(1, 6):
            err = closed @ err + tb["D"].sample(rng)
            if not Box(*flt.tightened.error_bounds[tau]).contains(err, tol=1e-12):
                bad += 1
    # corrupted-certificate oracle surfaces through cmd_verify
    with open("configs/double_integrator_wall.yaml") as f:
        cfg = yaml.safe_load(f)
    cfg["verify"]["samples"] = 500
    path = tmp_path / "verify.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = cli_main(["verify", "--config", str(path), "--out", str(tmp_path / "v")])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    corr = summary["checks"]["corruption_oracle"]
    _report(
        "criterion 6 (FRS/tube soundness + corruption oracle)",
        bad == 0 and code == EXIT_OK and corr["flagged"] and corr["counterexamples"] > 0,
        f"0/40000+ containment failures; corrupted V+10 produced "
        f"{corr['counterexamples']} counterexamples in cmd_verify",
    )


# --- criterion 7 ----------------------------------------------------------------


def test_criterion_7_cbf_forward_invariance():
    starts = [
        (0.02 * (i % 5) + (2.5 - 2.25 * i / 49) ** 2 / 2.0, -(2.5 - 2.25 * i / 49))
        for i in range(50)
    ]

    def run(dt):
        model = make_double_integrator(1.0, 0.0, dt)
        barrier = builtin_barrier_double_integrator(1.0, kappa=0.5 / dt)
        flt = cbf_qp_filter(model, barrier)
        worst = 0.0
        feasible_exact = True
        for x0 in starts:
            x = np.array(x0, dtype=float)
            if float(barrier.h(x)) < 0:
                continue
            for _ in range(int(30 / dt / 100) * 100 or 300):
                u_task = np.array([-1.0])
                monitor = flt.monitor(x, u_task)
                applied = flt.intervene(x, u_task, monitor)
                if not flt.last_degraded:
                    # feasible instants: the applied control satisfies the
                    # decrease inequality exactly, so the certified
                    # (integration-error-free) next value (1-k*dt)h stays >= 0
                    # whenever h >= 0
                    if cbf_constraint(model, barrier, x, applied) < -1e-12:
                        feasible_exact = False
                    if monitor >= 0 and not np.array_equal(applied, u_task):
                        feasible_exact = False
                x = model.step(x, applied, np.zeros(0))
                worst = max(worst, -min(0.0, float(barrier.h(x))))
        return worst, feasible_exact

    w_full, exact_full = run(0.1)
    w_half, exact_half = run(0.05)
    ok = (
        w_full <= euler_slack_bound(1.0, 2.5, 0.1)
        and w_half <= euler_slack_bound(1.0, 2.5, 0.05)
        and w_half <= 0.5 * w_full + 1e-12
        and exact_full
        and exact_half
    )
    _report(
        "criterion 7 (CBF forward invariance)",
        ok,
        f"worst h dip {w_full:.4f} (dt=0.1, bound {euler_slack_bound(1.0, 2.5, 0.1):.4f}) "
        f"halves to {w_half:.4f} at dt=0.05; decrease inequality exact at all feasible instants",
    )


# --- criterion 8 ----------------------------------------------------------------


def test_criterion_8_tube_mpc_recursive_feasibility(tube_bench):
    tb = tube_bench
    flt = tb["factory"]()
    model = tb["model"]
    lattice = [np.array([-0.1]), np.array([0.0]), np.array([0.1])]
    visited = [0]

    def recurse(x, depth):
        flt.reset()
        flt.intervene(x, np.array([0.8]), flt.monitor(x, np.array([0.8])))
        assert not flt.last_degraded, f"feasibility lost at {x} after depth {depth}"
        visited[0] += 1
        if depth == 5:
            return
        u = flt._plan.controls[0]
        for d in lattice:
            recurse(model.step(x, u, d), depth + 1)

    recurse(np.array([1.0]), 0)
    _report(
        "criterion 8 (tube MPC recursive feasibility)",
        visited[0] == (3 ** 6 - 1) // 2,
        f"no feasibility loss over all 3^5 disturbance sequences ({visited[0]} plans solved)",
    )


# --- criterion 9 ----------------------------------------------------------------


def test_criterion_9_separation_and_monte_carlo(robust_bench, tube_bench, cbf_bench):
    rb, tb, cb = robust_bench, tube_bench, cbf_bench
    model, wall = rb["model"], rb["wall"]
    lr = least_restrictive_filter(model, rb["grid"], rb["u5"], rb["d3"])
    task = proportional_policy([[1.0, 1.5]], [-1.0, 0.0], model.control_set)  # goal beyond the wall
    scenario = Scenario(rb["x0"], 200, wall, task, random_disturbance(model),
                        goal=np.array([-1.0, 0.0]))
    report = separation_experiment(model, lr, scenario, seeds=[0, 1, 2])
    sep_ok = (
        report.unfiltered_violations > 0
        and report.filtered_violations == 0
        and math.isfinite(report.mean_cost_inflation)
    )

    mc_specs = {
        "least_restrictive": (model, lr, task, rb["x0"], wall, 60),
        "mps": (
            model,
            mps_filter(model, optimal_fallback(model, rb["grid"], rb["u5"], rb["d3"]),
                       value_grid_terminal_set(rb["grid"]), rb["setback"], horizon=10),
            task, rb["x0"], wall, 40,
        ),
        "cbf_qp": (
            cb["model"], cb["factory"](),
            proportional_policy([[1.0, 1.5]], [-1.0, 0.0], cb["model"].control_set),
            cb["x0"], cb["wall"], 60,
        ),
        "tube_mpc": (
            tb["model"], tb["factory"](),
            proportional_policy([[1.0]], [3.0], tb["U"]),
            tb["x0"], tb["margin"], 40,
        ),
    }
    mc_ok = True
    estimates = {}
    for name, (m, flt, tsk, x0, margin, steps) in mc_specs.items():
        mc = monte_carlo_safety(m, flt, tsk, x0, steps, 1000, margin, seed=1234)
        estimates[name] = mc.failures
        if mc.failures != 0:
            mc_ok = False
    _report(
        "criterion 9 (separation + Monte Carlo)",
        sep_ok and mc_ok,
        f"unfiltered goal-run violates ({report.unfiltered_violations} states), filtered 0, "
        f"cost inflation {report.mean_cost_inflation:.1f}; MC failures/1000: {estimates}",
    )


# --- criterion 10 ----------------------------------------------------------------


def test_criterion_10_determinism(robust_bench, tmp_path, capsys):
    rb = robust_bench
    model = rb["model"]
    lr = least_restrictive_filter(model, rb["grid"], rb["u5"], rb["d3"])
    task = margin_descent_policy(model, rb["wall"], rb["u3"])
    dist = random_disturbance(model)
    t1, _ = run_episode(model, lr, task, dist, rb["x0"], 150, 99, rb["wall"])
    t2, _ = run_episode(model, lr, task, dist, rb["x0"], 150, 99, rb["wall"])
    replay_ok = (
        t1.states.tobytes() == t2.states.tobytes()
        and replay_states(model, t1).tobytes() == t1.states.tobytes()
    )
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    cfg = "configs/double_integrator_wall.yaml"
    assert cli_main(["solve", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert cli_main(["solve", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    bytes_ok = (
        (out1 / "value_function.grid").read_bytes() == (out2 / "value_function.grid").read_bytes()
    )
    _report(
        "criterion 10 (determinism)",
        replay_ok and bytes_ok,
        "episodes replay bit-exactly from their seed; solve outputs byte-identical across reruns",
    )
