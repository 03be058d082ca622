import numpy as np
import pytest

from safefilter import (
    Box,
    BudgetExceededError,
    decide,
    discretize_box,
    filtered_step,
    least_restrictive_filter,
    make_double_integrator,
    margin_halfspace,
    passthrough_filter,
    solve,
    value_at,
    verify_monitor_soundness,
)

DT = 0.1


@pytest.fixture(scope="module")
def wall_setup():
    model = make_double_integrator(1.0, 0.1, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    # the filter's candidate lattice matches the one the grid was solved with,
    # so the fallback argmax realizes the value the certificate promises
    u_cands = discretize_box(model.control_set, [5])
    d_cands = discretize_box(model.disturbance_set, [3])
    flt = least_restrictive_filter(model, grid, u_cands, d_cands)
    return model, g, grid, u_cands, d_cands, flt


def test_pass_through_deep_inside(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    x = np.array([2.0, 0.0])
    u = np.array([0.3])
    assert flt.monitor(x, u) >= 0
    out = flt.intervene(x, u, flt.monitor(x, u))
    assert out is u  # bit-exact pass-through


def test_override_toward_wall(wall_setup):
    # walk toward the wall at fixed speed until pushing further fails the
    # monitor while the state itself is still certified
    model, g, grid, u_cands, d_cands, flt = wall_setup
    u_bad = np.array([-1.0])
    x = None
    for p in np.linspace(2.0, 0.3, 120):
        cand = np.array([p, -0.9])
        if flt.monitor(cand, flt.fallback(cand)) >= 0 and flt.monitor(cand, u_bad) < 0:
            x = cand
            break
    assert x is not None, "no certified boundary state found"
    out = flt.intervene(x, u_bad, flt.monitor(x, u_bad))
    assert out[0] == 1.0  # maximal braking away from the wall


def test_monitor_singleton_disturbance_reduction():
    model = make_double_integrator(1.0, 0.0, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, _ = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [3], [1])
    flt = least_restrictive_filter(
        model, grid, discretize_box(model.control_set, [3]), [np.zeros(0)]
    )
    x = np.array([1.5, -0.5])
    u = np.array([0.2])
    expected = value_at(grid, model.step(x, u, np.zeros(0)))
    assert flt.monitor(x, u) == pytest.approx(expected, abs=0)


def test_decision_record_contract(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    x = np.array([2.0, 0.0])
    decision = decide(flt, x, np.array([0.5]))
    assert not decision.overridden
    assert np.array_equal(decision.applied, decision.candidate)
    assert decision.monitor_value == pytest.approx(flt.monitor(x, np.array([0.5])))

    x2 = np.array([0.45, -0.9])
    d2 = decide(flt, x2, np.array([-1.0]))
    assert d2.overridden
    assert not np.array_equal(d2.applied, d2.candidate)
    assert d2.monitor_value < 0


def test_filtered_step_runs_plant(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    x = np.array([2.0, 0.0])
    x_next, decision = filtered_step(model, flt, lambda s: np.array([0.5]), x, np.array([0.1]))
    assert np.array_equal(x_next, model.step(x, decision.applied, np.array([0.1])))


def test_task_equal_to_fallback_never_overridden(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    x = np.array([1.0, -0.8])
    for _ in range(40):
        u_fb = flt.fallback(x)
        if flt.monitor(x, u_fb) < 0:
            break
        decision = decide(flt, x, u_fb)
        assert not decision.overridden
        x = model.step(x, decision.applied, np.array([-0.1]))


def test_recursive_positivity_along_filtered_runs(wall_setup):
    # monitor(x_t, fallback(x_t)) stays nonnegative under any task policy and
    # every lattice disturbance pattern tried here
    model, g, grid, u_cands, d_cands, flt = wall_setup
    rng = np.random.default_rng(0)
    for policy in (
        lambda s: np.array([-1.0]),
        lambda s: model.control_set.sample(rng),
        lambda s: np.array([0.7]),
    ):
        x = np.array([1.5, 0.0])
        assert flt.monitor(x, flt.fallback(x)) >= 0
        for t in range(60):
            decision = decide(flt, x, policy(x))
            d = d_cands[rng.integers(len(d_cands))]
            x = model.step(x, decision.applied, d)
            assert flt.monitor(x, flt.fallback(x)) >= 0
            assert float(g(x)) >= 0


def test_passthrough_filter_identity():
    model = make_double_integrator(1.0, 0.0, DT)
    flt = passthrough_filter(model)
    x = np.array([1.0, 1.0])
    u = np.array([0.4])
    assert flt.intervene(x, u, flt.monitor(x, u)) is u
    assert flt.monitor(x, u) == 0.0


# --- soundness oracle -----------------------------------------------------------


def test_soundness_horizon_zero_vacuous(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    report = verify_monitor_soundness(model, flt, [np.array([2.0, 0.0])], 0, d_cands, g)
    assert report.sound
    assert report.certified_states == 1


def test_soundness_certified_lattice(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    initial = discretize_box(Box([0.5, -1.0], [2.5, 1.0]), [3, 3])
    d2 = discretize_box(model.disturbance_set, [2])
    report = verify_monitor_soundness(model, flt, initial, 6, d2, g)
    assert report.sound
    assert report.certified_states > 0


def test_soundness_catches_corrupted_certificate(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    corrupted = grid.with_values(grid.values + 10.0)
    bad = least_restrictive_filter(model, corrupted, u_cands, d_cands)
    initial = discretize_box(Box([0.05, -1.5], [0.3, -0.5]), [3, 3])
    d2 = discretize_box(model.disturbance_set, [2])
    report = verify_monitor_soundness(model, bad, initial, 6, d2, g)
    assert not report.sound
    x0, d_seq, x_bad = report.counterexamples[0]
    assert float(g(x_bad)) < 0


def test_soundness_budget_error(wall_setup):
    model, g, grid, u_cands, d_cands, flt = wall_setup
    with pytest.raises(BudgetExceededError):
        verify_monitor_soundness(
            model, flt, [np.array([2.0, 0.0])], 40,
            discretize_box(model.disturbance_set, [2]), g, budget=1000,
        )
