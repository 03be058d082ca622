import numpy as np
import pytest

from safefilter import (
    Box,
    FallbackPolicy,
    braking_fallback,
    braking_terminal_set,
    decide,
    discretize_box,
    least_restrictive_filter,
    make_double_integrator,
    margin_halfspace,
    mps_filter,
    mps_monitor,
    optimal_fallback,
    propagate_frs,
    solve,
    value_grid_terminal_set,
    write_tube_csv,
)

DT = 0.1


@pytest.fixture(scope="module")
def det_setup():
    """Deterministic double integrator with braking fallback and rest set."""
    model = make_double_integrator(1.0, 0.0, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    fallback = braking_fallback(model, v_tol=DT)
    terminal = braking_terminal_set(model, v_tol=DT, safe_box=Box([0.5], [2.5]))
    return model, g, fallback, terminal


# --- tube propagation ----------------------------------------------------------


def test_frs_degenerate_without_disturbance(det_setup):
    model, g, fallback, terminal = det_setup
    x = np.array([1.0, 0.6])
    tube = propagate_frs(model, fallback, x, np.array([0.2]), horizon=6)
    assert tube.horizon == 6
    # no disturbance and point evaluation: every set is the exact trajectory
    traj = [x]
    u0 = np.array([0.2])
    traj.append(model.step(traj[-1], u0, np.zeros(0)))
    for _ in range(5):
        traj.append(model.step(traj[-1], fallback(traj[-1]), np.zeros(0)))
    for box, pt in zip(tube.sets, traj):
        assert np.allclose(box.lower, pt, atol=1e-14)
        assert np.allclose(box.upper, pt, atol=1e-14)


def test_frs_one_step_interval_example():
    model = make_double_integrator(1.0, 0.1, DT)
    tube = propagate_frs(model, lambda x: np.array([0.0]), np.array([0.0, 1.0]),
                         np.array([0.0]), horizon=1)
    assert np.allclose(tube.sets[1].lower, [0.1, 1.0 - 0.1 * DT])
    assert np.allclose(tube.sets[1].upper, [0.1, 1.0 + 0.1 * DT])


def test_frs_width_monotone_for_constant_control():
    model = make_double_integrator(1.0, 0.1, DT)
    fb = FallbackPolicy(lambda x: np.array([0.3]), control_box=lambda b: Box([0.3], [0.3]))
    tube = propagate_frs(model, fb, np.array([0.0, 0.0]), np.array([0.3]), horizon=8)
    widths = [b.width for b in tube.sets]
    for w0, w1 in zip(widths, widths[1:]):
        assert np.all(w1 >= w0 - 1e-14)


def test_frs_soundness_random_containment():
    model = make_double_integrator(1.0, 0.2, DT)
    fb = braking_fallback(model, v_tol=DT)
    rng = np.random.default_rng(0)
    x0 = np.array([1.5, -0.8])
    tube = propagate_frs(model, fb, x0, np.array([0.5]), horizon=10)
    # one-step sampled containment between consecutive tube sets: 10^4 samples
    for tau in range(1, tube.horizon):
        boxes = tube.sets[tau]
        nxt = tube.sets[tau + 1]
        for _ in range(1000):
            x = boxes.sample(rng)
            d = model.disturbance_set.sample(rng)
            y = model.step(x, fb(x), d)
            assert nxt.contains(y, tol=1e-9)


def test_frs_rejects_unenclosable_fallback():
    model = make_double_integrator(1.0, 0.1, DT)
    with pytest.raises(ValueError):
        propagate_frs(model, lambda x: np.array([0.0]), np.array([0.0, 0.0]),
                      np.array([0.0]), horizon=3)


def test_frs_lipschitz_enclosure_route():
    model = make_double_integrator(1.0, 0.1, DT)
    fb = FallbackPolicy(lambda x: np.array([np.clip(-0.5 * x[1], -1, 1)]), lipschitz=0.5)
    rng = np.random.default_rng(1)
    tube = propagate_frs(model, fb, np.array([0.0, 0.5]), np.array([0.0]), horizon=6)
    for tau in range(1, tube.horizon):
        for _ in range(300):
            x = tube.sets[tau].sample(rng)
            d = model.disturbance_set.sample(rng)
            assert tube.sets[tau + 1].contains(model.step(x, fb(x), d), tol=1e-9)


def test_frs_horizon_validation(det_setup):
    model, g, fallback, terminal = det_setup
    with pytest.raises(ValueError):
        propagate_frs(model, fallback, np.array([1.0, 0.0]), np.array([0.0]), horizon=0)


# --- monitor -------------------------------------------------------------------


def test_monitor_at_rest_passes(det_setup):
    model, g, fallback, terminal = det_setup
    x = np.array([1.5, 0.0])
    assert mps_monitor(model, fallback, terminal, g, x, fallback(x), 10) == 0.5


def test_monitor_fails_next_to_wall(det_setup):
    model, g, fallback, terminal = det_setup
    x = np.array([0.05, -0.8])
    assert mps_monitor(model, fallback, terminal, g, x, np.array([-1.0]), 10) == -0.5


def test_monitor_indicator_form_only(det_setup):
    model, g, fallback, terminal = det_setup
    vals = {
        mps_monitor(model, fallback, terminal, g, np.array([1.5, 0.0]), np.array([0.0]), 8),
        mps_monitor(model, fallback, terminal, g, np.array([0.05, -0.9]), np.array([-1.0]), 8),
    }
    assert vals == {0.5, -0.5}


def test_widening_disturbance_is_monotone_conservative(det_setup):
    # fixed terminal geometry, growing disturbance box: the tube only widens,
    # so a failing check can never flip back to passing
    _, g, _, terminal = det_setup
    x = np.array([1.2, -0.6])
    u = np.array([0.0])
    passed = []
    for d_max in (0.0, 0.02, 0.05, 0.1, 0.3):
        model = make_double_integrator(1.0, d_max, DT)
        fallback = braking_fallback(model, v_tol=DT)
        passed.append(mps_monitor(model, fallback, terminal, g, x, u, 8) > 0)
    assert passed[0]  # deterministic case certifies this state
    for earlier, later in zip(passed, passed[1:]):
        assert earlier or not later


# --- switch filter ---------------------------------------------------------------


def test_filter_switch_behavior(det_setup):
    model, g, fallback, terminal = det_setup
    flt = mps_filter(model, fallback, terminal, g, horizon=12)
    x = np.array([1.5, 0.0])
    u_ok = np.array([0.1])
    assert flt.intervene(x, u_ok, flt.monitor(x, u_ok)) is u_ok
    x_bad = np.array([0.05, -0.9])
    u_bad = np.array([-1.0])
    out = flt.intervene(x_bad, u_bad, flt.monitor(x_bad, u_bad))
    assert np.array_equal(out, fallback(x_bad))
    decision = decide(flt, x_bad, u_bad)
    assert decision.overridden and decision.monitor_value == -0.5


def test_filter_closed_loop_safety(det_setup):
    model, g, fallback, terminal = det_setup
    flt = mps_filter(model, fallback, terminal, g, horizon=12)
    x = np.array([1.5, 0.0])
    assert flt.monitor(x, flt.fallback(x)) >= 0
    for _ in range(150):
        decision = decide(flt, x, np.array([-1.0]))
        x = model.step(x, decision.applied, np.zeros(0))
        assert float(g(x)) >= 0
    assert abs(x[1]) <= DT  # parked near rest by the braking fallback


# --- braking terminal set --------------------------------------------------------


def test_braking_terminal_membership(det_setup):
    model, g, fallback, terminal = det_setup
    assert terminal.membership(np.array([1.0, 0.0]))
    assert not terminal.membership(np.array([1.0, 0.5]))  # above the band
    assert not terminal.membership(np.array([3.0, 0.0]))  # outside box
    # boundary state moving outward: braking drift would exit the box
    assert not terminal.membership(np.array([2.5, DT]))
    assert terminal.membership(np.array([2.4, 0.0]))


def test_braking_terminal_box_containment_conservative(det_setup):
    model, g, fallback, terminal = det_setup
    rng = np.random.default_rng(2)
    inner = Box([1.0, -0.05], [1.4, 0.05])
    assert terminal.box_containment(inner)
    for _ in range(500):
        assert terminal.membership(inner.sample(rng))
    assert not terminal.box_containment(Box([1.0, -0.2], [1.4, 0.2]))


def test_braking_terminal_stays_put_under_fallback(det_setup):
    model, g, fallback, terminal = det_setup
    x = np.array([1.5, 0.0])
    for _ in range(20):
        assert terminal.membership(x)
        x = model.step(x, fallback(x), np.zeros(0))


def test_braking_terminal_rejected_with_disturbance():
    model = make_double_integrator(1.0, 0.3, DT)
    with pytest.raises(ValueError, match="not invariant"):
        braking_terminal_set(model, v_tol=0.0, safe_box=Box([0.5], [2.5]))
    with pytest.raises(ValueError, match="not invariant"):
        braking_terminal_set(model, v_tol=DT, safe_box=Box([0.5], [2.5]))


def test_braking_terminal_rejects_bad_geometry():
    model = make_double_integrator(1.0, 0.0, DT)
    with pytest.raises(ValueError):
        braking_terminal_set(model, v_tol=-0.1, safe_box=Box([0.5], [2.5]))


# --- relation to the least-restrictive filter -------------------------------------


@pytest.fixture(scope="module")
def equivalence_setup():
    model = make_double_integrator(1.0, 0.0, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (41, 41)), [3], [1])
    assert report.converged
    u_cands = discretize_box(model.control_set, [3])
    d_cands = [np.zeros(0)]
    return model, g, grid, u_cands, d_cands


def test_horizon_one_recovers_least_restrictive(equivalence_setup):
    model, g, grid, u_cands, d_cands = equivalence_setup
    fallback = optimal_fallback(model, grid, u_cands, d_cands)
    terminal = value_grid_terminal_set(grid)
    shield = mps_filter(model, fallback, terminal, g, horizon=1)
    lr = least_restrictive_filter(model, grid, u_cands, d_cands)
    lattice = discretize_box(Box([0.0, -2.0], [3.0, 2.0]), [21, 21])
    for x in lattice:
        for u in u_cands:
            same_pass = (shield.monitor(x, u) >= 0) == (lr.monitor(x, u) >= 0)
            assert same_pass, (x, u)
            if shield.monitor(x, u) < 0:
                assert np.array_equal(
                    shield.intervene(x, u, shield.monitor(x, u)), lr.intervene(x, u, lr.monitor(x, u))
                )


def test_robust_shielding_pass_region_subset_of_least_restrictive():
    model = make_double_integrator(1.0, 0.1, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, report = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3])
    assert report.converged
    u_cands = discretize_box(model.control_set, [3])
    d_cands = discretize_box(model.disturbance_set, [3])
    fallback = optimal_fallback(model, grid, discretize_box(model.control_set, [5]), d_cands)
    shield = mps_filter(model, fallback, value_grid_terminal_set(grid), g, horizon=10)
    lr = least_restrictive_filter(model, grid, discretize_box(model.control_set, [5]), d_cands)
    lattice = discretize_box(Box([0.0, -2.0], [3.0, 2.0]), [21, 21])
    shield_passes = 0
    for x in lattice:
        for u in u_cands:
            if shield.monitor(x, u) >= 0:
                shield_passes += 1
                assert lr.monitor(x, u) >= 0  # conservatism ordering
    assert shield_passes > 0  # the shield is not vacuously conservative


def test_tube_csv_dump(det_setup, tmp_path):
    model, g, fallback, terminal = det_setup
    tube = propagate_frs(model, fallback, np.array([1.0, 0.5]), np.array([0.0]), horizon=4)
    path = tmp_path / "tube.csv"
    write_tube_csv(tube, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tau,lower_0,lower_1,upper_0,upper_1"
    assert len(lines) == 6
