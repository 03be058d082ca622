import numpy as np
import pytest

from safefilter import (
    Box,
    DeploymentRejected,
    compute_tightening,
    decide,
    make_linear_model,
    margin_halfspace,
    run_episode,
    tube_mpc_filter,
)

A1 = np.array([[1.0]])
B1 = np.array([[1.0]])
K1 = np.array([[-0.5]])
U1 = Box([-1.0], [1.0])
D1 = Box([-0.1], [0.1])
HALFSPACES = [([-1.0], -2.0)]  # safe iff -x >= -2, i.e. x <= 2
TERMINAL = Box([-0.5], [0.5])
H = 5


def scalar_filter():
    return tube_mpc_filter(A1, B1, K1, U1, D1, HALFSPACES, TERMINAL, H)


def scalar_model():
    return make_linear_model(A1, B1, U1, D1)


# --- tightening ----------------------------------------------------------------


def test_tightening_zero_disturbance():
    bounds = compute_tightening(A1, B1, K1, Box([0.0], [0.0]), 5)
    assert bounds.shape == (6, 2, 1)
    assert np.all(bounds == 0.0)


def test_tightening_geometric_series():
    bounds = compute_tightening(A1, B1, K1, Box([-1.0], [1.0]), 6)
    for tau, (lo, hi) in enumerate(bounds):
        expect = 2.0 - 2.0 ** (1 - tau) if tau else 0.0
        assert hi[0] == pytest.approx(expect)
        assert lo[0] == pytest.approx(-expect)


def test_tightening_first_step_equals_disturbance_box():
    bounds = compute_tightening(A1, B1, K1, D1, 3)
    assert np.array_equal(bounds[1], np.asarray(D1))
    assert np.array_equal(bounds[0], np.zeros((2, 1)))


def test_tightening_monotone_stages():
    bounds = compute_tightening(A1, B1, K1, D1, 8)
    for a, b in zip(bounds, bounds[1:]):
        assert b[1, 0] >= a[1, 0] - 1e-15


def test_unstable_gain_rejected():
    with pytest.raises(ValueError):
        compute_tightening(A1, B1, np.array([[0.0]]), D1, 4)
    with pytest.raises(ValueError):
        tube_mpc_filter(A1, B1, np.array([[0.0]]), U1, D1, HALFSPACES, TERMINAL, H)


def test_construction_rejects_incoherent_geometry():
    # terminal box tightens to empty when the disturbance is too large
    with pytest.raises(ValueError):
        tube_mpc_filter(A1, B1, K1, U1, Box([-0.5], [0.5]), HALFSPACES, Box([-0.3], [0.3]), H)
    # terminal region flush against the failure wall fails the settle check
    with pytest.raises(ValueError):
        tube_mpc_filter(A1, B1, K1, U1, D1, HALFSPACES, Box([1.0], [2.0]), H)


def test_construction_names_the_stage_that_tightens_to_empty():
    # |K e_2| = 0.075 exceeds the control half-width 0.05 at stage 2
    with pytest.raises(ValueError, match="control set tightens to empty at stage 2"):
        tube_mpc_filter([[1]], [[1]], [[-0.5]], Box([-0.05], [0.05]), Box([-0.1], [0.1]),
                        [([-1], -2)], Box([-0.5], [0.5]), 5)
    with pytest.raises(ValueError, match="terminal box tightens to empty"):
        tube_mpc_filter(A1, B1, K1, U1, Box([-0.5], [0.5]), HALFSPACES, Box([-0.3], [0.3]), H)


# --- filter behavior --------------------------------------------------------------


def test_interior_task_control_passes_exactly():
    flt = scalar_filter()
    flt.reset()
    x = np.array([0.0])
    u = np.array([0.3])
    assert flt.monitor(x, u) == 0.5
    assert flt.intervene(x, u, flt.monitor(x, u)) is u


def test_monitor_is_plan_feasibility():
    flt = scalar_filter()
    flt.reset()
    assert flt.monitor(np.array([0.0]), np.array([0.0])) == 0.5
    # from x=1.95 a control pushing up cannot keep the tightened plan feasible
    assert flt.monitor(np.array([1.95]), np.array([1.0])) == -0.5
    # the monitor embeds stage-0 membership: already failing states are rejected
    assert flt.monitor(np.array([2.5]), np.array([0.0])) == -0.5


def test_rejected_decide_solves_the_pinned_plan_once():
    flt = scalar_filter()
    flt.reset()
    solves = []
    solve_plan = flt._solve_plan

    def counting(x, u_ref, pin_first):
        solves.append(pin_first)
        return solve_plan(x, u_ref, pin_first)

    flt._solve_plan = counting
    decision = decide(flt, np.array([1.95]), np.array([1.0]))
    assert decision.overridden and not decision.degraded
    # the monitor's pinned solve proved the candidate infeasible; only the
    # minimal-deviation replan follows it
    assert solves == [True, False]


def test_optimization_type_intervention_minimal_deviation():
    flt = scalar_filter()
    flt.reset()
    x = np.array([1.5])
    u_task = np.array([1.0])
    out = flt.intervene(x, u_task, flt.monitor(x, u_task))
    assert not flt.last_degraded
    assert out[0] < 1.0
    # dense cross-check: best feasible first control over a control lattice
    grid = np.linspace(-1, 1, 201)
    best = None
    for u0 in grid:
        if flt.monitor(x, np.array([u0])) == 0.5:
            if best is None or abs(u0 - 1.0) < abs(best - 1.0):
                best = u0
    assert best is not None
    assert abs(out[0] - u_task[0]) <= abs(best - u_task[0]) + 0.02


def test_infeasible_uses_shifted_last_plan():
    flt = scalar_filter()
    flt.reset()
    x = np.array([1.2])
    u = flt.intervene(x, np.array([0.4]), flt.monitor(x, np.array([0.4])))
    plan = flt._plan
    assert plan is not None and plan.age == 1
    x_bad = np.array([2.5])  # beyond the failure wall: no plan exists
    out = flt.intervene(x_bad, np.array([0.0]), flt.monitor(x_bad, np.array([0.0])))
    assert flt.last_degraded
    expected = plan.controls[1] + K1 @ (x_bad - plan.nominals[1])
    assert np.allclose(out, np.clip(expected, -1, 1))


def test_deployment_rejected_without_cache():
    flt = scalar_filter()
    flt.reset()
    x, u = np.array([2.5]), np.array([0.0])
    with pytest.raises(DeploymentRejected):
        flt.intervene(x, u, flt.monitor(x, u))
    model = scalar_model()
    margin = margin_halfspace([-1.0], -2.0)
    flt.reset()
    with pytest.raises(DeploymentRejected):
        run_episode(model, flt, lambda x, rng: np.zeros(1),
                    lambda x, u, rng: np.zeros(1), np.array([2.5]), 10, 0, margin)


def test_zero_disturbance_reduces_to_untightened_mpc():
    flt0 = tube_mpc_filter(A1, B1, K1, U1, Box([0.0], [0.0]), HALFSPACES, TERMINAL, H)
    t = flt0.tightened
    assert np.allclose(t.error_bounds, 0)
    for tau in range(H):
        assert np.array_equal(t.control_bounds[tau], np.asarray(U1))
        assert t.stage_offsets[0, tau] == pytest.approx(-2.0)
    assert np.array_equal(t.terminal_bounds, np.asarray(TERMINAL))
    # decisions agree with the robust filter in the common interior and are
    # strictly more permissive near the wall
    flt = scalar_filter()
    for x0 in np.linspace(-0.5, 1.5, 21):
        flt.reset()
        flt0.reset()
        u = np.array([0.6])
        m_robust = flt.monitor(np.array([x0]), u)
        m_plain = flt0.monitor(np.array([x0]), u)
        if m_robust == 0.5:
            assert m_plain == 0.5


def test_tube_error_bounds_sound_random_sequences():
    flt = scalar_filter()
    rng = np.random.default_rng(0)
    closed = A1 + B1 @ K1
    for _ in range(2000):
        err = np.zeros(1)
        for tau in range(1, H + 1):
            err = closed @ err + D1.sample(rng)
            assert Box(*flt.tightened.error_bounds[tau]).contains(err, tol=1e-12)


# --- recursive feasibility (exhaustive shift-and-check) ---------------------------


def _shifted_plan_satisfies_constraints(flt, plan, x_next, tol=1e-9):
    """Build the standard shifted candidate after one disturbance step and
    check it against the stage, control, and terminal constraints directly."""
    closed = A1 + B1 @ K1
    err = x_next - plan.nominals[1]
    controls = []
    nominals = [x_next.copy()]
    e = err.copy()
    for tau in range(H - 1):
        u = plan.controls[tau + 1] + K1 @ e
        controls.append(u)
        nominals.append(A1 @ nominals[-1] + B1 @ u)
        e = closed @ e
    # terminal-stage controller extends the plan by one stage
    controls.append(K1 @ nominals[-1])
    nominals.append(A1 @ nominals[-1] + B1 @ controls[-1])
    t = flt.tightened
    for tau in range(H):
        if not Box(*t.control_bounds[tau]).contains(controls[tau], tol=tol):
            return False
        for i, nrm in enumerate(flt.normals):
            if tau >= 1 and float(nrm @ nominals[tau]) < t.stage_offsets[i, tau] - tol:
                return False
    return Box(*t.terminal_bounds).contains(nominals[H], tol=tol)


def test_recursive_feasibility_exhaustive():
    flt = scalar_filter()
    model = scalar_model()
    lattice = [np.array([-0.1]), np.array([0.0]), np.array([0.1])]

    def recurse(x, depth):
        flt.reset()
        u = flt.intervene(x, np.array([0.8]), flt.monitor(x, np.array([0.8])))
        assert not flt.last_degraded, f"feasibility lost at {x} depth {depth}"
        plan = flt._plan
        if depth == 5:
            return
        for d in lattice:
            x_next = model.step(x, u, d)
            assert _shifted_plan_satisfies_constraints(flt, plan, x_next), (
                f"shifted plan infeasible from {x} with d={d}"
            )
            recurse(x_next, depth + 1)

    recurse(np.array([1.0]), 0)


def test_plan_cache_reset():
    flt = scalar_filter()
    flt.reset()
    x, u = np.array([0.5]), np.array([0.2])
    flt.intervene(x, u, flt.monitor(x, u))
    assert flt._plan is not None
    flt.reset()
    assert flt._plan is None


def test_verbose_plan_dump(tmp_path):
    flt = scalar_filter()
    flt.reset()
    flt.plan_log_dir = str(tmp_path)
    x, u = np.array([0.5]), np.array([0.2])
    flt.intervene(x, u, flt.monitor(x, u))
    files = sorted(tmp_path.glob("plan_*.csv"))
    assert files
    lines = files[0].read_text().strip().splitlines()
    assert lines[0] == "stage,u0,x0"
    assert len(lines) == H + 2  # header + stages 0..H


def test_plan_csv_bytes_are_pinned(tmp_path):
    """The exact files of a pinned plan and of a replan that overrides the
    candidate: ``\\r\\n`` line ends, shortest round-trip floats and blank
    control cells on the last stage, which has no control."""
    flt = scalar_filter()
    flt.reset()
    flt.plan_log_dir = str(tmp_path)
    for x, u in ((0.5, 0.2), (1.95, 1.0)):
        x, u = np.array([x]), np.array([u])
        flt.intervene(x, u, flt.monitor(x, u))
    assert (tmp_path / "plan_000000.csv").read_bytes() == (
        b"stage,u0,x0\r\n0,0.2,0.5\r\n1,-0.0984375,0.7\r\n2,-0.0984375,0.6015625\r\n"
        b"3,-0.0984375,0.503125\r\n4,-0.0984375,0.40468750000000003\r\n5,,0.30625\r\n"
    )
    assert (tmp_path / "plan_000001.csv").read_bytes() == (
        b"stage,u0,x0\r\n0,-0.04999999999999993,1.95\r\n1,-0.3984375,1.9\r\n"
        b"2,-0.3984375,1.5015625\r\n3,-0.3984375,1.103125\r\n"
        b"4,-0.3984375,0.7046875000000001\r\n5,,0.30625000000000013\r\n"
    )
