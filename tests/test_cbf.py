import math

import numpy as np
import pytest

from safefilter import (
    BarrierFunction,
    Box,
    SystemModel,
    builtin_barrier_double_integrator,
    cbf_constraint,
    cbf_qp_filter,
    decide,
    euler_slack_bound,
    make_double_integrator,
    margin_halfspace,
    solve,
)
from safefilter.cbf import _project_halfspace_box, validate_alpha

DT = 0.1


def single_integrator(dt=DT):
    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        return np.stack([x[..., 0] + u[..., 0] * dt], axis=-1)

    return SystemModel(
        state_dim=1,
        control_dim=1,
        disturbance_dim=0,
        dt=dt,
        step=step_fn,
        control_set=Box([-1.0], [1.0]),
        disturbance_set=Box([], []),
        interval_step=lambda X, u, D: X,
        continuous_affine=(
            lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
            lambda x: np.array([[1.0]]),
        ),
        name="single_integrator",
    )


def parabola_barrier():
    return BarrierFunction(
        h=lambda x: 1.0 - float(np.asarray(x).ravel()[0]) ** 2,
        grad_h=lambda x: np.array([-2.0 * float(np.asarray(x).ravel()[0])]),
        alpha=lambda a: a,
    )


def test_cbf_constraint_hand_values():
    m = single_integrator()
    b = parabola_barrier()
    # center: gradient vanishes, alpha(h)=1
    assert cbf_constraint(m, b, [0.0], [5.0]) == pytest.approx(1.0)
    # boundary x=1: retreating allowed, exiting flagged
    assert cbf_constraint(m, b, [1.0], [-1.0]) == pytest.approx(2.0)
    assert cbf_constraint(m, b, [1.0], [1.0]) == pytest.approx(-2.0)


def test_cbf_requires_affine_model():
    m = single_integrator()
    m = SystemModel(**{**m.__dict__, "continuous_affine": None})
    with pytest.raises(ValueError):
        cbf_qp_filter(m, parabola_barrier())


def test_alpha_validation():
    validate_alpha(lambda a: 0.5 * a, dt=DT)
    with pytest.raises(ValueError):
        validate_alpha(lambda a: -a, dt=DT)  # decreasing
    with pytest.raises(ValueError):
        validate_alpha(lambda a: a + 1.0, dt=DT)  # alpha(0) != 0
    with pytest.raises(ValueError):
        validate_alpha(lambda a: 20.0 * a, dt=DT)  # violates a/dt margin


# --- exact projection --------------------------------------------------------


def _dense_grid_optimum(u_task, a, rhs, lo, hi, n=401):
    axes = [np.linspace(lo[i], hi[i], n if len(lo) == 1 else 101) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    feas = pts @ a >= rhs - 1e-12
    if not feas.any():
        return None
    pts = pts[feas]
    obj = np.sum((pts - u_task) ** 2, axis=1)
    return pts[np.argmin(obj)], obj.min()


@pytest.mark.parametrize("m_dim", [1, 2])
def test_projection_matches_dense_search(m_dim):
    rng = np.random.default_rng(17)
    for _ in range(200):
        lo = -np.abs(rng.normal(size=m_dim)) - 0.1
        hi = np.abs(rng.normal(size=m_dim)) + 0.1
        a = rng.normal(size=m_dim)
        rhs = rng.normal() * 0.8
        u_task = rng.normal(size=m_dim) * 1.5
        got = _project_halfspace_box(u_task, a, rhs, lo, hi)
        ref = _dense_grid_optimum(u_task, a, rhs, lo, hi)
        if got is None:
            # dense search may find hair-thin feasible corners; allow only those
            assert ref is None or float(a @ ref[0]) < rhs + 1e-6
            continue
        assert np.all(got >= lo - 1e-9) and np.all(got <= hi + 1e-9)
        assert float(a @ got) >= rhs - 1e-9
        if ref is not None:
            got_obj = float(np.sum((got - u_task) ** 2))
            assert got_obj <= ref[1] + 1e-6


def test_projection_halfspace_formula_1d():
    # constraint a*u >= b with a>0 violated: optimum is b/a clamped to the box
    u = _project_halfspace_box(np.array([-0.8]), np.array([2.0]), 0.5, np.array([-1.0]), np.array([1.0]))
    assert u[0] == pytest.approx(0.25)
    u = _project_halfspace_box(np.array([-0.8]), np.array([2.0]), 3.0, np.array([-1.0]), np.array([1.0]))
    assert u is None  # rhs beyond box support


def test_projection_feasible_passthrough_is_same_object():
    u_task = np.array([0.3])
    out = _project_halfspace_box(u_task, np.array([1.0]), -1.0, np.array([-1.0]), np.array([1.0]))
    assert out is u_task


def test_projection_constraint_independent_of_control():
    # zero gain row with satisfied drift: any control feasible
    u_task = np.array([0.7, -0.2])
    out = _project_halfspace_box(u_task, np.zeros(2), -0.5, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert out is u_task
    out = _project_halfspace_box(u_task, np.zeros(2), 0.5, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert out is None


@pytest.mark.parametrize("excess", [5e-11, 5e-10])
def test_projection_rhs_within_tolerance_above_support_gives_exact_corner(excess):
    # a right-hand side just above the box support is feasible up to the
    # tolerance; the optimum is the supporting corner, and never outside the box
    u = _project_halfspace_box(np.array([0.0]), np.array([1.0]), 1.0 + excess, np.array([-1.0]), np.array([1.0]))
    assert u is not None and u[0] == 1.0
    hi = np.array([1.0, 1.0])
    u = _project_halfspace_box(np.array([0.2, -0.3]), np.array([1.0, 2.0]), 3.0 + excess, -hi, hi)
    assert u is not None and np.all(u <= hi) and np.allclose(u, hi, rtol=0.0, atol=1e-12)


# --- built-in barrier ---------------------------------------------------------


def test_builtin_barrier_values_and_gradient():
    b = builtin_barrier_double_integrator(1.0, kappa=0.5 / DT)
    assert float(b.h(np.array([0.7, 2.0]))) == pytest.approx(0.7)  # v >= 0: h = p
    assert float(b.h(np.array([0.5, -1.0]))) == pytest.approx(0.0)  # stopping boundary
    x = np.array([0.5, -1.0])
    grad = np.asarray(b.grad_h(x))
    eps = 1e-7
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = eps
        fd = (float(b.h(x + dx)) - float(b.h(x - dx))) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-6)
    # gradient continuous across v = 0
    g_neg = np.asarray(b.grad_h(np.array([1.0, -1e-12])))
    g_pos = np.asarray(b.grad_h(np.array([1.0, 1e-12])))
    assert np.allclose(g_neg, g_pos, atol=1e-10)


def test_builtin_barrier_contained_in_value_function_safe_set():
    model = make_double_integrator(1.0, 0.0, DT)
    g = margin_halfspace([1.0, 0.0], 0.0)
    grid, _ = solve(model, g, (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [3], [1])
    b = builtin_barrier_double_integrator(1.0, kappa=0.5 / DT)
    cell = math.hypot(3.0 / 60, 4.0 / 60)
    axes_p = np.linspace(0, 3, 61)
    axes_v = np.linspace(-2, 2, 61)
    for j, v in enumerate(axes_v):
        if v >= 0:
            continue
        p_h = v * v / 2  # barrier boundary
        if p_h > 3 - 0.1:
            continue
        col = grid.values.reshape(61, 61)[:, j]
        nn = np.where(col >= 0)[0]
        assert len(nn)
        i = nn[0]
        p_v = axes_p[0] if i == 0 else axes_p[i - 1] + (3 / 60) * (-col[i - 1]) / (col[i] - col[i - 1])
        # value-function boundary may sit above the barrier boundary only by
        # the discretization gap, at most two cells
        assert p_v - p_h <= 2 * cell
        assert p_v - p_h >= -2 * cell  # and the barrier never certifies deep inside the unsafe region


# --- closed-loop filter -------------------------------------------------------


@pytest.fixture(scope="module")
def di_cbf():
    model = make_double_integrator(1.0, 0.0, DT)
    barrier = builtin_barrier_double_integrator(1.0, kappa=0.5 / DT)
    return model, barrier, cbf_qp_filter(model, barrier)


def test_feasible_task_passes_exactly(di_cbf):
    model, b, flt = di_cbf
    x = np.array([2.0, 0.0])
    u = np.array([0.4])
    assert flt.monitor(x, u) >= 0
    assert flt.intervene(x, u, flt.monitor(x, u)) is u


def test_violating_task_projected_to_constraint(di_cbf):
    model, b, flt = di_cbf
    x = np.array([0.5, -0.9])
    u_task = np.array([-1.0])
    out = flt.intervene(x, u_task, flt.monitor(x, u_task))
    assert not flt.last_degraded
    assert cbf_constraint(model, b, x, out) >= -1e-9
    assert out[0] > u_task[0]
    # minimal deviation: dense scan cannot do better
    grid_u = np.linspace(-1, 1, 4001)
    feas = [u for u in grid_u if cbf_constraint(model, b, x, [u]) >= 0]
    best = min(feas, key=lambda u: (u - u_task[0]) ** 2)
    assert abs(out[0] - u_task[0]) <= abs(best - u_task[0]) + 1e-9


def test_infeasible_falls_back_to_max_decrease(di_cbf):
    model, b, flt = di_cbf
    x = np.array([-0.5, -1.0])  # h < 0 and v < 0: no control satisfies the condition
    u = flt.intervene(x, np.array([0.0]), flt.monitor(x, np.array([0.0])))
    assert flt.last_degraded
    assert u[0] == 1.0  # argmax of hdot is full braking for v<0
    decision = decide(flt, x, np.array([0.0]))
    assert decision.degraded and decision.overridden


@pytest.mark.parametrize("depth", [1e-11, 1e-10])
def test_state_just_past_barrier_boundary_gets_full_braking_unflagged(di_cbf, depth):
    # h = -depth asks for kappa * depth more decrease than full braking gives
    model, b, flt = di_cbf
    x = np.array([0.5 - depth, -1.0])
    decision = decide(flt, x, np.array([-1.0]))
    assert decision.applied[0] == 1.0
    assert decision.overridden and not decision.degraded
    model.step(x, decision.applied, np.zeros(0))  # the control lies in the box


def test_non_interference_when_monitor_passes(di_cbf):
    model, b, flt = di_cbf
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = np.array([rng.uniform(0, 3), rng.uniform(-2, 2)])
        u = model.control_set.sample(rng)
        if flt.monitor(x, u) >= 0:
            out = flt.intervene(x, u, flt.monitor(x, u))
            assert np.max(np.abs(out - u)) <= 1e-12


def test_forward_invariance_with_first_order_slack():
    starts = [(0.02 * (i % 5) + (2.5 - 2.25 * i / 49) ** 2 / 2, -(2.5 - 2.25 * i / 49)) for i in range(50)]

    def worst(dt):
        model = make_double_integrator(1.0, 0.0, dt)
        b = builtin_barrier_double_integrator(1.0, kappa=0.5 / dt)
        flt = cbf_qp_filter(model, b)
        w = 0.0
        for x0 in starts:
            x = np.array(x0, dtype=float)
            if float(b.h(x)) < 0:
                continue
            for _ in range(300):
                u = flt.intervene(x, np.array([-1.0]), flt.monitor(x, np.array([-1.0])))
                x = model.step(x, u, np.zeros(0))
                w = max(w, -min(0.0, float(b.h(x))))
        return w

    w_full = worst(0.1)
    w_half = worst(0.05)
    assert w_full <= euler_slack_bound(1.0, 2.5, 0.1)
    assert w_half <= euler_slack_bound(1.0, 2.5, 0.05)
    assert w_half <= 0.5 * w_full + 1e-12  # first-order convergence of the slack


def test_applied_control_satisfies_constraint_when_feasible(di_cbf):
    model, b, flt = di_cbf
    x = np.array([1.0, -1.2])
    rng = np.random.default_rng(5)
    for _ in range(200):
        u_task = model.control_set.sample(rng)
        applied = flt.intervene(x, u_task, flt.monitor(x, u_task))
        if not flt.last_degraded:
            assert cbf_constraint(model, b, x, applied) >= -1e-12
        x = model.step(x, applied, np.zeros(0))
        if float(b.h(x)) < -0.5:
            break
