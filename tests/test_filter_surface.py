"""The shared filter surface: ``decide`` evaluates the monitor exactly once and
hands the value to ``intervene``; ``SafetyFilter`` itself is the switch."""
import re

import numpy as np
import pytest

from safefilter import (
    Box,
    Monitor,
    OccupancyWorld,
    SafetyFilter,
    braking_fallback,
    braking_terminal_set,
    builtin_barrier_double_integrator,
    cbf_qp_filter,
    constant_policy,
    decide,
    discretize_box,
    exploration_filter,
    least_restrictive_filter,
    make_double_integrator,
    make_planar_double_integrator,
    margin_halfspace,
    mps_filter,
    passthrough_filter,
    run_episode,
    solve,
    tube_mpc_filter,
    verify_monitor_soundness,
    zero_disturbance,
)

DT = 0.1
WALL = margin_halfspace([1.0, 0.0], 0.0)


def _lr():
    model = make_double_integrator(1.0, 0.1, DT)
    grid, _ = solve(model, WALL, (Box([0.0, -2.0], [3.0, 2.0]), (31, 31)), [5], [3])
    flt = least_restrictive_filter(
        model, grid,
        discretize_box(model.control_set, [5]), discretize_box(model.disturbance_set, [3]),
    )
    return flt, [([2.0, 0.0], [0.3]), ([0.45, -0.9], [-1.0])]


def _mps():
    model = make_double_integrator(1.0, 0.0, DT)
    fallback = braking_fallback(model, v_tol=DT)
    terminal = braking_terminal_set(model, v_tol=DT, safe_box=Box([0.5], [2.5]))
    flt = mps_filter(model, fallback, terminal, WALL, horizon=10)
    return flt, [([1.5, 0.0], [0.0]), ([0.6, -0.5], [-1.0])]


def _passthrough():
    flt = passthrough_filter(make_double_integrator(1.0, 0.0, DT))
    return flt, [([1.0, 1.0], [0.4])]


def _exploration():
    world = OccupancyWorld.from_text("1111111\n1000001\n1000001\n1111111", cell_size=0.5)
    flt = exploration_filter(make_planar_double_integrator(1.0, DT), 0.8, world, 10)
    flt.reset(np.array([1.0, 0.75, 0.0, 0.0]))
    return flt, [([1.0, 0.75, 0.0, 0.0], [0.0, 0.0]), ([1.0, 0.75, 2.0, 0.0], [1.0, 0.0])]


def _cbf():
    model = make_double_integrator(1.0, 0.0, DT)
    flt = cbf_qp_filter(model, builtin_barrier_double_integrator(1.0, kappa=0.5 / DT))
    return flt, [([2.0, 0.0], [0.0]), ([0.5, -1.0], [-1.0])]


def _tube():
    flt = tube_mpc_filter(
        [[1.0]], [[1.0]], [[-0.5]], Box([-1.0], [1.0]), Box([-0.1], [0.1]),
        [([-1.0], -2.0)], Box([-0.5], [0.5]), 5,
    )
    flt.reset()
    return flt, [([0.0], [0.3]), ([1.95], [1.0])]


def _count_monitor_calls(flt):
    calls = []
    evaluate = flt.monitor.evaluate

    def counting(x, u):
        calls.append(1)
        return evaluate(x, u)

    object.__setattr__(flt.monitor, "evaluate", counting)
    return calls


FAMILIES = pytest.mark.parametrize(
    "build", [_lr, _mps, _passthrough, _exploration, _cbf, _tube],
    ids=["lr", "mps", "passthrough", "exploration", "cbf", "tube"],
)


@FAMILIES
def test_decide_evaluates_the_monitor_once(build):
    flt, cases = build()
    calls = _count_monitor_calls(flt)
    overridden = []
    for x, u in cases:
        calls.clear()
        decision = decide(flt, x, u)
        assert len(calls) == 1
        overridden.append(decision.overridden)
    # both branches are exercised (the passthrough has only the passing one)
    assert overridden == [False, True][: len(cases)]


@FAMILIES
def test_decide_rejects_inputs_of_another_dimension(build):
    """A state or candidate of another size raises ``ValueError`` naming both
    shapes before any monitor call. Without the check CBF-QP passed a 3-d
    state's candidate and least-restrictive a 2-entry candidate on its
    1-control model; MPS and tube MPC failed inside their loops."""
    flt, cases = build()
    x, u = cases[0]
    calls = []
    object.__setattr__(flt.monitor, "evaluate", lambda x, u: calls.append(1))
    for bad_x, bad_u in [(x + [7.0], u), (x[:-1], u), (x, u + [0.5]), (x, [u])]:
        given = np.shape(bad_x), np.shape(bad_u)
        expected = f"shapes {given[0]} and {given[1]}, the filter's ({len(x)},) and ({len(u)},)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            decide(flt, bad_x, bad_u)
    assert not calls


STATE_2D = pytest.mark.parametrize("build", [_mps, _passthrough, _cbf],
                                   ids=["mps", "passthrough", "cbf"])
BAD_STATE = re.escape("shapes (3,) and (1,), the filter's (2,) and (1,)")


@STATE_2D
def test_run_episode_rejects_a_state_of_another_dimension(build):
    """The deployment check runs ``decide``'s shape check before its monitor
    call; without it CBF-QP certified the 3-d state [2, 0, 7]."""
    flt, cases = build()
    calls = _count_monitor_calls(flt)
    model = make_double_integrator(1.0, 0.0, DT)
    with pytest.raises(ValueError, match=BAD_STATE):
        run_episode(model, flt, constant_policy([0.0]), zero_disturbance(model),
                    cases[0][0] + [7.0], 5, 0, WALL)
    assert not calls


@STATE_2D
def test_soundness_check_rejects_a_state_of_another_dimension(build):
    """Without the shape check the monitor certified the 3-d state and the
    rollout then failed in a numpy matmul."""
    flt, cases = build()
    calls = _count_monitor_calls(flt)
    model = make_double_integrator(1.0, 0.0, DT)
    with pytest.raises(ValueError, match=BAD_STATE):
        verify_monitor_soundness(model, flt, [np.array(cases[0][0] + [7.0])], 2,
                                 discretize_box(model.disturbance_set, []), WALL)
    assert not calls


def test_switch_intervention_uses_the_given_value():
    calls = []

    def evaluate(x, u):
        calls.append(1)
        return -1.0

    fallback = lambda x: np.array([-0.5])  # noqa: E731
    flt = SafetyFilter(Monitor(evaluate), fallback, state_dim=2, control_dim=1)
    x, u = np.array([1.0, 0.0]), np.array([0.25])
    assert flt.intervene(x, u, 0.0) is u
    assert np.array_equal(flt.intervene(x, u, -1e-300), fallback(x))
    assert not calls  # a given value is trusted, not re-evaluated
    # the value is required: a caller evaluates the monitor itself
    with pytest.raises(TypeError):
        flt.intervene(x, u)
    assert np.array_equal(flt.intervene(x, u, flt.monitor(x, u)), fallback(x))
    assert len(calls) == 1
    assert not flt.last_degraded
