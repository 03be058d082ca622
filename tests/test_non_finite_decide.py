"""``decide`` fails closed on non-finite input, for every filter family: a
state with a NaN or infinite coordinate raises ``InputDomainError`` before any
monitor call, and a non-finite candidate is never shown to the monitor; it is
recorded with a NaN monitor value and overridden by a finite control."""
import math
from pathlib import Path

import numpy as np
import pytest

from safefilter import (
    Box,
    InputDomainError,
    braking_fallback,
    braking_terminal_set,
    builtin_barrier_double_integrator,
    cbf_qp_filter,
    decide,
    discretize_box,
    exploration_filter,
    least_restrictive_filter,
    load_occupancy_world,
    make_double_integrator,
    make_planar_double_integrator,
    margin_halfspace,
    mps_filter,
    optimal_fallback,
    solve,
    tube_mpc_filter,
    value_grid_terminal_set,
)

WORLD = Path(__file__).resolve().parent.parent / "configs" / "worlds" / "room.txt"
FAMILIES = ("least_restrictive", "mps_braking", "mps_optimal", "cbf_qp", "tube_mpc", "exploration")
BAD = (math.nan, math.inf, -math.inf)


@pytest.fixture(scope="module")
def filters():
    """name -> (filter, control set, finite state, finite candidate)."""
    wall = margin_halfspace([1.0, 0.0], 0.0)
    robust = make_double_integrator(1.0, 0.1, 0.1)
    grid, _ = solve(robust, wall, (Box([0.0, -2.0], [3.0, 2.0]), (31, 31)), [5], [3])
    u5 = discretize_box(robust.control_set, [5])
    d3 = discretize_box(robust.disturbance_set, [3])
    det = make_double_integrator(1.0, 0.0, 0.1)
    braking = mps_filter(
        det, braking_fallback(det, 0.1),
        braking_terminal_set(det, 0.1, Box([0.5], [2.5])), wall, 10,
    )
    optimal = mps_filter(
        robust, optimal_fallback(robust, grid, u5, d3), value_grid_terminal_set(grid), wall, 8
    )
    tube = tube_mpc_filter([[1.0]], [[1.0]], [[-0.5]], Box([-1.0], [1.0]), Box([-0.1], [0.1]),
                           [([-1.0], -2.0)], Box([-0.5], [0.5]), 5)
    planar = make_planar_double_integrator(1.0, 0.1)
    explore = exploration_filter(planar, 1.2, load_occupancy_world(WORLD, 0.5), 15)
    return {
        "least_restrictive": (least_restrictive_filter(robust, grid, u5, d3),
                              robust.control_set, [1.5, 0.0], [0.5]),
        "mps_braking": (braking, det.control_set, [1.5, 0.0], [0.5]),
        "mps_optimal": (optimal, robust.control_set, [1.5, 0.0], [0.5]),
        "cbf_qp": (cbf_qp_filter(det, builtin_barrier_double_integrator(1.0, 5.0, 0.15)),
                   det.control_set, [2.0, 0.0], [0.5]),
        "tube_mpc": (tube, tube.control_set, [1.0], [0.5]),
        "exploration": (explore, planar.control_set, [1.0, 1.0, 0.0, 0.0], [0.5, 0.0]),
    }


def _counting_monitor(flt, monkeypatch):
    calls = []
    monitor = flt.monitor

    def counted(x, u):
        calls.append((x, u))
        return monitor(x, u)

    monkeypatch.setattr(flt, "monitor", counted)
    return calls


@pytest.mark.parametrize("name", FAMILIES)
def test_non_finite_state_raises_before_the_monitor(name, filters, monkeypatch):
    flt, _, x, u = filters[name]
    flt.reset(np.array(x))
    calls = _counting_monitor(flt, monkeypatch)
    for i in range(len(x)):
        for bad in BAD:
            x_bad = np.array(x)
            x_bad[i] = bad
            with pytest.raises(InputDomainError, match="not finite"):
                decide(flt, x_bad, u)
    assert calls == []
    # a finite decision still goes through the monitor exactly once
    decide(flt, np.array(x), u)
    assert len(calls) == 1


@pytest.mark.parametrize("name", FAMILIES)
def test_non_finite_candidate_is_overridden_by_a_finite_control(name, filters, monkeypatch):
    flt, control_set, x, u = filters[name]
    calls = _counting_monitor(flt, monkeypatch)
    for i in range(len(u)):
        for bad in BAD:
            flt.reset(np.array(x))
            u_bad = np.array(u)
            u_bad[i] = bad
            decision = decide(flt, np.array(x), u_bad)
            assert math.isnan(decision.monitor_value)
            assert decision.overridden
            assert np.isfinite(decision.applied).all()
            assert control_set.contains(decision.applied)
    assert calls == []
