"""Tube MPC on bound arrays against the box-algebra filter it replaced
(``oracles.SeedTubeMPCFilter``): tightening, constraint rows, offsets, plans
and ``decide`` records must match bit for bit on a scalar, a 2-state/1-input
and a 3-state/2-input system."""
import numpy as np
import pytest

from oracles import SeedTubeMPCFilter, seed_compute_tightening
from safefilter import Box, compute_tightening, decide, tube_mpc_filter

SYSTEMS = {
    "scalar": dict(
        A=[[1.0]], B=[[1.0]], K=[[-0.5]],
        U=Box([-1.0], [1.0]), D=Box([-0.1], [0.1]),
        halfspaces=[([-1.0], -2.0)], terminal=Box([-0.5], [0.5]), H=5,
    ),
    "2x1": dict(
        A=[[0.9, 0.2], [0.1, 0.8]], B=[[1.0], [0.5]], K=[[-0.3, -0.2]],
        U=Box([-1.0], [1.0]), D=Box([-0.05, -0.05], [0.05, 0.05]),
        halfspaces=[([-1.0, 0.0], -2.0), ([0.0, 1.0], -2.0)],
        terminal=Box([-0.5, -0.5], [0.5, 0.5]), H=6,
    ),
    "3x2": dict(
        A=[[0.8, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.7]],
        B=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        K=[[-0.2, 0.0, 0.0], [0.0, -0.3, 0.0]],
        U=Box([-1.0, -1.0], [1.0, 1.0]), D=Box([-0.05] * 3, [0.05] * 3),
        halfspaces=[([-1.0, 0.0, 0.0], -2.0), ([0.0, -1.0, 0.0], -2.0),
                    ([0.0, 0.0, 1.0], -2.0), ([-1.0, -1.0, 0.0], -3.0)],
        terminal=Box([-0.5] * 3, [0.5] * 3), H=5,
    ),
}


def _args(s):
    return (s["A"], s["B"], s["K"], s["U"], s["D"], s["halfspaces"], s["terminal"], s["H"])


def _pair(name):
    s = SYSTEMS[name]
    return tube_mpc_filter(*_args(s)), SeedTubeMPCFilter(*_args(s))


def _bounds(boxes):
    return np.array([[b.lower, b.upper] for b in boxes])


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", SYSTEMS)
def test_tightening_and_rows_match_the_box_filter(name):
    s = SYSTEMS[name]
    for horizon in (1, 2, s["H"], 12):
        assert _same(compute_tightening(s["A"], s["B"], s["K"], s["D"], horizon),
                     _bounds(seed_compute_tightening(s["A"], s["B"], s["K"], s["D"], horizon)))
    flt, seed = _pair(name)
    t, st = flt.tightened, seed.tightened
    assert t.horizon == st.horizon
    assert _same(t.error_bounds, _bounds(st.error_bounds))
    assert _same(t.control_bounds, _bounds(st.control_boxes))
    assert _same(t.stage_offsets, st.stage_offsets)
    assert _same(t.terminal_bounds, _bounds([st.terminal_box]).reshape(2, -1))
    assert _same(flt._rows, seed._rows)
    assert len(seed._offsets_template) == len(flt._rows)


@pytest.mark.parametrize("name", SYSTEMS)
def test_offsets_match_the_box_filter(name):
    flt, seed = _pair(name)
    rng = np.random.default_rng(7)
    states = rng.uniform(-3.0, 3.0, size=(3000, flt.n))
    states[:50] = 0.0
    states[50:100] *= 1e-9
    for x in states:
        assert _same(flt._constraint_offsets(x), seed._constraint_offsets(x))
        assert flt._stage0_ok(x) == seed._stage0_ok(x)


def _check_plan(plan, seed_plan):
    assert (plan is None) == (seed_plan is None)
    if plan is not None:
        assert _same(plan.controls, seed_plan.controls)
        assert _same(plan.nominals, seed_plan.nominals)
        assert plan.age == seed_plan.age


@pytest.mark.parametrize("name", SYSTEMS)
def test_decide_records_match_the_box_filter(name):
    s = SYSTEMS[name]
    flt, seed = _pair(name)
    A, B = np.asarray(s["A"], dtype=float), np.asarray(s["B"], dtype=float)
    rng = np.random.default_rng(11)
    outcomes = set()
    for episode in range(20):
        x = rng.uniform(-2.5, 2.5, size=flt.n) if episode % 5 == 4 else rng.uniform(-1.0, 1.0, size=flt.n)
        flt.reset()
        seed.reset()
        for _ in range(60):
            u = rng.uniform(-1.3, 1.3, size=flt.m)
            try:
                rec = decide(flt, x, u)
            except Exception as e:  # both filters must fail the same way
                with pytest.raises(type(e)):
                    decide(seed, x, u)
                break
            ref = decide(seed, x, u)
            assert _same(rec.candidate, ref.candidate)
            assert _same(rec.applied, ref.applied)
            assert _same(rec.monitor_value, ref.monitor_value)
            assert (rec.overridden, rec.degraded) == (ref.overridden, ref.degraded)
            _check_plan(flt._plan, seed._plan)
            outcomes.add((rec.overridden, rec.degraded))
            x = A @ x + B @ rec.applied + s["D"].sample(rng)
            if rng.uniform() < 0.05:  # a kick beyond the disturbance box
                x = x + rng.uniform(-1.5, 1.5, size=flt.n)
    # the episodes reach the passing, the replanned and the degraded branch
    assert {(False, False), (True, False), (True, True)} <= outcomes


@pytest.mark.parametrize("name", SYSTEMS)
def test_fallback_plans_match_the_box_filter(name):
    flt, seed = _pair(name)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-2.5, 2.5, size=(300, flt.n)):
        flt.reset()
        seed.reset()
        assert _same(flt.fallback(x), seed.fallback(x))
        _check_plan(flt._plan, seed._plan)
        for pin in (True, False):
            u = rng.uniform(-1.2, 1.2, size=flt.m)
            _check_plan(flt._solve_plan(x, u, pin), seed._solve_plan(x, u, pin))


@pytest.mark.parametrize("name", SYSTEMS)
def test_plan_nominals_keep_their_state_when_the_caller_reuses_it(name, tmp_path):
    """A caller that writes each next state into its state array in place,
    after ``decide``: the plan's nominals, built when first read, come from
    the state of the plan's own decision. The shifted-plan fallback control
    read after the write and the ``plan_log_dir`` CSVs equal those of the box
    filter, whose plans read their nominals at once."""
    s = SYSTEMS[name]
    lazy, seed = _pair(name)
    logged = tube_mpc_filter(*_args(s))
    logged.plan_log_dir, seed.plan_log_dir = str(tmp_path / "new"), str(tmp_path / "seed")
    (tmp_path / "new").mkdir()
    (tmp_path / "seed").mkdir()
    A, B = np.asarray(s["A"], dtype=float), np.asarray(s["B"], dtype=float)
    rng = np.random.default_rng(5)
    degraded = shifted = 0
    for _ in range(6):
        state = rng.uniform(-1.0, 1.0, size=lazy.n)  # the caller's one state array
        for flt in (lazy, logged, seed):
            flt.reset()
        for _ in range(40):
            u = rng.uniform(-1.3, 1.3, size=lazy.m)
            x = state.copy()
            try:
                ref = decide(seed, x, u)
            except Exception as e:  # all three filters must fail the same way
                for flt in (lazy, logged):
                    with pytest.raises(type(e)):
                        decide(flt, state, u)
                break
            for flt in (lazy, logged):
                rec = decide(flt, state, u)
                assert _same(rec.applied, ref.applied)
                degraded += rec.degraded
            state[:] = A @ x + B @ ref.applied + s["D"].sample(rng)
            if rng.uniform() < 0.1:  # a kick beyond the disturbance box
                state += rng.uniform(-1.5, 1.5, size=lazy.n)
            if seed._plan is not None:
                shifted += 1
                expected = seed.fallback(state.copy())
                assert _same(lazy.fallback(state), expected)
                assert _same(logged.fallback(state), expected)
    assert degraded and shifted
    new, ref = sorted((tmp_path / "new").iterdir()), sorted((tmp_path / "seed").iterdir())
    assert [p.name for p in new] == [p.name for p in ref] and len(new) > 10
    assert all(p.read_bytes() == q.read_bytes() for p, q in zip(new, ref))
