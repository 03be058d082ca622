"""The CBF-QP filter, its barrier and the models' affine split against the
three-evaluation oracle in ``oracles.py``: decisions, monitor values, fallback
controls and affine terms must be byte-identical."""
import dataclasses

import numpy as np
import pytest

from safefilter import (
    builtin_barrier_double_integrator,
    cbf_qp_filter,
    decide,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_planar_double_integrator,
)
from oracles import (
    seed_barrier_double_integrator,
    seed_cbf_qp_filter,
    seed_double_integrator_affine,
    seed_dubins_affine,
    seed_pendulum_affine,
    seed_planar_affine,
)

DT = 0.1
U_MAX = 1.0
KAPPA = 0.5 / DT


def _f64(v) -> bytes:
    return np.float64(v).tobytes()


def _states(rng, wall):
    """States in the barrier's regions of interest, with their source labels."""
    out = []
    n = 2000
    p = rng.uniform(wall - 0.5, wall + 3.0, n)
    v = rng.uniform(-2.5, 2.5, n)
    out += [("random", np.array([a, b])) for a, b in zip(p, v)]
    v = rng.uniform(-2.5, 0.0, n)  # within 0.05 of the boundary h = 0
    p = wall + v * v / (2.0 * U_MAX) + rng.uniform(-0.05, 0.05, n)
    out += [("band", np.array([a, b])) for a, b in zip(p, v)]
    for depth in (1e-11, 1e-10):  # just past the boundary
        v = -np.linspace(0.05, 2.5, 400)
        p = wall + v * v / (2.0 * U_MAX) - depth
        out += [("past", np.array([a, b])) for a, b in zip(p, v)]
    for zero in (0.0, -0.0):  # the max(0, -v) kink
        p = rng.uniform(wall - 0.5, wall + 3.0, 300)
        out += [("kink", np.array([a, zero])) for a in p]
    return out


@pytest.mark.parametrize("wall", [0.0, 0.15])
def test_decide_matches_three_evaluation_oracle(wall):
    model = make_double_integrator(U_MAX, 0.0, DT)
    flt = cbf_qp_filter(model, builtin_barrier_double_integrator(U_MAX, KAPPA, wall))
    seed_model = dataclasses.replace(model, continuous_affine=seed_double_integrator_affine())
    ref = seed_cbf_qp_filter(seed_model, seed_barrier_double_integrator(U_MAX, KAPPA, wall))
    rng = np.random.default_rng(41)
    states = _states(rng, wall)
    assert len(states) >= 5000
    outcomes = {"passed": 0, "projected": 0, "degraded": 0}
    for label, x in states:
        candidates = [model.control_set.sample(rng), np.array([-1.0]), np.array([0.0])]
        if label == "kink":
            candidates.append(np.array([-0.0]))
        for u in candidates:
            got, want = decide(flt, x, u), decide(ref, x, u)
            assert got.candidate.tobytes() == want.candidate.tobytes()
            assert got.applied.tobytes() == want.applied.tobytes(), (x, u)
            assert _f64(got.monitor_value) == _f64(want.monitor_value), (x, u)
            assert got.overridden == want.overridden
            assert got.degraded == want.degraded
            if got.degraded:
                outcomes["degraded"] += 1
            elif got.overridden:
                outcomes["projected"] += 1
            else:
                outcomes["passed"] += 1
        assert flt._fallback(x).tobytes() == ref._fallback(x).tobytes()
    assert all(count > 100 for count in outcomes.values()), outcomes


def test_degraded_decide_evaluates_grad_h_twice():
    # once in the monitor and once in the intervention, which takes the
    # fallback from the affine terms it already holds
    model = make_double_integrator(U_MAX, 0.0, DT)
    barrier = builtin_barrier_double_integrator(U_MAX, KAPPA)
    calls = []

    def grad_h(x):
        calls.append(1)
        return barrier.grad_h(x)

    flt = cbf_qp_filter(model, dataclasses.replace(barrier, grad_h=grad_h))
    decision = decide(flt, np.array([-0.5, -1.0]), np.array([0.0]))
    assert decision.degraded and decision.applied[0] == 1.0
    assert len(calls) == 2



def _counting_filter(calls):
    model = make_double_integrator(U_MAX, 0.0, DT)
    barrier = builtin_barrier_double_integrator(U_MAX, KAPPA)

    def grad_h(x):
        calls.append(1)
        return barrier.grad_h(x)

    return cbf_qp_filter(model, dataclasses.replace(barrier, grad_h=grad_h))


def test_passing_decide_evaluates_grad_h_once():
    # the monitor's evaluation certifies a candidate in the box; the
    # intervention returns it with no second evaluation
    calls = []
    u = np.array([0.5])
    decision = decide(_counting_filter(calls), np.array([2.0, 0.0]), u)
    assert not decision.overridden and decision.monitor_value >= 0.0
    assert decision.applied.tobytes() == u.tobytes()
    assert len(calls) == 1


def test_projected_decide_evaluates_grad_h_twice():
    calls = []
    decision = decide(_counting_filter(calls), np.array([0.2, -0.5]), np.array([-1.0]))
    assert decision.overridden and not decision.degraded
    assert decision.applied[0] == pytest.approx(0.25)
    assert len(calls) == 2


def test_decide_needs_no_qp_solver(monkeypatch):
    """The projection is closed-form: with the QP solver raising, every
    decision of the oracle's state set comes out as the oracle's."""
    import sys

    import safefilter.qp

    def no_qp(*args, **kwargs):
        raise AssertionError("the CBF projection called the QP solver")

    model = make_double_integrator(U_MAX, 0.0, DT)
    flt = cbf_qp_filter(model, builtin_barrier_double_integrator(U_MAX, KAPPA))
    rng = np.random.default_rng(41)
    cases = []
    for _, x in _states(rng, 0.0):
        cases += [(x, u) for u in (model.control_set.sample(rng), np.array([-1.0]), np.array([0.0]))]
    with monkeypatch.context() as patch:
        # every module that holds the solver, including any that imported it by name
        solver = safefilter.qp.solve_qp
        for name, module in list(sys.modules.items()):
            if name.startswith("safefilter") and getattr(module, "solve_qp", None) is solver:
                patch.setattr(module, "solve_qp", no_qp)
        got = [decide(flt, x, u) for x, u in cases]
    seed_model = dataclasses.replace(model, continuous_affine=seed_double_integrator_affine())
    ref = seed_cbf_qp_filter(seed_model, seed_barrier_double_integrator(U_MAX, KAPPA, 0.0))
    projected = 0
    for (x, u), decision in zip(cases, got):
        want = decide(ref, x, u)
        assert decision.applied.tobytes() == want.applied.tobytes(), (x, u)
        assert decision.degraded == want.degraded
        projected += decision.overridden and not decision.degraded
    assert projected > 100


def test_out_of_box_candidate_is_projected_like_the_oracle():
    """A candidate outside the control box never passes, whatever its monitor
    value; it is projected into the box, where the QP's answer may differ in
    the last bits."""
    model = make_double_integrator(U_MAX, 0.0, DT)
    flt = cbf_qp_filter(model, builtin_barrier_double_integrator(U_MAX, KAPPA))
    seed_model = dataclasses.replace(model, continuous_affine=seed_double_integrator_affine())
    ref = seed_cbf_qp_filter(seed_model, seed_barrier_double_integrator(U_MAX, KAPPA, 0.0))
    passed_monitor = 0
    for _, x in _states(np.random.default_rng(43), 0.0)[::4]:
        for u in (np.array([3.0]), np.array([-1.5]), np.array([1.0 + 1e-12])):
            got, want = decide(flt, x, u), decide(ref, x, u)
            assert got.overridden and want.overridden
            assert got.degraded == want.degraded
            assert model.control_set.contains(got.applied)
            assert abs(got.applied[0] - want.applied[0]) <= 1e-12, (x, u)
            passed_monitor += got.monitor_value >= 0.0
    assert passed_monitor > 100

def _state_batches(rng, dim):
    x = rng.uniform(-3.0, 3.0, (7, dim))
    x[0, :] = 0.0
    x[1, :] = -0.0
    x[2, -1] = np.nan
    x[3, 0] = np.inf
    return [x[i] for i in range(len(x))] + [x, x.reshape(7, 1, dim), x[:0]]


@pytest.mark.parametrize(
    "model, seed_affine",
    [
        (make_double_integrator(U_MAX, 0.1, DT), seed_double_integrator_affine()),
        (make_dubins_car(1.3, 1.0, 0.1, DT), seed_dubins_affine(1.3)),
        (make_inverted_pendulum(2.0, 0.1, DT), seed_pendulum_affine()),
        (make_planar_double_integrator(U_MAX, DT), seed_planar_affine()),
    ],
    ids=["double_integrator", "dubins_car", "inverted_pendulum", "planar_double_integrator"],
)
def test_model_affine_split_matches_oracle(model, seed_affine):
    drift, input_map = model.continuous_affine
    seed_drift, seed_input_map = seed_affine
    for x in _state_batches(np.random.default_rng(7), model.state_dim):
        with np.errstate(invalid="ignore"):  # sin and cos of inf
            got, want = drift(x), seed_drift(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        g, want_g = input_map(x), seed_input_map(x)
        assert g.shape == want_g.shape and g.tobytes() == want_g.tobytes()
    g = input_map(None)
    assert input_map(None) is g and not g.flags.writeable


@pytest.mark.parametrize("wall", [0.0, 0.15])
def test_barrier_matches_oracle(wall):
    b = builtin_barrier_double_integrator(U_MAX, KAPPA, wall)
    ref = seed_barrier_double_integrator(U_MAX, KAPPA, wall)
    rng = np.random.default_rng(11)
    x = np.stack([rng.uniform(-1.0, 3.0, 9), rng.uniform(-2.5, 2.5, 9)], axis=-1)
    x[0, 1], x[1, 1], x[2, 1], x[3, 0], x[4, 1] = 0.0, -0.0, np.nan, np.inf, -np.inf
    for xs in [x[i] for i in range(len(x))] + [x, x.reshape(3, 3, 2), x[:0]]:
        for fn, ref_fn in ((b.h, ref.h), (b.grad_h, ref.grad_h)):
            got, want = np.asarray(fn(xs)), np.asarray(ref_fn(xs))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
