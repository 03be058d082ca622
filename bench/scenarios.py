"""Benchmark fixtures: the acceptance suite's certified filters and tasks.

The Monte Carlo specs are acceptance criterion 9's (goal beyond the wall,
uniform random disturbances); the adversarial specs are criterion 3's
adversarial row (margin-descent task, worst-case lattice disturbance). Both
start from the fixed initial state of each filter's acceptance fixture. No
policy of the adversarial row draws from the episode's random generator, so
every adversarial episode of a filter is the same deterministic work.
Everything the library receives goes through ``inst`` so that the traced
run can wrap it; the untraced run passes :class:`Plain`, which wraps nothing.
"""
from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DT = 0.1
FAMILIES = ("lr", "mps", "cbf", "tube")

# stock config -> filter family it exercises; traced runs label its spans with it
CLI_CONFIGS = {
    "double_integrator_wall": "lr",
    "mps_braking": "mps",
    "cbf_wall": "cbf",
    "tube_mpc_scalar": "tube",
    "exploration": "exploration",
}
SOLVE_CONFIG = "double_integrator_wall"

# initial state of each filter's acceptance fixture (criteria 3 and 9)
X0 = {"lr": [1.5, 0.0], "mps": [1.5, 0.0], "cbf": [2.0, 0.0], "tube": [1.0]}
ADV_STEPS = 200
MC_STEPS = {"lr": 60, "mps": 40, "cbf": 60, "tube": 40}


class CheckoutError(RuntimeError):
    """The working tree does not hold the library sources the benchmark needs."""


def load_library():
    """Import ``safefilter`` from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "safefilter" / "__init__.py").is_file():
        raise CheckoutError(f"no library sources under {src}")
    for name in CLI_CONFIGS:
        if not (ROOT / "configs" / f"{name}.yaml").is_file():
            raise CheckoutError(f"missing stock config configs/{name}.yaml")
    sys.path.insert(0, str(src))
    sf = importlib.import_module("safefilter")
    if Path(sf.__file__).resolve().parent != (src / "safefilter").resolve():
        raise CheckoutError(f"imported safefilter from {sf.__file__}, not from {src}")
    return sf


class Plain:
    """Untraced instrumentation: hands every object to the library unchanged."""

    def model(self, model):
        return model

    def task(self, fn):
        return fn

    def disturbance(self, fn):
        return fn

    def fallback(self, fb):
        return fb

    def filter(self, flt):
        return flt


@dataclass
class Spec:
    """One certified filter with the closed loop it is benchmarked in."""

    family: str
    model: object
    flt: object
    task: Callable
    disturbance: Callable
    margin: object
    x0: np.ndarray
    steps: int


@dataclass
class Setup:
    mc: dict
    adversarial: dict


def solve_grid(sf, solve=None):
    """The 61x61 value grid of the stock ``double_integrator_wall`` config."""
    model = sf.make_double_integrator(1.0, 0.1, DT)
    setback = sf.margin_halfspace([1.0, 0.0], 0.1)
    grid, report = (solve or sf.solve)(
        model, setback, (sf.Box([0.0, -2.0], [3.0, 2.0]), (61, 61)), [5], [3], 1e-6, 1000
    )
    if not report.converged:
        raise RuntimeError("61x61 grid solve did not converge")
    return grid


def build(sf, grid, inst=None) -> Setup:
    """Construct every filter and policy around the solved 61x61 grid.

    ``grid`` is the value function of the stock ``double_integrator_wall``
    config, which is acceptance fixture robust_bench's: the robust double
    integrator against a wall set back two grid cells.
    """
    inst = inst or Plain()
    Box = sf.Box

    model_r = inst.model(sf.make_double_integrator(1.0, 0.1, DT))
    wall = sf.margin_halfspace([1.0, 0.0], 0.0)
    setback = sf.margin_halfspace([1.0, 0.0], 0.1)
    u5 = sf.discretize_box(model_r.control_set, [5])
    u3 = sf.discretize_box(model_r.control_set, [3])
    d3 = sf.discretize_box(model_r.disturbance_set, [3])

    def lr():
        return inst.filter(sf.least_restrictive_filter(model_r, grid, u5, d3))

    def mps():
        fb = inst.fallback(sf.optimal_fallback(model_r, grid, u5, d3))
        return inst.filter(
            sf.mps_filter(model_r, fb, sf.value_grid_terminal_set(grid), setback, horizon=10)
        )

    # deterministic double integrator with a barrier set back by the Euler slack
    model_c = inst.model(sf.make_double_integrator(1.0, 0.0, DT))
    barrier = sf.builtin_barrier_double_integrator(1.0, kappa=0.5 / DT, wall=0.15)

    def cbf():
        return inst.filter(sf.cbf_qp_filter(model_c, barrier))

    # scalar tube MPC: x' = x + u + d, keep x <= 2
    A, B, K = np.array([[1.0]]), np.array([[1.0]]), np.array([[-0.5]])
    U, D = Box([-1.0], [1.0]), Box([-0.1], [0.1])
    model_t = inst.model(sf.make_linear_model(A, B, U, D))
    margin_t = sf.margin_halfspace([-1.0], -2.0)

    def tube():
        return inst.filter(
            sf.tube_mpc_filter(A, B, K, U, D, [([-1.0], -2.0)], Box([-0.5], [0.5]), 5)
        )

    goal_beyond_wall = lambda model: inst.task(  # noqa: E731
        sf.proportional_policy([[1.0, 1.5]], [-1.0, 0.0], model.control_set)
    )
    mc = {
        "lr": Spec("lr", model_r, lr(), goal_beyond_wall(model_r),
                   inst.disturbance(sf.random_disturbance(model_r)), wall,
                   np.array(X0["lr"]), MC_STEPS["lr"]),
        "mps": Spec("mps", model_r, mps(), goal_beyond_wall(model_r),
                    inst.disturbance(sf.random_disturbance(model_r)), wall,
                    np.array(X0["mps"]), MC_STEPS["mps"]),
        "cbf": Spec("cbf", model_c, cbf(), goal_beyond_wall(model_c),
                    inst.disturbance(sf.random_disturbance(model_c)), wall,
                    np.array(X0["cbf"]), MC_STEPS["cbf"]),
        "tube": Spec("tube", model_t, tube(),
                     inst.task(sf.proportional_policy([[1.0]], [3.0], U)),
                     inst.disturbance(sf.random_disturbance(model_t)), margin_t,
                     np.array(X0["tube"]), MC_STEPS["tube"]),
    }

    grid_adversary = inst.disturbance(sf.adversarial_disturbance(model_r, grid, d3))
    adversarial = {
        "lr": Spec("lr", model_r, lr(), inst.task(sf.margin_descent_policy(model_r, wall, u3)),
                   grid_adversary, wall, np.array(X0["lr"]), ADV_STEPS),
        "mps": Spec("mps", model_r, mps(), inst.task(sf.margin_descent_policy(model_r, wall, u3)),
                    grid_adversary, wall, np.array(X0["mps"]), ADV_STEPS),
        "cbf": Spec("cbf", model_c, cbf(), inst.task(sf.margin_descent_policy(model_c, wall, u3)),
                    inst.disturbance(sf.zero_disturbance(model_c)), wall,
                    np.array(X0["cbf"]), ADV_STEPS),
        "tube": Spec(
            "tube", model_t, tube(),
            inst.task(sf.margin_descent_policy(model_t, margin_t, sf.discretize_box(U, [3]))),
            inst.disturbance(
                sf.margin_descent_disturbance(model_t, margin_t, sf.discretize_box(D, [3]))
            ),
            margin_t, np.array(X0["tube"]), ADV_STEPS,
        ),
    }
    return Setup(mc, adversarial)


def adversarial_episode(sf, spec: Spec, seed: int, decide=None):
    """One closed-loop episode of ``spec`` from ``spec.x0``, driven cycle by cycle.

    Uses the public ``decide`` (or the stand-in ``decide``) and ``step`` with
    ``run_episode``'s draw order (task, decide, disturbance on the applied
    control, plant step, observe). Returns the visited states.
    """
    decide = decide or sf.decide
    model, flt = spec.model, spec.flt
    x0 = np.asarray(spec.x0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    flt.reset(x0)
    if flt.monitor(x0, flt.fallback(x0)) < 0.0:
        raise sf.DeploymentRejected(f"monitor rejected deployment at {x0}")
    states = [x0]
    x = x0
    for _ in range(spec.steps):
        u_task = spec.task(x, rng)
        decision = decide(flt, x, u_task)
        d = np.atleast_1d(np.asarray(spec.disturbance(x, decision.applied, rng), dtype=np.float64))
        x = sf.step(model, x, decision.applied, d)
        states.append(x)
        flt.observe(x)
    return np.asarray(states)
