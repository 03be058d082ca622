"""Control-barrier-function filters with exact QP-based smooth intervention.

The decrease condition grad_h(x) . (f(x) + g(x) u) >= -alpha(h(x)) is affine in
the control for control-affine models, so the minimal-deviation program

    min 0.5 ||u - u_task||^2   s.t.  decrease condition,  u in control box

is solved exactly by the dual active-set QP solver of ``qp.py`` over the
halfspace row and the box rows, after a support check for infeasibility and a
pass-through for candidates that already satisfy every row.

The condition is enforced at discrete control cycles; the integration error of
h between cycles is not compensated, only bounded: see euler_slack_bound.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import SystemModel
from .filters import Monitor, SafetyFilter
from .qp import InfeasibleQP, solve_qp

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class BarrierFunction:
    """Differentiable state function h with safe set {h >= 0} and class-K alpha."""

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[float], float]
    name: str = ""


def validate_alpha(alpha: Callable[[float], float], dt: float, samples=None) -> None:
    """Check alpha is strictly increasing with alpha(0) = 0 on a sample grid,
    and that alpha(a) < a/dt on the positive samples (the margin that makes the
    one-step decrease argument work; it cannot hold at a = 0 or below).
    """
    if samples is None:
        samples = np.linspace(-5.0, 5.0, 101)
    samples = np.asarray(samples, dtype=np.float64)
    vals = np.array([alpha(float(a)) for a in samples])
    if np.any(np.diff(vals) <= 0):
        raise ValueError("alpha must be strictly increasing on the sample grid")
    if abs(alpha(0.0)) > 1e-12:
        raise ValueError("alpha(0) must be 0")
    pos = samples[samples > 0]
    for a in pos:
        if not alpha(float(a)) < a / dt:
            raise ValueError(
                f"alpha({a}) must stay below a/dt = {a / dt} for the one-step bound"
            )


def _affine_terms(model: SystemModel, b: BarrierFunction, x: np.ndarray):
    """Split hdot(x, u) = drift_term + a . u for a control-affine model."""
    if model.continuous_affine is None:
        raise ValueError("model must provide continuous-time affine dynamics")
    drift_fn, input_fn = model.continuous_affine
    grad = np.asarray(b.grad_h(x), dtype=np.float64)
    drift_term = float(grad @ np.asarray(drift_fn(x), dtype=np.float64))
    a = np.asarray(input_fn(x), dtype=np.float64).T @ grad
    return drift_term, a


def cbf_constraint(model: SystemModel, b: BarrierFunction, x, u) -> float:
    """Value of grad_h(x).(f(x) + g(x)u) + alpha(h(x)); >= 0 means u satisfies
    the barrier decrease condition at x."""
    x = np.asarray(x, dtype=np.float64)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    drift_term, a = _affine_terms(model, b, x)
    return drift_term + float(a @ u) + float(b.alpha(float(b.h(x))))


def _project_halfspace_box(u_task, a, rhs, lo, hi):
    """Exact solution of min 0.5||u - u_task||^2 s.t. a.u >= rhs, lo <= u <= hi.

    Solved with the dual active-set QP over the halfspace row and the box rows.
    Returns None when the program is infeasible. Returns u_task itself (same
    object) when it is already feasible. A right-hand side up to _FEAS_TOL
    above the box support counts as feasible and yields the supporting corner,
    and the result never leaves the box, although the QP accepts rows violated
    by its own tolerance.
    """
    m = u_task.size
    support = float(np.sum(np.where(a >= 0, a * hi, a * lo)))
    if support < rhs - _FEAS_TOL:
        return None
    if np.all(u_task >= lo) and np.all(u_task <= hi) and float(a @ u_task) >= rhs - _FEAS_TOL:
        return u_task
    eye = np.eye(m)
    rows = np.vstack([a, eye, -eye])
    offsets = np.concatenate([[min(rhs, support)], lo, -hi])
    try:
        u = solve_qp(eye, -u_task, rows, offsets)
    except InfeasibleQP:
        return None
    return np.clip(u, lo, hi)


class CBFQPFilter(SafetyFilter):
    """Smooth minimal-deviation filter for a control-affine model.

    Monitor: min(h(x), hdot(x, u) + alpha(h(x))). When the program is
    infeasible the intervention degrades to the decrease-maximizing control
    argmax_u hdot(x, u) and flags the decision.
    """

    def __init__(self, model: SystemModel, barrier: BarrierFunction):
        if model.continuous_affine is None:
            raise ValueError("CBF filter requires a control-affine model")
        validate_alpha(barrier.alpha, model.dt)
        self.model = model
        self.barrier = barrier
        monitor = Monitor(self._monitor_value, name="barrier_decrease")
        super().__init__(monitor, self._fallback, name="cbf_qp")

    def _monitor_value(self, x, u) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        drift_term, a = _affine_terms(self.model, self.barrier, x)
        h = float(self.barrier.h(x))
        return min(h, drift_term + float(a @ u) + float(self.barrier.alpha(h)))

    def _fallback(self, x) -> np.ndarray:
        """Decrease-maximizing control; zero-gain coordinates take the box center."""
        x = np.asarray(x, dtype=np.float64)
        _, a = _affine_terms(self.model, self.barrier, x)
        box = self.model.control_set
        return np.where(a > 0, box.upper, np.where(a < 0, box.lower, box.center))

    def intervene(self, x, u_task, monitor_value: float) -> np.ndarray:
        self.last_degraded = False
        x = np.asarray(x, dtype=np.float64)
        u_task = np.atleast_1d(np.asarray(u_task, dtype=np.float64))
        drift_term, a = _affine_terms(self.model, self.barrier, x)
        rhs = -(drift_term + float(self.barrier.alpha(float(self.barrier.h(x)))))
        box = self.model.control_set
        u = _project_halfspace_box(u_task, a, rhs, box.lower, box.upper)
        if u is None:
            self.last_degraded = True
            return self._fallback(x)
        return u


def cbf_qp_filter(model: SystemModel, barrier: BarrierFunction) -> CBFQPFilter:
    return CBFQPFilter(model, barrier)


def builtin_barrier_double_integrator(
    u_max: float, kappa: float, wall: float = 0.0
) -> BarrierFunction:
    """Stopping-distance barrier for the double integrator against a wall.

    h(p, v) = (p - wall) - max(0, -v)^2 / (2 u_max); the quadratic branch is
    joined at v = 0 by its subgradient so the gradient is continuous. alpha is
    linear with the given slope (choose kappa < 1/dt; 0.5/dt is a good default).
    """
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    if kappa <= 0:
        raise ValueError("kappa must be positive")

    def h(x):
        x = np.asarray(x, dtype=np.float64)
        p, v = x[..., 0], x[..., 1]
        braking = np.maximum(0.0, -v)
        return (p - wall) - braking * braking / (2.0 * u_max)

    def grad_h(x):
        x = np.asarray(x, dtype=np.float64)
        v = x[..., 1]
        return np.stack(
            [np.ones_like(v), np.maximum(0.0, -v) / u_max], axis=-1
        )

    return BarrierFunction(h, grad_h, lambda a: kappa * a, name="stopping_distance")


def euler_slack_bound(u_max: float, v_max: float, dt: float) -> float:
    """Documented bound on how far below zero the double-integrator barrier can
    dip under forward-Euler control cycles.

    Each active-constraint or braking step loses at most u_max*dt^2/2 of h to
    curvature, and a full brake from speed v_max takes v_max/(u_max*dt) steps,
    so the accumulated dip is at most v_max*dt/2 plus one step of slop. The
    bound is first order in dt: halving dt halves it (to leading order).
    """
    return 0.5 * v_max * dt + u_max * dt * dt
