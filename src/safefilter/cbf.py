"""Control-barrier-function filters with exact closed-form smooth intervention.

The decrease condition grad_h(x) . (f(x) + g(x) u) >= -alpha(h(x)) is affine in
the control for control-affine models, a . u >= rhs, so the minimal-deviation
program

    min 0.5 ||u - u_task||^2   s.t.  a . u >= rhs,  u in control box

has one halfspace row. The filter evaluates the barrier's affine terms, h and
alpha(h) once per state and keeps them until the next state: the monitor, the
intervention and the fallback at that state all read the one evaluation.
After a support check for infeasibility and a pass-through for candidates
that already satisfy every row, the program is solved in closed form: the
step u_task + lam a onto the halfspace when that stays in the box, which is
the first and only iteration the dual active-set QP of ``qp.py`` makes there,
bit for bit; otherwise a breakpoint search on the one-dimensional dual lam (a
continuous quadratic knapsack, Kiwiel 2008), whose answer may differ from
that QP's in the last bits. No stock configuration reaches the search.

The condition is enforced at discrete control cycles; the integration error of
h between cycles is not compensated, only bounded: see euler_slack_bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import SystemModel
from .filters import Monitor, SafetyFilter
from .intervals import _float_vector, float_rows, minimum

_FEAS_TOL = 1e-9
_ALPHA_SAMPLES = np.linspace(-5.0, 5.0, 101)
# row tolerance of the halfspace step: a row with slack at least
# -_STEP_TOL * max(1, |row|) counts as satisfied, as in qp.solve_qp
_STEP_TOL = 1e-10


@dataclass(frozen=True)
class BarrierFunction:
    """Differentiable state function h with safe set {h >= 0} and class-K alpha."""

    h: Callable[[np.ndarray], float]
    grad_h: Callable[[np.ndarray], np.ndarray]
    alpha: Callable[[float], float]
    name: str = ""


def validate_alpha(alpha: Callable[[float], float], dt: float) -> None:
    """Check alpha is strictly increasing with alpha(0) = 0 on 101 samples of
    [-5, 5], and that alpha(a) < a/dt on the positive samples (the margin that
    makes the one-step decrease argument work; it cannot hold at a = 0 or below).
    """
    vals = np.array([alpha(float(a)) for a in _ALPHA_SAMPLES])
    if np.any(np.diff(vals) <= 0):
        raise ValueError("alpha must be strictly increasing on the sample grid")
    if abs(alpha(0.0)) > 1e-12:
        raise ValueError("alpha(0) must be 0")
    for a in _ALPHA_SAMPLES[_ALPHA_SAMPLES > 0]:
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
    u = _float_vector(u)
    drift_term, a = _affine_terms(model, b, x)
    return drift_term + float(a @ u) + float(b.alpha(float(b.h(x))))


def _project_halfspace_box(u_task, a, rhs, lo, hi):
    """Exact solution of min 0.5||u - u_task||^2 s.t. a.u >= rhs, lo <= u <= hi.

    Returns None when the program is infeasible. Returns u_task itself (same
    object) when it is already feasible. A right-hand side up to _FEAS_TOL
    above the box support counts as feasible and yields the supporting corner,
    and the result never leaves the box.

    Otherwise the halfspace offset is b = min(rhs, support) and the answer is
    the step u_task + lam a onto a.u = b, clipped, when that step stays in the
    box (within _STEP_TOL); these are the operations, and the bits, of the
    first iteration of the dual active-set QP in ``qp.py``, which then stops.
    A candidate outside the box, or a step that leaves it, goes to the
    breakpoint search of ``_breakpoint_projection``, whose answer may differ
    from that QP's in the last bits (the QP stops within its own tolerance).
    So does a gain with |a|^2 at most _STEP_TOL, which is projected where the
    QP's pivot test declared the program infeasible.
    """
    support = _support(a, lo, hi)
    if support < rhs - _FEAS_TOL:
        return None
    a_u = float(a @ u_task)
    if np.all(u_task >= lo) and np.all(u_task <= hi) and a_u >= rhs - _FEAS_TOL:
        return u_task
    b = min(rhs, support)
    # the QP's termination test on its worst row, then its step on the
    # halfspace row; np.linalg.solve(I, v), its start and step direction, is v
    # bit for bit for one control, and for more can flip the sign of a zero
    m = u_task.size
    eye = None if m == 1 else np.eye(m)
    u0 = u_task if eye is None else np.linalg.solve(eye, u_task)
    a_a = float(a @ a)
    norm = math.sqrt(a_a)
    row_slack = a_u - b if norm > _STEP_TOL else math.inf  # tiny rows are constants
    box_slack = _box_slack(u0, lo, hi)
    if row_slack <= box_slack:
        if row_slack >= -_STEP_TOL * max(1.0, norm):
            return np.clip(u0, lo, hi)
        if a_a > _STEP_TOL * max(1.0, a_a):
            z = a if eye is None else np.linalg.solve(eye, a)
            x = u0 + ((b - float(a @ u0)) / float(z @ a)) * z
            if _box_slack(x, lo, hi) >= -_STEP_TOL:
                return np.clip(x, lo, hi)
    elif box_slack >= -_STEP_TOL:
        return np.clip(u0, lo, hi)
    # the clipped candidate, when it meets the halfspace to the QP's tolerance
    u = np.clip(u_task, lo, hi)
    if norm <= _STEP_TOL or float(a @ u) - b >= -_STEP_TOL * max(1.0, norm):
        return u
    return _breakpoint_projection(u_task, a, b, lo, hi)


def _support(a, lo, hi) -> float:
    """max of a . u over the box lo <= u <= hi, with the bits of
    ``float(np.sum(np.where(a >= 0, a * hi, a * lo)))``: below 8 terms numpy
    sums in order from 0.0, which a Python loop repeats on floats (a lone
    -0.0 term sums to 0.0); from 8 on it sums pairwise, so numpy is kept.
    Either way an overflow or a NaN (an infinite gain against a zero bound)
    comes without a warning, as on floats."""
    if a.size >= 8:
        with np.errstate(invalid="ignore", over="ignore"):
            return float(np.sum(np.where(a >= 0, a * hi, a * lo)))
    total = 0.0
    for g, l, h in zip(a.tolist(), lo.tolist(), hi.tolist()):
        total += g * h if g >= 0 else g * l
    return total


def _box_slack(v, lo, hi) -> float:
    """The least slack of the rows lo <= v <= hi, v - lo and hi - v, which
    ``qp.solve_qp`` computes to the same bits."""
    return min(min(p - l, h - p) for p, l, h in zip(v.tolist(), lo.tolist(), hi.tolist()))


def _max_decrease(a, box) -> np.ndarray:
    """argmax_u a . u over the box; zero-gain coordinates (NaN ones too) take
    the box center. The bits of ``np.where(a > 0, box.upper, np.where(a < 0,
    box.lower, box.center))``, chosen on floats."""
    lower, upper = float_rows(box)
    return np.array([hi if g > 0 else lo if g < 0 else 0.5 * (lo + hi)
                     for g, lo, hi in zip(a.tolist(), lower, upper)])


def _breakpoint_projection(u_task, a, b, lo, hi):
    """Projection of u_task onto {a.u >= b} in the box, for a.clip(u_task) < b
    <= the box support.

    The minimizer is clip(u_task + lam a, lo, hi) for the smallest lam >= 0
    with a . clip(u_task + lam a, lo, hi) >= b. That function of lam is
    nondecreasing and piecewise linear, with a kink wherever a coordinate
    leaves or reaches a bound, so the search walks the sorted kinks and
    solves for lam on the first piece that reaches b. When rounding keeps
    every piece below b (b at the support), the answer is the supporting
    corner.
    """
    moving = a != 0
    first = np.where(a > 0, lo, hi)  # the bound a coordinate leaves as lam grows
    last = np.where(a > 0, hi, lo)  # the bound it runs into
    with np.errstate(divide="ignore", invalid="ignore"):
        leave = np.where(moving, (first - u_task) / a, -math.inf)
        reach = np.where(moving, (last - u_task) / a, -math.inf)
    knots = np.unique(np.concatenate([leave, reach]))
    start = 0.0
    for end in knots[knots > 0].tolist() + [math.inf]:
        free = moving & (leave <= start) & (reach >= end)
        value = np.where(free, u_task, np.where(reach <= start, last, first))
        offset = float(a[moving] @ value[moving])
        slope = float(a[free] @ a[free])
        if (offset if slope == 0.0 else offset + slope * end) >= b:
            lam = start if slope == 0.0 else max(start, (b - offset) / slope)
            return np.clip(u_task + lam * a, lo, hi)
        start = end
    return np.where(a > 0, hi, np.where(a < 0, lo, np.clip(u_task, lo, hi)))


class CBFQPFilter(SafetyFilter):
    """Smooth minimal-deviation filter for a control-affine model.

    Monitor: min(h(x), hdot(x, u) + alpha(h(x))). When the program is
    infeasible the intervention degrades to the decrease-maximizing control
    argmax_u hdot(x, u) and flags the decision.

    The barrier terms at a state (the affine split, h and alpha(h)) are
    evaluated once and kept under the state's bytes until another state is
    asked for, as tube MPC keeps its plan offsets: a decision and the
    fallback at one state evaluate the barrier once.
    """

    def __init__(self, model: SystemModel, barrier: BarrierFunction):
        if model.continuous_affine is None:
            raise ValueError("CBF filter requires a control-affine model")
        validate_alpha(barrier.alpha, model.dt)
        self.model = model
        self.barrier = barrier
        self._last_state = None  # (x.tobytes(), barrier terms at x)
        monitor = Monitor(self._monitor_value, name="barrier_decrease")
        super().__init__(monitor, self._fallback, "cbf_qp",
                         state_dim=model.state_dim, control_dim=model.control_dim)

    def _terms(self, x: np.ndarray):
        """(drift_term, a, h, alpha(h)) at x, with a read-only; evaluated once
        per state and kept until the next state."""
        key = x.tobytes()
        entry = self._last_state
        if entry is None or entry[0] != key:
            drift_term, a = _affine_terms(self.model, self.barrier, x)
            a.flags.writeable = False
            h = float(self.barrier.h(x))
            entry = (key, (drift_term, a, h, float(self.barrier.alpha(h))))
            self._last_state = entry
        return entry[1]

    def _monitor_value(self, x, u) -> float:
        drift_term, a, h, alpha_h = self._terms(x)
        return minimum(drift_term + float(a @ u) + alpha_h, h)

    def _fallback(self, x) -> np.ndarray:
        """Decrease-maximizing control at x."""
        return _max_decrease(self._terms(x)[1], self.model.control_set)

    def intervene(self, x, u_task, monitor_value: float) -> np.ndarray:
        """Project u_task onto the decrease condition, from the barrier terms
        at x (the monitor's evaluation, when the monitor has seen x); an
        infeasible program, or a NaN monitor value (a non-finite candidate),
        takes the decrease-maximizing control from the same terms. A
        candidate in the control box with a nonnegative monitor value is
        returned as it is, with no look at the terms."""
        self.last_degraded = False
        if monitor_value >= 0.0 and self.model.control_set.contains(u_task):
            return u_task
        drift_term, a, _, alpha_h = self._terms(x)
        box = self.model.control_set
        if math.isnan(monitor_value):
            self.last_degraded = True
            return _max_decrease(a, box)
        u = _project_halfspace_box(u_task, a, -(drift_term + alpha_h), box.lower, box.upper)
        if u is None:
            self.last_degraded = True
            return _max_decrease(a, box)
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
        p, v = x[..., 0], x[..., 1]
        braking = np.maximum(0.0, -v)
        return (p - wall) - braking * braking / (2.0 * u_max)

    def grad_h(x):
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = 1.0
        np.divide(np.maximum(0.0, -x[..., 1]), u_max, out=out[..., 1])
        return out

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
