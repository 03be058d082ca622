"""Rollout-based filters: interval forward-reachable tubes and shielding.

The monitor simulates the fallback policy forward as a tube of boxes that
over-approximates every reachable state under the admissible disturbances,
and passes a candidate control only if the tube clears the failure set at
every step and its final box lands fully inside a terminal safe set that is
invariant under the fallback. The check is sufficient for all-time safety,
not necessary, so it is deliberately conservative.

The tube is one (H+1, 2, n) array of ``[lower, upper]`` bounds, and every
callable it meets takes bounds: the model's ``interval_step``, a fallback's
``control_box``, the margin's ``box_lower`` (on the whole stack at once) and
the terminal set's ``box_containment``.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import MarginFunction, SystemModel, discretize_box
from .filters import BudgetExceededError, Monitor, SafetyFilter
from .intervals import Box
from .reachability import (
    ValueGrid,
    box_node_ranges,
    grid_box_min,
    optimal_safety_policy,
    value_at,
)

_REST_EPS = 1e-12  # velocities below this count as numerically at rest


@dataclass(frozen=True)
class FRSTube:
    """Forward-reachable tube: the box bounds[tau] = [lower, upper], shape
    (H+1, 2, n), contains every state reachable at tau."""

    bounds: np.ndarray

    @property
    def sets(self) -> tuple[Box, ...]:
        return tuple(Box(lo, hi) for lo, hi in self.bounds)

    @property
    def horizon(self) -> int:
        return len(self.bounds) - 1


@dataclass(frozen=True)
class TerminalSafeSet:
    """Terminal region; ``box_containment`` takes (2, n) bounds and must be
    conservative (true only if the whole box lies inside the set)."""

    membership: Callable[[np.ndarray], bool]
    box_containment: Callable[[np.ndarray], bool]
    name: str = ""


@dataclass(frozen=True)
class FallbackPolicy:
    """A fallback control law plus the information needed to evaluate it soundly
    over a state box: either an exact control-range enclosure, mapping state
    bounds (2, n) to control bounds (2, m), or a Lipschitz bound (infinity
    norm) for center-plus-inflation evaluation."""

    policy: Callable[[np.ndarray], np.ndarray]
    control_box: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lipschitz: Optional[float] = None
    name: str = ""

    def __call__(self, x) -> np.ndarray:
        return self.policy(x)


def _as_fallback(fallback) -> FallbackPolicy:
    if isinstance(fallback, FallbackPolicy):
        return fallback
    return FallbackPolicy(policy=fallback)


def _control_enclosure(fb: FallbackPolicy, X: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Bounds (2, m) of the fallback control over the state box X, within U."""
    lo, hi = X
    if (hi - lo <= 0.0).all():  # a point: evaluate the policy there
        u = np.atleast_1d(np.asarray(fb.policy(0.5 * (lo + hi)), dtype=np.float64))
        return np.array([u, u])
    if fb.control_box is not None:
        enc = np.asarray(fb.control_box(X), dtype=np.float64)
    elif fb.lipschitz is not None:
        u = np.atleast_1d(np.asarray(fb.policy(0.5 * (lo + hi)), dtype=np.float64))
        inflation = fb.lipschitz * float((0.5 * (hi - lo)).max())
        enc = np.array([u - inflation, u + inflation])
    else:
        raise ValueError(
            "state-feedback fallback over a nondegenerate box needs a "
            "control_box enclosure or a lipschitz bound"
        )
    out = np.empty(U.shape)
    np.maximum(enc[0], U[0], out=out[0])
    np.minimum(enc[1], U[1], out=out[1])
    if (out[0] > out[1]).any():
        raise ValueError("fallback control enclosure does not meet the control set")
    return out


def propagate_frs(
    model: SystemModel,
    fallback,
    x,
    u0,
    horizon: int,
) -> FRSTube:
    """Interval tube from x: one step under the candidate control u0, then
    horizon-1 steps under the fallback policy. Every box is a sound
    over-approximation of the reachable states under all admissible
    disturbances."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    fb = _as_fallback(fallback)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    u0 = np.atleast_1d(np.asarray(u0, dtype=np.float64))
    U, D = np.asarray(model.control_set), np.asarray(model.disturbance_set)
    bounds = np.empty((horizon + 1, 2, x.size))
    bounds[0] = x
    bounds[1] = model.interval_step(bounds[0], np.array([u0, u0]), D)
    for tau in range(1, horizon):
        X = bounds[tau]
        bounds[tau + 1] = model.interval_step(X, _control_enclosure(fb, X, U), D)
    return FRSTube(bounds)


def mps_monitor(
    model: SystemModel,
    fallback,
    terminal: TerminalSafeSet,
    failure_margin: MarginFunction,
    x,
    u,
    horizon: int,
) -> float:
    """+1/2 if the fallback tube clears the failure set at every step and its
    final box is contained in the terminal set; -1/2 otherwise."""
    bounds = propagate_frs(model, fallback, x, u, horizon).bounds
    if np.any(failure_margin.box_lower(bounds) < 0.0):
        return -0.5
    if not terminal.box_containment(bounds[-1]):
        return -0.5
    return 0.5


def mps_filter(
    model: SystemModel,
    fallback,
    terminal: TerminalSafeSet,
    failure_margin: MarginFunction,
    horizon: int,
) -> SafetyFilter:
    """Switch filter: pass the candidate when the tube check succeeds, else
    apply the fallback control (whose own certificate was established when the
    state was last accepted)."""
    fb = _as_fallback(fallback)
    if not failure_margin.has_box_lower:
        raise ValueError("shielding needs a margin with a sound box lower bound")

    def evaluate(x, u):
        return mps_monitor(model, fb, terminal, failure_margin, x, u, horizon)

    monitor = Monitor(evaluate, name="fallback_tube_check")
    return SafetyFilter(monitor, fb.policy, name="mps")


# --- braking fallback and terminal set for the double integrator ------------


def _braking_control(v: float, u_max: float, dt: float, v_tol: float) -> float:
    """The braking law: -sign(v) * u_max outside the band |v| <= v_tol, the
    exact-stop control clamp(-v/dt) inside it, and 0 at rest."""
    if abs(v) <= _REST_EPS:
        return 0.0
    if abs(v) > v_tol:
        return -math.copysign(u_max, v)
    return min(u_max, max(-u_max, -v / dt))


def braking_fallback(model: SystemModel, v_tol: float) -> FallbackPolicy:
    """Sign braking toward rest for the double integrator.

    Outside the band |v| > v_tol the control is -sign(v) * u_max; inside the
    band it is the exact-stop control clamp(-v/dt), which reaches v = 0 in
    finitely many steps instead of chattering around it. For the out-of-band
    phase to enter the band without overshooting, choose v_tol at least one
    braking step u_max * dt wide.
    """
    if model.state_dim != 2 or model.control_dim != 1:
        raise ValueError("braking fallback expects a double-integrator family model")
    if v_tol < 0:
        raise ValueError("v_tol must be nonnegative")
    lo, hi = float(model.control_set.lower[0]), float(model.control_set.upper[0])
    if abs(lo + hi) > 1e-12:
        raise ValueError("braking fallback expects a symmetric control box")
    u_max, dt = hi, model.dt

    def policy(x) -> np.ndarray:
        v = float(np.asarray(x, dtype=np.float64)[1])
        return np.array([_braking_control(v, u_max, dt, v_tol)])

    def control_box(X: np.ndarray) -> np.ndarray:
        vlo, vhi = float(X[0, 1]), float(X[1, 1])
        pieces = []
        if vhi > v_tol:
            pieces.append((-u_max, -u_max))
        if vlo < -v_tol:
            pieces.append((u_max, u_max))
        blo, bhi = max(vlo, -v_tol), min(vhi, v_tol)
        if blo <= bhi:  # exact-stop piece, monotone decreasing in v
            pieces.append(
                (
                    min(u_max, max(-u_max, -bhi / dt)),
                    min(u_max, max(-u_max, -blo / dt)),
                )
            )
        lo_u = min(p[0] for p in pieces)
        hi_u = max(p[1] for p in pieces)
        return np.array([[lo_u], [hi_u]])

    return FallbackPolicy(policy, control_box=control_box, name="braking")


def _braking_excursion(u_max: float, dt: float, v_tol: float, v: float):
    """Exact position excursion interval while the braking fallback brings
    velocity v (|v| <= v_tol) to rest with no disturbance."""
    max_steps = int(math.ceil(v_tol / max(u_max * dt, _REST_EPS))) + 4
    p, lo, hi = 0.0, 0.0, 0.0
    vv = v
    for _ in range(max_steps):
        if abs(vv) <= _REST_EPS:
            return lo, hi
        u = _braking_control(vv, u_max, dt, v_tol)
        p += vv * dt
        lo, hi = min(lo, p), max(hi, p)
        vv += u * dt
    raise RuntimeError("braking profile did not reach rest (unexpected)")


def braking_terminal_set(
    model: SystemModel,
    v_tol: float,
    safe_box: Box,
    check_horizon: int = 20,
    check_counts: tuple[int, int] = (5, 5),
    check_budget: int = 200_000,
) -> TerminalSafeSet:
    """Near-rest terminal set for the double integrator under braking.

    Membership requires |v| <= v_tol and that the whole braking excursion from
    the state (positions passed while stopping, computed exactly) stays inside
    ``safe_box``: the literal band-times-box set is not invariant because the
    position still moves while stopping. Invariance under the paired braking
    fallback is verified at construction by exhaustive lattice rollout; a
    configuration that can escape (for example any v_tol with a nonzero
    disturbance, where velocity cannot be pinned to rest) is rejected.
    """
    if safe_box.dim != 1:
        raise ValueError("safe_box bounds the position coordinate only")
    if v_tol < 0:
        raise ValueError("v_tol must be nonnegative")
    fb = braking_fallback(model, v_tol)
    u_max, dt = float(model.control_set.upper[0]), model.dt
    p_lo, p_hi = float(safe_box.lower[0]), float(safe_box.upper[0])

    def excursion(v: float):
        return _braking_excursion(u_max, dt, v_tol, v)

    def membership(x) -> bool:
        x = np.asarray(x, dtype=np.float64)
        p, v = float(x[0]), float(x[1])
        if abs(v) > v_tol:
            return False
        exc_lo, exc_hi = excursion(v)
        return p + exc_lo >= p_lo and p + exc_hi <= p_hi

    def box_containment(X) -> bool:
        (plo, vlo), (phi, vhi) = np.asarray(X, dtype=np.float64).tolist()
        if vlo < -v_tol or vhi > v_tol:
            return False
        # excursions are monotone in v, so the corners are the worst cases
        exc_lo, _ = excursion(vlo)
        _, exc_hi = excursion(vhi)
        return plo + exc_lo >= p_lo and phi + exc_hi <= p_hi

    terminal = TerminalSafeSet(membership, box_containment, name="braking_rest_set")
    _check_terminal_invariance(
        model, fb, terminal, check_horizon, check_counts, check_budget,
        state_box=Box([p_lo, -v_tol], [p_hi, v_tol]),
    )
    return terminal


def _check_terminal_invariance(
    model: SystemModel,
    fb: FallbackPolicy,
    terminal: TerminalSafeSet,
    horizon: int,
    counts,
    budget: int,
    state_box: Box,
) -> None:
    """Exhaustive lattice rollout: every member lattice state must stay a member
    under the fallback for all disturbance-corner sequences."""
    starts = [x for x in discretize_box(state_box, counts) if terminal.membership(x)]
    d_cands = (
        discretize_box(model.disturbance_set, [2] * model.disturbance_dim)
        if model.disturbance_dim
        else [np.zeros(0)]
    )
    expanded = 0
    for x0 in starts:
        stack = [(x0, 0)]
        while stack:
            x, depth = stack.pop()
            expanded += 1
            if expanded > budget:
                # escapes are usually shallow, so the walk is breadth-limited
                # lazily rather than rejected up front
                raise BudgetExceededError(
                    "terminal-set invariance check exceeds its budget; "
                    "reduce check_horizon or the disturbance lattice"
                )
            if not terminal.membership(x):
                raise ValueError(
                    f"terminal set is not invariant under its fallback: escape from "
                    f"{x0} reaches {x} after {depth} steps"
                )
            if depth == horizon:
                continue
            u = fb.policy(x)
            for d in d_cands:
                stack.append((model.step(x, u, d), depth + 1))


# --- terminal sets and fallbacks built on a solved value grid ---------------


def _grid_box_nonnegative(grid: ValueGrid, X) -> bool:
    """``grid_box_min(grid, X) >= 0.0``, settled from node values when they decide it.

    A node strictly inside the box is a point of the exact minimum, so one that
    is not >= 0 (NaN included) decides False. Multilinear weights are
    nonnegative, so when every node of the covering cells is >= 0 so is every
    interpolated value in the box, which decides True; this is also the node
    bound ``grid_box_min`` takes for very large boxes. Only the boxes left
    over are handed to ``grid_box_min``.
    """
    ranges = box_node_ranges(grid, *np.asarray(X, dtype=np.float64))
    if ranges is None:
        return grid.out_of_domain_value >= 0.0
    inner, cover = ranges
    block = grid.values.reshape(grid.shape)
    if (block[cover] >= 0.0).all():
        return True
    if not (block[inner] >= 0.0).all():
        return False
    return grid_box_min(grid, X) >= 0.0


def value_grid_terminal_set(grid: ValueGrid) -> TerminalSafeSet:
    """Terminal set {V >= 0} of a solved value grid; box containment uses a
    sound lower bound of the interpolant over the box, decided from node
    values where they suffice."""
    return TerminalSafeSet(
        membership=lambda x: value_at(grid, x) >= 0.0,
        box_containment=lambda X: _grid_box_nonnegative(grid, X),
        name="value_grid_safe_set",
    )


def optimal_fallback(
    model: SystemModel,
    grid: ValueGrid,
    u_candidates: Sequence[np.ndarray],
    d_candidates: Sequence[np.ndarray],
) -> FallbackPolicy:
    """Optimal safety policy as a fallback. The policy is piecewise constant in
    the state (an argmax over candidates), so its only sound control enclosure
    over a box is the full control set."""
    policy = optimal_safety_policy(model, grid, u_candidates, d_candidates)
    U = np.asarray(model.control_set)
    return FallbackPolicy(policy, control_box=lambda X: U, name="optimal_safety")


def write_tube_csv(tube: FRSTube, path) -> None:
    """Dump a tube as CSV rows (tau, lower..., upper...)."""
    dim = tube.bounds.shape[-1]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["tau"]
            + [f"lower_{i}" for i in range(dim)]
            + [f"upper_{i}" for i in range(dim)]
        )
        for tau, (lo, hi) in enumerate(tube.bounds):
            writer.writerow(
                [tau] + [repr(float(v)) for v in lo] + [repr(float(v)) for v in hi]
            )
