"""Rollout-based filters: interval forward-reachable tubes and shielding.

The monitor simulates the fallback policy forward as a tube of boxes that
over-approximates every reachable state under the admissible disturbances,
and passes a candidate control only if the tube clears the failure set at
every step and its final box lands fully inside a terminal safe set that is
invariant under the fallback. The check is sufficient for all-time safety,
not necessary, so it is deliberately conservative.

The tube is kept as float rows, one ``((lower...), (upper...))`` tuple of
Python floats per box (``intervals.float_rows``), from the state to the
verdict: the model's ``interval_step`` takes the state box, the control
enclosure and the disturbance set as float rows and returns the next box as
float rows, and a callable ``control_box`` takes the state box as float rows.
The (H+1, 2, n) array ``FRSTube.bounds`` is built only when it is read. A
fallback's policy gets a state array. A ``control_box`` may instead be a fixed
(2, m) enclosure that holds over every state box, as the optimal safety
fallback's full control set does; a tube clips it to the control set once, at
its first nondegenerate box, and hands the same immutable float rows to every
later step. The failure check is one loop over the tube's float rows: the
margin's ``box_lower`` bounds each box, and the first box whose bound is not
``>= 0`` (NaN included) rejects the candidate. The terminal set's
``box_containment`` gets the final box as float rows. The value-grid terminal
set decides a box from node values where they settle it and otherwise
interpolates only the face points whose cell has a corner node that is not
>= 0, in any grid dimension (``reachability._grid_box_nonnegative``).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .dynamics import MarginFunction, SystemModel, discretize_box
from .filters import BudgetExceededError, Monitor, SafetyFilter, write_series_csv
from .intervals import Box, _float_vector, float_rows, maximum, minimum
from .reachability import ValueGrid, _grid_box_nonnegative, optimal_safety_policy, safe_membership
from .reachability import grid_box_min  # noqa: F401 (bench/tracing.py rebinds it here)

_REST_EPS = 1e-12  # velocities below this count as numerically at rest
# the braking terminal set's invariance check: depth, start lattice, state budget
_BRAKING_CHECK_HORIZON = 20
_BRAKING_CHECK_COUNTS = (5, 5)
_BRAKING_CHECK_BUDGET = 200_000


@dataclass(frozen=True)
class FRSTube:
    """Forward-reachable tube: box tau, given as float rows
    ``rows[tau] = ((lower...), (upper...))``, contains every state reachable
    at tau. ``bounds`` is the same tube as one (H+1, 2, n) array, built the
    first time it is read."""

    rows: tuple

    @functools.cached_property
    def bounds(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.float64)

    @property
    def sets(self) -> tuple[Box, ...]:
        return tuple(Box(lo, hi) for lo, hi in self.rows)

    @property
    def horizon(self) -> int:
        return len(self.rows) - 1


@dataclass(frozen=True)
class TerminalSafeSet:
    """Terminal region; ``box_containment`` takes the float rows
    ``((lower...), (upper...))`` of one box and must be conservative (true
    only if the whole box lies inside the set)."""

    membership: Callable[[np.ndarray], bool]
    box_containment: Callable[[tuple], bool]
    name: str = ""


@dataclass(frozen=True)
class FallbackPolicy:
    """A fallback control law plus the information needed to evaluate it soundly
    over a state box.

    ``control_box`` is an exact control-range enclosure: either a callable
    mapping the float rows of a state box to control bounds (2, m) (float
    rows, an array or a ``Box``), or fixed (2, m) control bounds that hold
    over every state box, which a tube clips to the control set once instead
    of once per step. Without one, ``lipschitz`` is a Lipschitz bound
    (infinity norm) for center-plus-inflation evaluation; a negative or NaN
    one is rejected, and +inf clips to the control set. A fixed enclosure is
    stored as a read-only float64 copy and, like a callable one, takes no part
    in equality and hashing. ``policy`` receives a state array.
    """

    policy: Callable[[np.ndarray], np.ndarray]
    control_box: Union[Callable[[tuple], object], np.ndarray, None] = field(
        default=None, compare=False
    )
    lipschitz: Optional[float] = None
    name: str = ""

    def __post_init__(self):
        if self.lipschitz is not None and not self.lipschitz >= 0.0:
            raise ValueError(f"lipschitz must be nonnegative, got {self.lipschitz}")
        object.__setattr__(self, "_fixed_rows", None)
        if self.control_box is None or callable(self.control_box):
            return
        enc = np.array(self.control_box, dtype=np.float64)
        if enc.ndim != 2 or enc.shape[0] != 2 or enc.shape[1] == 0:
            raise ValueError(
                f"a fixed control enclosure must be (2, m) bounds, got shape {enc.shape}"
            )
        if np.isnan(enc).any():
            raise ValueError("a fixed control enclosure must not contain NaN")
        if (enc[0] > enc[1]).any():
            raise ValueError("a fixed control enclosure has a lower bound above its upper bound")
        enc.flags.writeable = False
        object.__setattr__(self, "control_box", enc)
        object.__setattr__(self, "_fixed_rows", float_rows(enc))

    def __call__(self, x) -> np.ndarray:
        return self.policy(x)


def _as_fallback(fallback) -> FallbackPolicy:
    if isinstance(fallback, FallbackPolicy):
        return fallback
    return FallbackPolicy(policy=fallback)


def _is_point(X) -> bool:
    """Whether every width upper - lower of the box with float rows X is
    <= 0 (a NaN width is not)."""
    lo, hi = X
    for l, h in zip(lo, hi):
        if not h - l <= 0.0:
            return False
    return True


def _clip(enc, U) -> tuple:
    """Float rows of the control enclosure ``enc`` within the control set's
    float rows ``U``, clipped by ``intervals.maximum`` and ``minimum``: the
    enclosure's NaN wins, a tie takes U's bound."""
    (elo, ehi), (ulo, uhi) = enc, U
    if len(elo) != len(ulo) or len(ehi) != len(uhi):
        raise ValueError(
            f"control enclosure has shape (2, {len(elo)}), the control set (2, {len(ulo)})"
        )
    lo = tuple(map(maximum, elo, ulo))
    hi = tuple(map(minimum, ehi, uhi))
    for l, h in zip(lo, hi):
        if l > h:
            raise ValueError("fallback control enclosure does not meet the control set")
    return lo, hi


def _control_enclosure(fb: FallbackPolicy, X, U) -> tuple:
    """Float rows of the fallback control over the state box X within U,
    both float rows: the policy's value at a point box, else the callable or
    Lipschitz enclosure clipped to U (``propagate_frs`` clips a fixed
    enclosure itself, once per tube)."""
    point, cb = _is_point(X), fb.control_box
    if not point and callable(cb):
        return _clip(float_rows(cb(X)), U)
    if not point and fb.lipschitz is None:
        raise ValueError(
            "state-feedback fallback over a nondegenerate box needs a "
            "control_box enclosure or a lipschitz bound"
        )
    lo, hi = X
    center = np.array([0.5 * (l + h) for l, h in zip(lo, hi)])
    u = tuple(_float_vector(fb.policy(center)).tolist())
    if point:
        return u, u
    inflation = fb.lipschitz * functools.reduce(maximum, [0.5 * (h - l) for l, h in zip(lo, hi)])
    return _clip((tuple(v - inflation for v in u), tuple(v + inflation for v in u)), U)


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
    x = tuple(np.asarray(x, dtype=np.float64).ravel().tolist())
    u0 = tuple(np.asarray(u0, dtype=np.float64).ravel().tolist())
    U, D = float_rows(model.control_set), float_rows(model.disturbance_set)
    X = (x, x)
    rows = [X]
    X = model.interval_step(X, (u0, u0), D)
    rows.append(X)
    fixed = fb._fixed_rows
    clipped = None  # the fixed enclosure within U, once a box has needed it
    for _ in range(1, horizon):
        if fixed is None or _is_point(X):
            enc = _control_enclosure(fb, X, U)
        else:
            if clipped is None:
                clipped = _clip(fixed, U)
            enc = clipped
        X = model.interval_step(X, enc, D)
        rows.append(X)
    return FRSTube(tuple(rows))


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
    final box is contained in the terminal set; -1/2 otherwise. A box clears
    the failure set only if the margin's bound over it is ``>= 0``, so a NaN
    bound rejects."""
    tube = propagate_frs(model, fallback, x, u, horizon)
    for X in tube.rows:
        if not failure_margin.box_lower(X) >= 0.0:
            return -0.5
    if not terminal.box_containment(tube.rows[-1]):
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
    return SafetyFilter(monitor, fb.policy, "mps",
                        state_dim=model.state_dim, control_dim=model.control_dim)


# --- braking fallback and terminal set for the double integrator ------------


def _braking_control(v: float, u_max: float, dt: float, v_tol: float) -> float:
    """The braking law: -sign(v) * u_max outside the band |v| <= v_tol, the
    exact-stop control clamp(-v/dt) inside it, and 0 at rest. With v_tol =
    inf it is the exact-stop law everywhere, the exploration filter's brake.
    A NaN velocity gives a NaN control, which ``step`` rejects."""
    if v != v:
        return v
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
        v = float(x[1])
        return np.array([_braking_control(v, u_max, dt, v_tol)])

    def control_box(X) -> tuple:
        (_, vlo), (_, vhi) = X
        if vlo != vlo or vhi != vhi:  # as the policy does for a NaN velocity
            return (math.nan,), (math.nan,)
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
        return (min(p[0] for p in pieces),), (max(p[1] for p in pieces),)

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


def braking_terminal_set(model: SystemModel, v_tol: float, safe_box: Box) -> TerminalSafeSet:
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
    fb = braking_fallback(model, v_tol)
    u_max, dt = float(model.control_set.upper[0]), model.dt
    p_lo, p_hi = float(safe_box.lower[0]), float(safe_box.upper[0])

    def excursion(v: float):
        return _braking_excursion(u_max, dt, v_tol, v)

    def membership(x) -> bool:
        p, v = float(x[0]), float(x[1])
        if not abs(v) <= v_tol:  # a NaN velocity is no member
            return False
        exc_lo, exc_hi = excursion(v)
        return p + exc_lo >= p_lo and p + exc_hi <= p_hi

    def box_containment(X) -> bool:
        (plo, vlo), (phi, vhi) = float_rows(X)
        if not (-v_tol <= vlo and vhi <= v_tol):  # a NaN velocity bound fails
            return False
        # excursions are monotone in v, so the corners are the worst cases
        exc_lo, _ = excursion(vlo)
        _, exc_hi = excursion(vhi)
        return plo + exc_lo >= p_lo and phi + exc_hi <= p_hi

    terminal = TerminalSafeSet(membership, box_containment, name="braking_rest_set")
    _check_terminal_invariance(model, fb, terminal, Box([p_lo, -v_tol], [p_hi, v_tol]))
    return terminal


def _check_terminal_invariance(
    model: SystemModel, fb: FallbackPolicy, terminal: TerminalSafeSet, state_box: Box
) -> None:
    """Exhaustive lattice rollout: every member lattice state must stay a member
    under the fallback for all disturbance-corner sequences."""
    starts = [x for x in discretize_box(state_box, _BRAKING_CHECK_COUNTS)
              if terminal.membership(x)]
    d_cands = discretize_box(model.disturbance_set, [2] * model.disturbance_dim)
    expanded = 0
    for x0 in starts:
        stack = [(x0, 0)]
        while stack:
            x, depth = stack.pop()
            expanded += 1
            if expanded > _BRAKING_CHECK_BUDGET:
                # escapes are usually shallow, so the walk is breadth-limited
                # lazily rather than rejected up front
                raise BudgetExceededError(
                    "terminal-set invariance check exceeds its budget of "
                    f"{_BRAKING_CHECK_BUDGET} expanded states"
                )
            if not terminal.membership(x):
                raise ValueError(
                    f"terminal set is not invariant under its fallback: escape from "
                    f"{x0} reaches {x} after {depth} steps"
                )
            if depth == _BRAKING_CHECK_HORIZON:
                continue
            u = fb.policy(x)
            for d in d_cands:
                stack.append((model.step(x, u, d), depth + 1))


# --- terminal sets and fallbacks built on a solved value grid ---------------


def value_grid_terminal_set(grid: ValueGrid) -> TerminalSafeSet:
    """Terminal set {V >= 0} of a solved value grid; box containment uses a
    sound lower bound of the interpolant over the box, decided from node
    values where they suffice."""
    return TerminalSafeSet(
        membership=lambda x: safe_membership(grid, x),
        box_containment=lambda X: _grid_box_nonnegative(grid, X),
        name="value_grid_safe_set",
    )


def optimal_fallback(
    model: SystemModel,
    grid: ValueGrid,
    u_candidates: np.ndarray,
    d_candidates: np.ndarray,
) -> FallbackPolicy:
    """Optimal safety policy as a fallback. The policy is piecewise constant in
    the state (an argmax over candidates), so its only sound control enclosure
    over a box is the full control set, which it declares as a fixed one."""
    policy = optimal_safety_policy(model, grid, u_candidates, d_candidates)
    return FallbackPolicy(
        policy, control_box=np.asarray(model.control_set), name="optimal_safety"
    )


def write_tube_csv(tube: FRSTube, path) -> None:
    """Dump a tube as CSV rows (tau, lower..., upper...)."""
    dim = len(tube.rows[0][0])
    write_series_csv(
        path,
        ["tau", *(f"lower_{i}" for i in range(dim)), *(f"upper_{i}" for i in range(dim))],
        ([tau, *lo, *hi] for tau, (lo, hi) in enumerate(tube.rows)),
    )
