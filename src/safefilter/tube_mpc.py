"""Tube MPC safety filter for linear models with additive box disturbance.

A nominal disturbance-free plan is optimized at every cycle under constraints
tightened by the worst-case tracking error of the auxiliary feedback gain K;
the first planned control is applied. Monitoring is feasibility of the plan
with its first control pinned to the candidate. When no plan exists, the
filter falls back to the time-shifted remainder of the last feasible plan
with the auxiliary feedback correction.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .dynamics import all_finite
from .filters import DeploymentRejected, Monitor, SafetyFilter, write_series_csv
from .intervals import Box, linear_image, support
from .qp import InfeasibleQP, solve_qp

_REG = 1e-8  # regularizer on later stages; the objective only scores stage 0


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def compute_tightening(A, B, K, dist_box: Box, horizon: int) -> np.ndarray:
    """Per-stage worst-case tracking-error bounds (H+1, 2, n) under
    x_err' = (A+BK) x_err + d.

    Stage 0 is the zero box; each later stage is the interval image of the
    previous one under A+BK, Minkowski-summed with the disturbance box.
    Requires A+BK to have spectral radius below one.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    n = A.shape[0]
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    closed = A + B @ K
    if _spectral_radius(closed) >= 1.0:
        raise ValueError("A + B K must be strictly stable for tube tightening")
    dist = np.asarray(dist_box) if dist_box.dim else np.zeros((2, n))
    if dist.shape[1] != n:
        raise ValueError("disturbance box must be state-dimensional")
    bounds = np.zeros((horizon + 1, 2, n))
    for tau in range(horizon):
        bounds[tau + 1] = linear_image(closed, bounds[tau]) + dist
    return bounds


def _error_bound_limit(closed: np.ndarray, dist: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    e = np.zeros((2, closed.shape[0]))
    for _ in range(100_000):
        nxt = linear_image(closed, e) + dist
        if float(np.max(np.abs(nxt - e))) <= tol:
            return nxt
        e = nxt
    raise RuntimeError("error-bound iteration did not converge")


@dataclass(frozen=True)
class TightenedProblem:
    """Precomputed tightened constraint data for the nominal plan, as
    ``[lower, upper]`` bound arrays."""

    horizon: int
    error_bounds: np.ndarray     # (H+1, 2, n) tracking-error bounds, stages 0..H
    control_bounds: np.ndarray   # (H, 2, m) tightened control set, stages 0..H-1
    stage_offsets: np.ndarray    # (n_halfspaces, H) tightened margins, stages 0..H-1
    terminal_bounds: np.ndarray  # (2, n) tightened terminal region for stage H


class _Plan:
    """A nominal plan: its controls (H, m) and its nominal states (H+1, n),
    ``powers @ x + conv @ w``, built on first read from the plan's own copy
    of the state x and its own stacked controls w."""

    __slots__ = ("controls", "age", "_x", "_w", "_maps", "_nominals")

    def __init__(self, x: np.ndarray, w: np.ndarray, horizon: int, maps: tuple):
        self.controls = w.reshape(horizon, -1)
        self.age = 0  # stages already consumed by the fallback
        self._x, self._w, self._maps = x.copy(), w, maps
        self._nominals = None

    @property
    def nominals(self) -> np.ndarray:
        if self._nominals is None:
            powers, conv = self._maps
            self._nominals = powers @ self._x + conv @ self._w
        return self._nominals


class TubeMPCFilter(SafetyFilter):
    """Optimization-type filter; see module docstring.

    ``failure_halfspaces`` lists (normal, offset) pairs with the margin
    convention: a state is failure-free iff normal . x >= offset for all pairs;
    they are kept as the rows of ``normals`` and the entries of ``offsets``.
    ``terminal_box`` must be invariant for the K-controlled nominal system
    after tightening, which is verified at construction along with clearance
    of the failure halfspaces by the asymptotic error bound.
    """

    def __init__(
        self,
        A,
        B,
        K,
        control_set: Box,
        dist_box: Box,
        failure_halfspaces,
        terminal_box: Box,
        horizon: int,
    ):
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        K = np.asarray(K, dtype=np.float64)
        n, m = B.shape
        if control_set.dim != m or terminal_box.dim != n:
            raise ValueError("control/terminal box dimensions do not match B")
        self.A, self.B, self.K = A, B, K
        self.n, self.m = n, m
        self.control_set = control_set
        self.horizon = H = int(horizon)
        pairs = list(failure_halfspaces)
        self.normals = np.array([nrm for nrm, _ in pairs], dtype=np.float64).reshape(len(pairs), n)
        self.offsets = np.array([off for _, off in pairs], dtype=np.float64)

        error_bounds = compute_tightening(A, B, K, dist_box, H)
        control_bounds = np.asarray(control_set) - np.array(
            [linear_image(K, e) for e in error_bounds[:H]]
        )
        empty = np.flatnonzero((control_bounds[:, 0] > control_bounds[:, 1]).any(axis=1))
        if empty.size:
            raise ValueError(f"control set tightens to empty at stage {empty[0]}")
        stage_offsets = self.offsets[:, None] + support(error_bounds[None, :H], -self.normals[:, None])
        terminal = np.asarray(terminal_box) - error_bounds[H]
        if np.any(terminal[0] > terminal[1]):
            raise ValueError("terminal box tightens to empty")
        closed = A + B @ K
        image = linear_image(closed, terminal)
        if not (np.all(image[0] >= terminal[0] - 1e-12) and np.all(image[1] <= terminal[1] + 1e-12)):
            raise ValueError("tightened terminal box is not invariant under A + B K")
        dist = np.asarray(dist_box) if dist_box.dim else np.zeros((2, n))
        settled = terminal + _error_bound_limit(closed, dist)
        if np.any(-support(settled, -self.normals) < self.offsets - 1e-12):
            raise ValueError(
                "terminal region plus asymptotic tracking error touches the failure set"
            )
        self.tightened = TightenedProblem(
            horizon=H,
            error_bounds=error_bounds,
            control_bounds=control_bounds,
            stage_offsets=stage_offsets,
            terminal_bounds=terminal,
        )

        # nominal prediction maps: x_tau = powers[tau] @ x + conv[tau] @ u_stack
        self._powers = np.array([np.linalg.matrix_power(A, t) for t in range(H + 1)])
        self._conv = np.zeros((H + 1, n, H * m))
        for tau in range(1, H + 1):
            for j in range(tau):
                self._conv[tau, :, j * m : (j + 1) * m] = self._powers[tau - 1 - j] @ B
        self._maps = (self._powers, self._conv)
        self._build_constraints()
        self._stage0_floor = self.offsets - 1e-12
        # the two QP programs: the pinned solve (G = I) and the replan, which
        # scores stage 0 and regularizes later stages
        self._pinned_G = np.eye((H - 1) * m)
        self._pinned_a = np.zeros((H - 1) * m)
        self._replan_G = np.eye(H * m) * _REG
        self._replan_G[:m, :m] = np.eye(m)

        self._plan: _Plan | None = None
        self._last_query = None
        self._last_state = None
        # when set, every accepted plan is dumped as CSV into this directory
        self.plan_log_dir: str | None = None
        self._plan_counter = 0
        monitor = Monitor(self._monitor_value, name="plan_feasibility")
        super().__init__(monitor, self._fallback, "tube_mpc", state_dim=n, control_dim=m)

    # --- constraint assembly -------------------------------------------------

    def _build_constraints(self) -> None:
        """Rows R of the plan constraints R w >= off(x) and the constant parts
        of off(x), in the order: control bounds per stage and input (lower,
        then upper), stage halfspaces for stages 1..H-1, terminal bounds per
        coordinate (lower, then upper)."""
        H, m, t = self.horizon, self.m, self.tightened
        eye = np.eye(H * m)
        terminal_rows = self._conv[H]
        self._rows = np.concatenate([
            np.stack([eye, -eye], axis=1).reshape(-1, H * m),
            (self.normals @ self._conv[1:H]).reshape(-1, H * m),
            np.stack([terminal_rows, -terminal_rows], axis=1).reshape(-1, H * m),
        ])
        self._control_offsets = np.stack(
            [t.control_bounds[:, 0], -t.control_bounds[:, 1]], axis=-1
        ).ravel()
        self._stage_constants = t.stage_offsets[:, 1:H].T.ravel()
        # off(x) is filled in place: the control part is constant, the stage
        # part spans [_stage_start, _terminal_start), the terminal part
        # alternates lower and upper bounds
        self._stage_start = self._control_offsets.size
        self._terminal_start = self._stage_start + self._stage_constants.size
        self._offsets_template = np.concatenate(
            [self._control_offsets, np.zeros(self._stage_constants.size + 2 * self.n)]
        )
        self._terminal_lo, self._terminal_hi = t.terminal_bounds
        # the pinned sub-problem: the rows left once the first control is fixed
        sub_rows = self._rows[:, m:]
        self._keep = np.linalg.norm(sub_rows, axis=1) > 1e-12
        self._pinned_constant = ~self._keep  # rows the pinned control alone decides
        self._pinned_rows = sub_rows[self._keep]

    def _constraint_offsets(self, x: np.ndarray) -> np.ndarray:
        px = self._powers @ x
        H, s, t = self.horizon, self._stage_start, self._terminal_start
        off = self._offsets_template.copy()
        np.subtract(self._stage_constants, (px[1:H] @ self.normals.T).ravel(), out=off[s:t])
        np.subtract(self._terminal_lo, px[H], out=off[t::2])
        np.subtract(px[H], self._terminal_hi, out=off[t + 1 :: 2])
        return off

    def _stage0_ok(self, x: np.ndarray) -> bool:
        return bool((self.normals @ x >= self._stage0_floor).all())

    def _state_offsets(self, x: np.ndarray):
        """The plan offsets off(x), or None when x itself breaks a failure
        halfspace; computed once per state and kept until the next state."""
        key = x.tobytes()
        if self._last_state is None or self._last_state[0] != key:
            off = self._constraint_offsets(x) if self._stage0_ok(x) else None
            if off is not None:
                off.flags.writeable = False
            self._last_state = (key, off)
        return self._last_state[1]

    def _solve_plan(self, x: np.ndarray, u_ref: np.ndarray, pin_first: bool):
        """Nominal plan from x; either pins the first control to u_ref or
        minimizes its deviation from u_ref. Returns a _Plan or None."""
        off = self._state_offsets(x)
        if off is None:
            return None
        H, m = self.horizon, self.m
        rows = self._rows
        if pin_first:
            sub_off = off - rows[:, :m] @ u_ref
            if (sub_off[self._pinned_constant] > 1e-9).any():
                return None
            if H == 1:
                w_rest = np.zeros(0)
            else:
                try:
                    w_rest = solve_qp(
                        self._pinned_G, self._pinned_a, self._pinned_rows, sub_off[self._keep]
                    )
                except InfeasibleQP:
                    return None
            w = np.concatenate([u_ref, w_rest])
        else:
            a = np.zeros(H * m)
            a[:m] = -u_ref
            try:
                w = solve_qp(self._replan_G, a, rows, off)
            except InfeasibleQP:
                return None
        return _Plan(x, w, H, self._maps)

    # --- filter surface -------------------------------------------------------

    def _monitor_value(self, x, u) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        plan = self._solve_plan(x, u, pin_first=True)
        self._last_query = (x.tobytes(), u.tobytes(), plan)
        return 0.5 if plan is not None else -0.5

    def _pinned_plan(self, x, u):
        """The pinned plan for (x, u); reuses the monitor's solve of the same
        query, whether that found a plan or proved the candidate infeasible."""
        if self._last_query is not None and self._last_query[:2] == (x.tobytes(), u.tobytes()):
            return self._last_query[2]
        return self._solve_plan(x, u, pin_first=True)

    def _shifted_control(self, x: np.ndarray, advance: bool) -> np.ndarray:
        plan = self._plan
        if plan is None:
            raise DeploymentRejected(
                "tube MPC has no feasible plan and no cached fallback plan"
            )
        stage = plan.age
        if advance:
            plan.age += 1
        if stage < self.horizon:
            u = plan.controls[stage] + self.K @ (x - plan.nominals[stage])
        else:
            # plan exhausted: hand over to the terminal controller u = K x
            u = self.K @ x
        return np.clip(u, self.control_set.lower, self.control_set.upper)

    def _fallback(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self._plan is not None:
            return self._shifted_control(x, advance=False)
        plan = self._solve_plan(x, np.zeros(self.m), pin_first=False)
        if plan is None:
            return self.control_set.center.copy()
        plan.age = 1  # the handed-out first control consumes stage 0 once applied
        self._plan = plan
        return plan.controls[0].copy()

    def intervene(self, x, u_task, monitor_value: float) -> np.ndarray:
        """Pass u_task when the monitor found its pinned plan; else apply the
        first control of the plan closest to it (to the zero control for a
        non-finite candidate), else follow the shifted last plan."""
        self.last_degraded = False
        x = np.asarray(x, dtype=np.float64)
        u_task = np.atleast_1d(np.asarray(u_task, dtype=np.float64))
        plan = self._pinned_plan(x, u_task) if monitor_value >= 0.0 else None
        if plan is not None:
            plan.age = 1
            self._plan = plan
            self._log_plan(plan)
            return u_task
        u_ref = u_task if all_finite(u_task) else np.zeros(self.m)
        plan = self._solve_plan(x, u_ref, pin_first=False)
        if plan is not None:
            plan.age = 1
            self._plan = plan
            self._log_plan(plan)
            return plan.controls[0].copy()
        self.last_degraded = True
        return self._shifted_control(x, advance=True)

    def _log_plan(self, plan: _Plan) -> None:
        if self.plan_log_dir is None:
            return
        path = os.path.join(self.plan_log_dir, f"plan_{self._plan_counter:06d}.csv")
        self._plan_counter += 1
        controls = plan.controls.tolist() + [[""] * self.m]  # no control at stage H
        rows = zip(controls, plan.nominals.tolist())
        write_series_csv(
            path,
            ["stage", *(f"u{i}" for i in range(self.m)), *(f"x{i}" for i in range(self.n))],
            ([tau, *u, *x] for tau, (u, x) in enumerate(rows)),
        )

    def reset(self, x0=None) -> None:
        self.last_degraded = False
        self._plan = None
        self._last_query = None


def tube_mpc_filter(*args, **kwargs) -> TubeMPCFilter:
    """Build a ``TubeMPCFilter`` from its constructor's arguments."""
    return TubeMPCFilter(*args, **kwargs)
