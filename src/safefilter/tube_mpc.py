"""Tube MPC safety filter for linear models with additive box disturbance.

A nominal disturbance-free plan is optimized at every cycle under constraints
tightened by the worst-case tracking error of the auxiliary feedback gain K;
the first planned control is applied. Monitoring is feasibility of the plan
with its first control pinned to the candidate. When no plan exists, the
filter falls back to the time-shifted remainder of the last feasible plan
with the auxiliary feedback correction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import DeploymentRejected, Monitor, SafetyFilter
from .intervals import Box, linear_image
from .qp import InfeasibleQP, solve_qp

_REG = 1e-8  # regularizer on later stages; the objective only scores stage 0


def _spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def compute_tightening(A, B, K, dist_box: Box, horizon: int) -> list[Box]:
    """Per-stage worst-case tracking-error boxes under x_err' = (A+BK) x_err + d.

    error_bounds[0] is the zero box; each later stage is the interval image of
    the previous one under A+BK, Minkowski-summed with the disturbance box.
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
    bounds = [Box.point(np.zeros(n))]
    for _ in range(horizon):
        bounds.append(Box(*(linear_image(closed, bounds[-1]) + dist)))
    return bounds


def _error_bound_limit(closed: np.ndarray, dist: np.ndarray, tol: float = 1e-12) -> Box:
    e = np.zeros((2, closed.shape[0]))
    for _ in range(100_000):
        nxt = linear_image(closed, e) + dist
        if float(np.max(np.abs(nxt - e))) <= tol:
            return Box(*nxt)
        e = nxt
    raise RuntimeError("error-bound iteration did not converge")


@dataclass(frozen=True)
class TightenedProblem:
    """Precomputed tightened constraint data for the nominal plan."""

    horizon: int
    error_bounds: tuple[Box, ...]          # stages 0..H
    control_boxes: tuple[Box, ...]         # tightened control set per stage 0..H-1
    stage_offsets: np.ndarray              # (n_halfspaces, H) tightened margins, stages 0..H-1
    terminal_box: Box                      # tightened terminal region for stage H


@dataclass
class _Plan:
    controls: np.ndarray  # (H, m)
    nominals: np.ndarray  # (H+1, n)
    age: int = 0          # stages already consumed by the fallback


class TubeMPCFilter(SafetyFilter):
    """Optimization-type filter; see module docstring.

    ``failure_halfspaces`` lists (normal, offset) pairs with the margin
    convention: a state is failure-free iff normal . x >= offset for all pairs.
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
        self.horizon = int(horizon)
        self.halfspaces = [
            (np.asarray(nrm, dtype=np.float64), float(off))
            for nrm, off in failure_halfspaces
        ]

        error_bounds = compute_tightening(A, B, K, dist_box, self.horizon)
        control_boxes = []
        for tau in range(self.horizon):
            ke = linear_image(K, error_bounds[tau])
            tightened = Box(control_set.lower - ke[0], control_set.upper - ke[1])
            if np.any(tightened.lower > tightened.upper):
                raise ValueError(f"control set tightens to empty at stage {tau}")
            control_boxes.append(tightened)
        stage_offsets = np.empty((len(self.halfspaces), self.horizon))
        for i, (nrm, off) in enumerate(self.halfspaces):
            for tau in range(self.horizon):
                stage_offsets[i, tau] = off + error_bounds[tau].support(-nrm)
        e_H = error_bounds[-1]
        tight_terminal = Box(
            terminal_box.lower - e_H.lower, terminal_box.upper - e_H.upper
        )
        if np.any(tight_terminal.lower > tight_terminal.upper):
            raise ValueError("terminal box tightens to empty")
        closed = A + B @ K
        if not tight_terminal.contains_box(linear_image(closed, tight_terminal), tol=1e-12):
            raise ValueError("tightened terminal box is not invariant under A + B K")
        dist = np.asarray(dist_box) if dist_box.dim else np.zeros((2, n))
        e_inf = _error_bound_limit(closed, dist)
        settled = tight_terminal.add(e_inf)
        for nrm, off in self.halfspaces:
            if -settled.support(-nrm) < off - 1e-12:
                raise ValueError(
                    "terminal region plus asymptotic tracking error touches the failure set"
                )
        self.tightened = TightenedProblem(
            horizon=self.horizon,
            error_bounds=tuple(error_bounds),
            control_boxes=tuple(control_boxes),
            stage_offsets=stage_offsets,
            terminal_box=tight_terminal,
        )

        # nominal prediction maps: x_tau = powers[tau] @ x + conv[tau] @ u_stack
        self._powers = [np.linalg.matrix_power(A, t) for t in range(self.horizon + 1)]
        self._conv = []
        for tau in range(self.horizon + 1):
            F = np.zeros((n, self.horizon * m))
            for j in range(tau):
                F[:, j * m : (j + 1) * m] = self._powers[tau - 1 - j] @ B
            self._conv.append(F)
        self._rows, self._offsets_template = self._constraint_rows()

        self._plan: _Plan | None = None
        self._last_query = None
        # when set, every accepted plan is dumped as CSV into this directory
        self.plan_log_dir: str | None = None
        self._plan_counter = 0
        monitor = Monitor(self._monitor_value, name="plan_feasibility")
        super().__init__(monitor, self._fallback, name="tube_mpc")

    # --- constraint assembly -------------------------------------------------

    def _constraint_rows(self):
        """Rows (R, H*m) and state-dependent offset builders for R w >= off(x)."""
        H, m = self.horizon, self.m
        rows = []
        kinds = []  # (type, data) to rebuild offsets per state
        for tau in range(H):
            ubox = self.tightened.control_boxes[tau]
            for i in range(m):
                e = np.zeros(H * m)
                e[tau * m + i] = 1.0
                rows.append(e.copy())
                kinds.append(("const", float(ubox.lower[i])))
                rows.append(-e)
                kinds.append(("const", -float(ubox.upper[i])))
        for tau in range(1, H):
            for i, (nrm, _) in enumerate(self.halfspaces):
                rows.append(nrm @ self._conv[tau])
                kinds.append(("stage", (i, tau, nrm)))
        for d in range(self.n):
            e = np.zeros(self.n)
            e[d] = 1.0
            rows.append(e @ self._conv[H])
            kinds.append(("term_lo", (d, e)))
            rows.append(-(e @ self._conv[H]))
            kinds.append(("term_hi", (d, e)))
        return np.asarray(rows), kinds

    def _constraint_offsets(self, x: np.ndarray) -> np.ndarray:
        off = np.empty(len(self._offsets_template))
        H = self.horizon
        for r, (kind, data) in enumerate(self._offsets_template):
            if kind == "const":
                off[r] = data
            elif kind == "stage":
                i, tau, nrm = data
                off[r] = self.tightened.stage_offsets[i, tau] - float(
                    nrm @ (self._powers[tau] @ x)
                )
            elif kind == "term_lo":
                d, e = data
                off[r] = float(self.tightened.terminal_box.lower[d]) - float(
                    e @ (self._powers[H] @ x)
                )
            else:  # term_hi
                d, e = data
                off[r] = float(e @ (self._powers[H] @ x)) - float(
                    self.tightened.terminal_box.upper[d]
                )
        return off

    def _stage0_ok(self, x: np.ndarray) -> bool:
        return all(float(nrm @ x) >= off - 1e-12 for nrm, off in self.halfspaces)

    def _solve_plan(self, x: np.ndarray, u_ref: np.ndarray, pin_first: bool):
        """Nominal plan from x; either pins the first control to u_ref or
        minimizes its deviation from u_ref. Returns a _Plan or None."""
        if not self._stage0_ok(x):
            return None
        H, m = self.horizon, self.m
        rows, off = self._rows, self._constraint_offsets(x)
        if pin_first:
            sub_rows = rows[:, m:]
            sub_off = off - rows[:, :m] @ u_ref
            keep = np.linalg.norm(sub_rows, axis=1) > 1e-12
            if np.any(sub_off[~keep] > 1e-9):
                return None
            if H == 1:
                w_rest = np.zeros(0)
            else:
                try:
                    w_rest = solve_qp(
                        np.eye((H - 1) * m),
                        np.zeros((H - 1) * m),
                        sub_rows[keep],
                        sub_off[keep],
                    )
                except InfeasibleQP:
                    return None
            w = np.concatenate([u_ref, w_rest])
        else:
            G = np.eye(H * m) * _REG
            G[:m, :m] = np.eye(m)
            a = np.zeros(H * m)
            a[:m] = -u_ref
            try:
                w = solve_qp(G, a, rows, off)
            except InfeasibleQP:
                return None
        controls = w.reshape(H, m)
        nominals = np.empty((H + 1, self.n))
        for tau in range(H + 1):
            nominals[tau] = self._powers[tau] @ x + self._conv[tau] @ w
        return _Plan(controls=controls, nominals=nominals)

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

    def intervene(self, x, u_task, monitor_value=None) -> np.ndarray:
        self.last_degraded = False
        x = np.asarray(x, dtype=np.float64)
        u_task = np.atleast_1d(np.asarray(u_task, dtype=np.float64))
        plan = self._pinned_plan(x, u_task)
        if plan is not None:
            plan.age = 1
            self._plan = plan
            self._log_plan(plan)
            return u_task
        plan = self._solve_plan(x, u_task, pin_first=False)
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
        import csv
        import os

        path = os.path.join(self.plan_log_dir, f"plan_{self._plan_counter:06d}.csv")
        self._plan_counter += 1
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["stage"]
                + [f"u{i}" for i in range(self.m)]
                + [f"x{i}" for i in range(self.n)]
            )
            for tau in range(self.horizon + 1):
                u_row = (
                    [repr(float(v)) for v in plan.controls[tau]]
                    if tau < self.horizon
                    else [""] * self.m
                )
                writer.writerow(
                    [tau] + u_row + [repr(float(v)) for v in plan.nominals[tau]]
                )

    def reset(self, x0=None) -> None:
        self.last_degraded = False
        self._plan = None
        self._last_query = None


def tube_mpc_filter(
    A,
    B,
    K,
    control_set: Box,
    dist_box: Box,
    failure_halfspaces,
    terminal_box: Box,
    horizon: int,
) -> TubeMPCFilter:
    return TubeMPCFilter(
        A, B, K, control_set, dist_box, failure_halfspaces, terminal_box, horizon
    )
