"""Small dense convex QP solver (dual active set, Goldfarb-Idnani scheme).

Solves  min 0.5 x'Gx + a'x  subject to  A x >= b  for symmetric positive
definite G. Starts from the unconstrained optimum and adds the most violated
constraint at a time, dropping actives whose multiplier would go negative.
All pivot choices break ties at the lowest index, so runs are reproducible.
Sized for the tiny problems used here (a few variables, tens of constraints).

Pivot metric: a row n enters with a primal step only when its step direction
z keeps a share of its length in the G^-1 metric, z'n > 1e-13 * n'G^-1 n (the
squared sine of its angle to the active rows, about 500 ulps); otherwise it
is taken as dependent on the active rows. The test does not depend on the
scale of G or of the row; it is kept apart from ``_TOL``, which bounds slacks.

Memo: everything an inner step computes apart from the point and the
multipliers (z, the multiplier update r and the pivot verdict) is a function
of G, A, the active set and the entering row alone. It is kept per program in
a bounded process-wide memo keyed by the bytes and shapes of G and A; each
entry is computed on first use by the same linear solves that
recomputation would make, so every result is bit-identical to solving from
scratch. A repeated program makes one linear solve per QP, for the
unconstrained start.

Verified return: before it returns, the solver checks every non-constant row
of the final point, active rows included, against _TOL * max(1, |row|), and
raises ``InfeasibleQP`` rather than return a point that misses one. The check
reuses the slack of the last iteration and passes at once when every row,
constant ones included, holds; otherwise it looks at the non-constant rows
alone and names the first that misses. A program without constant rows skips
their feasibility test and their masking in every iteration.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

_TOL = 1e-10        # slack tolerance of a row; rows of norm at most _TOL are constant
_MAX_PROGRAMS = 32   # distinct (G, A) programs kept, oldest evicted first
_MAX_STEPS = 4096    # memoized (active set, entering row) steps per program
_DEPENDENT = 1e-13   # z'n / n'G^-1 n at or below which a row is dependent


class InfeasibleQP(RuntimeError):
    """No verified solution: the constraint system A x >= b has none, or the
    iteration ended on a point that misses a row by more than its tolerance
    (the point was not verified)."""


class _Program:
    """Memo record of one (G, A): row data and the inner steps."""

    __slots__ = ("row_floor", "constant_rows", "varying_rows", "steps")

    def __init__(self, A: np.ndarray):
        row_norms = np.linalg.norm(A, axis=1) if A.shape[0] else np.zeros(0)
        constant = row_norms <= _TOL
        # the mask of the constant rows, or None when there are none
        self.constant_rows = constant if constant.any() else None
        self.varying_rows = np.flatnonzero(~constant)
        # the slack a row must reach: -_TOL * max(1, |row|)
        self.row_floor = -_TOL * np.maximum(1.0, row_norms)
        self.steps: dict = {}


_programs: OrderedDict = OrderedDict()
_insert_lock = threading.Lock()  # lookups are lock-free; inserts check the caps


def _program(G: np.ndarray, A: np.ndarray) -> _Program:
    key = (G.shape, A.shape, G.tobytes(), A.tobytes())
    prog = _programs.get(key)
    if prog is None:
        prog = _Program(A)
        with _insert_lock:
            _programs[key] = prog
            while len(_programs) > _MAX_PROGRAMS:
                _programs.popitem(last=False)
    return prog


def _step(G, A, active: list[int], worst: int):
    """The step of entering row ``worst`` into ``active``: the multiplier
    update r, the primal direction z, z'n and the pivot verdict."""
    n_p = A[worst]
    g_inv_np = np.linalg.solve(G, n_p)
    if active:
        N = A[np.asarray(active)].T  # (n, q)
        g_inv_N = np.linalg.solve(G, N)
        M = N.T @ g_inv_N
        r = np.linalg.solve(M, N.T @ g_inv_np)
        z = g_inv_np - g_inv_N @ r
    else:
        r = np.zeros(0)
        z = g_inv_np
    znp = float(z @ n_p)
    pivot_ok = znp > _DEPENDENT * float(n_p @ g_inv_np)
    z.flags.writeable = False
    return tuple(r.tolist()), z, znp, pivot_ok


def solve_qp(G, a, A, b) -> np.ndarray:
    """Return the minimizer; raises InfeasibleQP when the constraints are empty
    or the final point fails its check.

    ``A`` may have zero rows (unconstrained). Rows of A with norm at most
    ``_TOL`` are treated as constant constraints: feasible iff b_i <= ``_TOL``.
    """
    G = np.asarray(G, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).reshape(-1, G.shape[0])
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    n = G.shape[0]
    p = A.shape[0]
    if b.shape != (p,):
        raise ValueError("b length does not match constraint rows")

    prog = _program(G, A)
    constant_rows, row_floor, steps = prog.constant_rows, prog.row_floor, prog.steps
    if constant_rows is not None and np.any(b[constant_rows] > _TOL):
        raise InfeasibleQP("constant constraint row 0 >= b with b > 0")

    x = np.linalg.solve(G, -a)
    if p == 0:
        return x
    active: list[int] = []
    multipliers: list[float] = []

    for _ in range(20 * (p + n) + 50):
        residual = A @ x - b
        slack = residual
        if constant_rows is not None or active:
            slack = residual.copy()
            if constant_rows is not None:
                slack[constant_rows] = math.inf
            for i in active:
                slack[i] = math.inf
        worst = int(slack.argmin())
        if slack[worst] >= row_floor[worst]:
            _verify(residual, prog)
            return x
        b_p = b[worst]
        u_p = 0.0

        while True:
            key = (tuple(active), worst)
            entry = steps.get(key)
            if entry is None:
                entry = _step(G, A, active, worst)
                with _insert_lock:
                    if len(steps) < _MAX_STEPS:
                        steps[key] = entry
            r, z, znp, pivot_ok = entry

            # dual blocking step: first active whose multiplier hits zero
            t1 = math.inf
            k_drop = -1
            for j in range(len(active)):
                if r[j] > _TOL:
                    ratio = multipliers[j] / r[j]
                    if ratio < t1 - 1e-14:
                        t1 = ratio
                        k_drop = j
            # full step that makes the new constraint tight
            if pivot_ok:
                t2 = (b_p - float(A[worst] @ x)) / znp
            else:
                t2 = math.inf

            t = min(t1, t2)
            if not math.isfinite(t):
                raise InfeasibleQP(f"constraint {worst} cannot be satisfied")
            if t2 < math.inf:
                x = x + t * z
            for j in range(len(active)):
                multipliers[j] -= t * r[j]
            u_p += t
            if t2 <= t1:
                active.append(worst)
                multipliers.append(u_p)
                break
            del active[k_drop]
            del multipliers[k_drop]

    raise RuntimeError("active-set iteration limit exceeded")


def _verify(slack: np.ndarray, prog: _Program) -> None:
    """Raise InfeasibleQP when a non-constant row's slack (NaN included)
    falls below its floor."""
    if (slack >= prog.row_floor).all():
        return
    rows = prog.varying_rows
    missed = rows[~(slack[rows] >= prog.row_floor[rows])]
    if missed.size:
        i = int(missed[0])
        raise InfeasibleQP(
            f"row {i} misses its bound by {-float(slack[i]):.3g}: point not verified"
        )
