"""Small dense convex QP solver (dual active set, Goldfarb-Idnani scheme).

Solves  min 0.5 x'Gx + a'x  subject to  A x >= b  for symmetric positive
definite G. Starts from the unconstrained optimum and adds the most violated
constraint at a time, dropping actives whose multiplier would go negative.
All pivot choices break ties at the lowest index, so runs are reproducible.
Sized for the tiny problems used here (a few variables, tens of constraints);
each step refactorizes from scratch rather than updating factors.
"""
from __future__ import annotations

import math

import numpy as np


class InfeasibleQP(RuntimeError):
    """The constraint system A x >= b has no solution."""


def solve_qp(G, a, A, b, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
    """Return the minimizer; raises InfeasibleQP when the constraints are empty.

    ``A`` may have zero rows (unconstrained). Rows of A equal to zero are
    treated as constant constraints: feasible iff b_i <= tol.
    """
    G = np.asarray(G, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64).reshape(-1, G.shape[0])
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    n = G.shape[0]
    p = A.shape[0]
    if b.shape != (p,):
        raise ValueError("b length does not match constraint rows")

    row_norms = np.linalg.norm(A, axis=1) if p else np.zeros(0)
    constant_rows = row_norms <= tol
    if np.any(b[constant_rows] > tol):
        raise InfeasibleQP("constant constraint row 0 >= b with b > 0")

    x = np.linalg.solve(G, -a)
    if p == 0:
        return x
    active: list[int] = []
    multipliers: list[float] = []
    if max_iter is None:
        max_iter = 20 * (p + n) + 50

    for _ in range(max_iter):
        slack = A @ x - b
        slack[constant_rows] = math.inf
        if active:
            slack[np.asarray(active)] = math.inf
        worst = int(np.argmin(slack))
        if slack[worst] >= -tol * max(1.0, float(row_norms[worst])):
            return x
        n_p = A[worst]
        b_p = b[worst]
        u_p = 0.0

        while True:
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

            # dual blocking step: first active whose multiplier hits zero
            t1 = math.inf
            k_drop = -1
            for j in range(len(active)):
                if r[j] > tol:
                    ratio = multipliers[j] / r[j]
                    if ratio < t1 - 1e-14:
                        t1 = ratio
                        k_drop = j
            # full step that makes the new constraint tight
            znp = float(z @ n_p)
            if znp > tol * max(1.0, float(n_p @ n_p)):
                t2 = (b_p - float(n_p @ x)) / znp
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

