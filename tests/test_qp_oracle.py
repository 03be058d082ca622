"""Optimality of ``solve_qp`` on well-conditioned, feasible QPs, checked
against the KKT conditions and against ``scipy.optimize.minimize`` (SLSQP) as
an independent solver.

Programs: n <= 4 variables, G = Q diag(eig) Q' with eig in [0.1, 10], up to 8
rows, and b = A x0 - s with s >= 0, so x0 is feasible by construction.

Tolerances: primal rows hold to 1e-9 * max(1, |row|); rows within 1e-7 are
taken as active; stationarity G x + a = A_act' lam with lam >= 0 (nonnegative
least squares) to 1e-7 * (1 + |G x + a|); complementary slackness
lam_i * slack_i <= 1e-8. The objective agrees with SLSQP's (ftol 1e-12) to
1e-7 * (1 + |f|), SLSQP's point holding every row to 1e-7.
"""
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, nnls

from safefilter.qp import solve_qp


def _program(rng, n, p):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    G = Q @ np.diag(rng.uniform(0.1, 10.0, size=n)) @ Q.T
    G = 0.5 * (G + G.T)
    a = rng.normal(size=n) * 3.0
    A = rng.normal(size=(p, n))
    x0 = rng.normal(size=n)
    b = A @ x0 - rng.exponential(size=p) * rng.choice([0.0, 1.0], size=p)
    return G, a, A, b, x0


def _objective(G, a, x):
    return 0.5 * float(x @ G @ x) + float(a @ x)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(1, 4), p=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
def test_solution_meets_kkt_and_matches_scipy(n, p, seed):
    rng = np.random.default_rng(seed)
    G, a, A, b, x0 = _program(rng, n, p)
    x = solve_qp(G, a, A, b)  # feasible by construction: never InfeasibleQP

    slack = A @ x - b
    norms = np.linalg.norm(A, axis=1)
    assert np.all(slack >= -1e-9 * np.maximum(1.0, norms))
    grad = G @ x + a
    active = slack <= 1e-7
    lam = np.zeros(p)
    if active.any():
        lam[active], _ = nnls(A[active].T, grad)
    assert np.all(lam >= 0.0)
    assert np.linalg.norm(A.T @ lam - grad) <= 1e-7 * (1.0 + np.linalg.norm(grad))
    assert np.all(lam * np.abs(slack) <= 1e-8)

    res = minimize(
        lambda y: _objective(G, a, y), x0, jac=lambda y: G @ y + a, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda y: A @ y - b, "jac": lambda y: A}]
        if p else [],
        options={"ftol": 1e-12, "maxiter": 500},
    )
    assert res.success, res.message
    assert np.all(A @ res.x - b >= -1e-7)
    f, f_ref = _objective(G, a, x), _objective(G, a, res.x)
    assert abs(f - f_ref) <= 1e-7 * (1.0 + abs(f_ref))
