import numpy as np
import pytest

from safefilter.qp import InfeasibleQP, solve_qp


def random_spd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


def kkt_check(G, a, A, b, x, tol=1e-7):
    """Stationarity with nonnegative multipliers on active constraints."""
    slack = A @ x - b
    assert np.all(slack >= -1e-8), "primal infeasible"
    active = slack <= 1e-7
    grad = G @ x + a
    if not active.any():
        assert np.linalg.norm(grad) <= tol
        return
    Aact = A[active]
    mult, residual, *_ = np.linalg.lstsq(Aact.T, grad, rcond=None)
    assert np.linalg.norm(Aact.T @ mult - grad) <= 1e-6
    assert np.all(mult >= -1e-7)


def test_unconstrained_optimum():
    G = np.diag([2.0, 4.0])
    a = np.array([-2.0, -8.0])
    x = solve_qp(G, a, np.zeros((0, 2)), np.zeros(0))
    assert np.allclose(x, [1.0, 2.0])


def test_single_active_constraint():
    # min ||x - (2, 0)||^2 s.t. x0 <= 1 -> (-1, 0) row form -x0 >= -1
    G = np.eye(2)
    a = np.array([-2.0, 0.0])
    A = np.array([[-1.0, 0.0]])
    b = np.array([-1.0])
    x = solve_qp(G, a, A, b)
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_box_and_halfspace():
    # min ||u + 0.9||^2 s.t. 2u >= 0.5, -1 <= u <= 1
    G = np.eye(1) * 2
    a = np.array([1.8])
    A = np.array([[2.0], [1.0], [-1.0]])
    b = np.array([0.5, -1.0, -1.0])
    x = solve_qp(G, a, A, b)
    assert x[0] == pytest.approx(0.25, abs=1e-9)


def test_infeasible_detected():
    A = np.array([[1.0], [-1.0]])
    b = np.array([1.0, 1.0])  # x >= 1 and x <= -1
    with pytest.raises(InfeasibleQP):
        solve_qp(np.eye(1), np.zeros(1), A, b)


def test_constant_rows():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([-1.0, 0.0])
    x = solve_qp(np.eye(2), np.zeros(2), A, b)
    assert np.allclose(x, [0.0, 0.0], atol=1e-9)
    with pytest.raises(InfeasibleQP):
        solve_qp(np.eye(2), np.zeros(2), np.array([[0.0, 0.0]]), np.array([1.0]))


def test_random_problems_satisfy_kkt():
    rng = np.random.default_rng(23)
    solved = 0
    for _ in range(300):
        n = int(rng.integers(1, 5))
        p = int(rng.integers(1, 12))
        G = random_spd(rng, n)
        a = rng.normal(size=n)
        A = rng.normal(size=(p, n))
        b = rng.normal(size=p) - 0.5
        try:
            x = solve_qp(G, a, A, b)
        except InfeasibleQP:
            # cross-check: a generous sampled search finds nothing either
            pts = rng.normal(size=(4000, n)) * 3
            feas = np.all(pts @ A.T >= b - 1e-9, axis=1)
            assert not feas.any()
            continue
        solved += 1
        kkt_check(G, a, A, b, x)
    assert solved > 100


def test_matches_dense_search_on_boxes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        G = random_spd(rng, 2)
        a = rng.normal(size=2)
        # box [-1,1]^2 plus one random halfspace
        A = np.vstack([np.eye(2), -np.eye(2), rng.normal(size=(1, 2))])
        b = np.concatenate([[-1, -1, -1, -1], rng.normal(size=1) * 0.5])
        try:
            x = solve_qp(G, a, A, b)
        except InfeasibleQP:
            continue
        xs = np.linspace(-1, 1, 81)
        mesh = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        feas = mesh[mesh @ A[4] >= b[4]]
        if feas.size:
            obj = 0.5 * np.einsum("ij,jk,ik->i", feas, G, feas) + feas @ a
            x_obj = 0.5 * x @ G @ x + a @ x
            assert x_obj <= obj.min() + 1e-6


def test_deterministic():
    rng = np.random.default_rng(1)
    G = random_spd(rng, 3)
    a = rng.normal(size=3)
    A = rng.normal(size=(8, 3))
    b = rng.normal(size=8) - 1
    x1 = solve_qp(G, a, A, b)
    x2 = solve_qp(G, a, A, b)
    assert x1.tobytes() == x2.tobytes()
