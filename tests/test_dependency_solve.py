"""Dependency-driven value iteration against the dense loop it replaced.

Each backup of ``solve`` recomputes only the nodes whose stencil read a value
that changed in the previous backup. ``oracles.dense_solve`` and
``oracles.dense_backward_step`` recompute every node; every iterate, every
residual and the iteration count must match them byte for byte.
"""
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from safefilter import (
    Box,
    MarginFunction,
    ValueGrid,
    backward_step,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_linear_model,
    margin_halfspace,
    margin_keepout_ball,
    reachability,
    solve,
)

import oracles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def solve_recording(monkeypatch, *args, **kwargs):
    """``solve``, plus a copy of the padded iterate after every backup."""
    iterates = []
    sweep = reachability._Backups.sweep

    def recording(self, values, active):
        out = sweep(self, values, active)
        iterates.append(values.copy())
        return out

    with monkeypatch.context() as mp:
        mp.setattr(reachability._Backups, "sweep", recording)
        grid, report = solve(*args, **kwargs)
    return grid, report, iterates


def assert_matches_dense(monkeypatch, *args, **kwargs):
    grid, report, iterates = solve_recording(monkeypatch, *args, **kwargs)
    want, iterations, residuals, want_iterates = oracles.dense_solve(*args, **kwargs)
    assert report.iterations == iterations == len(iterates)
    assert _bits(report.residual_history) == _bits(residuals)
    assert _bits(report.final_residual) == _bits(residuals[-1])
    for got_it, want_it in zip(iterates, want_iterates):
        assert _bits(got_it) == _bits(want_it)
    assert _bits(grid.values) == _bits(want.values)
    assert grid.out_of_domain_value == want.out_of_domain_value
    return report


SPEC_2D = (Box([0.0, -2.0], [3.0, 2.0]), (21, 21))


@pytest.mark.parametrize(
    "d_max, d_count, max_iters", [(0.1, 3, 150), (0.0, 1, 1000)], ids=["robust", "deterministic"]
)
def test_double_integrator_matches_dense_every_backup(monkeypatch, d_max, d_count, max_iters):
    # on this coarse grid the robust solve is still creeping after 150 backups;
    # the deterministic one converges
    model = make_double_integrator(1.0, d_max, 0.1)
    report = assert_matches_dense(
        monkeypatch, model, margin_halfspace([1.0, 0.0], 0.1), SPEC_2D, [5], [d_count],
        max_iters=max_iters,
    )
    assert report.converged == (d_max == 0.0)
    # the point of the exercise: most node backups are skipped
    assert sum(report.active_history) < report.iterations * report.active_history[0] / 2


def test_dubins_matches_dense_every_backup(monkeypatch):
    model = make_dubins_car(1.0, 1.0, 0.2, 0.1)
    spec = (Box([-2.0, -2.0, -np.pi], [2.0, 2.0, np.pi]), (11, 11, 9))
    assert_matches_dense(
        monkeypatch, model, margin_keepout_ball([0.0, 0.0, 0.0], 1.0), spec, [3], [2],
        max_iters=30,
    )


def test_unpadded_large_clamp_band_matches_dense_every_backup(monkeypatch):
    # padding=0 and a large clamp band: the literal backup, queries past the
    # domain read the sentinel
    model = make_double_integrator(1.0, 0.1, 0.1)
    assert_matches_dense(
        monkeypatch, model, margin_halfspace([1.0, 0.0], 0.1), SPEC_2D, [5], [3],
        padding=0, clamp_band=1e6,
    )


def test_truncated_solve_matches_dense_every_backup(monkeypatch):
    model = make_double_integrator(1.0, 0.1, 0.1)
    for max_iters in (1, 2, 7):
        report = assert_matches_dense(
            monkeypatch, model, margin_halfspace([1.0, 0.0], 0.1), SPEC_2D, [5], [3],
            max_iters=max_iters,
        )
        assert not report.converged and report.iterations == max_iters


def test_signed_zero_margin_matches_dense_every_backup(monkeypatch):
    # a line of -0.0 margin values: np.minimum(g, best) must pick the same
    # zero in a gathered array as in the whole grid, and -0.0 node values
    # then enter the interpolation of their neighbours
    wall = margin_halfspace([1.0, 0.0], 0.1)

    def fn(x):
        return np.where(np.abs(x[..., 0] - 1.5) < 1e-9, -0.0, wall(x))

    g = MarginFunction(fn, name="signed_zero_line")
    model = make_double_integrator(1.0, 0.1, 0.1)
    _, _, iterates = solve_recording(monkeypatch, model, g, SPEC_2D, [5], [3], max_iters=3)
    assert any(np.signbit(it[it == 0.0]).any() for it in iterates)
    assert_matches_dense(monkeypatch, model, g, SPEC_2D, [5], [3])


def test_nan_margin_matches_dense_residuals(monkeypatch):
    # a NaN node value never changes back; the dense residual is NaN from then on
    wall = margin_halfspace([1.0, 0.0], 0.1)

    def fn(x):
        out = wall(x)
        return np.where((np.abs(x[..., 0] - 1.5) < 0.1) & (np.abs(x[..., 1]) < 0.1), np.nan, out)

    model = make_double_integrator(1.0, 0.1, 0.1)
    grid, report, _ = solve_recording(
        monkeypatch, model, MarginFunction(fn, name="holed"), SPEC_2D, [5], [3], max_iters=12
    )
    want, iterations, residuals, _ = oracles.dense_solve(
        model, MarginFunction(fn, name="holed"), SPEC_2D, [5], [3], max_iters=12
    )
    assert report.iterations == iterations == 12 and not report.converged
    assert all(np.isnan(r) for r in residuals)
    assert all(np.isnan(r) for r in report.residual_history)
    assert _bits(grid.values) == _bits(want.values)


def test_nan_node_keeps_residual_nan_after_the_grid_settles(monkeypatch):
    # identity dynamics: every node reads only itself, so nothing changes after
    # the first backup; the NaN node's own difference keeps the dense residual NaN
    model = make_linear_model(np.eye(2), np.zeros((2, 1)), Box([-1.0], [1.0]), Box([], []))
    wall = margin_halfspace([1.0, 0.0], 0.1)

    def fn(x):
        return np.where(np.all(np.abs(x - [1.5, 0.0]) < 1e-9, axis=-1), np.nan, wall(x))

    g = MarginFunction(fn, name="one_nan_node")
    report = assert_matches_dense(monkeypatch, model, g, SPEC_2D, [3], [], max_iters=5)
    assert report.active_history[1:] == (0, 0, 0, 0)


def test_four_dimensional_solve_matches_dense(monkeypatch):
    # 16 corners per cell: the corner sum goes to numpy's own row sums
    model = make_linear_model(0.9 * np.eye(4), np.ones((4, 1)), Box([-0.2], [0.2]), Box([], []))
    spec = (Box([-1.0] * 4, [1.0] * 4), (4, 5, 4, 5))
    assert_matches_dense(
        monkeypatch, model, margin_keepout_ball([0.3, 0.0, 0.0, 0.0], 0.5), spec, [3], [],
        padding=0, max_iters=6,
    )


def _backward_grids(domain, shape, rng):
    size = int(np.prod(shape))
    values = rng.standard_normal(size)
    signed = values.copy()
    signed[rng.random(size) < 0.3] = -0.0
    signed[rng.random(size) < 0.2] = 0.0
    return [
        ValueGrid(domain, shape, values),
        ValueGrid(domain, shape, values, out_of_domain_value=-0.75),
        ValueGrid(domain, shape, signed, out_of_domain_value=-0.0),
    ]


@pytest.mark.parametrize("case", ["double_integrator", "dubins", "linear_4d"])
def test_backward_step_matches_dense(case):
    rng = np.random.default_rng(7)
    if case == "double_integrator":
        model = make_double_integrator(1.0, 0.1, 0.1)
        g = margin_halfspace([1.0, 0.0], 0.1)
        domain, shape, counts = Box([0.0, -2.0], [3.0, 2.0]), (13, 17), ([5], [3])
    elif case == "dubins":
        model = make_dubins_car(1.0, 1.0, 0.2, 0.1)
        g = margin_keepout_ball([0.0, 0.0, 0.0], 1.0)
        domain, shape, counts = Box([-2.0, -2.0, -np.pi], [2.0, 2.0, np.pi]), (7, 6, 5), ([3], [2])
    else:
        model = make_linear_model(0.9 * np.eye(4), np.ones((4, 1)), Box([-0.2], [0.2]),
                                  Box([], []))
        g = margin_keepout_ball([0.3, 0.0, 0.0, 0.0], 0.5)
        domain, shape, counts = Box([-1.0] * 4, [1.0] * 4), (3, 4, 3, 4), ([3], [])
    u_cands = discretize_box(model.control_set, counts[0])
    d_cands = discretize_box(model.disturbance_set, counts[1])
    for grid in _backward_grids(domain, shape, rng):
        got = backward_step(model, g, grid, u_cands, d_cands)
        want = oracles.dense_backward_step(model, g, grid, u_cands, d_cands)
        assert _bits(got.values) == _bits(want.values)


def test_solve_report_histories():
    model = make_double_integrator(1.0, 0.1, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.1)
    for padding, nodes in ((0, 21 * 21), (3, 27 * 27)):
        _, report = solve(model, g, SPEC_2D, [5], [3], padding=padding)
        assert isinstance(report.residual_history, tuple)
        assert isinstance(report.active_history, tuple)
        assert len(report.residual_history) == len(report.active_history) == report.iterations
        assert report.residual_history[-1] == report.final_residual
        assert report.active_history[0] == nodes
        assert all(0 <= a <= nodes for a in report.active_history)


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    p = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                       text=True, env=env, timeout=300)
    assert p.returncode == 0, p.stderr[-2000:]
    return p.stdout


def test_cli_import_leaves_scipy_stats_out():
    out = _fresh("""
        import sys
        import safefilter.cli
        print("scipy.stats" in sys.modules)
    """)
    assert out.split() == ["False"]


def test_solve_without_scipy_stats_stays_off_the_page_fault_path():
    # a 61x61 solve in a fresh interpreter that has imported what the CLI
    # imports but not scipy.stats, whose import raises the allocator's trim
    # threshold: the backups must not map and unmap fresh memory each time
    pytest.importorskip("resource")
    out = _fresh("""
        import resource, sys
        import safefilter.cli
        import safefilter as sf
        assert "scipy.stats" not in sys.modules
        model = sf.make_double_integrator(1.0, 0.1, 0.1)
        g = sf.margin_halfspace([1.0, 0.0], 0.1)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        grid, report = sf.solve(model, g, (sf.Box([0.0, -2.0], [3.0, 2.0]), (61, 61)),
                                [5], [3], 1e-6, 1000)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        print(report.iterations, after - before)
    """)
    iterations, faults = (int(v) for v in out.split())
    assert iterations == 218
    assert faults < 60_000
