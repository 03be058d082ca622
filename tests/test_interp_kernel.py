"""The multilinear interpolation kernel against the earlier per-corner kernel.

``reference_interp_weights`` and ``reference_apply_interp`` are verbatim copies
of the kernel as it was before the corner layout was cached per grid and the
corner terms were summed by explicit column adds. They serve as the exactness
oracle: every interpolated value and every solved grid must match them bit for
bit, signed zeros and the -inf sentinel included.
"""
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from safefilter import (
    Box,
    ValueGrid,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    margin_halfspace,
    margin_keepout_ball,
    solve,
)
from safefilter import reachability
from safefilter.reachability import _sum_corners

import oracles


def reference_interp_weights(axes, shape, pts):
    """Corner indices, weights, and out-of-domain mask for multilinear interpolation.

    Uses searchsorted so that queries at node coordinates produce exact 0/1
    weights (node values are reproduced bit-for-bit).
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != len(shape):
        raise ValueError("query points must have shape (N, dim)")
    n_pts, k = pts.shape
    idx = np.empty((n_pts, k), dtype=np.int64)
    frac = np.empty((n_pts, k), dtype=np.float64)
    oob = np.zeros(n_pts, dtype=bool)
    for j, c in enumerate(axes):
        q = pts[:, j]
        with np.errstate(invalid="ignore"):
            oob |= ~((q >= c[0]) & (q <= c[-1]))
        i = np.clip(np.searchsorted(c, q, side="right") - 1, 0, len(c) - 2)
        idx[:, j] = i
        with np.errstate(invalid="ignore"):
            frac[:, j] = (q - c[i]) / (c[i + 1] - c[i])
    frac[oob] = 0.0
    strides = np.ones(k, dtype=np.int64)
    for j in range(k - 2, -1, -1):
        strides[j] = strides[j + 1] * shape[j + 1]
    base = idx @ strides
    corner_idx = np.empty((n_pts, 1 << k), dtype=np.int64)
    weights = np.empty((n_pts, 1 << k), dtype=np.float64)
    for m, bits in enumerate(product((0, 1), repeat=k)):
        offset = int(sum(b * s for b, s in zip(bits, strides)))
        w = np.ones(n_pts)
        for j, b in enumerate(bits):
            w = w * (frac[:, j] if b else 1.0 - frac[:, j])
        corner_idx[:, m] = base + offset
        weights[:, m] = w
    return corner_idx, weights, oob


def reference_apply_interp(values, corner_idx, weights, oob, oodv):
    # zero-weight corners are masked so a -inf sentinel next to a cell cannot
    # poison finite interpolation through 0 * inf = nan
    with np.errstate(invalid="ignore"):
        terms = np.where(weights > 0.0, weights * values[corner_idx], 0.0)
        out = terms.sum(axis=1)
    if oob.any():
        out = np.where(oob, oodv, out)
    return out


def reference_values_at(grid, pts):
    ci, w, oob = reference_interp_weights(grid.axes, grid.shape, pts)
    return reference_apply_interp(grid.values, ci, w, oob, grid.out_of_domain_value)


def reference_solve(*args, **kwargs):
    """The dense ``solve`` loop with the reference kernel patched in for every backup."""

    def interp_weights(layout, pts):
        return reference_interp_weights(layout.axes, layout.shape, pts)

    def apply_interp(values, ci, w, oob, oodv, _unweighted=None):
        return reference_apply_interp(values, ci, w, oob, oodv)

    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(reachability, "_interp_weights", interp_weights)
        mp.setattr(reachability, "_apply_interp", apply_interp)
        grid, iterations, residuals, _ = oracles.dense_solve(*args, **kwargs)
        return grid, SimpleNamespace(iterations=iterations, final_residual=residuals[-1])
    finally:
        mp.undo()


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _bits_any_nan(a):
    """The bytes of ``a`` with every NaN made the same NaN; every other bit
    counts, signed zeros included. IEEE 754 leaves the sign and payload of a
    NaN result open, and the numpy kernel gives a cell of +inf and -inf
    corners differently signed NaNs at different batch sizes."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def _query_points(grid, rng, n_random=400):
    """Random points, every node, ulp neighbours of nodes and faces, points
    outside the domain and NaN / inf coordinates."""
    lo, hi = grid.domain.lower, grid.domain.upper
    span = hi - lo
    nodes = grid.nodes
    sample = nodes[rng.choice(len(nodes), size=min(len(nodes), 200), replace=False)]
    faces = np.concatenate([
        np.where(np.arange(grid.domain.dim) == j, bound, sample)
        for j in range(grid.domain.dim) for bound in (lo, hi)
    ])
    near = np.concatenate([sample, faces])
    parts = [
        rng.uniform(lo - 0.1 * span, hi + 0.1 * span, size=(n_random, grid.domain.dim)),
        nodes,
        faces,
        np.nextafter(near, np.inf),
        np.nextafter(near, -np.inf),
        lo[None] - span,
        hi[None] + span,
    ]
    special = rng.uniform(lo, hi, size=(6, grid.domain.dim))
    special[0, 0] = np.nan
    special[1, -1] = np.nan
    special[2, 0] = np.inf
    special[3, -1] = -np.inf
    special[4] = np.nan
    special[5, 0] = -0.0
    parts.append(special)
    return np.concatenate(parts)


def _grids(domain, shape, rng):
    """One random-valued grid per sentinel kind, plus one holding -0.0 values."""
    size = int(np.prod(shape))
    values = rng.standard_normal(size)
    signed = values.copy()
    signed[rng.random(size) < 0.3] = -0.0
    signed[rng.random(size) < 0.2] = 0.0
    return [
        ValueGrid(domain, shape, values, out_of_domain_value=-0.75),
        ValueGrid(domain, shape, values),
        ValueGrid(domain, shape, signed),
        ValueGrid(domain, shape, -np.abs(signed) * (rng.random(size) < 0.5),
                  out_of_domain_value=-0.0),
    ]


def _special_grid(domain, shape, rng):
    """A grid holding +-inf and NaN nodes, with a NaN sentinel."""
    size = int(np.prod(shape))
    values = rng.standard_normal(size)
    values[rng.random(size) < 0.3] = -np.inf
    values[rng.random(size) < 0.1] = np.inf
    values[rng.random(size) < 0.1] = np.nan
    return ValueGrid(domain, shape, values, out_of_domain_value=np.nan)


GRID_CASES = [
    (Box([-1.0], [2.0]), (31,)),
    (Box([0.0], [1.0]), (2,)),
    (Box([0.0, -2.0], [3.0, 2.0]), (61, 61)),
    (Box([-1.5, 0.0], [1.5, 1e-3]), (7, 3)),
    (Box([-2.0, -2.0, -np.pi], [2.0, 2.0, np.pi]), (9, 11, 13)),
]

# the largest batch interpolated on Python floats
K = reachability._FLOAT_KERNEL_MAX_POINTS


@pytest.mark.parametrize("domain, shape", GRID_CASES)
def test_values_at_matches_reference_kernel(domain, shape):
    rng = np.random.default_rng(sum(shape))
    for grid in _grids(domain, shape, rng):
        pts = _query_points(grid, rng)
        got = grid.values_at(pts)
        want = reference_values_at(grid, pts)
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)
        # one point at a time: no batch-size dependence
        for p in pts[:: max(1, len(pts) // 60)]:
            assert _bits(grid.values_at(p[None])) == _bits(reference_values_at(grid, p[None]))


def _in_batches(grid, pts, n):
    """values_at over consecutive batches of ``n`` points, concatenated."""
    return np.concatenate([grid.values_at(pts[i : i + n]) for i in range(0, len(pts), n)])


def _float_kernel_takes(grid, n):
    return grid.domain.dim == 2 and n <= K


@pytest.mark.parametrize("domain, shape", GRID_CASES)
def test_values_at_matches_reference_at_every_batch_size_across_the_crossover(domain, shape):
    # on a 2-D grid batches of 1 to K points take the float kernel, larger
    # ones numpy; the oracle is per point, so every batching must give the
    # same bits
    rng = np.random.default_rng(7 * sum(shape))
    for grid in _grids(domain, shape, rng) + [_special_grid(domain, shape, rng)]:
        special = np.isnan(grid.out_of_domain_value)
        pts = _query_points(grid, rng, n_random=100)
        # at most 1500 of the regular points, every outside and special one
        keep = np.concatenate([rng.permutation(len(pts) - 8)[:1500], np.arange(-8, 0)])
        pts = pts[rng.permutation(keep)]
        want = reference_values_at(grid, pts)
        for n in range(1, K + 3):
            got = _in_batches(grid, pts, n)
            if special and not _float_kernel_takes(grid, n):
                # numpy's NaN signs vary with the batch size
                assert _bits_any_nan(got) == _bits_any_nan(want), n
            else:
                assert _bits(got) == _bits(want), n


def test_values_at_interior_cells_with_a_neg_inf_corner():
    # a -inf node leaves the cells around it at -inf and every other cell finite
    grid = ValueGrid(Box([0.0, 0.0], [4.0, 4.0]), (5, 5), np.arange(25.0))
    vals = grid.values.copy()
    vals[12] = -np.inf
    grid = grid.with_values(vals)
    pts = np.random.default_rng(0).uniform(0.0, 4.0, size=(500, 2))
    pts = np.concatenate([pts, grid.nodes])
    want = _bits(reference_values_at(grid, pts))
    assert _bits(grid.values_at(pts)) == want
    for n in (1, 2, 3, K - 1, K, K + 1):
        assert _bits(_in_batches(grid, pts, n)) == want, n
    assert np.isfinite(grid.values_at(np.array([[0.5, 0.5], [3.5, 3.5]]))).all()


def _numpy_kernel_calls(monkeypatch):
    calls = []
    weights = reachability._interp_weights
    monkeypatch.setattr(reachability, "_interp_weights",
                        lambda layout, pts: calls.append(len(pts)) or weights(layout, pts))
    return calls


@pytest.mark.parametrize("domain, shape", GRID_CASES)
def test_batch_size_selects_the_kernel(domain, shape, monkeypatch):
    grid = ValueGrid(domain, shape, np.arange(float(np.prod(shape))))
    calls = _numpy_kernel_calls(monkeypatch)
    pts = grid.domain.sample(np.random.default_rng(0), K + 1)
    for n in range(K + 2):
        got = grid.values_at(pts[:n])
        assert got.dtype == np.float64 and got.shape == (n,)
        assert _bits(got) == _bits(reference_values_at(grid, pts[:n]))
    assert calls == [n for n in range(K + 2) if not _float_kernel_takes(grid, n)]


def test_four_dimensional_grid_stays_on_numpy(monkeypatch):
    domain, shape = Box([0.0, -1.0, -2.0, 0.0], [1.0, 1.0, 2.0, 3.0]), (3, 4, 5, 3)
    rng = np.random.default_rng(4)
    calls = _numpy_kernel_calls(monkeypatch)
    for grid in _grids(domain, shape, rng):
        pts = _query_points(grid, rng, n_random=50)
        want = _bits(reference_values_at(grid, pts))
        for n in (1, 3, K):
            calls.clear()
            assert _bits(_in_batches(grid, pts, n)) == want, n
            assert calls == [len(b) for b in np.array_split(pts, range(n, len(pts), n))]


def test_values_at_empty_query():
    grid = ValueGrid(Box([0.0, 0.0], [1.0, 1.0]), (3, 3), np.zeros(9))
    assert grid.values_at(np.zeros((0, 2))).shape == (0,)


def test_solve_matches_reference_kernel_2d():
    model = make_double_integrator(1.0, 0.1, 0.1)
    g = margin_halfspace([1.0, 0.0], 0.0)
    args = (model, g, (Box([0.0, -2.0], [3.0, 2.0]), (31, 31)), [5], [3])
    got, got_report = solve(*args)
    want, want_report = reference_solve(*args)
    assert got_report.iterations == want_report.iterations
    assert got_report.final_residual == want_report.final_residual
    assert _bits(got.values) == _bits(want.values)


def test_solve_matches_reference_kernel_3d():
    model = make_dubins_car(1.0, 1.0, 0.2, 0.1)
    # the ball also spans heading; any margin will do for an exactness check
    g = margin_keepout_ball([0.0, 0.0, 0.0], 1.0)
    args = (model, g, (Box([-2.0, -2.0, -np.pi], [2.0, 2.0, np.pi]), (11, 11, 9)), [3], [2])
    kwargs = dict(max_iters=25)
    got, got_report = solve(*args, **kwargs)
    want, want_report = reference_solve(*args, **kwargs)
    assert got_report.iterations == want_report.iterations
    assert got_report.final_residual == want_report.final_residual
    assert _bits(got.values) == _bits(want.values)


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 7, 64, 9000])
def test_sum_corners_pins_numpy_summation_order(k, n):
    # terms spanning many magnitudes make every summation order distinguishable;
    # rows of signed zeros, -inf and nan cover the special cases
    rng = np.random.default_rng(1000 * k + n)
    terms = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-200, 200, (n, k))
    special = np.array([-0.0, 0.0, -np.inf, np.nan, 5e-324, -5e-324])
    pick = rng.random((n, k)) < 0.3
    terms[pick] = rng.choice(special, int(pick.sum()))
    terms[rng.random(n) < 0.1] = -0.0
    if n > 1:
        terms[0] = -0.0
        terms[1] = [-np.inf] + [-0.0] * (k - 1)
    with np.errstate(invalid="ignore"):
        # the kernel keeps one row per corner
        got = _sum_corners(np.ascontiguousarray(terms.T))
        want = terms.sum(axis=1)
    assert _bits(got) == _bits(want)


def test_sum_corners_other_widths_use_numpy():
    terms = np.random.default_rng(0).standard_normal((50, 16))
    assert _bits(_sum_corners(np.ascontiguousarray(terms.T))) == _bits(terms.sum(axis=1))


def test_corner_layout_matches_reference_offsets():
    grid = ValueGrid(Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]), (3, 4, 5), np.zeros(60))
    pts = np.array([[0.3, 1.1, 2.7], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    ci, w, outside = reachability._interp_weights(grid.corners, pts)
    ref_ci, ref_w, ref_oob = reference_interp_weights(grid.axes, grid.shape, pts)
    assert np.array_equal(ci, ref_ci.T)
    assert _bits(w) == _bits(ref_w.T)
    assert outside is None and not ref_oob.any()
    ci, w, outside = reachability._interp_weights(grid.corners, pts - 0.5)
    ref_ci, ref_w, ref_oob = reference_interp_weights(grid.axes, grid.shape, pts - 0.5)
    assert np.array_equal(ci, ref_ci.T)
    assert _bits(w) == _bits(ref_w.T)
    assert np.array_equal(outside, ref_oob) and outside.any()


def test_values_at_matches_reference_at_solved_grid_successors():
    # the stock double-integrator grid, queried at its own nodes' successors
    model = make_double_integrator(1.0, 0.1, 0.1)
    grid, _ = solve(model, margin_halfspace([1.0, 0.0], 0.1),
                    (Box([0.0, -2.0], [3.0, 2.0]), (21, 21)), [5], [3])
    u = discretize_box(model.control_set, [5])
    d = discretize_box(model.disturbance_set, [3])
    pts = np.concatenate([model.step(grid.nodes, uu, dd) for uu in u for dd in d])
    for g in (grid, ValueGrid(grid.domain, grid.shape, grid.values)):
        assert _bits(g.values_at(pts)) == _bits(reference_values_at(g, pts))
