"""Grid dynamic-programming solver for the discrete min-max safety recursion.

The solver iterates, at every grid node x,

    V_new(x) = min( g(x), max_u min_d V(f(x, u, d)) )

from V = g until the sup-norm change drops below tolerance. The converged
value function encodes the maximal safe set as its nonnegative region and an
optimal safety policy as the argmax over control candidates.

Queries outside the grid domain return a -inf sentinel: leaving the computed
domain forfeits the certificate, so it is treated as unsafe.
"""
from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import MarginFunction, SystemModel, _cartesian, as_lattice, discretize_box
from .intervals import Box

_EXACT_BOX_MIN_CAP = 65536  # above this many corner evaluations, use the node bound
# batches of at most this many points on a 2-D grid are interpolated on Python
# floats (``_float_values_2d``). On the 61x61 grid numpy costs a fixed 26-30 us
# a call at any batch size, the float kernel about 1 us a point; they meet
# between 24 and 28 points (timeit, 2 vCPUs, CPython 3.11, numpy 2.4)
_FLOAT_KERNEL_MAX_POINTS = 24


def grid_axes(domain: Box, shape: Sequence[int]) -> list[np.ndarray]:
    """The nodes of each grid axis: ``shape[j]`` evenly spaced coordinates
    from ``domain.lower[j]`` to ``domain.upper[j]``.

    Raise ``ValueError`` unless every axis has finite bounds with lower <
    upper and distinct finite nodes. On a zero-width axis every interpolation
    weight would be 0/0 = NaN, and each query would read +0.0 instead of a
    node value.
    """
    axes = []
    for j, (lo, hi, n) in enumerate(zip(domain.lower.tolist(), domain.upper.tolist(), shape)):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"grid domain axis {j}: needs finite lower < upper, "
                             f"got [{lo!r}, {hi!r}]")
        with np.errstate(over="ignore", invalid="ignore"):
            nodes = np.linspace(lo, hi, int(n))
            ok = np.isfinite(nodes).all() and (np.diff(nodes) > 0.0).all()
        if not ok:
            raise ValueError(f"grid domain axis {j}: [{lo!r}, {hi!r}] cannot hold "
                             f"{int(n)} distinct finite nodes")
        axes.append(nodes)
    return axes


@dataclass(frozen=True)
class ValueGrid:
    """Rectilinear grid of safety values with multilinear interpolation.

    ``values`` is flat in row-major node order (first dimension slowest).
    """

    domain: Box
    shape: tuple[int, ...]
    values: np.ndarray
    out_of_domain_value: float = float("-inf")

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if any(s < 2 for s in shape):
            raise ValueError("grid needs at least 2 nodes per dimension")
        if len(shape) != self.domain.dim:
            raise ValueError("grid shape and domain dimension differ")
        vals = np.asarray(self.values, dtype=np.float64).ravel().copy()
        if vals.size != int(np.prod(shape)):
            raise ValueError("values length does not match grid shape")
        vals.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", vals)
        self.axes  # checks the domain

    @cached_property
    def axes(self) -> list[np.ndarray]:
        return grid_axes(self.domain, self.shape)

    @cached_property
    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (num_nodes, dim), row-major."""
        return _cartesian(self.axes)

    @cached_property
    def corners(self) -> "_CornerLayout":
        """Interpolation constants of this grid's axes, computed once."""
        return _CornerLayout(self.axes, self.shape)

    @cached_property
    def float_axes(self) -> tuple:
        """Per axis, (nodes, interior nodes, spacings) as tuples of Python
        floats, for the small-batch kernel."""
        return tuple(
            (tuple(c), tuple(c[1:-1]), tuple(np.diff(c).tolist()))
            for c in (a.tolist() for a in self.axes)
        )

    def values_at(self, pts: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at points of shape (N, dim).

        A batch of at most ``_FLOAT_KERNEL_MAX_POINTS`` points on a 2-D grid
        is interpolated on Python floats, bit for bit as the numpy kernel
        does it, without numpy's fixed cost per call.
        """
        pts = np.asarray(pts, dtype=np.float64)
        if (len(self.shape) == 2 and pts.ndim == 2 and pts.shape[1] == 2
                and pts.shape[0] <= _FLOAT_KERNEL_MAX_POINTS):
            out = _float_values_2d(self.float_axes, self.values.item,
                                   float(self.out_of_domain_value), pts.tolist())
            return np.array(out, dtype=np.float64)
        ci, w, outside = _interp_weights(self.corners, pts)
        return _apply_interp(self.values, ci, w, outside, self.out_of_domain_value)

    def with_values(self, values: np.ndarray) -> "ValueGrid":
        return ValueGrid(self.domain, self.shape, values, self.out_of_domain_value)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    converged: bool
    wall_time: float
    # one entry per backup: the sup-norm change, and the number of nodes backed up
    residual_history: tuple[float, ...]
    active_history: tuple[int, ...]


class _CornerLayout:
    """Per-axis tables and cell-corner offsets of one grid, built once per grid.

    The 2^dim corners of a cell are ordered with the first dimension as the
    most significant bit; ``offsets`` are their flat node-index offsets.
    """

    def __init__(self, axes: Sequence[np.ndarray], shape: tuple[int, ...]):
        self.axes = axes
        self.shape = shape
        # searchsorted over the interior nodes is the cell index clipped to
        # [0, n - 2], so no separate clip is needed
        self.interior = [c[1:-1] for c in axes]
        self.spacing = [np.diff(c) for c in axes]  # c[i + 1] - c[i]
        strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
        offsets = np.zeros(1, dtype=np.int64)
        for s in strides:
            offsets = (offsets[:, None] + np.array([0, s], dtype=np.int64)).ravel()
        self.offsets = offsets[:, None]
        # all weight on corner 0 for out-of-domain points, whose value is replaced
        self.outside_weights = np.zeros((offsets.size, 1))
        self.outside_weights[0] = 1.0


def _interp_weights(layout: _CornerLayout, pts):
    """Corner indices, weights, and out-of-domain mask for multilinear interpolation.

    Uses searchsorted so that queries at node coordinates produce exact 0/1
    weights (node values are reproduced bit-for-bit). A corner weight is the
    product of its per-dimension factors taken in dimension order. Indices
    and weights have one row per corner and one column per point; ``outside``
    masks the points outside the domain, or is None when there are none.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != len(layout.shape):
        raise ValueError("query points must have shape (N, dim)")
    n_pts = pts.shape[0]
    with np.errstate(invalid="ignore"):
        for j, (c, n) in enumerate(zip(layout.axes, layout.shape)):
            q = pts[:, j]
            i = np.searchsorted(layout.interior[j], q, side="right")
            pair = np.empty((2, n_pts))
            np.divide(q - c[i], layout.spacing[j][i], out=pair[1])
            np.subtract(1.0, pair[1], out=pair[0])
            if j == 0:
                inside = (q >= c[0]) & (q <= c[-1])
                base, weights = i, pair
            else:
                inside &= (q >= c[0]) & (q <= c[-1])
                base = base * n + i
                weights = (weights[:, None] * pair[None]).reshape(2 << j, n_pts)
    outside = None
    if np.count_nonzero(inside) < n_pts:
        outside = ~inside
        weights[:, outside] = layout.outside_weights
    return layout.offsets + base, weights, outside


def _sum_corners(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the corner rows (axis 0), bit for bit equal to numpy's row sums
    of the (points, corners) array.

    numpy sums a row of 2 or 4 doubles left to right and a row of 8 as
    ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)), both starting from +0.0 (so a row
    of -0.0 sums to +0.0); tests pin this order. Other widths go to numpy.
    With ``out`` (which may be ``terms[0]``), the rows of ``terms`` serve as
    scratch space; without it, ``terms`` is left as it is.
    """
    k = terms.shape[0]
    if k not in (2, 4, 8):
        return np.ascontiguousarray(np.moveaxis(terms, 0, -1)).sum(axis=-1, out=out)
    t = terms if out is not None else terms.copy()
    t0 = t[0]
    if k == 8:
        for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
            np.add(t[a], t[b], out=t[a])
    else:
        for row in t[1:]:
            t0 += row
    return np.add(t0, 0.0, out=t0 if out is None else out)


def _apply_interp(values, corner_idx, weights, outside, oodv, unweighted=None):
    """Interpolated values; ``unweighted`` selects, in the flattened terms, the
    corners whose weight is not positive (computed here when not given)."""
    # zero-weight corner terms are set to +0.0 so a -inf sentinel next to a
    # cell cannot poison finite interpolation through 0 * inf = nan
    if unweighted is None:
        unweighted = ~(weights > 0.0).reshape(-1)
    # a cell with both +inf and -inf corners interpolates to NaN, silently
    with np.errstate(invalid="ignore"):
        terms = weights * values[corner_idx]
        terms.reshape(-1)[unweighted] = 0.0
        out = _sum_corners(terms, out=terms[0])
    if outside is not None:
        out[outside] = oodv
    return out


# --- small-batch kernel on Python floats ------------------------------------
#
# It repeats the numpy kernel's IEEE operations in its order: the cell index
# by bisect_right over the interior nodes (searchsorted "right"), t = (q -
# c[i]) / spacing[i] and 1 - t, corner weights as the running product in
# dimension order, +0.0 for every corner of non-positive weight, and the sum
# of ``_sum_corners`` followed by + 0.0. A point with a coordinate outside
# [c[0], c[-1]] (NaN included) gets the sentinel. ``item`` reads a node value.


def _float_values_2d(axes, item, oodv, rows):
    (c0, in0, h0), (c1, in1, h1) = axes
    lo0, hi0, lo1, hi1 = c0[0], c0[-1], c1[0], c1[-1]
    n1 = len(c1)
    out = []
    for x0, x1 in rows:
        if not (lo0 <= x0 <= hi0 and lo1 <= x1 <= hi1):
            out.append(oodv)
            continue
        i = bisect_right(in0, x0)
        t0 = (x0 - c0[i]) / h0[i]
        s0 = 1.0 - t0
        j = bisect_right(in1, x1)
        t1 = (x1 - c1[j]) / h1[j]
        s1 = 1.0 - t1
        b = i * n1 + j
        w = s0 * s1
        a = w * item(b) if w > 0.0 else 0.0
        w = s0 * t1
        a += w * item(b + 1) if w > 0.0 else 0.0
        w = t0 * s1
        a += w * item(b + n1) if w > 0.0 else 0.0
        w = t0 * t1
        a += w * item(b + n1 + 1) if w > 0.0 else 0.0
        out.append(a + 0.0)
    return out


def value_at(grid: ValueGrid, x) -> float:
    """Interpolated value at a single state (sentinel outside the domain)."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(grid.values_at(x)[0])


def safe_membership(grid: ValueGrid, x) -> bool:
    """Membership in the encoded safe set: interpolated value >= 0."""
    return value_at(grid, x) >= 0.0


def _eval_on_nodes(fn: Callable, nodes: np.ndarray) -> np.ndarray:
    """Evaluate a margin on a batch of states (grid nodes or successors) in one
    call; like ``step``, margins must broadcast over (N, n) and return (N,)."""
    out = np.asarray(fn(nodes), dtype=np.float64)
    if out.shape != (nodes.shape[0],):
        raise ValueError(
            f"margin {getattr(fn, 'name', fn)!r}: returned shape {out.shape} for "
            f"{nodes.shape[0]} states; margins must broadcast over a batch of states"
        )
    return out


def _batch_next_states(model: SystemModel, x: np.ndarray, u, d) -> np.ndarray:
    """f(x, u, d) for a batch of states of shape (..., n) in one ``step`` call.

    ``u`` and ``d`` are single inputs or batches whose leading axes broadcast
    against those of ``x`` (the ``SystemModel`` contract).
    """
    out = np.asarray(
        model.step(x, np.asarray(u, dtype=np.float64), np.asarray(d, dtype=np.float64)),
        dtype=np.float64,
    )
    if out.shape != x.shape:
        raise ValueError(
            f"model {model.name!r}: step returned shape {out.shape} for states of "
            f"shape {x.shape}; step must broadcast over leading axes of x, u and d"
        )
    return out


def _candidate_plans(model, grid, u_candidates, d_candidates):
    """Interpolation stencils at f(node, u, d) for every candidate pair, stacked:
    corner indices and weights of shape (2^dim, |U|, |D|, N) and the
    out-of-domain mask of shape (|U|, |D|, N)."""
    n = grid.values.size
    idx = np.empty((grid.corners.offsets.size, len(u_candidates), len(d_candidates), n),
                   dtype=np.intp)
    weights = np.empty(idx.shape)
    outside = np.zeros(idx.shape[1:], dtype=bool)
    for i, u in enumerate(u_candidates):
        for j, d in enumerate(d_candidates):
            pts = _batch_next_states(model, grid.nodes, u, d)
            idx[:, i, j], weights[:, i, j], out = _interp_weights(grid.corners, pts)
            if out is not None:
                outside[i, j] = out
    return idx, weights, outside


class _Backups:
    """Backups of the min-max recursion on one grid, restricted to active nodes.

    Built once per solve: the stacked candidate stencils, the reverse stencil
    and work buffers sized for every node active. A backup gathers the
    stencils of its active nodes into views of the buffers' active length and
    computes, node by node, exactly what a backup of the whole grid computes:
    the same corner order, min over d then max over u, sentinel overwrite,
    margin cap and floor clamp.
    """

    def __init__(self, model, grid, u_candidates, d_candidates, g_values, floor):
        self.idx, self.weights, self.outside = _candidate_plans(
            model, grid, u_candidates, d_candidates
        )
        # weights are fixed across backups; index their zero terms once
        self.unweighted = ~(self.weights > 0.0)
        self.g_values = g_values
        self.floor = floor
        self.oodv = grid.out_of_domain_value
        n = grid.values.size
        self.all_nodes = np.arange(n)

        # reverse stencil in CSR form: the nodes whose stencil reads node i are
        # readers[first[i]:first[i + 1]], sorted and unique. Only in-domain
        # corners of positive weight are reads: a zero-weight term is zeroed
        # after the multiply and an out-of-domain value is overwritten.
        reads = ~self.unweighted & ~self.outside
        key = self.idx[reads] * n + np.broadcast_to(self.all_nodes, reads.shape)[reads]
        key.sort()
        key = key[np.flatnonzero(np.diff(key, prepend=-1))]
        self.first = np.searchsorted(key, np.arange(n + 1) * n)
        self.readers = key % n

        self._idx = np.empty(self.idx.size, dtype=np.intp)
        self._terms = np.empty(self.idx.size)
        self._weights = np.empty(self.idx.size)
        self._unweighted = np.empty(self.idx.size, dtype=bool)
        self._outside = np.empty(self.outside.size, dtype=bool)
        self._new, self._old, self._diff = np.empty(n), np.empty(n), np.empty(n)
        self._mask = np.empty(n, dtype=bool)
        self._pos = np.empty(key.size, dtype=np.intp)
        self._read = np.empty(key.size, dtype=np.intp)

    def _gather(self, plan, buf, active):
        shape = plan.shape[:-1] + (active.size,)
        out = buf[: math.prod(shape)].reshape(shape)
        return np.take(plan, active, axis=-1, out=out, mode="clip")

    def backup(self, values, active):
        """Backed-up values of the ``active`` nodes, a view into a work buffer."""
        idx = self._gather(self.idx, self._idx, active)
        terms = np.take(values, idx, out=self._terms[: idx.size].reshape(idx.shape), mode="clip")
        with np.errstate(invalid="ignore"):
            np.multiply(self._gather(self.weights, self._weights, active), terms, out=terms)
        # zero-weight corner terms are set to +0.0, as in _apply_interp
        np.copyto(terms, 0.0, where=self._gather(self.unweighted, self._unweighted, active))
        vals = _sum_corners(terms, out=terms[0])
        np.copyto(vals, self.oodv, where=self._gather(self.outside, self._outside, active))
        worst = vals[:, 0]
        for j in range(1, vals.shape[1]):
            np.minimum(worst, vals[:, j], out=worst)
        best = worst[0]
        for i in range(1, worst.shape[0]):
            np.maximum(best, worst[i], out=best)
        new = self._gather(self.g_values, self._new, active)
        np.minimum(new, best, out=new)
        return np.maximum(new, self.floor, out=new)

    def sweep(self, values, active):
        """Back up the ``active`` nodes in place in ``values``; returns the
        sup-norm change and the nodes to back up next: those whose stencil
        reads a value that changed bitwise."""
        new = self.backup(values, active)
        old = self._gather(values, self._old, active)
        diff = np.subtract(new, old, out=self._diff[: active.size])
        np.abs(diff, out=diff)
        np.copyto(diff, 0.0, where=np.equal(new, old, out=self._mask[: active.size]))
        residual = float(diff.max()) if active.size else 0.0
        changed = active[np.not_equal(new.view(np.int64), old.view(np.int64),
                                      out=self._mask[: active.size])]
        values[active] = new
        return residual, self._readers_of(changed)

    def _readers_of(self, nodes):
        start, stop = self.first[nodes], self.first[nodes + 1]
        keep = stop > start
        start, stop = start[keep], stop[keep]
        if not start.size:
            return start
        # concatenate the ranges [start, stop) by a cumulative sum of steps
        ends = np.cumsum(stop - start)
        pos = self._pos[: ends[-1]]
        pos.fill(1)
        pos[0] = start[0]
        pos[ends[:-1]] = start[1:] - stop[:-1] + 1
        np.cumsum(pos, out=pos)
        mask = self._mask
        mask.fill(False)
        mask[np.take(self.readers, pos, out=self._read[: pos.size], mode="clip")] = True
        return np.flatnonzero(mask)


def backward_step(
    model: SystemModel,
    g: MarginFunction,
    v_next: ValueGrid,
    u_candidates: np.ndarray,
    d_candidates: np.ndarray,
) -> ValueGrid:
    """One exact backup of the min-max recursion; the input grid is not modified."""
    if not len(u_candidates) or not len(d_candidates):
        raise ValueError("candidate lists must be nonempty")
    if v_next.domain.dim != model.state_dim:
        raise ValueError("grid dimension does not match model state dimension")
    g_values = _eval_on_nodes(g, v_next.nodes)
    backups = _Backups(model, v_next, u_candidates, d_candidates, g_values, -math.inf)
    return v_next.with_values(backups.backup(v_next.values, backups.all_nodes))


def _auto_padding(model, domain, shape, u_candidates, d_candidates, clamp_band):
    """Cells of slack to grid beyond each domain face.

    Covers one backup step of flow per dimension (so queries from requested
    nodes land on stored values, not the sentinel) plus room for the clamp
    band to decay at unit margin slope. Capped at 4x the requested size.
    """
    spacing = (domain.upper - domain.lower) / (np.asarray(shape) - 1)
    probe = ValueGrid(domain, tuple(shape), np.zeros(int(np.prod(shape))))
    flow = np.zeros(domain.dim)
    for u in u_candidates:
        for d in d_candidates:
            nxt = _batch_next_states(model, probe.nodes, u, d)
            with np.errstate(invalid="ignore"):
                flow = np.maximum(flow, np.nanmax(np.abs(nxt - probe.nodes), axis=0))
    flow = np.where(np.isfinite(flow), flow, 0.0)
    cells = np.ceil(flow / spacing) + np.ceil(clamp_band / spacing) + 1
    return np.minimum(cells, 4 * np.asarray(shape)).astype(int)


def solve(
    model: SystemModel,
    g: MarginFunction,
    grid_spec: tuple[Box, Sequence[int]],
    u_counts,
    d_counts,
    tolerance: float = 1e-6,
    max_iters: int = 1000,
    clamp_band: float | None = None,
    padding: int | Sequence[int] | str = "auto",
) -> tuple[ValueGrid, SolveReport]:
    """Iterate backups from V = g until the sup-norm residual meets tolerance.

    Node values are non-increasing across iterations; on non-convergence the
    last iterate is still returned with ``report.converged = False``.

    Boundary policy (grid boundary semantics are a solver decision): leaving
    the requested domain forfeits the certificate, so the margin is composed
    with the domain box's own signed face margin - states beyond a face count
    as failing, continuously in the distance past the face. The working grid
    is padded beyond the requested domain so that backups near the frontier
    read those continuous negative values instead of a sentinel cliff, and
    all values are clamped from below to -clamp_band with the sentinel set to
    the same level. A raw -inf sentinel next to the frontier would otherwise
    drag the blended values of whole neighboring cells down and push the
    computed frontier outward by several cells per backup. The clamp floor is
    strictly negative, so the encoded safe set - the sign of the values - is
    conservative and unaffected by the clamp; returned values never exceed
    the composed margin, hence V <= g everywhere. Pass ``padding=0`` and a
    large ``clamp_band`` to reproduce the literal single-backup semantics of
    ``backward_step``. Defaults: clamp_band = 8 * max node spacing.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    domain, shape = grid_spec
    shape = tuple(int(s) for s in shape)
    if model.disturbance_dim == 0:
        d_counts = []
    u_candidates = discretize_box(model.control_set, u_counts)
    d_candidates = discretize_box(model.disturbance_set, d_counts)

    start = time.perf_counter()
    spacing = (domain.upper - domain.lower) / (np.asarray(shape) - 1)
    if clamp_band is None:
        clamp_band = 8.0 * float(spacing.max())
    if clamp_band <= 0:
        raise ValueError("clamp_band must be positive")
    if isinstance(padding, str):
        if padding != "auto":
            raise ValueError("padding must be 'auto', an int, or a sequence")
        pad = _auto_padding(model, domain, shape, u_candidates, d_candidates, clamp_band)
    else:
        pad = np.broadcast_to(np.asarray(padding, dtype=int), (domain.dim,)).copy()
        if np.any(pad < 0):
            raise ValueError("padding must be nonnegative")

    work_domain = Box(domain.lower - pad * spacing, domain.upper + pad * spacing)
    work_shape = tuple(int(n + 2 * p) for n, p in zip(shape, pad))
    floor = -float(clamp_band)
    work = ValueGrid(work_domain, work_shape, np.zeros(int(np.prod(work_shape))),
                     out_of_domain_value=floor)
    g_values = _eval_on_nodes(g, work.nodes)
    # leaving the requested domain counts as failure, continuously past faces
    face_margin = np.minimum(
        (work.nodes - domain.lower).min(axis=1),
        (domain.upper - work.nodes).min(axis=1),
    )
    g_values = np.minimum(g_values, face_margin)
    values = np.maximum(g_values, floor)
    work = ValueGrid(work_domain, work_shape, values, out_of_domain_value=floor)
    backups = _Backups(model, work, u_candidates, d_candidates, g_values, floor)

    # the first backup covers every node; each later one only the nodes whose
    # stencil read a value that changed in the previous backup. Every other
    # node would reproduce its value bit for bit, so it contributes exactly 0
    # to the residual.
    active = backups.all_nodes
    # a NaN node value never changes back; once one exists, the residual over
    # the whole grid is NaN whether or not that node is backed up
    nan_seen = bool(np.isnan(values).any())
    residuals, actives = [], []
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        actives.append(active.size)
        residual, active = backups.sweep(values, active)
        if nan_seen:
            residual = math.nan
        nan_seen = math.isnan(residual)
        residuals.append(residual)
        if residual <= tolerance:
            break
    wall = time.perf_counter() - start

    block = values.reshape(work_shape)[
        tuple(slice(p, p + n) for p, n in zip(pad, shape))
    ].ravel()
    # cap by the margin evaluated at the returned grid's own node coordinates
    # (the padded grid's interior nodes can differ from them by rounding), so
    # V <= g holds exactly at every returned node
    out = ValueGrid(domain, shape, block, out_of_domain_value=floor)
    g_ret = _eval_on_nodes(g, out.nodes)
    face_ret = np.minimum(
        (out.nodes - domain.lower).min(axis=1),
        (domain.upper - out.nodes).min(axis=1),
    )
    final = np.minimum(block, np.minimum(g_ret, face_ret))
    return (
        ValueGrid(domain, shape, final, out_of_domain_value=floor),
        SolveReport(
            iterations=iterations,
            final_residual=residual,
            converged=residual <= tolerance,
            wall_time=wall,
            residual_history=tuple(residuals),
            active_history=tuple(actives),
        ),
    )


def successor_states(model: SystemModel, x, U: np.ndarray, D: np.ndarray) -> np.ndarray:
    """f(x, u, d) for every row pair of the lattices ``U`` and ``D``, shape
    (|U| * |D|, n) with the control slowest.

    All successors go through one ``step`` call, on x copied into a
    (|U|, |D|, n) state block.
    """
    xs = np.empty((len(U), len(D), np.size(x)))
    xs[...] = x
    return _batch_next_states(model, xs, U[:, None], D[None]).reshape(-1, xs.shape[-1])


def _first_min(values: np.ndarray) -> int:
    """Index of the least value of a 1-d array, the lowest index on ties. A
    NaN never wins, and when no value is below +inf (all NaN or +inf) the
    answer is 0."""
    best, least = 0, math.inf
    for i, v in enumerate(values.tolist()):
        if v < least:  # False for NaN
            best, least = i, v
    return best


def worst_case_next_value(
    model: SystemModel,
    grid: ValueGrid,
    x,
    u,
    d_candidates: np.ndarray,
) -> float:
    """min over disturbance candidates of the interpolated value at f(x, u, d)."""
    U = np.atleast_1d(np.asarray(u, dtype=np.float64))[None]
    return float(grid.values_at(successor_states(model, x, U, as_lattice(d_candidates))).min())


def optimal_safety_policy(
    model: SystemModel,
    grid: ValueGrid,
    u_candidates: np.ndarray,
    d_candidates: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """argmax over control candidates of the worst-case next value.

    Ties break to the lowest candidate index, so the policy is deterministic;
    a candidate whose worst-case value is NaN never wins, and a state from
    which every candidate leaves the domain (or scores NaN) gets the first one.
    """
    if not len(u_candidates) or not len(d_candidates):
        raise ValueError("candidate lists must be nonempty")
    U, D = as_lattice(u_candidates), as_lattice(d_candidates)

    def policy(x) -> np.ndarray:
        worst = grid.values_at(successor_states(model, x, U, D)).reshape(len(U), -1).min(axis=1)
        return U[_first_min(-worst)].copy()

    return policy


def box_node_ranges(grid: ValueGrid, lower: np.ndarray, upper: np.ndarray):
    """Node index ranges of the box [lower, upper], or None when the box is not
    inside the grid domain (a NaN bound included).

    Per dimension, ``inner`` holds the nodes strictly inside the box and
    ``cover`` the nodes of the cells covering it, the only nodes its
    interpolant reads with positive weight; both are tuples of slices into the
    node block ``values.reshape(shape)``.
    """
    if lower.size != grid.domain.dim:
        raise ValueError("box dimension does not match grid")
    inner, cover = [], []
    for c, d_lo, d_hi, lo, hi in zip(grid.axes, grid.domain.lower.tolist(),
                                     grid.domain.upper.tolist(), lower.tolist(), upper.tolist()):
        if not (lo >= d_lo and hi <= d_hi):
            return None
        a = int(c.searchsorted(lo, "right"))  # first node > lo
        b = int(c.searchsorted(hi, "left"))  # first node >= hi
        inner.append(slice(a, b))
        cover.append(slice(min(max(a - 1, 0), c.size - 2), min(max(b, 1), c.size - 1) + 1))
    return tuple(inner), tuple(cover)


def grid_box_min(grid: ValueGrid, bounds) -> float:
    """Sound lower bound (exact when small) of the interpolant over the box
    with (2, n) bounds [lower, upper] (or a ``Box``).

    Within each grid cell the interpolant attains its extremes at corner
    points, so the minimum over the cartesian product of {box faces, interior
    node planes} per dimension is exact. The points of that product that lie
    strictly inside the box are nodes, whose interpolated values are the node
    values, so they are read from ``values``; only the points on a box face are
    interpolated. Very large boxes fall back to the minimum node value over
    all covering cells, which is a sound lower bound. Boxes not fully inside
    the domain return the out-of-domain sentinel. A NaN anywhere in the min
    gives NaN.
    """
    lower, upper = np.asarray(bounds, dtype=np.float64)
    ranges = box_node_ranges(grid, lower, upper)
    if ranges is None:
        return grid.out_of_domain_value

    block = grid.values.reshape(grid.shape)
    inner, cover = ranges
    faces = [np.array([lo]) if hi <= lo else np.array([lo, hi])
             for lo, hi in zip(lower.tolist(), upper.tolist())]
    nodes = [c[s] for c, s in zip(grid.axes, inner)]
    if math.prod(f.size + n.size for f, n in zip(faces, nodes)) > _EXACT_BOX_MIN_CAP:
        return float(block[cover].min())

    # face points, partitioned by the first dimension j whose coordinate is a
    # face: node coordinates before j, a face at j, anything after j
    full = [np.concatenate((f, n)) for f, n in zip(faces, nodes)]
    face_pts = np.concatenate(
        [_cartesian(nodes[:j] + [faces[j]] + full[j + 1 :]) for j in range(len(faces))]
    )
    out = grid.values_at(face_pts).min()
    core = block[inner]
    if core.size:
        out = np.minimum(out, core.min())
    return float(out)


# --- value grid file format ------------------------------------------------
#
# A grid file is a single ASCII header line followed by raw node values:
#
#   SAFEFILTER-VALUEGRID 1 <dim> <shape...> <lower...> <upper...> <oodv>\n
#
# with floats rendered by repr (shortest round-trip form), then
# prod(shape) IEEE-754 binary64 values, little-endian, in row-major node
# order. Writes are deterministic: identical grids give identical bytes.

_MAGIC = "SAFEFILTER-VALUEGRID"
_FORMAT_VERSION = 1
_MAX_HEADER_BYTES = 64 * 1024  # far above any real header; caps the read of a corrupt one


def save_value_grid(grid: ValueGrid, path) -> None:
    fields = [_MAGIC, str(_FORMAT_VERSION), str(len(grid.shape))]
    fields += [str(n) for n in grid.shape]
    fields += [repr(float(v)) for v in grid.domain.lower]
    fields += [repr(float(v)) for v in grid.domain.upper]
    fields.append(repr(float(grid.out_of_domain_value)))
    header = " ".join(fields) + "\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(np.ascontiguousarray(grid.values, dtype="<f8").tobytes())


def _header_numbers(fields, kind, what):
    try:
        return [kind(v) for v in fields]
    except ValueError:
        raise ValueError(f"grid file header: {what} must be numbers") from None


def load_value_grid(path) -> ValueGrid:
    """Read a grid file; a malformed file raises ``ValueError`` naming the problem."""
    with open(path, "rb") as f:
        header = f.readline(_MAX_HEADER_BYTES)
        if not header.endswith(b"\n"):
            if len(header) == _MAX_HEADER_BYTES:
                raise ValueError(f"grid file header exceeds {_MAX_HEADER_BYTES} bytes")
            raise ValueError("truncated grid file: missing header newline")
        try:
            fields = header[:-1].decode("ascii").split(" ")
        except UnicodeDecodeError:
            raise ValueError("grid file header is not ASCII text") from None
        if fields[0] != _MAGIC:
            raise ValueError(f"not a value grid file (magic {fields[0][:40]!r})")
        if len(fields) < 4:
            raise ValueError(f"grid file header has only {len(fields)} fields")
        version, dim = _header_numbers(fields[1:3], int, "version and dimension")
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported grid file version {version}")
        if dim < 1 or len(fields) != 4 + 3 * dim:
            raise ValueError(
                f"grid file header has {len(fields)} fields; dimension {dim} needs "
                f"{4 + 3 * max(dim, 1)}"
            )
        shape = tuple(_header_numbers(fields[3 : 3 + dim], int, "shape"))
        bounds = _header_numbers(fields[3 + dim :], float, "bounds and sentinel")
        if any(n < 2 for n in shape):
            raise ValueError(f"grid file shape {shape} needs at least 2 nodes per dimension")
        count = math.prod(shape)
        # check the size first, so a corrupt shape cannot ask for a huge read
        if 8 * count > os.fstat(f.fileno()).st_size - f.tell():
            raise ValueError("truncated grid file: missing node values")
        raw = f.read(8 * count)
        if len(raw) != 8 * count:
            raise ValueError("truncated grid file: missing node values")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return ValueGrid(Box(bounds[:dim], bounds[dim : 2 * dim]), shape, values, bounds[-1])
