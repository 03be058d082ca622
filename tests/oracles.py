"""Independent oracles shared by the unit and acceptance suites."""
import math

import numpy as np

from safefilter import Box, ValueGrid, discretize_box, reachability


def game_tree_node_values(model, g, grid, u_cands, d_cands, horizon):
    """Scalar replay of the min-max backup as a full game tree: every
    control/disturbance sequence is expanded and the multilinear interpolation
    weights are applied level by level, exactly as the grid solver does
    (1-d grids only)."""
    axes = grid.axes[0]
    oodv = grid.out_of_domain_value

    def g_at(x):
        return float(g(np.array([x])))

    def node_value(j, k):
        x = float(axes[j])
        if k == horizon:
            return g_at(x)
        best = -math.inf
        for u in u_cands:
            worst = math.inf
            for d in d_cands:
                y = float(model.step(np.array([x]), u, d)[0])
                if y < axes[0] or y > axes[-1]:
                    val = oodv
                else:
                    i = min(max(int(np.searchsorted(axes, y, side="right")) - 1, 0), len(axes) - 2)
                    t = (y - axes[i]) / (axes[i + 1] - axes[i])
                    val = 0.0
                    if 1.0 - t > 0.0:
                        val += (1.0 - t) * node_value(i, k + 1)
                    if t > 0.0:
                        val += t * node_value(i + 1, k + 1)
                worst = min(worst, val)
            best = max(best, worst)
        return min(g_at(x), best)

    return np.array([node_value(j, 0) for j in range(len(axes))])


def braking_reaches_wall(p, v, dt, u_max=1.0):
    """Exact rollout of lattice max-braking; True if the position ever goes
    negative before coming to rest."""
    while v < 0:
        p += v * dt
        v += u_max * dt
        if p < 0:
            return True
    return False


# --- dense value iteration ---------------------------------------------------
#
# The grid solver's backups as they were before each backup was restricted to
# the nodes whose stencil read a changed value: every backup recomputes every
# node. The plans, kernel, residual and loop are verbatim copies; the solver's
# helpers are looked up on the module at call time, so a test can patch the
# interpolation kernel. They are the exactness oracle of ``solve`` and
# ``backward_step``.


def dense_candidate_plans(model, grid, u_candidates, d_candidates):
    """Precomputed interpolation stencils at f(node, u, d) for every candidate pair."""
    plans = []
    for u in u_candidates:
        per_u = []
        for d in d_candidates:
            pts = reachability._batch_next_states(model, grid.nodes, u, d)
            ci, w, outside = reachability._interp_weights(grid.corners, pts)
            # weights are fixed across backups; index their zero terms once
            per_u.append((ci, w, outside, np.flatnonzero(~(w > 0.0))))
        plans.append(per_u)
    return plans


def dense_backward_kernel(values, g_values, plans, oodv):
    best = None
    for per_u in plans:
        worst = None
        for ci, w, outside, unweighted in per_u:
            vals = reachability._apply_interp(values, ci, w, outside, oodv, unweighted)
            worst = vals if worst is None else np.minimum(worst, vals)
        best = worst if best is None else np.maximum(best, worst)
    return np.minimum(g_values, best)


def dense_sup_change(old, new):
    with np.errstate(invalid="ignore"):
        diff = np.where(new == old, 0.0, np.abs(new - old))
    return float(diff.max()) if diff.size else 0.0


def dense_backward_step(model, g, v_next, u_candidates, d_candidates):
    g_values = reachability._eval_on_nodes(g, v_next.nodes)
    plans = dense_candidate_plans(model, v_next, u_candidates, d_candidates)
    new_values = dense_backward_kernel(v_next.values, g_values, plans, v_next.out_of_domain_value)
    return v_next.with_values(new_values)


def dense_solve(model, g, grid_spec, u_counts, d_counts, tolerance=1e-6, max_iters=1000,
                clamp_band=None, padding="auto"):
    """``solve`` with every backup over the whole grid; returns the grid, the
    iteration count, the residual of every backup and the padded iterate of
    every backup."""
    domain, shape = grid_spec
    shape = tuple(int(s) for s in shape)
    if model.disturbance_dim == 0:
        d_counts = []
    u_candidates = discretize_box(model.control_set, u_counts)
    d_candidates = discretize_box(model.disturbance_set, d_counts)

    spacing = (domain.upper - domain.lower) / (np.asarray(shape) - 1)
    if clamp_band is None:
        clamp_band = 8.0 * float(spacing.max())
    if isinstance(padding, str):
        pad = reachability._auto_padding(model, domain, shape, u_candidates, d_candidates,
                                         clamp_band)
    else:
        pad = np.broadcast_to(np.asarray(padding, dtype=int), (domain.dim,)).copy()

    work_domain = Box(domain.lower - pad * spacing, domain.upper + pad * spacing)
    work_shape = tuple(int(n + 2 * p) for n, p in zip(shape, pad))
    floor = -float(clamp_band)
    work = ValueGrid(work_domain, work_shape, np.zeros(int(np.prod(work_shape))),
                     out_of_domain_value=floor)
    g_values = reachability._eval_on_nodes(g, work.nodes)
    face_margin = np.minimum(
        (work.nodes - domain.lower).min(axis=1),
        (domain.upper - work.nodes).min(axis=1),
    )
    g_values = np.minimum(g_values, face_margin)
    values = np.maximum(g_values, floor)
    work = ValueGrid(work_domain, work_shape, values, out_of_domain_value=floor)
    plans = dense_candidate_plans(model, work, u_candidates, d_candidates)

    residuals, iterates = [], []
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new_values = np.maximum(
            dense_backward_kernel(values, g_values, plans, floor), floor
        )
        residual = dense_sup_change(values, new_values)
        values = new_values
        residuals.append(residual)
        iterates.append(values)
        if residual <= tolerance:
            break

    block = values.reshape(work_shape)[
        tuple(slice(p, p + n) for p, n in zip(pad, shape))
    ].ravel()
    out = ValueGrid(domain, shape, block, out_of_domain_value=floor)
    g_ret = reachability._eval_on_nodes(g, out.nodes)
    face_ret = np.minimum(
        (out.nodes - domain.lower).min(axis=1),
        (domain.upper - out.nodes).min(axis=1),
    )
    final = np.minimum(block, np.minimum(g_ret, face_ret))
    grid = ValueGrid(domain, shape, final, out_of_domain_value=floor)
    return grid, iterations, residuals, iterates
