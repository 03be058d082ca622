"""Independent oracles shared by the unit and acceptance suites."""
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import product

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


# --- Box-based interval tube -------------------------------------------------
#
# The interval layer as it was when fallback tubes were built from frozen boxes:
# the box type with its set algebra, the built-in interval steps, the margin box
# lower bounds, the braking control enclosure and terminal containment, the grid
# box minimum, the control enclosure and the tube. The bodies are verbatim
# copies; the box type is renamed ``SeedBox``, and closures became factories
# over the parameters they captured. They are the exactness oracle of the
# array-native tube, which must reproduce their bounds and monitor values.


@dataclass(frozen=True)
class SeedBox:
    """Axis-aligned box {x : lower <= x <= upper}.

    Zero-width boxes (points) and 0-dimensional boxes are valid; an empty box
    must be marked explicitly via ``empty=True``.
    """

    lower: np.ndarray
    upper: np.ndarray
    empty: bool = False

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not self.empty and lo.size and bool(np.any(lo > hi)):
            raise ValueError("box lower bound exceeds upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def __array__(self, dtype=None, copy=None):
        return np.array([self.lower, self.upper], dtype=dtype)

    @staticmethod
    def point(x) -> "SeedBox":
        x = np.asarray(x, dtype=np.float64)
        return SeedBox(x.copy(), x.copy())

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    def is_degenerate(self, tol: float = 0.0) -> bool:
        if self.dim == 0:
            return True
        return bool(np.all(self.width <= tol))

    def contains_box(self, other: "SeedBox", tol: float = 0.0) -> bool:
        if other.empty:
            return True
        if self.empty:
            return False
        if self.dim == 0:
            return other.dim == 0
        return bool(
            np.all(other.lower >= self.lower - tol)
            and np.all(other.upper <= self.upper + tol)
        )

    def add(self, other: "SeedBox") -> "SeedBox":
        """Minkowski sum with another box of the same dimension."""
        return SeedBox(self.lower + other.lower, self.upper + other.upper)

    def widen(self, margin) -> "SeedBox":
        m = np.broadcast_to(np.asarray(margin, dtype=np.float64), (self.dim,))
        if np.any(m < 0):
            raise ValueError("widening margin must be nonnegative")
        return SeedBox(self.lower - m, self.upper + m)

    def intersect(self, other: "SeedBox") -> "SeedBox":
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        if self.dim and bool(np.any(lo > hi)):
            return SeedBox(np.minimum(lo, hi), np.minimum(lo, hi), empty=True)
        return SeedBox(lo, hi)

    def support(self, direction) -> float:
        """max over the box of direction . x."""
        d = np.asarray(direction, dtype=np.float64)
        return float(np.sum(np.where(d >= 0, d * self.upper, d * self.lower)))


def seed_box(box) -> SeedBox:
    return SeedBox(box.lower, box.upper)


def seed_as_box(u) -> SeedBox:
    """Coerce a point or Box to a Box (points become degenerate boxes)."""
    return u if isinstance(u, SeedBox) else SeedBox.point(u)


def seed_linear_image(M: np.ndarray, box: SeedBox) -> SeedBox:
    """Exact interval image {M x : x in box} of a box under a linear map."""
    M = np.asarray(M, dtype=np.float64)
    lo_terms = np.minimum(M * box.lower, M * box.upper)
    hi_terms = np.maximum(M * box.lower, M * box.upper)
    return SeedBox(lo_terms.sum(axis=1), hi_terms.sum(axis=1))


def _seed_input_channel(u, D: SeedBox) -> tuple[float, float]:
    """Interval of (u + d) on the shared scalar input channel."""
    ub = seed_as_box(u)
    lo, hi = float(ub.lower[0]), float(ub.upper[0])
    if D.dim:
        lo += float(D.lower[0])
        hi += float(D.upper[0])
    return lo, hi


def seed_double_integrator_interval(dt):
    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        wlo, whi = _seed_input_channel(u, D)
        plo = X.lower[0] + X.lower[1] * dt
        phi = X.upper[0] + X.upper[1] * dt
        vlo = X.lower[1] + wlo * dt
        vhi = X.upper[1] + whi * dt
        return SeedBox([plo, vlo], [phi, vhi])

    return interval_fn


def seed_dubins_interval(speed, dt):
    from safefilter.intervals import cos_interval, sin_interval

    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        wlo, whi = _seed_input_channel(u, D)
        tlo, thi = float(X.lower[2]), float(X.upper[2])
        cl, cu = cos_interval(tlo, thi)
        sl, su = sin_interval(tlo, thi)
        return SeedBox(
            [
                X.lower[0] + speed * cl * dt,
                X.lower[1] + speed * sl * dt,
                tlo + wlo * dt,
            ],
            [
                X.upper[0] + speed * cu * dt,
                X.upper[1] + speed * su * dt,
                thi + whi * dt,
            ],
        )

    return interval_fn


def seed_pendulum_interval(dt):
    from safefilter.intervals import sin_interval

    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        # the rate forms (sin + u) + d as the pendulum's step does, d = 0.0
        # without a disturbance
        ub = seed_as_box(u)
        ulo, uhi = float(ub.lower[0]), float(ub.upper[0])
        dlo, dhi = (float(D.lower[0]), float(D.upper[0])) if D.dim else (0.0, 0.0)
        tlo, thi = float(X.lower[0]), float(X.upper[0])
        sl, su = sin_interval(tlo, thi)
        return SeedBox(
            [
                tlo + X.lower[1] * dt,
                X.lower[1] + ((sl + ulo) + dlo) * dt,
            ],
            [
                thi + X.upper[1] * dt,
                X.upper[1] + ((su + uhi) + dhi) * dt,
            ],
        )

    return interval_fn


def seed_linear_interval(A, B):
    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        ub = seed_as_box(u)
        out = seed_linear_image(A, X).add(seed_linear_image(B, ub))
        if D.dim:
            out = out.add(D)
        return out

    return interval_fn


def seed_planar_interval(dt):
    def interval_fn(X: SeedBox, u, D: SeedBox) -> SeedBox:
        ub = u if isinstance(u, SeedBox) else SeedBox.point(u)
        lo = np.concatenate(
            [X.lower[:2] + X.lower[2:] * dt, X.lower[2:] + ub.lower * dt]
        )
        hi = np.concatenate(
            [X.upper[:2] + X.upper[2:] * dt, X.upper[2:] + ub.upper * dt]
        )
        return SeedBox(lo, hi)

    return interval_fn


def seed_halfspace_box_lower(normal, offset):
    n = np.asarray(normal, dtype=np.float64)
    offset = float(offset)

    def box_lower(box: SeedBox) -> float:
        return -box.support(-n) - offset

    return box_lower


def seed_ball_box_lower(center, radius):
    c = np.asarray(center, dtype=np.float64)

    def box_lower(box: SeedBox) -> float:
        nearest = np.clip(c, box.lower, box.upper)
        return float(np.linalg.norm(nearest - c)) - radius

    return box_lower


def seed_min_box_lower(parts):
    def box_lower(box):
        return min(float(m(box)) for m in parts)

    return box_lower


_SEED_REST_EPS = 1e-12


def seed_braking_control_box(u_max, dt, v_tol):
    def control_box(box: SeedBox) -> SeedBox:
        vlo, vhi = float(box.lower[1]), float(box.upper[1])
        pieces = []
        if vhi > v_tol:
            pieces.append((-u_max, -u_max))
        if vlo < -v_tol:
            pieces.append((u_max, u_max))
        blo, bhi = max(vlo, -v_tol), min(vhi, v_tol)
        if blo <= bhi:  # exact-stop piece, monotone decreasing in v
            pieces.append(
                (
                    min(u_max, max(-u_max, -bhi / dt)),
                    min(u_max, max(-u_max, -blo / dt)),
                )
            )
        lo_u = min(p[0] for p in pieces)
        hi_u = max(p[1] for p in pieces)
        return SeedBox([lo_u], [hi_u])

    return control_box


def seed_braking_excursion(u_max: float, dt: float, v_tol: float, v: float):
    """Exact position excursion interval while the braking fallback brings
    velocity v (|v| <= v_tol) to rest with no disturbance."""
    max_steps = int(math.ceil(v_tol / max(u_max * dt, _SEED_REST_EPS))) + 4
    p, lo, hi = 0.0, 0.0, 0.0
    vv = v
    for _ in range(max_steps):
        if abs(vv) <= _SEED_REST_EPS:
            return lo, hi
        if abs(vv) > v_tol:
            u = -math.copysign(u_max, vv)
        else:
            u = min(u_max, max(-u_max, -vv / dt))
        p += vv * dt
        lo, hi = min(lo, p), max(hi, p)
        vv += u * dt
    raise RuntimeError("braking profile did not reach rest (unexpected)")


def seed_braking_box_containment(u_max, dt, v_tol, p_lo, p_hi):
    def excursion(v: float):
        return seed_braking_excursion(u_max, dt, v_tol, v)

    def box_containment(box: SeedBox) -> bool:
        if box.empty:
            return True
        vlo, vhi = float(box.lower[1]), float(box.upper[1])
        if vlo < -v_tol or vhi > v_tol:
            return False
        # excursions are monotone in v, so the corners are the worst cases
        exc_lo, _ = excursion(vlo)
        _, exc_hi = excursion(vhi)
        return float(box.lower[0]) + exc_lo >= p_lo and float(box.upper[0]) + exc_hi <= p_hi

    return box_containment


def seed_grid_box_min(grid: ValueGrid, box: SeedBox) -> float:
    """Sound lower bound (exact when small) of the interpolant over a box."""
    if box.empty:
        return math.inf
    if box.dim != grid.domain.dim:
        raise ValueError("box dimension does not match grid")
    if not seed_box(grid.domain).contains_box(box):
        return grid.out_of_domain_value

    coords = []
    total = 1
    for j, c in enumerate(grid.axes):
        lo, hi = float(box.lower[j]), float(box.upper[j])
        if hi > lo:
            inner = c[(c > lo) & (c < hi)]
            pts = np.concatenate(([lo], inner, [hi]))
        else:
            pts = np.array([lo])
        coords.append(pts)
        total *= pts.size

    if total <= reachability._EXACT_BOX_MIN_CAP:
        mesh = np.meshgrid(*coords, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        return float(grid.values_at(pts).min())

    # node bound over covering cells
    block = grid.values.reshape(grid.shape)
    slices = []
    for j, c in enumerate(grid.axes):
        i_lo = int(np.clip(np.searchsorted(c, box.lower[j], side="right") - 1, 0, len(c) - 2))
        i_hi = int(np.clip(np.searchsorted(c, box.upper[j], side="left"), 1, len(c) - 1))
        slices.append(slice(i_lo, i_hi + 1))
    return float(block[tuple(slices)].min())


SeedFallback = namedtuple("SeedFallback", "policy control_box lipschitz")


def seed_control_enclosure(fb: SeedFallback, box: SeedBox, control_set: SeedBox) -> SeedBox:
    if box.is_degenerate():
        return SeedBox.point(fb.policy(box.center))
    if fb.control_box is not None:
        enc = fb.control_box(box)
    elif fb.lipschitz is not None:
        center_u = np.atleast_1d(np.asarray(fb.policy(box.center), dtype=np.float64))
        inflation = fb.lipschitz * float(box.radius.max())
        enc = SeedBox.point(center_u).widen(inflation)
    else:
        raise ValueError(
            "state-feedback fallback over a nondegenerate box needs a "
            "control_box enclosure or a lipschitz bound"
        )
    enc = enc.intersect(control_set)
    if enc.empty:
        raise ValueError("fallback control enclosure does not meet the control set")
    return enc


def seed_propagate_frs(interval_step, control_set, disturbance_set, fb, x, u0, horizon):
    """The tube's boxes, sets[0..horizon], from x under u0 and then the fallback."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    x = np.asarray(x, dtype=np.float64)
    u0 = np.atleast_1d(np.asarray(u0, dtype=np.float64))
    D = disturbance_set
    sets = [SeedBox.point(x)]
    sets.append(interval_step(sets[0], u0, D))
    for _ in range(1, horizon):
        current = sets[-1]
        u_box = seed_control_enclosure(fb, current, control_set)
        sets.append(interval_step(current, u_box, D))
    return sets


def seed_mps_monitor(sets, box_lower, box_containment) -> float:
    for box in sets:
        if not box_lower(box) >= 0.0:  # a NaN bound rejects
            return -0.5
    if not box_containment(sets[-1]):
        return -0.5
    return 0.5


# --- CBF-QP filter with three affine-term evaluations -------------------------
#
# The CBF-QP filter, its barrier and the built-in models' affine split as they
# were when a degraded decision evaluated the affine terms three times (monitor,
# intervention and fallback) and every evaluation stacked fresh arrays. The
# bodies are verbatim copies; closures became factories over the parameters
# they captured, the classes and functions carry a ``seed_``/``Seed`` prefix,
# the projection's tolerance constant is written as its value and the filter
# constructor's argument checks are left out. They are the exactness oracle of the single-evaluation filter, which
# must reproduce their decisions, monitor values and affine terms bit for bit.


def seed_affine_terms(model, b, x):
    """Split hdot(x, u) = drift_term + a . u for a control-affine model."""
    if model.continuous_affine is None:
        raise ValueError("model must provide continuous-time affine dynamics")
    drift_fn, input_fn = model.continuous_affine
    grad = np.asarray(b.grad_h(x), dtype=np.float64)
    drift_term = float(grad @ np.asarray(drift_fn(x), dtype=np.float64))
    a = np.asarray(input_fn(x), dtype=np.float64).T @ grad
    return drift_term, a


def seed_project_halfspace_box(u_task, a, rhs, lo, hi):
    """Exact solution of min 0.5||u - u_task||^2 s.t. a.u >= rhs, lo <= u <= hi."""
    from safefilter.qp import InfeasibleQP, solve_qp

    m = u_task.size
    support = float(np.sum(np.where(a >= 0, a * hi, a * lo)))
    if support < rhs - 1e-9:
        return None
    if np.all(u_task >= lo) and np.all(u_task <= hi) and float(a @ u_task) >= rhs - 1e-9:
        return u_task
    eye = np.eye(m)
    rows = np.vstack([a, eye, -eye])
    offsets = np.concatenate([[min(rhs, support)], lo, -hi])
    try:
        u = solve_qp(eye, -u_task, rows, offsets)
    except InfeasibleQP:
        return None
    return np.clip(u, lo, hi)


def seed_cbf_qp_filter(model, barrier):
    """Smooth minimal-deviation filter for a control-affine model.

    Monitor: min(h(x), hdot(x, u) + alpha(h(x))). When the program is
    infeasible the intervention degrades to the decrease-maximizing control
    argmax_u hdot(x, u) and flags the decision.
    """
    from safefilter.filters import Monitor, SafetyFilter

    class SeedCBFQPFilter(SafetyFilter):
        def __init__(self, model, barrier):
            self.model = model
            self.barrier = barrier
            monitor = Monitor(self._monitor_value, name="barrier_decrease")
            super().__init__(monitor, self._fallback, name="cbf_qp",
                             state_dim=model.state_dim, control_dim=model.control_dim)

        def _monitor_value(self, x, u) -> float:
            x = np.asarray(x, dtype=np.float64)
            u = np.atleast_1d(np.asarray(u, dtype=np.float64))
            drift_term, a = seed_affine_terms(self.model, self.barrier, x)
            h = float(self.barrier.h(x))
            return min(h, drift_term + float(a @ u) + float(self.barrier.alpha(h)))

        def _fallback(self, x) -> np.ndarray:
            """Decrease-maximizing control; zero-gain coordinates take the box center."""
            x = np.asarray(x, dtype=np.float64)
            _, a = seed_affine_terms(self.model, self.barrier, x)
            box = self.model.control_set
            return np.where(a > 0, box.upper, np.where(a < 0, box.lower, box.center))

        def intervene(self, x, u_task, monitor_value: float) -> np.ndarray:
            self.last_degraded = False
            x = np.asarray(x, dtype=np.float64)
            u_task = np.atleast_1d(np.asarray(u_task, dtype=np.float64))
            drift_term, a = seed_affine_terms(self.model, self.barrier, x)
            rhs = -(drift_term + float(self.barrier.alpha(float(self.barrier.h(x)))))
            box = self.model.control_set
            u = seed_project_halfspace_box(u_task, a, rhs, box.lower, box.upper)
            if u is None:
                self.last_degraded = True
                return self._fallback(x)
            return u

    return SeedCBFQPFilter(model, barrier)


def seed_barrier_double_integrator(u_max, kappa, wall=0.0):
    """Stopping-distance barrier h(p, v) = (p - wall) - max(0, -v)^2 / (2 u_max)."""
    from safefilter.cbf import BarrierFunction

    def h(x):
        x = np.asarray(x, dtype=np.float64)
        p, v = x[..., 0], x[..., 1]
        braking = np.maximum(0.0, -v)
        return (p - wall) - braking * braking / (2.0 * u_max)

    def grad_h(x):
        x = np.asarray(x, dtype=np.float64)
        v = x[..., 1]
        return np.stack(
            [np.ones_like(v), np.maximum(0.0, -v) / u_max], axis=-1
        )

    return BarrierFunction(h, grad_h, lambda a: kappa * a, name="stopping_distance")


def seed_double_integrator_affine():
    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        return np.stack([x[..., 1], np.zeros_like(x[..., 1])], axis=-1)

    def input_map(x):
        return np.array([[0.0], [1.0]])

    return drift, input_map


def seed_dubins_affine(speed):
    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        th = x[..., 2]
        return np.stack(
            [speed * np.cos(th), speed * np.sin(th), np.zeros_like(th)], axis=-1
        )

    def input_map(x):
        return np.array([[0.0], [0.0], [1.0]])

    return drift, input_map


def seed_pendulum_affine():
    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        return np.stack([x[..., 1], np.sin(x[..., 0])], axis=-1)

    def input_map(x):
        return np.array([[0.0], [1.0]])

    return drift, input_map


def seed_planar_affine():
    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        return np.concatenate([x[..., 2:], np.zeros_like(x[..., 2:])], axis=-1)

    def input_map(x):
        return np.vstack([np.zeros((2, 2)), np.eye(2)])

    return drift, input_map


# --- tube MPC on the box set algebra ------------------------------------------
#
# ``compute_tightening`` and ``TubeMPCFilter`` as they were when tube MPC built
# its tightening from frozen boxes and rebuilt its QP offsets row by row from a
# tagged template. The bodies are verbatim copies; the box type is ``SeedBox``
# (given ``__array__`` so ``linear_image`` reads it as the library's ``Box``),
# the invariance check wraps the image bounds in a ``SeedBox``, and the names
# carry a ``seed_``/``Seed`` prefix. They are the exactness oracle of the
# bound-array filter, which must reproduce their tightening, constraint rows,
# offsets, plans and decisions bit for bit.

from safefilter.filters import DeploymentRejected, Monitor, SafetyFilter  # noqa: E402
from safefilter.intervals import linear_image  # noqa: E402
from safefilter.qp import InfeasibleQP, solve_qp  # noqa: E402

# ``qp.solve_qp`` as it was before it memoized its inner steps, scaled its
# pivot test by G^-1 and verified its return point. The body is a verbatim
# copy; it raises the library's ``InfeasibleQP``. It is the exactness oracle
# of the memoized solver, which must return the same bytes (or raise
# ``InfeasibleQP`` too) wherever this returns a verified point or raises
# ``InfeasibleQP``.


def seed_solve_qp(G, a, A, b, tol: float = 1e-10, max_iter: int | None = None) -> np.ndarray:
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


_SEED_REG = 1e-8  # regularizer on later stages; the objective only scores stage 0


def _seed_spectral_radius(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def seed_compute_tightening(A, B, K, dist_box: Box, horizon: int) -> list[SeedBox]:
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
    if _seed_spectral_radius(closed) >= 1.0:
        raise ValueError("A + B K must be strictly stable for tube tightening")
    dist = np.asarray(dist_box) if dist_box.dim else np.zeros((2, n))
    if dist.shape[1] != n:
        raise ValueError("disturbance box must be state-dimensional")
    bounds = [SeedBox.point(np.zeros(n))]
    for _ in range(horizon):
        bounds.append(SeedBox(*(linear_image(closed, bounds[-1]) + dist)))
    return bounds


def _seed_error_bound_limit(closed: np.ndarray, dist: np.ndarray, tol: float = 1e-12) -> SeedBox:
    e = np.zeros((2, closed.shape[0]))
    for _ in range(100_000):
        nxt = linear_image(closed, e) + dist
        if float(np.max(np.abs(nxt - e))) <= tol:
            return SeedBox(*nxt)
        e = nxt
    raise RuntimeError("error-bound iteration did not converge")


@dataclass(frozen=True)
class SeedTightenedProblem:
    """Precomputed tightened constraint data for the nominal plan."""

    horizon: int
    error_bounds: tuple[SeedBox, ...]      # stages 0..H
    control_boxes: tuple[SeedBox, ...]     # tightened control set per stage 0..H-1
    stage_offsets: np.ndarray              # (n_halfspaces, H) tightened margins, stages 0..H-1
    terminal_box: SeedBox                  # tightened terminal region for stage H


@dataclass
class SeedPlan:
    controls: np.ndarray  # (H, m)
    nominals: np.ndarray  # (H+1, n)
    age: int = 0          # stages already consumed by the fallback


class SeedTubeMPCFilter(SafetyFilter):
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

        error_bounds = seed_compute_tightening(A, B, K, dist_box, self.horizon)
        control_boxes = []
        for tau in range(self.horizon):
            ke = linear_image(K, error_bounds[tau])
            lo, hi = control_set.lower - ke[0], control_set.upper - ke[1]
            if np.any(lo > hi):
                raise ValueError(f"control set tightens to empty at stage {tau}")
            control_boxes.append(SeedBox(lo, hi))
        stage_offsets = np.empty((len(self.halfspaces), self.horizon))
        for i, (nrm, off) in enumerate(self.halfspaces):
            for tau in range(self.horizon):
                stage_offsets[i, tau] = off + error_bounds[tau].support(-nrm)
        e_H = error_bounds[-1]
        lo, hi = terminal_box.lower - e_H.lower, terminal_box.upper - e_H.upper
        if np.any(lo > hi):
            raise ValueError("terminal box tightens to empty")
        tight_terminal = SeedBox(lo, hi)
        closed = A + B @ K
        if not tight_terminal.contains_box(SeedBox(*linear_image(closed, tight_terminal)), tol=1e-12):
            raise ValueError("tightened terminal box is not invariant under A + B K")
        dist = np.asarray(dist_box) if dist_box.dim else np.zeros((2, n))
        e_inf = _seed_error_bound_limit(closed, dist)
        settled = tight_terminal.add(e_inf)
        for nrm, off in self.halfspaces:
            if -settled.support(-nrm) < off - 1e-12:
                raise ValueError(
                    "terminal region plus asymptotic tracking error touches the failure set"
                )
        self.tightened = SeedTightenedProblem(
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

        self._plan: SeedPlan | None = None
        self._last_query = None
        # when set, every accepted plan is dumped as CSV into this directory
        self.plan_log_dir: str | None = None
        self._plan_counter = 0
        monitor = Monitor(self._monitor_value, name="plan_feasibility")
        super().__init__(monitor, self._fallback, name="tube_mpc", state_dim=n, control_dim=m)

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
        minimizes its deviation from u_ref. Returns a SeedPlan or None."""
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
            G = np.eye(H * m) * _SEED_REG
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
        return SeedPlan(controls=controls, nominals=nominals)

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

    def _log_plan(self, plan: SeedPlan) -> None:
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


# --- candidate lattices as lists, margin descent candidate by candidate -------
#
# ``discretize_box`` as it was when it returned a list of 1-d arrays, and the
# two margin-descent adversaries as they were when they stepped and scored one
# candidate at a time.


def seed_discretize_box(box: Box, counts) -> list[np.ndarray]:
    """Regular lattice over a box, corners included; a count of 1 gives the center.

    Points are returned in row-major order (first dimension slowest).
    """
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(counts) != box.dim:
        raise ValueError("counts length must match box dimension")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be at least 1 per dimension")
    if box.dim == 0:
        return [np.zeros(0)]
    axes = []
    for lo, hi, c in zip(box.lower, box.upper, counts):
        if c == 1:
            axes.append(np.array([0.5 * (lo + hi)]))
        else:
            axes.append(np.linspace(lo, hi, c))
    return [np.array(pt) for pt in product(*axes)]


def seed_margin_descent_policy(model, margin, u_candidates):
    """Adversarial task policy: greedily steers the nominal next state toward
    the failure set (lowest candidate index wins ties)."""
    cands = [np.atleast_1d(np.asarray(u, dtype=np.float64)) for u in u_candidates]
    d0 = model.zero_disturbance()

    def policy(x, rng):
        best = cands[0]
        best_val = math.inf
        for u in cands:
            val = float(margin(model.step(x, u, d0)))
            if val < best_val:
                best_val = val
                best = u
        return best.copy()

    return policy


def seed_margin_descent_disturbance(model, margin, d_candidates, next_states=None):
    """Adversarial disturbance for models without a solved value function:
    picks the candidate that minimizes the next-state failure margin.
    ``next_states(x, u)``, when given, returns the candidates' next states in
    their order, in place of one ``model.step`` per candidate."""
    cands = [np.atleast_1d(np.asarray(d, dtype=np.float64)) for d in d_candidates]

    def policy(x, u, rng):
        best = cands[0]
        best_val = math.inf
        nexts = next_states(x, u) if next_states else (model.step(x, u, d) for d in cands)
        for d, y in zip(cands, nexts):
            val = float(margin(y))
            if val < best_val:
                best_val = val
                best = d
        return best.copy()

    return policy


# --- experiments with their own seed loops, CSV writers with their own blocks --
#
# ``separation_experiment`` and the ``monte_carlo_safety`` loop as they were
# when each ran its own loop over seeds, and the decision log, comparison table
# and monitor traces as they were written before every harness log went
# through one ``write_series_csv``.


def seed_separation_experiment(
    model,
    flt,
    task_policy,
    failure_margin,
    x0,
    steps,
    seeds,
    disturbance_policy=None,
    goal=None,
    control_weight=0.1,
):
    from safefilter.filters import passthrough_filter
    from safefilter.harness import SeparationReport, run_episode, zero_disturbance

    if disturbance_policy is None:
        disturbance_policy = zero_disturbance(model)
    unfiltered_rows = []
    filtered_rows = []
    raw = passthrough_filter(model)
    for seed in seeds:
        _, m_raw = run_episode(
            model, raw, task_policy, disturbance_policy, x0, steps, seed,
            failure_margin, goal, control_weight,
        )
        _, m_flt = run_episode(
            model, flt, task_policy, disturbance_policy, x0, steps, seed,
            failure_margin, goal, control_weight,
        )
        unfiltered_rows.append(m_raw)
        filtered_rows.append(m_flt)
    return SeparationReport(unfiltered_rows, filtered_rows, list(seeds))


def seed_monte_carlo_safety(
    model,
    flt,
    task_policy,
    x0,
    steps,
    n_episodes,
    failure_margin,
    seed=0,
    confidence=0.95,
    disturbance_policy=None,
):
    """Fraction of episodes that ever enter the failure set, with an exact
    binomial interval. Disturbances default to uniform draws over their box."""
    from safefilter.harness import (
        MonteCarloReport,
        clopper_pearson,
        random_disturbance,
        run_episode,
    )

    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    if disturbance_policy is None:
        disturbance_policy = random_disturbance(model)
    failures = 0
    for i in range(n_episodes):
        _, metrics = run_episode(
            model, flt, task_policy, disturbance_policy, x0, steps, seed + i,
            failure_margin,
        )
        if metrics.violations > 0:
            failures += 1
    lo, hi = clopper_pearson(failures, n_episodes, confidence)
    return MonteCarloReport(
        episodes=n_episodes,
        failures=failures,
        estimate=failures / n_episodes,
        confidence=confidence,
        lower=lo,
        upper=hi,
    )


def seed_write_decisions_csv(traj, path) -> None:
    """Per-step audit log: t, state, candidate, applied, monitor value, override flag."""
    import csv

    n = traj.states.shape[1]
    m = traj.controls.shape[1] if traj.steps else 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"candidate{i}" for i in range(m)]
            + [f"applied{i}" for i in range(m)]
            + ["monitor_value", "overridden"]
        )
        for t, d in enumerate(traj.decisions):
            writer.writerow(
                [t]
                + [repr(float(v)) for v in traj.states[t]]
                + [repr(float(v)) for v in d.candidate]
                + [repr(float(v)) for v in d.applied]
                + [repr(float(d.monitor_value)), int(d.overridden)]
            )


def seed_write_series_csv(path, header, rows) -> None:
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))


def seed_write_comparison(rows, traces, out_dir) -> None:
    """The CSV block of ``compare_filters``: ``rows`` are its
    ``FilterComparison`` rows and ``traces`` maps each filter name to the
    trajectory of the first seed."""
    import csv
    import os

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "comparison.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["filter", "violations", "intervention_rate", "task_cost",
             "chatter_count", "mean_monitor"]
        )
        for r in rows:
            writer.writerow(
                [r.name, r.violations, repr(r.intervention_rate),
                 repr(r.task_cost), r.chatter_count, repr(r.mean_monitor)]
            )
    for name, traj in traces.items():
        seed_write_series_csv(
            os.path.join(out_dir, f"trace_{name}.csv"),
            ["t", "monitor_value", "overridden"],
            [
                [t, repr(d.monitor_value), int(d.overridden)]
                for t, d in enumerate(traj.decisions)
            ],
        )
