"""System models, margin functions, and benchmark instances shared by all filters.

Models are discrete-time with bounded control and disturbance boxes:
``x' = step(x, u, d)``. Every built-in model also carries a conservative
interval step that maps the float rows of a state, control and disturbance
box to the float rows of a box guaranteed to contain every reachable
successor. A margin's ``box_lower`` bounds the margin over one box, given as
float rows, by one float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .intervals import Box, amin, cos_interval, float_rows, linear_image, minimum, sin_interval


class InputDomainError(ValueError):
    """A state is not finite, or a control or disturbance lies outside its
    admissible box."""


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time uncertain system with box-bounded inputs.

    ``step`` must be deterministic and broadcast over the leading axes of
    ``x``, ``u`` and ``d`` together: states (..., state_dim), controls
    (..., control_dim) and disturbances (..., disturbance_dim) whose leading
    axes broadcast against each other, returning (..., state_dim). Value-grid
    queries rely on this to step a whole candidate lattice at once, and raise
    ``ValueError`` naming the model when the returned shape is wrong; the
    built-in models satisfy it. ``interval_step(X, U, D)`` takes the state,
    control and disturbance boxes as float rows ``((lower...), (upper...))``,
    two tuples of Python floats (see ``intervals.float_rows``), and returns
    the float rows of a superset of the true one-step image. A model whose
    ``step`` is nondecreasing in every argument gets its interval step by
    repeating ``step``'s operations on the lower row and on the upper row, as
    the double integrator and the planar robot do. ``linear_maps`` is the
    (A, B) pair of a linear model ``x' = A x + B u + d`` and None otherwise.
    ``continuous_affine`` is an optional (drift, input-matrix) pair f(x), g(x)
    for control-affine models; when present, ``step`` is the forward-Euler
    discretization of f(x) + g(x) u with the disturbance entering additively
    on the highest-order derivative.
    """

    state_dim: int
    control_dim: int
    disturbance_dim: int
    dt: float
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    control_set: Box
    disturbance_set: Box
    interval_step: Callable[[tuple, tuple, tuple], tuple]
    linear_maps: Optional[tuple[np.ndarray, np.ndarray]] = None
    continuous_affine: Optional[tuple[Callable, Callable]] = None
    name: str = ""

    def zero_disturbance(self) -> np.ndarray:
        return np.zeros(self.disturbance_dim)


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, tested on Python floats: a few
    times cheaper than ``np.isfinite(a).all()`` on the short vectors of one
    closed-loop step."""
    return all(map(math.isfinite, a.ravel().tolist()))


def step(model: SystemModel, x, u, d) -> np.ndarray:
    """Validated single step: raises ``InputDomainError`` for a non-finite state
    and for a control or disturbance outside its box (NaN included), and
    ``ValueError`` for a state, control or disturbance of the wrong shape."""
    x = np.asarray(x, dtype=np.float64)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    if x.shape != (model.state_dim,):
        raise ValueError(f"state has shape {x.shape}, the model's states ({model.state_dim},)")
    if not all_finite(x):
        raise InputDomainError(f"state {x} is not finite")
    if not model.control_set.contains(u):
        raise InputDomainError(f"control {u} outside admissible set")
    if not model.disturbance_set.contains(d):
        raise InputDomainError(f"disturbance {d} outside admissible set")
    return model.step(x, u, d)


def _check_positive(name: str, v: float) -> None:
    if not 0 < v < math.inf:
        raise ValueError(f"{name} must be positive" if v <= 0
                         else f"{name} must be finite, got {v!r}")


def _control_affine_model(
    name: str,
    bound_name: str,
    bound: float,
    d_max: float,
    dt: float,
    input_matrix,
    step_fn,
    interval_fn,
    drift,
) -> SystemModel:
    """The shared part of every built-in control-affine model: a NaN or
    infinite parameter, a control bound or ``dt`` that is not positive and a
    negative ``d_max`` raise ``ValueError`` naming the parameter. The controls
    form the box [-bound, bound]^m, m the columns of the constant, read-only
    input matrix g(x); the scalar disturbance d in [-d_max, d_max] enters
    ``step`` on the input channel, and a model with ``d_max`` 0 has a
    0-dimensional disturbance box."""
    _check_positive(bound_name, bound)
    if not 0 <= d_max < math.inf:
        raise ValueError("d_max must be nonnegative" if d_max < 0
                         else f"d_max must be finite, got {d_max!r}")
    _check_positive("dt", dt)
    g = np.array(input_matrix, dtype=np.float64)
    g.flags.writeable = False
    n, m = g.shape

    def input_map(x):
        return g

    return SystemModel(
        state_dim=n,
        control_dim=m,
        disturbance_dim=1 if d_max > 0 else 0,
        dt=dt,
        step=step_fn,
        control_set=Box([-bound] * m, [bound] * m),
        disturbance_set=Box([-d_max], [d_max]) if d_max > 0 else Box([], []),
        interval_step=interval_fn,
        continuous_affine=(drift, input_map),
        name=name,
    )


def _input_bounds(U, D, has_d: bool) -> tuple[float, float]:
    """Lower and upper bound of u + d on the shared scalar input channel, from
    the float rows U and D, formed as ``step`` forms them: u + 0.0 without a
    disturbance, so a -0.0 control gives +0.0."""
    (ul,), (uh,) = U
    if has_d:
        (dl,), (dh,) = D
        return ul + dl, uh + dh
    return ul + 0.0, uh + 0.0


def _scalar_inputs(u: np.ndarray, d: np.ndarray, has_d: bool):
    uu = u[..., 0]
    dd = d[..., 0] if has_d else 0.0
    return uu, dd


def make_double_integrator(u_max: float, d_max: float, dt: float) -> SystemModel:
    """1-d position/velocity benchmark: p' = p + v dt, v' = v + (u + d) dt."""
    has_d = d_max > 0

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        uu, dd = _scalar_inputs(u, d, has_d)
        p, v = x[..., 0], x[..., 1]
        v_next = v + (uu + dd) * dt
        out = np.empty(v_next.shape + (2,))
        np.add(p, v * dt, out=out[..., 0])
        out[..., 1] = v_next
        return out

    def interval_fn(X, U, D):
        # step_fn is nondecreasing in x, u and d, so its IEEE operations on the
        # lower row and on the upper row give the bounds
        (pl, vl), (ph, vh) = X
        wl, wh = _input_bounds(U, D, has_d)
        return (pl + vl * dt, vl + wl * dt), (ph + vh * dt, vh + wh * dt)

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = x[..., 1]
        out[..., 1] = 0.0
        return out

    return _control_affine_model("double_integrator", "u_max", u_max, d_max, dt,
                                 [[0.0], [1.0]], step_fn, interval_fn, drift)


def make_dubins_car(speed: float, omega_max: float, d_max: float, dt: float) -> SystemModel:
    """Planar unicycle at fixed speed; turn rate is the control, disturbance on heading rate."""
    _check_positive("speed", speed)
    has_d = d_max > 0

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        uu, dd = _scalar_inputs(u, d, has_d)
        px, py, th = x[..., 0], x[..., 1], x[..., 2]
        th_next = th + (uu + dd) * dt
        out = np.empty(th_next.shape + (3,))
        np.add(px, speed * np.cos(th) * dt, out=out[..., 0])
        np.add(py, speed * np.sin(th) * dt, out=out[..., 1])
        out[..., 2] = th_next
        return out

    def interval_fn(X, U, D):
        (xl, yl, al), (xh, yh, ah) = X  # a: the heading angle
        wl, wh = _input_bounds(U, D, has_d)
        cl, cu = cos_interval(al, ah)
        sl, su = sin_interval(al, ah)
        return (
            (xl + speed * cl * dt, yl + speed * sl * dt, al + wl * dt),
            (xh + speed * cu * dt, yh + speed * su * dt, ah + wh * dt),
        )

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        th = x[..., 2]
        out = np.empty(th.shape + (3,))
        np.multiply(speed, np.cos(th), out=out[..., 0])
        np.multiply(speed, np.sin(th), out=out[..., 1])
        out[..., 2] = 0.0
        return out

    return _control_affine_model("dubins_car", "omega_max", omega_max, d_max, dt,
                                 [[0.0], [0.0], [1.0]], step_fn, interval_fn, drift)


def make_inverted_pendulum(torque_max: float, d_max: float, dt: float) -> SystemModel:
    """Normalized pendulum: th'' = sin(th) + u + d (unit mass/length/gravity)."""
    has_d = d_max > 0

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        uu, dd = _scalar_inputs(u, d, has_d)
        th, om = x[..., 0], x[..., 1]
        om_next = om + (np.sin(th) + uu + dd) * dt
        out = np.empty(om_next.shape + (2,))
        np.add(th, om * dt, out=out[..., 0])
        out[..., 1] = om_next
        return out

    def interval_fn(X, U, D):
        # each rate bound repeats step_fn's association, (sin + u) + d with
        # d = 0.0 without a disturbance; IEEE addition is monotone in each operand
        (al, rl), (ah, rh) = X  # a: the angle, r: its rate
        (ul,), (uh,) = U
        (dl,), (dh,) = D if has_d else ((0.0,), (0.0,))
        sl, su = sin_interval(al, ah)
        return ((al + rl * dt, rl + ((sl + ul) + dl) * dt),
                (ah + rh * dt, rh + ((su + uh) + dh) * dt))

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = x[..., 1]
        np.sin(x[..., 0], out=out[..., 1])
        return out

    return _control_affine_model("inverted_pendulum", "torque_max", torque_max, d_max, dt,
                                 [[0.0], [1.0]], step_fn, interval_fn, drift)


def make_planar_double_integrator(u_max: float, dt: float) -> SystemModel:
    """Planar point robot: positions (px, py), velocities (vx, vy), per-axis
    acceleration bounds, no disturbance."""

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        p = x[..., :2]
        v = x[..., 2:]
        v_next = v + u * dt
        out = np.empty(v_next.shape[:-1] + (4,))
        np.add(p, v * dt, out=out[..., :2])
        out[..., 2:] = v_next
        return out

    def interval_fn(X, U, D):
        # step_fn is nondecreasing in x and u, so its IEEE operations on the
        # lower row and on the upper row give the bounds
        return tuple((px + vx * dt, py + vy * dt, vx + ax * dt, vy + ay * dt)
                     for (px, py, vx, vy), (ax, ay) in zip(X, U))

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[:-1] + (4,))
        out[..., :2] = x[..., 2:]
        out[..., 2:] = 0.0
        return out

    return _control_affine_model("planar_double_integrator", "u_max", u_max, 0.0, dt,
                                 [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                 step_fn, interval_fn, drift)


def make_linear_model(
    A: np.ndarray,
    B: np.ndarray,
    control_set: Box,
    dist_box: Box,
    dt: float = 1.0,
    name: str = "linear",
) -> SystemModel:
    """Discrete linear system x' = A x + B u + d with d in a full-state box."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n, m = B.shape
    if A.shape != (n, n):
        raise ValueError("A and B have inconsistent shapes")
    if control_set.dim != m:
        raise ValueError("control set dimension does not match B")
    if dist_box.dim not in (0, n):
        raise ValueError("disturbance box must be 0-d or state-dimensional")

    def step_fn(x, u, d):
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        out = x @ A.T + u @ B.T
        if dist_box.dim:
            out = out + d
        return out

    def interval_fn(X, U, D):
        out = linear_image(A, X) + linear_image(B, U)
        return float_rows(out + D if dist_box.dim else out)

    return SystemModel(
        state_dim=n,
        control_dim=m,
        disturbance_dim=dist_box.dim,
        dt=dt,
        step=step_fn,
        control_set=control_set,
        disturbance_set=dist_box,
        interval_step=interval_fn,
        linear_maps=(A, B),
        name=name,
    )


class MarginFunction:
    """Real-valued state function g; the failure set is {x : g(x) < 0}.

    ``box_lower`` (when available) returns a sound lower bound of g over one
    box as a float, used by the rollout filters for conservative tube checks.
    The box is given as float rows ``((lower...), (upper...))``, a ``Box`` or
    (2, n) bounds, converted by ``intervals.float_rows``; a stack of boxes
    raises ``ValueError``, as does a box of another dimension than the
    built-in bounds' normals or center. Infinite bounds can make the bound
    NaN, which proves nothing: a caller accepts a box only if its bound is
    ``>= 0``. The constructor's ``box_lower`` is that bound as a function of
    one box's float rows.

    ``halfspaces`` holds the (normal, offset) pairs of a halfspace margin or a
    min of halfspaces, g(x) = min_i normal_i . x - offset_i; it is None for
    any other margin.
    """

    def __init__(self, fn, box_lower=None, name: str = "", halfspaces=None):
        self._fn = fn
        self._box_lower = box_lower
        self.name = name
        self.halfspaces = halfspaces

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=np.float64))

    @property
    def has_box_lower(self) -> bool:
        return self._box_lower is not None

    def box_lower(self, bounds) -> float:
        if self._box_lower is None:
            raise ValueError(f"margin {self.name!r} has no box lower bound")
        return self._box_lower(float_rows(bounds))


def _halfspace_lower(halfspaces):
    """The box bound of a min of halfspaces on float rows: per halfspace
    ``-support(bounds, d) - offset`` with d = -normal, its terms summed from
    0.0 in order, the halfspaces folded by ``minimum``. For fewer than 8
    terms this is numpy's sum bit for bit; numpy sums longer rows pairwise."""
    pairs = tuple((tuple((-np.asarray(n, dtype=np.float64)).tolist()), float(offset))
                  for n, offset in halfspaces)
    n = len(pairs[0][0])
    if any(len(d) != n for d, _ in pairs):
        raise ValueError("halfspace normals differ in length")

    def box_lower(X):
        lower, upper = X
        if len(lower) != n or len(upper) != n:
            raise ValueError(f"box rows of lengths {len(lower)} and {len(upper)} "
                             f"for a halfspace normal of length {n}")
        out = None
        for d, offset in pairs:
            s = 0.0
            for dj, lo, hi in zip(d, lower, upper):
                s += dj * hi if dj >= 0.0 else dj * lo
            b = -s - offset
            out = b if out is None else minimum(out, b)
        return out

    return box_lower


def margin_halfspace(normal, offset: float) -> MarginFunction:
    """g(x) = normal . x - offset; failure is the halfspace normal . x < offset."""
    n = np.array(normal, dtype=np.float64)
    if not np.any(n != 0):
        raise ValueError("halfspace normal must be nonzero")
    n.flags.writeable = False
    offset = float(offset)

    def fn(x):
        return x @ n - offset

    halfspaces = ((n, offset),)
    return MarginFunction(fn, _halfspace_lower(halfspaces), name="halfspace",
                          halfspaces=halfspaces)


def margin_keepout_ball(center, radius: float) -> MarginFunction:
    """Signed distance to a keep-out ball: g(x) = ||x - c|| - r."""
    c = np.asarray(center, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def fn(x):
        return np.linalg.norm(x - c, axis=-1) - radius

    def box_lower(X):
        if len(X[0]) != c.size or len(X[1]) != c.size:
            raise ValueError(f"box rows of lengths {len(X[0])} and {len(X[1])} "
                             f"for a ball center of length {c.size}")
        diff = np.clip(c, X[0], X[1]) - c
        return float(np.sqrt(np.vecdot(diff, diff)) - radius)

    return MarginFunction(fn, box_lower, name="keepout_ball")


def margin_min(margins: list[MarginFunction]) -> MarginFunction:
    """Pointwise minimum; encodes the union of the children's failure sets."""
    if not margins:
        raise ValueError("margin_min needs at least one margin")

    def fn(x):
        vals = [m(x) for m in margins]
        out = vals[0]
        for v in vals[1:]:
            out = np.minimum(out, v)
        return out

    halfspaces = box_lower = None
    if all(m.halfspaces is not None for m in margins):
        halfspaces = tuple(h for m in margins for h in m.halfspaces)
        box_lower = _halfspace_lower(halfspaces)
    elif all(m.has_box_lower for m in margins):
        parts = [m._box_lower for m in margins]

        def box_lower(X):
            return amin([b(X) for b in parts])

    return MarginFunction(fn, box_lower, name="min", halfspaces=halfspaces)


def _cartesian(coords: Sequence[np.ndarray]) -> np.ndarray:
    """Cartesian product of per-dimension coordinates, (N, dim), row-major
    (first dimension slowest); no coordinates give one 0-dimensional point."""
    out = np.empty(tuple(c.size for c in coords) + (len(coords),))
    for j, c in enumerate(coords):
        out[..., j] = c.reshape((-1,) + (1,) * (len(coords) - 1 - j))
    return out.reshape(math.prod(c.size for c in coords), len(coords))


def discretize_box(box: Box, counts) -> np.ndarray:
    """Regular lattice over a box, corners included; a count of 1 gives the center.

    Returns a float (k, dim) array, one candidate per row in row-major order
    (first dimension slowest); a 0-dimensional box gives the single empty
    candidate, shape (1, 0).
    """
    counts = [int(c) for c in np.atleast_1d(counts)]
    if len(counts) != box.dim:
        raise ValueError("counts length must match box dimension")
    if any(c < 1 for c in counts):
        raise ValueError("counts must be at least 1 per dimension")
    return _cartesian([
        np.array([0.5 * (lo + hi)]) if c == 1 else np.linspace(lo, hi, c)
        for lo, hi, c in zip(box.lower, box.upper, counts)
    ])


def as_lattice(candidates) -> np.ndarray:
    """Candidates as a float (k, dim) lattice, one candidate per row.

    A 2-d array passes through; a list of candidates (1-d arrays or scalars)
    is stacked.
    """
    if isinstance(candidates, np.ndarray) and candidates.ndim == 2:
        return candidates.astype(np.float64, copy=False)
    return np.stack([np.atleast_1d(np.asarray(c, dtype=np.float64)) for c in candidates])
