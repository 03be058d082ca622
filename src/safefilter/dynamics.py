"""System models, margin functions, and benchmark instances shared by all filters.

Models are discrete-time with bounded control and disturbance boxes:
``x' = step(x, u, d)``. Every built-in model also carries a conservative
interval step that maps state, control and disturbance bounds ``[lower,
upper]`` to bounds guaranteed to contain every reachable successor.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .intervals import Box, cos_interval, float_rows, linear_image, sin_interval, support


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
    built-in models satisfy it. ``interval_step(X, U, D)`` takes the
    ``[lower, upper]`` bounds of a state, control and disturbance box and
    returns the bounds of a superset of the true one-step image. The bounds
    may be (2, n) arrays, ``Box``es or, from the MPS tube, float rows
    ``((lower...), (upper...))`` (see ``intervals.float_rows``); ``np.asarray``
    turns each into a (2, n) array, and the tube takes an array, a ``Box`` or
    float rows back. A model whose ``step`` is nondecreasing in every argument
    may pass ``step`` itself: broadcast over the two rows, it maps lower bounds
    to lower bounds and upper to upper. The double integrator instead repeats
    ``step``'s operations on each row on Python floats, which is bit for bit
    the same and cheaper on (2, 2) bounds; float rows in give float rows out,
    so the tube never converts its boxes. ``linear_maps`` is the (A, B) pair
    of a linear model ``x' = A x + B u + d`` and None otherwise. ``continuous_affine`` is an optional
    (drift, input-matrix) pair f(x), g(x) for control-affine models; when
    present, ``step`` is the forward-Euler discretization of f(x) + g(x) u with
    the disturbance entering additively on the highest-order derivative.
    """

    state_dim: int
    control_dim: int
    disturbance_dim: int
    dt: float
    step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    control_set: Box
    disturbance_set: Box
    interval_step: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
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
    ``ValueError`` for a control or disturbance of the wrong size."""
    x = np.asarray(x, dtype=np.float64)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    if not all_finite(x):
        raise InputDomainError(f"state {x} is not finite")
    if not model.control_set.contains(u):
        raise InputDomainError(f"control {u} outside admissible set")
    if not model.disturbance_set.contains(d):
        raise InputDomainError(f"disturbance {d} outside admissible set")
    return model.step(x, u, d)


def _constant_matrix(rows) -> np.ndarray:
    """A read-only float matrix, built once for a model's constant g(x)."""
    g = np.array(rows, dtype=np.float64)
    g.flags.writeable = False
    return g


def _input_channel(U, D) -> np.ndarray:
    """Bounds [lower, upper] of (u + d) on the shared scalar input channel."""
    U, D = np.asarray(U, dtype=np.float64), np.asarray(D, dtype=np.float64)
    return U[:, 0] + D[:, 0] if D.shape[1] else U[:, 0]


def _scalar_inputs(u: np.ndarray, d: np.ndarray, has_d: bool):
    uu = u[..., 0]
    dd = d[..., 0] if has_d else 0.0
    return uu, dd


def make_double_integrator(u_max: float, d_max: float, dt: float) -> SystemModel:
    """1-d position/velocity benchmark: p' = p + v dt, v' = v + (u + d) dt."""
    if u_max <= 0:
        raise ValueError("u_max must be positive")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    has_d = d_max > 0
    n_d = 1 if has_d else 0

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
        # lower row and on the upper row give the bounds; on Python floats,
        # without numpy's fixed cost per call on these (2, 2) bounds. Float
        # rows in give float rows out; arrays or boxes give a (2, 2) array.
        rows = float_rows(X)
        (pl, vl), (ph, vh) = rows
        (ul,), (uh,) = float_rows(U)
        if has_d:
            (dl,), (dh,) = float_rows(D)
        else:
            dl = dh = 0.0  # u + 0.0, so a -0.0 control gives +0.0 as in step_fn
        out = ((pl + vl * dt, vl + (ul + dl) * dt), (ph + vh * dt, vh + (uh + dh) * dt))
        return out if rows is X else np.array(out)

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = x[..., 1]
        out[..., 1] = 0.0
        return out

    g = _constant_matrix([[0.0], [1.0]])

    def input_map(x):
        return g

    return SystemModel(
        state_dim=2,
        control_dim=1,
        disturbance_dim=n_d,
        dt=dt,
        step=step_fn,
        control_set=Box([-u_max], [u_max]),
        disturbance_set=Box([-d_max], [d_max]) if has_d else Box([], []),
        interval_step=interval_fn,
        continuous_affine=(drift, input_map),
        name="double_integrator",
    )


def make_dubins_car(speed: float, omega_max: float, d_max: float, dt: float) -> SystemModel:
    """Planar unicycle at fixed speed; turn rate is the control, disturbance on heading rate."""
    if speed <= 0:
        raise ValueError("speed must be positive")
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    has_d = d_max > 0
    n_d = 1 if has_d else 0

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

    def interval_fn(X, U, D) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        w = _input_channel(U, D)
        tlo, thi = float(X[0, 2]), float(X[1, 2])
        cl, cu = cos_interval(tlo, thi)
        sl, su = sin_interval(tlo, thi)
        return np.array(
            [
                [X[0, 0] + speed * cl * dt, X[0, 1] + speed * sl * dt, tlo + w[0] * dt],
                [X[1, 0] + speed * cu * dt, X[1, 1] + speed * su * dt, thi + w[1] * dt],
            ]
        )

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        th = x[..., 2]
        out = np.empty(th.shape + (3,))
        np.multiply(speed, np.cos(th), out=out[..., 0])
        np.multiply(speed, np.sin(th), out=out[..., 1])
        out[..., 2] = 0.0
        return out

    g = _constant_matrix([[0.0], [0.0], [1.0]])

    def input_map(x):
        return g

    return SystemModel(
        state_dim=3,
        control_dim=1,
        disturbance_dim=n_d,
        dt=dt,
        step=step_fn,
        control_set=Box([-omega_max], [omega_max]),
        disturbance_set=Box([-d_max], [d_max]) if has_d else Box([], []),
        interval_step=interval_fn,
        continuous_affine=(drift, input_map),
        name="dubins_car",
    )


def make_inverted_pendulum(torque_max: float, d_max: float, dt: float) -> SystemModel:
    """Normalized pendulum: th'' = sin(th) + u + d (unit mass/length/gravity)."""
    if torque_max <= 0:
        raise ValueError("torque_max must be positive")
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    has_d = d_max > 0
    n_d = 1 if has_d else 0

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

    def interval_fn(X, U, D) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        w = _input_channel(U, D)
        tlo, thi = float(X[0, 0]), float(X[1, 0])
        sl, su = sin_interval(tlo, thi)
        return np.array(
            [
                [tlo + X[0, 1] * dt, X[0, 1] + (sl + w[0]) * dt],
                [thi + X[1, 1] * dt, X[1, 1] + (su + w[1]) * dt],
            ]
        )

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty(x.shape[:-1] + (2,))
        out[..., 0] = x[..., 1]
        np.sin(x[..., 0], out=out[..., 1])
        return out

    g = _constant_matrix([[0.0], [1.0]])

    def input_map(x):
        return g

    return SystemModel(
        state_dim=2,
        control_dim=1,
        disturbance_dim=n_d,
        dt=dt,
        step=step_fn,
        control_set=Box([-torque_max], [torque_max]),
        disturbance_set=Box([-d_max], [d_max]) if has_d else Box([], []),
        interval_step=interval_fn,
        continuous_affine=(drift, input_map),
        name="inverted_pendulum",
    )


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

    def interval_fn(X, U, D) -> np.ndarray:
        out = linear_image(A, X) + linear_image(B, U)
        return out + D if dist_box.dim else out

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

    ``box_lower`` (when available) returns a sound lower bound of g over a box
    given as [lower, upper] bounds, used by the rollout filters for conservative
    tube checks. It takes a stack of bounds (..., 2, n) and returns one bound per
    box (...,); a single box (2, n), or a ``Box``, gives a float.

    ``halfspaces`` holds the (normal, offset) pairs of a halfspace margin or a
    min of halfspaces, g(x) = min_i normal_i . x - offset_i; it is None for
    any other margin. ``float_halfspaces`` holds them again on Python floats
    for ``halfspace_lower``, which bounds one box given as float rows bit for
    bit as ``box_lower`` does.
    """

    def __init__(self, fn, gradient=None, box_lower=None, name: str = "", halfspaces=None):
        self._fn = fn
        self._gradient = gradient
        self._box_lower = box_lower
        self.name = name
        self.halfspaces = halfspaces

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=np.float64))

    @property
    def has_gradient(self) -> bool:
        return self._gradient is not None

    def gradient(self, x) -> np.ndarray:
        if self._gradient is None:
            raise ValueError(f"margin {self.name!r} has no gradient")
        return np.asarray(self._gradient(np.asarray(x, dtype=np.float64)), dtype=np.float64)

    @property
    def has_box_lower(self) -> bool:
        return self._box_lower is not None

    def box_lower(self, bounds):
        if self._box_lower is None:
            raise ValueError(f"margin {self.name!r} has no box lower bound")
        out = self._box_lower(np.asarray(bounds, dtype=np.float64))
        return float(out) if np.ndim(out) == 0 else out

    @functools.cached_property
    def float_halfspaces(self):
        """``halfspaces`` as (-normal, offset) pairs of float tuples, or None
        for a margin without them or without ``box_lower``, and for normals of
        8 or more entries, which numpy sums pairwise instead of in order."""
        if self.halfspaces is None or self._box_lower is None:
            return None
        pairs = tuple((tuple((-np.asarray(n, dtype=np.float64)).tolist()), float(offset))
                      for n, offset in self.halfspaces)
        return pairs if pairs and all(len(d) < 8 for d, _ in pairs) else None


def halfspace_lower(float_halfspaces, lower, upper) -> float:
    """``box_lower`` of a min of halfspaces over the box with float rows
    ``lower``, ``upper``, on Python floats and bit for bit: per halfspace
    ``-support(bounds, d) - offset`` with d = -normal, its terms summed from
    0.0 in order as numpy sums fewer than 8 of them; the halfspaces folded as
    ``functools.reduce(np.minimum, ...)`` folds them (a NaN wins)."""
    out = None
    for d, offset in float_halfspaces:
        s = 0.0
        for dj, lo, hi in zip(d, lower, upper):
            s += dj * hi if dj >= 0.0 else dj * lo
        b = -s - offset
        if out is None or not (out < b or out != out):
            out = b
    return out


def margin_halfspace(normal, offset: float) -> MarginFunction:
    """g(x) = normal . x - offset; failure is the halfspace normal . x < offset."""
    n = np.array(normal, dtype=np.float64)
    if not np.any(n != 0):
        raise ValueError("halfspace normal must be nonzero")
    n.flags.writeable = False
    offset = float(offset)

    def fn(x):
        return x @ n - offset

    def grad(x):
        return np.broadcast_to(n, x.shape).copy() if x.ndim > 1 else n.copy()

    d = -n

    def box_lower(B):  # minus the support of -n over each box, minus the offset
        return -support(B, d) - offset

    return MarginFunction(fn, grad, box_lower, name="halfspace", halfspaces=((n, offset),))


def margin_keepout_ball(center, radius: float) -> MarginFunction:
    """Signed distance to a keep-out ball: g(x) = ||x - c|| - r."""
    c = np.asarray(center, dtype=np.float64)
    if radius <= 0:
        raise ValueError("radius must be positive")

    def fn(x):
        return np.linalg.norm(x - c, axis=-1) - radius

    def grad(x):  # per-row unit direction; zero subgradient at the center
        diff = x - c
        nrm = np.linalg.norm(diff, axis=-1, keepdims=True)
        with np.errstate(invalid="ignore"):
            return np.where(nrm > 0.0, diff / nrm, 0.0)

    def box_lower(B):
        diff = np.clip(c, B[..., 0, :], B[..., 1, :]) - c
        return np.sqrt(np.vecdot(diff, diff)) - radius

    return MarginFunction(fn, grad, box_lower, name="keepout_ball")


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

    grad = None
    if all(m.has_gradient for m in margins):

        def grad(x):  # noqa: F811 - per row, gradient of the first active margin
            vals = np.stack([np.broadcast_to(m(x), x.shape[:-1]) for m in margins])
            grads = np.stack([m.gradient(x) for m in margins])
            active = np.argmin(vals, axis=0)[None, ..., None]
            return np.take_along_axis(grads, active, axis=0)[0]

    box_lower = None
    if all(m.has_box_lower for m in margins):

        def box_lower(B):  # noqa: F811
            return functools.reduce(np.minimum, [m.box_lower(B) for m in margins])

    halfspaces = None
    if all(m.halfspaces is not None for m in margins):
        halfspaces = tuple(h for m in margins for h in m.halfspaces)
    return MarginFunction(fn, grad, box_lower, name="min", halfspaces=halfspaces)


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
