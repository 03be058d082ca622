"""Axis-aligned boxes and sound interval arithmetic.

An interval step, a fallback's control enclosure and a terminal set's box
check take each box as float rows: a tuple ``((lower...), (upper...))`` of two
tuples of Python floats, immutable and free of numpy's fixed cost per call on
these short rows. ``float_rows`` converts a ``Box`` or (2, n) bounds to them.
The tube-MPC tightening works on stacks of (2, n) bound arrays, row 0 the
lower bounds and row 1 the upper ones; ``np.asarray`` turns float rows or a
``Box`` into one. ``Box`` is the validated public value type
for control, disturbance and domain sets. All enclosures here are
conservative: rounding at piece boundaries is absorbed by a small outward
guard where exactness cannot be promised.

``minimum``, ``maximum``, ``amin`` and ``first_min`` are numpy's float
reductions on Python floats, and the package's one copy of its NaN and tie
rule: a NaN operand wins, and a tie (0.0 against -0.0 too) takes the later
operand. ``first_min`` picks an index instead, so there a NaN never wins.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# libm sin/cos are not guaranteed monotone to the last ulp, so trig enclosures
# are widened by this before clamping to [-1, 1].
_TRIG_GUARD = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}.

    Zero-width boxes (points) and 0-dimensional boxes are valid; a NaN bound
    or a lower bound above its upper one raises ``ValueError``.
    ``np.asarray(box)`` gives its (2, dim) bounds and ``float_rows(box)`` its
    float rows.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not (lo <= hi).all():
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise ValueError("box bounds must not be NaN")
            raise ValueError("box lower bound exceeds upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # the bounds again as float rows, so point checks and interval steps
        # need no numpy calls
        object.__setattr__(self, "_float_rows", (tuple(lo.tolist()), tuple(hi.tolist())))

    def __array__(self, dtype=None, copy=None):
        return np.array([self.lower, self.upper], dtype=dtype)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, x, tol: float = 0.0) -> bool:
        """True if every coordinate of x lies in [lower - tol, upper + tol];
        a NaN coordinate lies in no box."""
        vals = np.asarray(x, dtype=np.float64).reshape(-1).tolist()
        if len(vals) != self.dim:
            raise ValueError(f"point has dimension {len(vals)}, box has {self.dim}")
        lower, upper = self._float_rows
        for v, lo, hi in zip(vals, lower, upper):
            if not lo - tol <= v <= hi + tol:
                return False
        return True

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform sample(s); shape (dim,) if n is None else (n, dim)."""
        size = (self.dim,) if n is None else (n, self.dim)
        u = rng.uniform(size=size)
        return self.lower + u * (self.upper - self.lower)


def float_rows(bounds) -> tuple:
    """(2, n) bounds, or a ``Box``, as float rows ``((lower...), (upper...))``;
    float rows come back as they are. Bounds of another shape raise
    ``ValueError``."""
    if type(bounds) is tuple and type(bounds[0]) is tuple:
        return bounds
    if isinstance(bounds, Box):
        return bounds._float_rows
    arr = np.asarray(bounds, dtype=np.float64)
    if arr.ndim != 2 or len(arr) != 2:
        raise ValueError(f"bounds must be (2, n), got shape {arr.shape}")
    lo, hi = arr.tolist()
    return tuple(lo), tuple(hi)


def minimum(a: float, b: float) -> float:
    """``np.minimum(a, b)`` on floats."""
    return a if a < b or a != a else b


def maximum(a: float, b: float) -> float:
    """``np.maximum(a, b)`` on floats."""
    return a if a > b or a != a else b


def amin(values: list) -> float:
    """``ndarray.min`` of a nonempty list of floats, bit for bit up to 8
    values. Longer rows run numpy's vector loop, which may break a 0.0/-0.0
    tie the other way; interpolated values are never -0.0, so only a -0.0
    sentinel could show it."""
    least = values[0]
    for v in values:
        if not least < v and least == least:
            least = v
    return least


def first_min(values: list) -> int:
    """``np.argmin(np.fmin(values, inf))`` of a list of floats: the index of
    the least value, the lowest index on ties. A NaN never wins, and when no
    value is below +inf (all NaN or +inf) the answer is 0."""
    best, least = 0, math.inf
    for i, v in enumerate(values):
        if v < least:  # False for NaN
            best, least = i, v
    return best


def support(bounds, direction) -> np.ndarray:
    """max of direction . x over each box of a (..., 2, n) bound stack; the
    direction (..., n) broadcasts against the stack's leading axes."""
    d = np.asarray(direction, dtype=np.float64)
    return np.sum(np.where(d >= 0, d * bounds[..., 1, :], d * bounds[..., 0, :]), axis=-1)


def linear_image(M: np.ndarray, bounds) -> np.ndarray:
    """Exact interval image {M x : x in bounds} of (2, n) bounds, float rows
    or a Box under a linear map, as (2, m) bounds."""
    M = np.asarray(M, dtype=np.float64)
    lo, hi = np.asarray(bounds, dtype=np.float64)
    lo_terms = np.minimum(M * lo, M * hi)
    hi_terms = np.maximum(M * lo, M * hi)
    return np.stack([lo_terms.sum(axis=1), hi_terms.sum(axis=1)])


def _has_critical_point(lo: float, hi: float, phase: float) -> bool:
    """True if phase + 2*pi*k lies in [lo, hi] for some integer k."""
    two_pi = 2.0 * math.pi
    k_min = math.ceil((lo - phase) / two_pi)
    return phase + k_min * two_pi <= hi


def cos_interval(lo: float, hi: float) -> tuple[float, float]:
    """Sound enclosure of {cos(t) : lo <= t <= hi}."""
    if hi < lo:
        raise ValueError("empty angle interval")
    if hi - lo >= 2.0 * math.pi:
        return (-1.0, 1.0)
    c_lo, c_hi = math.cos(lo), math.cos(hi)
    vmin, vmax = min(c_lo, c_hi), max(c_lo, c_hi)
    if _has_critical_point(lo, hi, 0.0):  # maxima at 2*pi*k
        vmax = 1.0
    if _has_critical_point(lo, hi, math.pi):  # minima at pi + 2*pi*k
        vmin = -1.0
    return (max(-1.0, vmin - _TRIG_GUARD), min(1.0, vmax + _TRIG_GUARD))


def sin_interval(lo: float, hi: float) -> tuple[float, float]:
    """Sound enclosure of {sin(t) : lo <= t <= hi}."""
    if hi < lo:
        raise ValueError("empty angle interval")
    if hi - lo >= 2.0 * math.pi:
        return (-1.0, 1.0)
    s_lo, s_hi = math.sin(lo), math.sin(hi)
    vmin, vmax = min(s_lo, s_hi), max(s_lo, s_hi)
    if _has_critical_point(lo, hi, 0.5 * math.pi):  # maxima at pi/2 + 2*pi*k
        vmax = 1.0
    if _has_critical_point(lo, hi, -0.5 * math.pi):  # minima at -pi/2 + 2*pi*k
        vmin = -1.0
    return (max(-1.0, vmin - _TRIG_GUARD), min(1.0, vmax + _TRIG_GUARD))
