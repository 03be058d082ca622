"""Axis-aligned boxes and sound interval arithmetic.

Boxes represent control/disturbance bounds and reachable-set over-approximations.
All enclosures here are conservative: rounding at piece boundaries is absorbed by
a small outward guard where exactness cannot be promised.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# libm sin/cos are not guaranteed monotone to the last ulp, so trig enclosures
# are widened by this before clamping to [-1, 1].
_TRIG_GUARD = 1e-12


@dataclass(frozen=True)
class Box:
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

    @staticmethod
    def point(x) -> "Box":
        x = np.asarray(x, dtype=np.float64)
        return Box(x.copy(), x.copy())

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

    def contains(self, x, tol: float = 0.0) -> bool:
        if self.empty:
            return False
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if x.size != self.dim:
            raise ValueError(f"point has dimension {x.size}, box has {self.dim}")
        if self.dim == 0:
            return True
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def contains_box(self, other: "Box", tol: float = 0.0) -> bool:
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

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform sample(s); shape (dim,) if n is None else (n, dim)."""
        if self.empty:
            raise ValueError("cannot sample from an empty box")
        size = (self.dim,) if n is None else (n, self.dim)
        u = rng.uniform(size=size)
        return self.lower + u * (self.upper - self.lower)

    def corners(self) -> list[np.ndarray]:
        """All 2^dim corner points (a single empty point for a 0-d box)."""
        if self.dim == 0:
            return [np.zeros(0)]
        out = []
        for bits in product((0, 1), repeat=self.dim):
            out.append(np.where(np.asarray(bits, dtype=bool), self.upper, self.lower))
        return out

    def shift(self, v) -> "Box":
        v = np.asarray(v, dtype=np.float64)
        return Box(self.lower + v, self.upper + v)

    def add(self, other: "Box") -> "Box":
        """Minkowski sum with another box of the same dimension."""
        return Box(self.lower + other.lower, self.upper + other.upper)

    def widen(self, margin) -> "Box":
        m = np.broadcast_to(np.asarray(margin, dtype=np.float64), (self.dim,))
        if np.any(m < 0):
            raise ValueError("widening margin must be nonnegative")
        return Box(self.lower - m, self.upper + m)

    def shrink(self, margin) -> "Box":
        """Erode each face inward; returns an empty-flagged box if nothing is left."""
        m = np.broadcast_to(np.asarray(margin, dtype=np.float64), (self.dim,))
        lo, hi = self.lower + m, self.upper - m
        if np.any(lo > hi):
            return Box(np.minimum(lo, hi), np.minimum(lo, hi), empty=True)
        return Box(lo, hi)

    def intersect(self, other: "Box") -> "Box":
        lo = np.maximum(self.lower, other.lower)
        hi = np.minimum(self.upper, other.upper)
        if self.dim and bool(np.any(lo > hi)):
            return Box(np.minimum(lo, hi), np.minimum(lo, hi), empty=True)
        return Box(lo, hi)

    def hull(self, other: "Box") -> "Box":
        if self.empty:
            return other
        if other.empty:
            return self
        return Box(np.minimum(self.lower, other.lower), np.maximum(self.upper, other.upper))

    def support(self, direction) -> float:
        """max over the box of direction . x."""
        d = np.asarray(direction, dtype=np.float64)
        return float(np.sum(np.where(d >= 0, d * self.upper, d * self.lower)))


def as_box(u) -> Box:
    """Coerce a point or Box to a Box (points become degenerate boxes)."""
    return u if isinstance(u, Box) else Box.point(u)


def linear_image(M: np.ndarray, box: Box) -> Box:
    """Exact interval image {M x : x in box} of a box under a linear map."""
    M = np.asarray(M, dtype=np.float64)
    lo_terms = np.minimum(M * box.lower, M * box.upper)
    hi_terms = np.maximum(M * box.lower, M * box.upper)
    return Box(lo_terms.sum(axis=1), hi_terms.sum(axis=1))


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
