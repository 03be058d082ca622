"""Braking filter for a robot exploring an initially unmapped world.

The information state is the robot's (perfectly known) physical state plus the
set of grid cells it has confirmed free so far. Sensing only ever adds cells,
so the known free space grows monotonically - the property that makes the
braking certificate persist across steps. The monitor accepts a control only
if, after applying it, the braking fallback reaches rest within the remaining
horizon while every traversed cell is already known free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemModel
from .filters import Monitor, SafetyFilter
from .shielding import _REST_EPS, _braking_control


@dataclass(frozen=True)
class OccupancyWorld:
    """Static occupancy grid. '1' cells are occupied, '0' cells free; the first
    text line is the top row. World x runs along columns, y up along rows, with
    cell (0, 0) spanning [0, cell_size)^2. Cells outside the grid are treated
    as occupied."""

    occupied: np.ndarray
    cell_size: float

    def __post_init__(self):
        occ = np.asarray(self.occupied, dtype=bool)
        if occ.ndim != 2:
            raise ValueError("occupancy array must be 2-d")
        occ.flags.writeable = False
        object.__setattr__(self, "occupied", occ)
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")

    @staticmethod
    def from_text(text: str, cell_size: float) -> "OccupancyWorld":
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines:
            raise ValueError("empty occupancy grid")
        width = len(lines[0])
        rows = []
        for ln in lines:
            if len(ln) != width:
                raise ValueError("ragged occupancy grid")
            if any(ch not in "01" for ch in ln):
                raise ValueError("occupancy grid must contain only 0 and 1")
            rows.append([ch == "1" for ch in ln])
        return OccupancyWorld(np.array(rows, dtype=bool), cell_size)

    @property
    def shape(self) -> tuple[int, int]:
        """(columns, rows) in world orientation."""
        return self.occupied.shape[1], self.occupied.shape[0]

    def is_free_cell(self, ix: int, iy: int) -> bool:
        cols, rows = self.shape
        if not (0 <= ix < cols and 0 <= iy < rows):
            return False
        return not self.occupied[rows - 1 - iy, ix]


def load_occupancy_world(path, cell_size: float) -> OccupancyWorld:
    with open(path) as f:
        return OccupancyWorld.from_text(f.read(), cell_size)


def _point_cells(p, cell_size: float) -> set[tuple[int, int]]:
    """Cells touched by a point; points exactly on a cell boundary touch both sides."""
    cells_x = []
    cells_y = []
    for coord, cells in ((p[0], cells_x), (p[1], cells_y)):
        s = coord / cell_size
        i = math.floor(s)
        cells.append(i)
        if s == i:  # on a boundary line
            cells.append(i - 1)
    return {(ix, iy) for ix in cells_x for iy in cells_y}


def segment_cells(p0, p1, cell_size: float) -> set[tuple[int, int]]:
    """All grid cells the closed segment [p0, p1] touches (supercover walk, so
    fast motion cannot tunnel between cell checks)."""
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    cells = _point_cells(p0, cell_size) | _point_cells(p1, cell_size)
    x0, y0 = p0 / cell_size
    x1, y1 = p1 / cell_size
    ix, iy = math.floor(x0), math.floor(y0)
    ix1, iy1 = math.floor(x1), math.floor(y1)
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    inf = math.inf
    t_max_x = inf if dx == 0 else (((ix + (step_x > 0)) - x0) / dx)
    t_max_y = inf if dy == 0 else (((iy + (step_y > 0)) - y0) / dy)
    t_delta_x = inf if dx == 0 else abs(1.0 / dx)
    t_delta_y = inf if dy == 0 else abs(1.0 / dy)
    cells.add((ix, iy))
    guard = abs(ix1 - ix) + abs(iy1 - iy) + 4
    for _ in range(2 * guard):
        if ix == ix1 and iy == iy1:
            break
        if t_max_x < t_max_y:
            ix += step_x
            t_max_x += t_delta_x
        elif t_max_y < t_max_x:
            iy += step_y
            t_max_y += t_delta_y
        else:  # exact corner crossing: include both side cells
            cells.add((ix + step_x, iy))
            cells.add((ix, iy + step_y))
            ix += step_x
            iy += step_y
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        cells.add((ix, iy))
    return cells


class ExplorationFilter(SafetyFilter):
    """Stop-in-known-free-space filter over information states.

    The known free set is episode-local; ``observe`` reveals every world-free
    cell whose center lies within the sensor radius of the robot. The monitor
    returns +1 only if, after the candidate control, braking reaches rest
    within horizon-1 steps with every traversed cell already known free, and
    -1 otherwise; failing candidates are overridden with the braking control.
    """

    def __init__(
        self,
        model: SystemModel,
        sensor_radius: float,
        world: OccupancyWorld,
        horizon: int,
    ):
        if model.state_dim != 4 or model.control_dim != 2:
            raise ValueError("exploration filter expects the planar double integrator")
        if sensor_radius <= 0:
            raise ValueError("sensor_radius must be positive")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.model = model
        self.sensor_radius = sensor_radius
        self.world = world
        self.horizon = horizon
        self.known: set[tuple[int, int]] = set()
        self._u_max = float(model.control_set.upper[0])
        monitor = Monitor(self._monitor_value, name="brake_in_known_free")
        super().__init__(monitor, self._braking, "exploration",
                         state_dim=model.state_dim, control_dim=model.control_dim)

    def reset(self, x0=None) -> None:
        self.last_degraded = False
        self.known = set()
        if x0 is not None:
            self.observe(x0)

    def observe(self, x) -> None:
        pos = np.asarray(x, dtype=np.float64)[:2]
        c = self.world.cell_size
        r = self.sensor_radius
        ix_lo = math.floor((pos[0] - r) / c)
        ix_hi = math.floor((pos[0] + r) / c)
        iy_lo = math.floor((pos[1] - r) / c)
        iy_hi = math.floor((pos[1] + r) / c)
        for ix in range(ix_lo, ix_hi + 1):
            for iy in range(iy_lo, iy_hi + 1):
                if (ix, iy) in self.known:
                    continue
                center = np.array([(ix + 0.5) * c, (iy + 0.5) * c])
                if np.hypot(*(center - pos)) <= r and self.world.is_free_cell(ix, iy):
                    self.known.add((ix, iy))

    def _braking(self, x) -> np.ndarray:
        """The exact-stop brake on each velocity axis: the braking law with
        no band limit."""
        u_max, dt = self._u_max, self.model.dt
        v = np.asarray(x, dtype=np.float64)[2:].tolist()
        return np.array([_braking_control(vi, u_max, dt, math.inf) for vi in v])

    def _segment_known(self, p0, p1) -> bool:
        return segment_cells(p0, p1, self.world.cell_size) <= self.known

    def _monitor_value(self, x, u) -> float:
        x = np.asarray(x, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        d0 = self.model.zero_disturbance()
        nxt = self.model.step(x, u, d0)
        if not self._segment_known(x[:2], nxt[:2]):
            return -1.0
        current = nxt
        for _ in range(self.horizon - 1):
            if np.all(np.abs(current[2:]) <= _REST_EPS):
                return 1.0
            after = self.model.step(current, self._braking(current), d0)
            if not self._segment_known(current[:2], after[:2]):
                return -1.0
            current = after
        return 1.0 if np.all(np.abs(current[2:]) <= _REST_EPS) else -1.0


def exploration_filter(
    robot_model: SystemModel,
    sensor_radius: float,
    world: OccupancyWorld,
    horizon: int,
) -> ExplorationFilter:
    return ExplorationFilter(robot_model, sensor_radius, world, horizon)
