import numpy as np
import pytest

from safefilter import (
    DeploymentRejected,
    OccupancyWorld,
    decide,
    exploration_filter,
    load_occupancy_world,
    make_planar_double_integrator,
    run_episode,
)
from safefilter.dynamics import MarginFunction
from safefilter.exploration import segment_cells

WORLD_TEXT = """
1111111111
1000000001
1000000001
1000110001
1000110001
1000000001
1111111111
"""


@pytest.fixture
def world():
    return OccupancyWorld.from_text(WORLD_TEXT, cell_size=0.5)


@pytest.fixture
def robot():
    return make_planar_double_integrator(u_max=1.0, dt=0.1)


def test_world_parsing(world):
    cols, rows = world.shape
    assert (cols, rows) == (10, 7)
    assert not world.is_free_cell(0, 0)  # border wall
    assert world.is_free_cell(1, 1)
    assert not world.is_free_cell(4, 2)  # interior block (text row 4 from top)
    assert not world.is_free_cell(-1, 3)  # out of bounds counts occupied


def test_world_file_round_trip(tmp_path, world):
    path = tmp_path / "world.txt"
    path.write_text(WORLD_TEXT.strip() + "\n")
    loaded = load_occupancy_world(path, 0.5)
    assert np.array_equal(loaded.occupied, world.occupied)


def test_world_rejects_bad_text():
    with pytest.raises(ValueError):
        OccupancyWorld.from_text("101\n10", 0.5)
    with pytest.raises(ValueError):
        OccupancyWorld.from_text("1x1", 0.5)


def test_segment_cells_covers_path():
    cells = segment_cells(np.array([0.25, 0.25]), np.array([1.75, 0.25]), 0.5)
    assert {(0, 0), (1, 0), (2, 0), (3, 0)} <= cells
    diag = segment_cells(np.array([0.25, 0.25]), np.array([1.25, 1.25]), 0.5)
    assert (0, 0) in diag and (2, 2) in diag
    corner = segment_cells(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 0.5)
    # exact corner crossing includes both side cells
    assert {(0, 1), (1, 0)} <= corner


def test_reveal_is_monotone(world, robot):
    flt = exploration_filter(robot, sensor_radius=1.0, world=world, horizon=10)
    flt.reset(np.array([1.0, 1.0, 0.0, 0.0]))
    k0 = set(flt.known)
    assert k0  # initial cells revealed
    flt.observe(np.array([2.0, 1.5, 0.0, 0.0]))
    k1 = set(flt.known)
    assert k0 <= k1
    # occupied cells are never added
    assert all(world.is_free_cell(*c) for c in k1)


def test_at_rest_in_known_space_passes(world, robot):
    flt = exploration_filter(robot, sensor_radius=1.2, world=world, horizon=10)
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    flt.reset(x0)
    u = np.array([0.0, 0.0])
    assert flt.monitor(x0, u) == 1.0
    assert flt.intervene(x0, u, flt.monitor(x0, u)) is u


def test_fast_approach_to_frontier_is_overridden(world, robot):
    flt = exploration_filter(robot, sensor_radius=0.8, world=world, horizon=10)
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    flt.reset(x0)
    # heading right at high speed: stopping distance exceeds the revealed area
    x = np.array([1.0, 1.0, 2.0, 0.0])
    u = np.array([1.0, 0.0])
    assert flt.monitor(x, u) == -1.0
    out = flt.intervene(x, u, flt.monitor(x, u))
    assert np.array_equal(out, flt.fallback(x))
    assert out[0] == -1.0  # braking against the motion


def test_deployment_rejected_outside_free_space(world, robot):
    flt = exploration_filter(robot, sensor_radius=1.0, world=world, horizon=10)
    margin = MarginFunction(lambda x: 1.0, name="vacuous")
    x_occupied = np.array([2.25, 1.75, 0.0, 0.0])  # inside the interior block
    with pytest.raises(DeploymentRejected):
        run_episode(
            robot, flt, lambda x, rng: np.zeros(2), lambda x, u, rng: np.zeros(0),
            x_occupied, 5, 0, margin,
        )


def test_exploring_episode_stays_in_known_space(world, robot):
    flt = exploration_filter(robot, sensor_radius=1.2, world=world, horizon=12)
    x0 = np.array([1.0, 1.0, 0.0, 0.0])
    flt.reset(x0)
    assert flt.monitor(x0, flt.fallback(x0)) >= 0
    rng = np.random.default_rng(0)
    x = x0
    known_sizes = []
    for t in range(80):
        u_task = np.clip(rng.normal(scale=0.8, size=2), -1, 1)
        decision = decide(flt, x, u_task)
        # position must be inside the free space known at decision time
        pos_cells = segment_cells(x[:2], x[:2], world.cell_size)
        assert pos_cells <= flt.known
        x = robot.step(x, decision.applied, np.zeros(0))
        flt.observe(x)
        known_sizes.append(len(flt.known))
        cx = int(np.floor(x[0] / world.cell_size))
        cy = int(np.floor(x[1] / world.cell_size))
        assert world.is_free_cell(cx, cy)
    # knowledge only grows
    assert all(b >= a for a, b in zip(known_sizes, known_sizes[1:]))
    # and the robot actually explored beyond its initial disk
    assert known_sizes[-1] > known_sizes[0]


def test_filter_reset_clears_map(world, robot):
    flt = exploration_filter(robot, sensor_radius=1.0, world=world, horizon=10)
    flt.reset(np.array([1.0, 1.0, 0.0, 0.0]))
    assert flt.known
    flt.reset(None)
    assert not flt.known


def test_validation(world, robot):
    with pytest.raises(ValueError):
        exploration_filter(robot, sensor_radius=0.0, world=world, horizon=10)
    with pytest.raises(ValueError):
        exploration_filter(robot, sensor_radius=1.0, world=world, horizon=0)
    from safefilter import make_double_integrator

    with pytest.raises(ValueError):
        exploration_filter(make_double_integrator(1.0, 0.0, 0.1), 1.0, world, 10)
