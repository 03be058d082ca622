"""Strict YAML run configuration: unknown keys are rejected, since a silently
ignored typo in a safety parameter is itself a safety hazard. Units are SI.

See the README for the full schema. Every run emits a resolved copy of its
configuration next to its outputs for reproducibility.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import yaml

from .cbf import builtin_barrier_double_integrator, cbf_qp_filter
from .dynamics import (
    MarginFunction,
    SystemModel,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    margin_halfspace,
    margin_keepout_ball,
    margin_min,
)
from .exploration import (
    exploration_filter,
    load_occupancy_world,
    make_planar_double_integrator,
)
from .filters import SafetyFilter, least_restrictive_filter, passthrough_filter
from .intervals import Box
from .reachability import ValueGrid, grid_axes, load_value_grid, solve
from .shielding import (
    braking_fallback,
    braking_terminal_set,
    mps_filter,
    optimal_fallback,
    value_grid_terminal_set,
)
from .tube_mpc import tube_mpc_filter
from . import harness


class ConfigError(ValueError):
    """Malformed or unknown configuration content (message names the key path)."""


_TOP_KEYS = {"model", "margin", "grid", "filter", "harness", "verify", "output", "compare"}


def load_config(path) -> dict:
    try:
        with open(path) as f:
            data = yaml.safe_load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"config parse error: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping of sections")
    _check_keys(data, _TOP_KEYS, "")
    return data


def _section(mapping, path) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"section {path or '<root>'} must be a mapping")


def _check_keys(mapping, allowed, path) -> None:
    _section(mapping, path)
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        loc = f"{path}.{key}" if path else key
        raise ConfigError(f"unknown config key {loc!r}")


def _require(mapping, key, path):
    _section(mapping, path)
    if key not in mapping:
        loc = f"{path}.{key}" if path else key
        raise ConfigError(f"missing config key {loc!r}")
    return mapping[key]


def _number(mapping, key, path, default=None):
    if key not in mapping:
        if default is not None:
            return default
        loc = f"{path}.{key}" if path else key
        raise ConfigError(f"missing config key {loc!r}")
    val = mapping[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"config key {path}.{key} must be a number")
    try:
        val = float(val)
    except OverflowError as e:
        raise ConfigError(f"config key {path}.{key} must be finite") from e
    if not math.isfinite(val):
        raise ConfigError(f"config key {path}.{key} must be finite")
    return val


def _int_value(val, loc, minimum) -> int:
    if isinstance(val, bool) or not (
        isinstance(val, int) or isinstance(val, float) and val.is_integer()
    ) or val < minimum:
        raise ConfigError(f"config key {loc} needs integers >= {minimum}, got {val!r}")
    return int(val)


def _integer(mapping, key, path, default=None, minimum=0) -> int:
    """The integer at ``key`` (``default`` when absent), at least ``minimum``.
    Bools, non-integral numbers and smaller values raise ``ConfigError``
    naming the key; nothing is truncated."""
    loc = f"{path}.{key}"
    if key not in mapping and default is None:
        raise ConfigError(f"missing config key {loc!r}")
    return _int_value(mapping.get(key, default), loc, minimum)


def _integers(mapping, key, path, default, minimum, length=None) -> list[int]:
    """The list of integers at ``key`` (``default`` when absent), checked
    like ``_integer`` entry by entry, with ``length`` entries unless that is
    None."""
    loc = f"{path}.{key}"
    if key not in mapping and default is None:
        raise ConfigError(f"missing config key {loc!r}")
    vals = mapping.get(key, default)
    if not isinstance(vals, list) or not vals or length is not None and len(vals) != length:
        size = "a nonempty list" if length is None else f"a list of {length}"
        raise ConfigError(f"config key {loc} must be {size} integers")
    return [_int_value(v, loc, minimum) for v in vals]


def _finite_array(mapping, key, path, what):
    val = _require(mapping, key, path)
    try:
        arr = np.asarray(val, dtype=np.float64)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config key {path}.{key} must be a numeric {what}") from e
    except OverflowError as e:
        raise ConfigError(f"config key {path}.{key} must be finite") from e
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"config key {path}.{key} must be finite")
    return arr


def _vector(mapping, key, path):
    return _finite_array(mapping, key, path, "list").reshape(-1)


def _matrix(mapping, key, path):
    arr = _finite_array(mapping, key, path, "matrix")
    if arr.ndim != 2:
        raise ConfigError(f"config key {path}.{key} must be a 2-d matrix")
    return arr


# --- model -------------------------------------------------------------------

_MODEL_KEYS = {
    "double_integrator": {"kind", "u_max", "d_max", "dt"},
    "dubins_car": {"kind", "speed", "omega_max", "d_max", "dt"},
    "inverted_pendulum": {"kind", "torque_max", "d_max", "dt"},
    "planar_double_integrator": {"kind", "u_max", "dt"},
    "linear": {
        "kind", "a", "b", "control_lower", "control_upper",
        "dist_lower", "dist_upper", "dt",
    },
}


def build_model(cfg: dict) -> SystemModel:
    kind = _require(cfg, "kind", "model")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model.kind {kind!r}")
    _check_keys(cfg, _MODEL_KEYS[kind], "model")
    try:
        if kind == "double_integrator":
            return make_double_integrator(
                _number(cfg, "u_max", "model"),
                _number(cfg, "d_max", "model", 0.0),
                _number(cfg, "dt", "model"),
            )
        if kind == "dubins_car":
            return make_dubins_car(
                _number(cfg, "speed", "model"),
                _number(cfg, "omega_max", "model"),
                _number(cfg, "d_max", "model", 0.0),
                _number(cfg, "dt", "model"),
            )
        if kind == "inverted_pendulum":
            return make_inverted_pendulum(
                _number(cfg, "torque_max", "model"),
                _number(cfg, "d_max", "model", 0.0),
                _number(cfg, "dt", "model"),
            )
        if kind == "planar_double_integrator":
            return make_planar_double_integrator(
                _number(cfg, "u_max", "model"), _number(cfg, "dt", "model")
            )
        control = Box(_vector(cfg, "control_lower", "model"), _vector(cfg, "control_upper", "model"))
        if "dist_lower" in cfg or "dist_upper" in cfg:
            dist = Box(_vector(cfg, "dist_lower", "model"), _vector(cfg, "dist_upper", "model"))
        else:
            dist = Box([], [])
        return make_linear_model(
            _matrix(cfg, "a", "model"), _matrix(cfg, "b", "model"),
            control, dist, _number(cfg, "dt", "model", 1.0),
        )
    except ValueError as e:
        raise ConfigError(f"invalid model parameters: {e}") from e


# --- margin ------------------------------------------------------------------


def build_margin(cfg: dict, path: str = "margin") -> MarginFunction:
    kind = _require(cfg, "kind", path)
    try:
        if kind == "halfspace":
            _check_keys(cfg, {"kind", "normal", "offset"}, path)
            return margin_halfspace(_vector(cfg, "normal", path), _number(cfg, "offset", path))
        if kind == "ball":
            _check_keys(cfg, {"kind", "center", "radius"}, path)
            return margin_keepout_ball(_vector(cfg, "center", path), _number(cfg, "radius", path))
        if kind == "min":
            _check_keys(cfg, {"kind", "parts"}, path)
            parts = _require(cfg, "parts", path)
            if not isinstance(parts, list) or not parts:
                raise ConfigError(f"{path}.parts must be a nonempty list")
            return margin_min(
                [build_margin(p, f"{path}.parts[{i}]") for i, p in enumerate(parts)]
            )
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid margin parameters: {e}") from e
    raise ConfigError(f"unknown {path}.kind {kind!r}")


# --- grid --------------------------------------------------------------------


@dataclass(frozen=True)
class GridSettings:
    domain: Box
    shape: tuple[int, ...]
    u_counts: list[int]
    d_counts: list[int]
    tolerance: float
    max_iters: int


def build_grid_settings(cfg: dict, model: SystemModel) -> GridSettings:
    """Grid settings; the control and disturbance lattice counts have one
    entry per input and disturbance dimension of ``model``."""
    _check_keys(
        cfg,
        {"lower", "upper", "shape", "u_counts", "d_counts", "tolerance", "max_iters"},
        "grid",
    )
    lower = _vector(cfg, "lower", "grid")
    upper = _vector(cfg, "upper", "grid")
    shape = tuple(_integers(cfg, "shape", "grid", None, minimum=2, length=lower.size))
    tolerance = _number(cfg, "tolerance", "grid", 1e-6)
    if tolerance <= 0:
        raise ConfigError("grid.tolerance must be positive")
    max_iters = _integer(cfg, "max_iters", "grid", 1000, minimum=1)
    u_counts = _integers(cfg, "u_counts", "grid", [3], minimum=1, length=model.control_dim)
    # a model without disturbance ignores the disturbance lattice: its counts
    # are checked, then cut to the empty list of a 0-dimensional box
    d_counts = _integers(
        cfg, "d_counts", "grid", [2], minimum=1, length=model.disturbance_dim or None
    )[: model.disturbance_dim]
    try:
        domain = Box(lower, upper)
        grid_axes(domain, shape)
    except ValueError as e:
        raise ConfigError(f"invalid grid domain (grid.lower, grid.upper): {e}") from e
    return GridSettings(domain, shape, u_counts, d_counts, tolerance, max_iters)


def _grid_lattices(model: SystemModel, settings: GridSettings) -> tuple[np.ndarray, np.ndarray]:
    """The control and disturbance candidate lattices of the grid settings."""
    return (
        discretize_box(model.control_set, settings.u_counts),
        discretize_box(model.disturbance_set, settings.d_counts),
    )


def solve_or_load_grid(
    model: SystemModel,
    margin: MarginFunction,
    settings: GridSettings,
    value_grid_path: Optional[str] = None,
):
    if value_grid_path is not None:
        try:
            return load_value_grid(value_grid_path), None
        except (OSError, ValueError) as e:
            raise ConfigError(f"cannot load value grid {value_grid_path}: {e}") from e
    grid, report = solve(
        model, margin, (settings.domain, settings.shape),
        settings.u_counts, settings.d_counts, settings.tolerance, settings.max_iters,
    )
    return grid, report


def _shared_grid(grids: Optional[dict], path, model, margin, settings) -> ValueGrid:
    """The grid of ``path`` (None: the solved grid) in ``grids``, solved or
    loaded and added to it on first use."""
    if grids is None:
        grids = {}
    if path not in grids:
        grids[path], _ = solve_or_load_grid(model, margin, settings, path)
    return grids[path]


# --- filter ------------------------------------------------------------------

_FILTER_KEYS = {
    "none": {"kind"},
    "least_restrictive": {"kind", "value_grid"},
    "cbf_qp": {"kind", "kappa", "wall"},
    "mps": {"kind", "horizon", "fallback", "terminal", "value_grid"},
    "tube_mpc": {"kind", "gain", "terminal_lower", "terminal_upper", "horizon"},
    "exploration": {"kind", "sensor_radius", "horizon", "world", "cell_size"},
}


@dataclass
class FilterBundle:
    """A built filter plus the artifacts other sections may need."""

    filter: SafetyFilter
    grid: Optional[ValueGrid] = None


def build_filter(
    cfg: dict,
    model: SystemModel,
    margin: MarginFunction,
    grid_settings: Optional[GridSettings],
    base_dir: str = ".",
    grids: Optional[dict] = None,
    path: str = "filter",
) -> FilterBundle:
    """Build the filter configured in ``cfg``, the section at ``path``.

    A filter that needs a value grid solves it, or loads its ``value_grid``,
    once. ``grids`` maps a grid file path, or None for the solved grid, to a
    grid already built for this model, margin and grid settings; the grid
    built here is added to it, so filters built with one dict share a solve.
    Every ``ConfigError`` names its key under ``path``.
    """
    kind = _require(cfg, "kind", path)
    if not isinstance(kind, str) or kind not in _FILTER_KEYS:
        raise ConfigError(f"unknown {path}.kind {kind!r}")
    _check_keys(cfg, _FILTER_KEYS[kind], path)
    grid = None

    def _grid():
        nonlocal grid
        if grid is None:
            if grid_settings is None:
                raise ConfigError(f"{path}.kind {kind!r} needs a [grid] section")
            grid_path = cfg.get("value_grid")
            if grid_path is not None:
                grid_path = os.path.join(base_dir, grid_path)
            grid = _shared_grid(grids, grid_path, model, margin, grid_settings)
        return grid

    try:
        if kind == "none":
            return FilterBundle(passthrough_filter(model))
        if kind == "least_restrictive":
            grid = _grid()
            return FilterBundle(
                least_restrictive_filter(model, grid, *_grid_lattices(model, grid_settings)), grid
            )
        if kind == "cbf_qp":
            if model.name != "double_integrator":
                raise ConfigError(
                    f"{path}.kind 'cbf_qp' needs model.kind double_integrator (its built-in "
                    f"barrier is the double integrator's stopping distance), got {model.name!r}"
                )
            u_max = float(model.control_set.upper[0])
            kappa = _number(cfg, "kappa", path, 0.5 / model.dt)
            wall = _number(cfg, "wall", path, 0.0)
            barrier = builtin_barrier_double_integrator(u_max, kappa, wall)
            return FilterBundle(cbf_qp_filter(model, barrier))
        if kind == "mps":
            horizon = _integer(cfg, "horizon", path, minimum=1)
            fb_cfg = _require(cfg, "fallback", path)
            term_cfg = _require(cfg, "terminal", path)
            fb_kind = _require(fb_cfg, "kind", f"{path}.fallback")
            if fb_kind == "braking":
                _check_keys(fb_cfg, {"kind", "v_tol"}, f"{path}.fallback")
                fallback = braking_fallback(model, _number(fb_cfg, "v_tol", f"{path}.fallback"))
            elif fb_kind == "optimal":
                _check_keys(fb_cfg, {"kind"}, f"{path}.fallback")
                grid = _grid()
                fallback = optimal_fallback(model, grid, *_grid_lattices(model, grid_settings))
            else:
                raise ConfigError(f"unknown {path}.fallback.kind {fb_kind!r}")
            term_kind = _require(term_cfg, "kind", f"{path}.terminal")
            if term_kind == "braking":
                _check_keys(
                    term_cfg, {"kind", "v_tol", "safe_lower", "safe_upper"}, f"{path}.terminal"
                )
                terminal = braking_terminal_set(
                    model,
                    _number(term_cfg, "v_tol", f"{path}.terminal"),
                    Box(
                        _vector(term_cfg, "safe_lower", f"{path}.terminal"),
                        _vector(term_cfg, "safe_upper", f"{path}.terminal"),
                    ),
                )
            elif term_kind == "value_grid":
                _check_keys(term_cfg, {"kind"}, f"{path}.terminal")
                terminal = value_grid_terminal_set(_grid())
            else:
                raise ConfigError(f"unknown {path}.terminal.kind {term_kind!r}")
            return FilterBundle(
                mps_filter(model, fallback, terminal, margin, horizon), grid
            )
        if kind == "tube_mpc":
            if model.linear_maps is None:
                raise ConfigError(f"{path}.kind 'tube_mpc' needs model.kind = linear")
            if margin.halfspaces is None:
                raise ConfigError(
                    f"margin: tube MPC ({path}) needs halfspace margins, got {margin.name!r}"
                )
            A, B = model.linear_maps
            flt = tube_mpc_filter(
                A,
                B,
                _matrix(cfg, "gain", path),
                model.control_set,
                model.disturbance_set,
                margin.halfspaces,
                Box(
                    _vector(cfg, "terminal_lower", path),
                    _vector(cfg, "terminal_upper", path),
                ),
                _integer(cfg, "horizon", path, minimum=1),
            )
            return FilterBundle(flt)
        # exploration
        world_path = os.path.join(base_dir, str(_require(cfg, "world", path)))
        try:
            world = load_occupancy_world(world_path, _number(cfg, "cell_size", path))
        except OSError as e:
            raise ConfigError(f"{path}.world: cannot read {world_path}: {e.strerror or e}") from e
        flt = exploration_filter(
            model,
            _number(cfg, "sensor_radius", path),
            world,
            _integer(cfg, "horizon", path, minimum=1),
        )
        return FilterBundle(flt)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"invalid {path} configuration: {e}") from e


# --- harness policies ----------------------------------------------------------

_HARNESS_KEYS = {
    "x0", "steps", "seeds", "task", "disturbance", "goal", "control_weight",
}


@dataclass
class HarnessSettings:
    x0: np.ndarray
    steps: int
    seeds: list[int]
    scenario_goal: Optional[np.ndarray]
    control_weight: float
    task_cfg: dict
    disturbance_cfg: dict


def build_harness_settings(cfg: dict) -> HarnessSettings:
    _check_keys(cfg, _HARNESS_KEYS, "harness")
    x0 = _vector(cfg, "x0", "harness")
    steps = _integer(cfg, "steps", "harness", minimum=0)
    seeds = _integers(cfg, "seeds", "harness", [0], minimum=0)
    goal = _vector(cfg, "goal", "harness") if "goal" in cfg else None
    weight = _number(cfg, "control_weight", "harness", 0.1)
    task_cfg = cfg.get("task", {"kind": "constant", "value": []})
    dist_cfg = cfg.get("disturbance", {"kind": "zero"})
    return HarnessSettings(x0, steps, seeds, goal, weight, task_cfg, dist_cfg)


def build_task_policy(
    cfg: dict,
    model: SystemModel,
    margin: MarginFunction,
    grid_settings: Optional[GridSettings],
):
    kind = _require(cfg, "kind", "harness.task")
    if kind == "goal":
        _check_keys(cfg, {"kind", "gain", "goal"}, "harness.task")
        return harness.proportional_policy(
            _matrix(cfg, "gain", "harness.task"),
            _vector(cfg, "goal", "harness.task"),
            model.control_set,
        )
    if kind == "random":
        _check_keys(cfg, {"kind"}, "harness.task")
        return harness.random_policy(model.control_set)
    if kind == "adversarial":
        _check_keys(cfg, {"kind", "u_counts"}, "harness.task")
        counts = _integers(
            cfg, "u_counts", "harness.task",
            grid_settings.u_counts if grid_settings else [3] * model.control_dim,
            minimum=1, length=model.control_dim,
        )
        return harness.margin_descent_policy(
            model, margin, discretize_box(model.control_set, counts)
        )
    if kind == "constant":
        _check_keys(cfg, {"kind", "value"}, "harness.task")
        return harness.constant_policy(_vector(cfg, "value", "harness.task"))
    raise ConfigError(f"unknown harness.task.kind {kind!r}")


def build_disturbance_policy(
    cfg: dict,
    model: SystemModel,
    margin: MarginFunction,
    grid: Optional[ValueGrid],
    grid_settings: Optional[GridSettings],
    grids: Optional[dict] = None,
):
    """Build the configured disturbance policy. The adversary steers against
    ``grid``; without one it takes the solved grid from ``grids`` (see
    ``build_filter``), solving it there on first use."""
    kind = _require(cfg, "kind", "harness.disturbance")
    if kind == "zero":
        _check_keys(cfg, {"kind"}, "harness.disturbance")
        return harness.zero_disturbance(model)
    if kind == "random":
        _check_keys(cfg, {"kind"}, "harness.disturbance")
        return harness.random_disturbance(model)
    if kind == "constant":
        _check_keys(cfg, {"kind", "value"}, "harness.disturbance")
        return harness.constant_disturbance(_vector(cfg, "value", "harness.disturbance"))
    if kind == "adversarial":
        _check_keys(cfg, {"kind", "d_counts"}, "harness.disturbance")
        if model.disturbance_dim == 0:
            return harness.zero_disturbance(model)
        if grid is None:
            # the adversary steers against the safety value even when the
            # filter under test does not use one (e.g. the unfiltered baseline)
            if grid_settings is None:
                raise ConfigError("adversarial disturbance needs a [grid] section")
            grid = _shared_grid(grids, None, model, margin, grid_settings)
        counts = _integers(
            cfg, "d_counts", "harness.disturbance",
            grid_settings.d_counts if grid_settings else [2] * model.disturbance_dim,
            minimum=1, length=model.disturbance_dim,
        )
        return harness.adversarial_disturbance(
            model, grid, discretize_box(model.disturbance_set, counts)
        )
    raise ConfigError(f"unknown harness.disturbance.kind {kind!r}")


def dump_resolved_config(cfg: dict, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f, sort_keys=True)
