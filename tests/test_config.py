import numpy as np
import pytest
import yaml

from safefilter import ConfigError, load_config
from safefilter.config import (
    build_filter,
    build_grid_settings,
    build_harness_settings,
    build_margin,
    build_model,
    dump_resolved_config,
)

GOOD = {
    "model": {"kind": "double_integrator", "u_max": 1.0, "d_max": 0.1, "dt": 0.1},
    "margin": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0},
    "grid": {
        "lower": [0.0, -2.0],
        "upper": [3.0, 2.0],
        "shape": [31, 31],
        "u_counts": [3],
        "d_counts": [3],
        "tolerance": 1e-5,
        "max_iters": 500,
    },
    "filter": {"kind": "least_restrictive"},
    "harness": {
        "x0": [1.5, 0.0],
        "steps": 50,
        "seeds": [0, 1],
        "task": {"kind": "adversarial"},
        "disturbance": {"kind": "random"},
    },
    "output": {"directory": "out"},
}


def write_cfg(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def test_load_good_config(tmp_path):
    cfg = load_config(write_cfg(tmp_path, GOOD))
    assert cfg["model"]["kind"] == "double_integrator"


def test_unknown_top_level_key_rejected(tmp_path):
    bad = dict(GOOD, extra_section={"a": 1})
    with pytest.raises(ConfigError, match="extra_section"):
        load_config(write_cfg(tmp_path, bad))


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="model.u_mx"):
        build_model({"kind": "double_integrator", "u_mx": 1.0, "d_max": 0.0, "dt": 0.1})


def test_yaml_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("model:\n  kind: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(path)


def test_model_builders():
    m = build_model({"kind": "dubins_car", "speed": 1.0, "omega_max": 1.0, "d_max": 0.0, "dt": 0.1})
    assert m.state_dim == 3
    m = build_model(
        {
            "kind": "linear",
            "a": [[1.0]],
            "b": [[1.0]],
            "control_lower": [-1.0],
            "control_upper": [1.0],
            "dist_lower": [-0.1],
            "dist_upper": [0.1],
        }
    )
    assert m.name == "linear"
    with pytest.raises(ConfigError):
        build_model({"kind": "warp_drive"})
    with pytest.raises(ConfigError):
        build_model({"kind": "double_integrator", "u_max": -1.0, "d_max": 0.0, "dt": 0.1})


def test_margin_builders():
    g = build_margin({"kind": "min", "parts": [
        {"kind": "halfspace", "normal": [1.0], "offset": 0.0},
        {"kind": "ball", "center": [2.0], "radius": 0.5},
    ]}, 1)
    assert float(g(np.array([1.0]))) == pytest.approx(0.5)
    assert g.halfspaces is None
    with pytest.raises(ConfigError):
        build_margin({"kind": "donut"}, 1)
    pairs = build_margin({"kind": "halfspace", "normal": [-1.0], "offset": -2.0}, 1).halfspaces
    assert len(pairs) == 1 and pairs[0][0].tolist() == [-1.0] and pairs[0][1] == -2.0
    pairs = build_margin({"kind": "min", "parts": [
        {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.5},
        {"kind": "min", "parts": [{"kind": "halfspace", "normal": [0.0, -1.0], "offset": -3.0}]},
    ]}, 2).halfspaces
    assert [(n.tolist(), c) for n, c in pairs] == [([1.0, 0.0], 0.5), ([0.0, -1.0], -3.0)]
    assert build_margin({"kind": "ball", "center": [0.0], "radius": 1.0}, 1).halfspaces is None


def test_grid_settings_validation():
    with pytest.raises(ConfigError, match="tolerance"):
        build_grid_settings(dict(GOOD["grid"], tolerance=-1.0), build_model(GOOD["model"]))
    gs = build_grid_settings(GOOD["grid"], build_model(GOOD["model"]))
    assert gs.shape == (31, 31)
    # a zero-width axis would certify failure states: every weight is 0/0
    for lower, upper in (([0.0, 0.0], [3.0, 0.0]), ([1.0, -2.0], [1.0, 2.0])):
        with pytest.raises(ConfigError, match="grid domain"):
            build_grid_settings(dict(GOOD["grid"], lower=lower, upper=upper),
                                build_model(GOOD["model"]))


def test_harness_settings_validation():
    with pytest.raises(ConfigError):
        build_harness_settings(dict(GOOD["harness"], seeds="nope"), 2)
    # integral floats are integers; nothing is truncated
    hs = build_harness_settings(dict(GOOD["harness"], steps=50.0, seeds=[3.0]), 2)
    assert hs.steps == 50 and type(hs.steps) is int and hs.seeds == [3]
    with pytest.raises(ConfigError, match="harness.stepz"):
        build_harness_settings(dict(GOOD["harness"], stepz=3), 2)


def test_build_filter_kinds(tmp_path):
    model = build_model(GOOD["model"])
    margin = build_margin(GOOD["margin"], 2)
    gs = build_grid_settings(GOOD["grid"], model)
    bundle = build_filter(GOOD["filter"], model, margin, gs)
    assert bundle.filter.name == "least_restrictive"
    assert bundle.grid is not None
    with pytest.raises(ConfigError):
        build_filter({"kind": "unknown"}, model, margin, gs)
    # tube_mpc demands a linear model and a halfspace margin
    tube = {"kind": "tube_mpc", "gain": [[-0.5]], "terminal_lower": [-0.5],
            "terminal_upper": [0.5], "horizon": 5}
    with pytest.raises(ConfigError, match="linear"):
        build_filter(tube, model, margin, gs)
    linear = build_model({"kind": "linear", "a": [[1.0]], "b": [[1.0]],
                          "control_lower": [-1.0], "control_upper": [1.0],
                          "dist_lower": [-0.1], "dist_upper": [0.1]})
    ball = build_margin({"kind": "ball", "center": [0.0], "radius": 1.0}, 1)
    with pytest.raises(ConfigError, match="halfspace margins, got 'keepout_ball'"):
        build_filter(tube, linear, ball, None)


def test_resolved_dump_round_trip(tmp_path):
    path = tmp_path / "resolved.yaml"
    dump_resolved_config(GOOD, path)
    assert yaml.safe_load(path.read_text()) == GOOD


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "int_overflow"],
)
def test_non_finite_numbers_rejected_naming_the_key(bad):
    with pytest.raises(ConfigError, match=r"model\.dt must be finite"):
        build_model(dict(GOOD["model"], dt=bad))
    with pytest.raises(ConfigError, match=r"harness\.x0 must be finite"):
        build_harness_settings(dict(GOOD["harness"], x0=[bad, 0.0]), 2)
    with pytest.raises(ConfigError, match=r"harness\.goal must be finite"):
        build_harness_settings(dict(GOOD["harness"], goal=[2.0, bad]), 2)
    linear = {"kind": "linear", "a": [[1.0]], "b": [[1.0]],
              "control_lower": [-1.0], "control_upper": [1.0]}
    with pytest.raises(ConfigError, match=r"model\.a must be finite"):
        build_model(dict(linear, a=[[bad]]))
    with pytest.raises(ConfigError, match=r"model\.control_upper must be finite"):
        build_model(dict(linear, control_upper=[bad]))
    assert build_harness_settings(dict(GOOD["harness"], goal=[2.0, 0.0]), 2).scenario_goal.tolist() == [2.0, 0.0]
