import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from safefilter.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_VIOLATIONS,
    main,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    return code, summary


@pytest.fixture
def wall_cfg(tmp_path):
    return str(CONFIG_DIR / "double_integrator_wall.yaml")


def test_solve_writes_grid_and_converges(tmp_path, capsys, wall_cfg):
    out = tmp_path / "solve_out"
    code, summary = run_cli(capsys, "solve", "--config", wall_cfg, "--out", str(out))
    assert code == EXIT_OK
    assert summary["converged"] is True
    assert (out / "value_function.grid").exists()
    assert (out / "resolved_config.yaml").exists()


def test_solve_reruns_byte_identical(tmp_path, capsys, wall_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", wall_cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["solve", "--config", wall_cfg, "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    b1 = (out1 / "value_function.grid").read_bytes()
    b2 = (out2 / "value_function.grid").read_bytes()
    assert b1 == b2


def test_run_clean_episode(tmp_path, capsys, wall_cfg):
    out = tmp_path / "run_out"
    code, summary = run_cli(
        capsys, "run", "--config", wall_cfg, "--out", str(out), "--seed", "3"
    )
    assert code == EXIT_OK
    assert summary["violations"] == 0
    assert (out / "episode_3.csv").exists()
    assert (out / "metrics.csv").exists()


def test_run_deployment_rejected(tmp_path, capsys, wall_cfg):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["harness"]["x0"] = [0.05, -1.8]  # doomed start
    bad = tmp_path / "bad_start.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "run", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == EXIT_REJECTED
    assert summary["error"] == "deployment_rejected"


def test_run_violations_exit_code(tmp_path, capsys, wall_cfg):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["filter"] = {"kind": "none"}  # unfiltered adversarial task crashes
    bad = tmp_path / "null_filter.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "run", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == EXIT_VIOLATIONS
    assert summary["violations"] > 0


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model:\n  kind: double_integrator\n  uu_max: 1.0\n")
    code, summary = run_cli(capsys, "run", "--config", str(bad))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config"


def test_run_non_finite_start_is_config_error(tmp_path, capsys):
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / "cbf_wall.yaml").read_text())
    cfg["harness"]["x0"] = [float("nan"), 0.0]
    bad = tmp_path / "nan_start.yaml"
    bad.write_text(yaml.safe_dump(cfg))
    assert ".nan" in bad.read_text()
    code, summary = run_cli(capsys, "run", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "harness.x0" in summary["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "config, command, key, value",
    [
        ("cbf_wall.yaml", "run", "harness.steps", 2.7),
        ("cbf_wall.yaml", "run", "harness.steps", True),
        ("cbf_wall.yaml", "run", "harness.seeds", [0, -1]),
        ("tube_mpc_scalar.yaml", "run", "filter.horizon", 2.5),
        ("mps_braking.yaml", "run", "filter.horizon", 0),
        ("exploration.yaml", "run", "filter.horizon", 1.5),
        ("mps_braking.yaml", "run", "harness.task.u_counts", [0]),
        ("mps_braking.yaml", "run", "harness.task.u_counts", ["a"]),
        ("mps_braking.yaml", "run", "harness.task.u_counts", [3, 3]),
        ("double_integrator_wall.yaml", "solve", "grid.u_counts", [0]),
        ("double_integrator_wall.yaml", "solve", "grid.d_counts", [3, 3]),
        ("double_integrator_wall.yaml", "solve", "grid.shape", [1.5, 61]),
        ("double_integrator_wall.yaml", "solve", "grid.shape", [61]),
        ("double_integrator_wall.yaml", "solve", "grid.max_iters", 0.5),
        ("double_integrator_wall.yaml", "verify", "verify.horizon", -1),
        ("double_integrator_wall.yaml", "verify", "verify.samples", 1e3 + 0.5),
        ("double_integrator_wall.yaml", "verify", "verify.initial_counts", [0, 3]),
        # list lengths that do not match the model's state, control or
        # disturbance dimension; a dict value replaces a whole section
        ("double_integrator_wall.yaml", "solve", "margin.normal", [1.0]),
        ("double_integrator_wall.yaml", "solve", "margin.normal", [1.0, 0.0, 0.0]),
        ("double_integrator_wall.yaml", "solve", "margin",
         {"kind": "ball", "center": [1.0, 0.0, 0.0], "radius": 0.5}),
        ("double_integrator_wall.yaml", "solve", "margin",
         {"kind": "ball", "center": [1.0], "radius": 0.5}),
        ("exploration.yaml", "run", "margin.parts[1].normal", [-1.0, 0.0]),
        ("cbf_wall.yaml", "run", "harness.x0", [2.0]),
        ("cbf_wall.yaml", "run", "harness.x0", [2.0, 0.0, 0.0]),
        ("cbf_wall.yaml", "run", "harness.goal", [2.0]),
        ("tube_mpc_scalar.yaml", "run", "harness.task.value", [1.0, 0.0]),
        ("cbf_wall.yaml", "run", "harness.task",
         {"kind": "goal", "gain": [[1.0, 1.5, 0.0]], "goal": [2.0, 0.0]}),
        ("cbf_wall.yaml", "run", "harness.task", {"kind": "goal", "gain": [[1.0, 1.5]], "goal": [2.0]}),
        ("cbf_wall.yaml", "run", "harness.disturbance", {"kind": "constant", "value": [0.1]}),
        ("double_integrator_wall.yaml", "verify", "verify.initial_lower", [0.5]),
        ("double_integrator_wall.yaml", "verify", "verify.initial_upper", [2.5, 1.0, 0.0]),
    ],
)
def test_bad_integer_key_is_config_error(tmp_path, capsys, config, command, key, value):
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / config).read_text())
    *parents, leaf = key.split(".")
    section = cfg
    for name in parents:  # "parts[1]" is entry 1 of the list at "parts"
        name, _, index = name.rstrip("]").partition("[")
        section = section[name][int(index)] if index else section[name]
    section[leaf] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    shutil.copytree(CONFIG_DIR / "worlds", tmp_path / "worlds")
    code, summary = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and key in summary["message"]


@pytest.mark.parametrize("command", ["solve", "run"])
def test_zero_width_grid_axis_is_config_error(tmp_path, capsys, wall_cfg, command):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["grid"]["lower"], cfg["grid"]["upper"] = [0.0, 0.0], [3.0, 0.0]
    path = tmp_path / "flat.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and "grid.upper" in summary["message"]
    assert not (tmp_path / "o" / "value_function.grid").exists()


def test_value_grid_file_with_a_zero_width_axis_is_config_error(tmp_path, capsys, wall_cfg):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["filter"] = {"kind": "least_restrictive", "value_grid": "v.grid"}
    path = tmp_path / "grid_file.yaml"
    path.write_text(yaml.safe_dump(cfg))
    header = "SAFEFILTER-VALUEGRID 1 2 61 61 0.0 -2.0 3.0 -2.0 -0.8\n"
    (tmp_path / "v.grid").write_bytes(header.encode() + np.full(61 * 61, -0.8).tobytes())
    code, summary = run_cli(
        capsys, "run", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "0"
    )
    assert code == EXIT_CONFIG
    assert "v.grid" in summary["message"] and "grid domain axis 1" in summary["message"]


def test_missing_config_file(capsys):
    code, summary = run_cli(capsys, "solve", "--config", "/nonexistent.yaml")
    assert code == EXIT_CONFIG


def test_compare_emits_row_per_filter(tmp_path, capsys, wall_cfg):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["harness"]["steps"] = 60
    cfg["harness"]["seeds"] = [0, 1]
    cfg["compare"] = {
        "filters": [
            {"name": "least_restrictive", "filter": {"kind": "least_restrictive"}},
            {
                "name": "shield",
                "filter": {
                    "kind": "mps",
                    "horizon": 8,
                    "fallback": {"kind": "optimal"},
                    "terminal": {"kind": "value_grid"},
                },
            },
        ]
    }
    path = tmp_path / "compare.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "cmp_out"
    code, summary = run_cli(capsys, "compare", "--config", str(path), "--out", str(out))
    assert code == EXIT_OK
    table = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(table) == 3  # header + one row per filter
    assert summary["violations"] == 0


def test_compare_solves_the_shared_grid_once(tmp_path, capsys, wall_cfg, monkeypatch):
    import yaml

    import safefilter.config as config

    grid_dir = tmp_path / "grid"
    assert main(["solve", "--config", wall_cfg, "--out", str(grid_dir)]) == EXIT_OK
    capsys.readouterr()
    solves = []
    solve = config.solve
    monkeypatch.setattr(config, "solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["harness"]["steps"] = 40
    cfg["harness"]["seeds"] = [0]
    mps = {"kind": "mps", "horizon": 6, "fallback": {"kind": "optimal"},
           "terminal": {"kind": "value_grid"}}
    cfg["compare"] = {
        "filters": [
            {"name": "lr", "filter": {"kind": "least_restrictive"}},
            {"name": "none", "filter": {"kind": "none"}},
            {"name": "mps", "filter": mps},
            # an entry with its own grid file loads it
            {"name": "lr_file", "filter": {
                "kind": "least_restrictive",
                "value_grid": str(grid_dir / "value_function.grid")}},
        ]
    }
    path = tmp_path / "compare.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "compare", "--config", str(path), "--out", str(tmp_path / "o"))
    # the unfiltered entry hits the wall under the adversarial task
    assert code == EXIT_VIOLATIONS
    assert summary["filters"] == ["lr", "none", "mps", "lr_file"]
    # the run bundle's solve serves the lr and mps entries
    assert len(solves) == 1


def test_unfiltered_run_shares_the_adversary_grid_with_compare(
    tmp_path, capsys, wall_cfg, monkeypatch
):
    import yaml

    import safefilter.config as config

    solves = []
    solve = config.solve
    monkeypatch.setattr(config, "solve", lambda *a, **k: solves.append(a) or solve(*a, **k))
    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["filter"] = {"kind": "none"}
    cfg["harness"]["steps"] = 40
    cfg["harness"]["seeds"] = [0]
    cfg["compare"] = {
        "filters": [
            {"name": "none", "filter": {"kind": "none"}},
            {"name": "lr", "filter": {"kind": "least_restrictive"}},
        ]
    }
    path = tmp_path / "compare.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "compare", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_VIOLATIONS
    assert summary["filters"] == ["none", "lr"]
    # the adversarial disturbance's grid serves the lr entry
    assert len(solves) == 1


def test_stock_outputs_match_reference_digests(tmp_path, capsys):
    """``solve`` and ``run`` on the stock configs write the bytes recorded in
    bench/reference_digests.json."""
    import hashlib

    reference_path = CONFIG_DIR.parent / "bench" / "reference_digests.json"
    reference = json.loads(reference_path.read_text())["digests"]
    found = {}
    commands = [("solve", "double_integrator_wall")] + [
        ("run", p.stem) for p in sorted(CONFIG_DIR.glob("*.yaml"))
    ]
    for command, config in commands:
        out = tmp_path / f"{command}-{config}"
        cfg = str(CONFIG_DIR / f"{config}.yaml")
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        files = sorted(out.glob("*.grid")) + sorted(out.glob("episode_*.csv"))
        files += sorted(out.glob("metrics.csv"))
        for f in files:
            found[f"{command}/{config}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    capsys.readouterr()
    assert found == reference


def test_verify_stock_benchmark(tmp_path, capsys, wall_cfg):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["verify"]["samples"] = 2000
    path = tmp_path / "verify.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "verify", "--config", str(path), "--out", str(tmp_path / "v"))
    assert code == EXIT_OK
    assert summary["ok"] is True
    assert summary["checks"]["monitor_soundness"]["counterexamples"] == 0
    # the corrupted-certificate oracle must have flagged the +10 grid
    assert summary["checks"]["corruption_oracle"]["flagged"] is True
    assert summary["checks"]["interval_step_containment"]["violations"] == 0


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.yaml")))
def test_stock_config_passes_verify_as_shipped(tmp_path, capsys, config):
    code, summary = run_cli(capsys, "verify", "--config", str(CONFIG_DIR / config),
                            "--out", str(tmp_path / "v"))
    assert code == EXIT_OK
    assert summary["ok"] is True
    checks = summary["checks"]
    assert checks.get("monitor_soundness", {}).get("counterexamples", 0) == 0
    assert all(check.get("violations", 0) == 0 for check in checks.values())


def test_verify_tube_mpc(tmp_path, capsys):
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / "tube_mpc_scalar.yaml").read_text())
    cfg["verify"] = {"samples": 1000}
    path = tmp_path / "tube_verify.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "verify", "--config", str(path), "--out", str(tmp_path / "v"))
    assert code == EXIT_OK
    assert summary["checks"]["tube_error_bounds"]["violations"] == 0


def test_cli_entry_point_subprocess(tmp_path, wall_cfg):
    exe = shutil.which("safefilter")
    cmd = (
        [exe] if exe else [sys.executable, "-m", "safefilter.cli"]
    ) + ["run", "--config", wall_cfg, "--out", str(tmp_path / "o"), "--seed", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["violations"] == 0


def test_run_other_stock_configs(tmp_path, capsys):
    for name in ("cbf_wall.yaml", "mps_braking.yaml", "tube_mpc_scalar.yaml", "exploration.yaml"):
        code, summary = run_cli(
            capsys, "run", "--config", str(CONFIG_DIR / name),
            "--out", str(tmp_path / name.replace(".yaml", "")), "--seed", "0",
        )
        assert code == EXIT_OK, name
        assert summary["violations"] == 0, name


@pytest.mark.parametrize(
    "content",
    [
        b"SAFEFILTER-VALUEGRID 1 2 61\n",  # truncated header
        None,  # missing file
        bytes(np.random.default_rng(0).integers(0, 256, 512, dtype=np.uint8)),  # garbage
    ],
    ids=["truncated_header", "missing", "garbage"],
)
def test_unreadable_value_grid_is_config_error(tmp_path, capsys, wall_cfg, content):
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["filter"] = {"kind": "least_restrictive", "value_grid": "v.grid"}
    path = tmp_path / "grid_file.yaml"
    path.write_text(yaml.safe_dump(cfg))
    if content is not None:
        (tmp_path / "v.grid").write_bytes(content)
    code, summary = run_cli(
        capsys, "run", "--config", str(path), "--out", str(tmp_path / "o"), "--seed", "0"
    )
    assert code == EXIT_CONFIG
    assert summary["error"] == "config"
    assert "v.grid" in summary["message"]


def test_missing_exploration_world_is_config_error(tmp_path, capsys):
    # the stock config copied without its worlds/ folder
    shutil.copy(CONFIG_DIR / "exploration.yaml", tmp_path / "exploration.yaml")
    code, summary = run_cli(
        capsys, "run", "--config", str(tmp_path / "exploration.yaml"),
        "--out", str(tmp_path / "o"), "--seed", "0",
    )
    assert code == EXIT_CONFIG
    assert summary["error"] == "config"
    assert "filter.world" in summary["message"]
    assert str(tmp_path / "worlds" / "room.txt") in summary["message"]


def test_tube_mpc_with_ball_margin_is_config_error(tmp_path, capsys):
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / "tube_mpc_scalar.yaml").read_text())
    cfg["margin"] = {"kind": "ball", "center": [3.0], "radius": 0.5}
    path = tmp_path / "tube_ball.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert "halfspace margins, got 'keepout_ball'" in summary["message"]


_MINIMAL = {
    "model": {"kind": "double_integrator", "u_max": 1.0, "d_max": 0.1, "dt": 0.1},
    "margin": {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.0},
    "filter": {"kind": "none"},
    "harness": {"x0": [1.5, 0.0], "steps": 2, "seeds": [0],
                "task": {"kind": "constant", "value": [0.0]}},
    "compare": {"filters": [{"name": "raw", "filter": {"kind": "none"}}]},
}
_DELETE = object()  # a table value that removes the key instead
_MPS = {"kind": "mps", "horizon": 3, "fallback": {"kind": "braking", "v_tol": 0.1},
        "terminal": {"kind": "value_grid"}}


@pytest.mark.parametrize(
    "command, key, value, section",
    [
        ("run", "model", 5, "model"),
        ("run", "margin", 5, "margin"),
        ("run", "margin", {"kind": "min", "parts": [5]}, "margin.parts[0]"),
        ("run", "filter", 5, "filter"),
        ("run", "filter", dict(_MPS, fallback=5), "filter.fallback"),
        ("run", "filter", dict(_MPS, terminal=5), "filter.terminal"),
        ("run", "harness.task", 5, "harness.task"),
        ("run", "harness.task", _DELETE, "missing config key 'harness.task'"),
        ("run", "harness.disturbance", 5, "harness.disturbance"),
        ("run", "model.kind", ["double_integrator"], "model.kind"),
        ("run", "filter.kind", ["none"], "filter.kind"),
        ("run", "output", 5, "output"),
        ("run", "output", {"directroy": "x"}, "output.directroy"),
        ("run", "output", {"directory": 5}, "output.directory"),
        ("compare", "compare", 5, "compare"),
        ("compare", "compare.filters", 5, "compare.filters"),
        ("compare", "compare.extra", 1, "compare.extra"),
        ("compare", "compare.filters",
         [{"name": "raw", "filter": {"kind": "none"}, "extra": 1}], "compare.filters[0].extra"),
    ],
)
def test_malformed_section_is_config_error(tmp_path, capsys, monkeypatch, command, key, value,
                                           section):
    """A section of the wrong type, with an unknown key or missing where it is
    required exits 2 naming it, also where the output directory comes from
    the config (no --out)."""
    import copy

    import yaml

    cfg = copy.deepcopy(_MINIMAL)
    *parents, leaf = key.split(".")
    node = cfg
    for name in parents:
        node = node[name]
    if value is _DELETE:
        del node[leaf]
    else:
        node[leaf] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    monkeypatch.chdir(tmp_path)
    code, summary = run_cli(capsys, command, "--config", str(path))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and section in summary["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "model, state_dim, control_dim",
    [
        ({"kind": "dubins_car", "speed": 1.0, "omega_max": 1.0, "dt": 0.1}, 3, 1),
        ({"kind": "planar_double_integrator", "u_max": 1.0, "dt": 0.1}, 4, 2),
        ({"kind": "inverted_pendulum", "torque_max": 2.0, "dt": 0.05}, 2, 1),
    ],
    ids=["dubins_car", "planar_double_integrator", "inverted_pendulum"],
)
def test_cbf_qp_on_other_model_is_config_error(tmp_path, capsys, model, state_dim, control_dim):
    """The built-in barrier is the double integrator's stopping distance; on
    another model ``cbf_qp`` exits 2 naming the filter kind and the model."""
    import yaml

    cfg = {
        "model": model,
        "margin": {"kind": "halfspace", "normal": [1.0] + [0.0] * (state_dim - 1), "offset": 0.0},
        "filter": {"kind": "cbf_qp"},
        "harness": {"x0": [1.5] + [0.0] * (state_dim - 1), "steps": 2, "seeds": [0],
                    "task": {"kind": "constant", "value": [0.0] * control_dim}},
    }
    path = tmp_path / "cbf_other.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config"
    assert "filter.kind" in summary["message"] and model["kind"] in summary["message"]


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
def test_cbf_qp_with_disturbance_is_config_error(tmp_path, capsys, command):
    """The barrier condition ignores the disturbance: with d_max 0.1 and a
    constant push of -0.1 from x0 = (3.0324, -2.3975), ``run`` used to exit 4
    with 440 violations while ``verify`` printed ok. Every entry exits 2 now,
    a ``compare`` entry naming itself."""
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / "cbf_wall.yaml").read_text())
    cfg["model"]["d_max"] = 0.1
    cfg["harness"]["disturbance"] = {"kind": "constant", "value": [-0.1]}
    cfg["harness"]["x0"] = [3.0324, -2.3975]
    if command == "compare":  # the entry, not the run's own filter, fails
        cfg["compare"] = {"filters": [{"name": "raw", "filter": {"kind": "none"}},
                                      {"name": "cbf", "filter": cfg["filter"]}]}
        cfg["filter"] = {"kind": "none"}
    path = tmp_path / "cbf_disturbed.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config"
    where = "compare.filters[1].filter.kind" if command == "compare" else "filter.kind"
    assert f"{where} 'cbf_qp' needs a disturbance-free model" in summary["message"]
    assert "d_max 0.1" in summary["message"]
    assert not (tmp_path / "o").exists()


_BRAKING_TERMINAL = {"kind": "braking", "v_tol": 0.1, "safe_lower": [0.5], "safe_upper": [2.5]}


@pytest.mark.parametrize("command", ["run", "verify", "compare"])
@pytest.mark.parametrize(
    "fallback, terminal, key",
    [
        ({"kind": "braking", "v_tol": 0.1}, {"kind": "value_grid"}, "terminal.kind"),
        ({"kind": "optimal"}, _BRAKING_TERMINAL, "terminal.kind"),
        ({"kind": "braking", "v_tol": 0.2}, _BRAKING_TERMINAL, "terminal.v_tol"),
        ({"kind": "braking", "v_tol": 0.1}, dict(_BRAKING_TERMINAL, v_tol=0.2), "terminal.v_tol"),
        ({"kind": "optimal"}, {"kind": "warp"}, "terminal.kind"),
    ],
    ids=["braking_value_grid", "optimal_braking", "wider_fallback_band", "wider_terminal_band",
         "unknown_terminal"],
)
def test_uncertified_mps_pairing_is_config_error(tmp_path, capsys, command, fallback, terminal,
                                                 key):
    """MPS needs a terminal set invariant under the fallback its tube rolls
    out. With the braking fallback (v_tol 0.1) and the value-grid terminal
    set, ``run`` on the wall config with seeds 0-9 used to exit 4 with 10
    violations (the braking band holds v = -0.01 against d = -0.1) while
    ``verify`` printed ok. Every uncertified pair exits 2 now, a ``compare``
    entry naming itself. A braking terminal set is only invariant without
    disturbance, so those rows run the disturbance-free wall model."""
    import yaml

    cfg = yaml.safe_load((CONFIG_DIR / "double_integrator_wall.yaml").read_text())
    if terminal["kind"] == "braking":
        cfg["model"]["d_max"] = 0.0
    cfg["filter"] = {"kind": "mps", "horizon": 10, "fallback": fallback, "terminal": terminal}
    where = "filter"
    if command == "compare":
        cfg["compare"] = {"filters": [{"name": "raw", "filter": {"kind": "none"}},
                                      {"name": "mps", "filter": cfg["filter"]}]}
        cfg["filter"] = {"kind": "none"}
        where = "compare.filters[1].filter"
    path = tmp_path / "mps_pair.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and f"{where}.{key}" in summary["message"]
    assert not (tmp_path / "o").exists()


def test_verify_corruption_offset_is_config_error(tmp_path, capsys, wall_cfg):
    """The corruption oracle always shifts the grid by +10; a key that would
    seem to set that shift is unknown."""
    import yaml

    cfg = yaml.safe_load(Path(wall_cfg).read_text())
    cfg["verify"]["corruption_offset"] = 5.0
    path = tmp_path / "offset.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code, summary = run_cli(capsys, "verify", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and "verify.corruption_offset" in summary["message"]


@pytest.mark.parametrize(
    "entry_filter, where",
    [
        (5, "section compare.filters[0].filter must be a mapping"),
        ({"kind": "none", "horizon": 3}, "'compare.filters[0].filter.horizon'"),
        ({"kind": "warp"}, "unknown compare.filters[0].filter.kind 'warp'"),
    ],
    ids=["not_a_mapping", "unknown_key", "unknown_kind"],
)
def test_bad_compare_filter_is_named_by_its_entry(tmp_path, capsys, monkeypatch, entry_filter,
                                                  where):
    import copy

    import yaml

    cfg = copy.deepcopy(_MINIMAL)
    cfg["compare"]["filters"] = [{"name": "x", "filter": entry_filter}]
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    monkeypatch.chdir(tmp_path)
    code, summary = run_cli(capsys, "compare", "--config", str(path))
    assert code == EXIT_CONFIG
    assert summary["error"] == "config" and where in summary["message"]
