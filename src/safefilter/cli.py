"""Command-line surface: solve, run, compare, verify.

Exit codes (stable contract):
  0  clean
  1  unexpected internal error
  2  configuration error (parse failure, unknown key, invalid value)
  3  value-function solve did not converge (grid still written)
  4  violations or verification counterexamples found
  5  deployment rejected (initial state fails the monitor's certificate)
  6  exhaustive-check budget exceeded

The last stdout line of every command is a single machine-readable JSON
object summarizing the outcome. All inputs come from files and flags; there
is no network access.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    _check_keys,
    _integer,
    _integers,
    _vector,
    build_disturbance_policy,
    build_filter,
    build_grid_settings,
    build_harness_settings,
    build_margin,
    build_model,
    build_task_policy,
    dump_resolved_config,
    load_config,
)
from .dynamics import discretize_box
from .filters import (
    BudgetExceededError,
    DeploymentRejected,
    least_restrictive_filter,
    verify_monitor_soundness,
)
from .harness import Scenario, compare_filters, run_scenario, write_decisions_csv
from .intervals import Box, float_rows
from .reachability import save_value_grid, solve
from .tube_mpc import TubeMPCFilter

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_VIOLATIONS = 4
EXIT_REJECTED = 5
EXIT_BUDGET = 6


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _out_dir(cfg: dict, args) -> str:
    output = cfg.get("output", {})
    _check_keys(output, {"directory"}, "output")
    out = args.out or output.get("directory", "out")
    if not isinstance(out, str):
        raise ConfigError("config key output.directory must be a path")
    os.makedirs(out, exist_ok=True)
    return out


def _build_common(cfg: dict, config_path: str):
    model = build_model(cfg.get("model", {}))
    margin_cfg = cfg.get("margin")
    if margin_cfg is None:
        raise ConfigError("missing config key 'margin'")
    margin = build_margin(margin_cfg, model.state_dim)
    grid_settings = build_grid_settings(cfg["grid"], model) if "grid" in cfg else None
    base_dir = os.path.dirname(os.path.abspath(config_path))
    return model, margin, grid_settings, base_dir


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    model, margin, grid_settings, _ = _build_common(cfg, args.config)
    if grid_settings is None:
        raise ConfigError("solve needs a [grid] section")
    out = _out_dir(cfg, args)
    grid, report = solve(
        model, margin, (grid_settings.domain, grid_settings.shape),
        grid_settings.u_counts, grid_settings.d_counts,
        grid_settings.tolerance, grid_settings.max_iters,
    )
    grid_path = os.path.join(out, "value_function.grid")
    save_value_grid(grid, grid_path)
    dump_resolved_config(cfg, os.path.join(out, "resolved_config.yaml"))
    if args.verbose:
        print(
            f"solve: {report.iterations} iterations, residual {report.final_residual:.3e}, "
            f"{report.wall_time:.2f}s"
        )
    _emit(
        {
            "command": "solve",
            "converged": report.converged,
            "iterations": report.iterations,
            "residual": report.final_residual,
            "wall_time": report.wall_time,
            "grid": grid_path,
        }
    )
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _build_run_pieces(cfg: dict, config_path: str):
    """The model, harness settings, filter bundle and scenario of a run, and
    ``build(filter_cfg, path)``, which builds another filter, the section at
    ``path``, on the same model, margin and grid settings, reusing the value
    grids built so far."""
    model, margin, grid_settings, base_dir = _build_common(cfg, config_path)
    if "harness" not in cfg:
        raise ConfigError("missing config key 'harness'")
    hs = build_harness_settings(cfg["harness"], model.state_dim)
    grids = {}

    def build(filter_cfg, path="filter"):
        return build_filter(
            filter_cfg, model, margin, grid_settings, base_dir, grids=grids, path=path
        )

    bundle = build(cfg.get("filter", {"kind": "none"}))
    task = build_task_policy(hs.task_cfg, model, margin, grid_settings)
    dist = build_disturbance_policy(
        hs.disturbance_cfg, model, margin, bundle.grid, grid_settings, grids
    )
    scenario = Scenario(
        x0=hs.x0,
        steps=hs.steps,
        failure_margin=margin,
        task_policy=task,
        disturbance_policy=dist,
        goal=hs.scenario_goal,
        control_weight=hs.control_weight,
    )
    return model, hs, bundle, scenario, build


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    model, hs, bundle, scenario, _ = _build_run_pieces(cfg, args.config)
    out = _out_dir(cfg, args)
    seeds = [args.seed] if args.seed is not None else hs.seeds
    if args.verbose and isinstance(bundle.filter, TubeMPCFilter):
        bundle.filter.plan_log_dir = out
    total_violations = 0
    # not write_series_csv: metrics.csv ends its lines in "\n", and the
    # reference digests pin its bytes
    lines = ["seed,violations,interventions,intervention_rate,task_cost,chatter,min_monitor\n"]
    for traj, m in run_scenario(model, bundle.filter, scenario, seeds):
        write_decisions_csv(traj, os.path.join(out, f"episode_{traj.seed}.csv"))
        total_violations += m.violations
        lines.append(
            f"{traj.seed},{m.violations},{m.intervention_count},{m.intervention_rate!r},"
            f"{m.task_cost!r},{m.chatter_count},{m.min_monitor!r}\n"
        )
    with open(os.path.join(out, "metrics.csv"), "w") as f:
        f.writelines(lines)
    dump_resolved_config(cfg, os.path.join(out, "resolved_config.yaml"))
    _emit(
        {
            "command": "run",
            "episodes": len(seeds),
            "violations": total_violations,
            "out": out,
        }
    )
    return EXIT_VIOLATIONS if total_violations > 0 else EXIT_OK


def cmd_compare(args) -> int:
    cfg = load_config(args.config)
    model, hs, _bundle, scenario, build = _build_run_pieces(cfg, args.config)
    compare_cfg = cfg.get("compare") or {}
    _check_keys(compare_cfg, {"filters"}, "compare")
    filters = compare_cfg.get("filters")
    if not isinstance(filters, list):
        raise ConfigError("compare needs a [compare] section with a compare.filters list")
    named = []
    for i, entry in enumerate(filters):
        if not isinstance(entry, dict) or "name" not in entry or "filter" not in entry:
            raise ConfigError(f"compare.filters[{i}] needs 'name' and 'filter'")
        _check_keys(entry, {"name", "filter"}, f"compare.filters[{i}]")
        bundle = build(entry["filter"], f"compare.filters[{i}].filter")
        named.append((str(entry["name"]), bundle.filter))
    out = _out_dir(cfg, args)
    seeds = [args.seed] if args.seed is not None else hs.seeds
    rows = compare_filters(model, named, scenario, seeds, out_dir=out)
    dump_resolved_config(cfg, os.path.join(out, "resolved_config.yaml"))
    total_violations = int(sum(r.violations for r in rows))
    _emit(
        {
            "command": "compare",
            "filters": [r.name for r in rows],
            "violations": total_violations,
            "out": out,
        }
    )
    return EXIT_VIOLATIONS if total_violations > 0 else EXIT_OK


_VERIFY_KEYS = {
    "horizon", "initial_lower", "initial_upper", "initial_counts",
    "samples", "budget",
}


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    model, margin, grid_settings, base_dir = _build_common(cfg, args.config)
    vcfg = cfg.get("verify", {})
    _check_keys(vcfg, _VERIFY_KEYS, "verify")
    horizon = _integer(vcfg, "horizon", "verify", 6, minimum=0)
    samples = _integer(vcfg, "samples", "verify", 10_000, minimum=0)
    budget = _integer(vcfg, "budget", "verify", 2_000_000, minimum=0)
    bundle = build_filter(
        cfg.get("filter", {"kind": "none"}), model, margin, grid_settings, base_dir
    )
    out = _out_dir(cfg, args)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    summary = {"command": "verify", "checks": {}}

    # 1. monitor soundness by exhaustive fallback rollout
    if "initial_lower" in vcfg:
        n = model.state_dim
        init_box = Box(_vector(vcfg, "initial_lower", "verify", n),
                       _vector(vcfg, "initial_upper", "verify", n))
        counts = _integers(
            vcfg, "initial_counts", "verify", [3] * model.state_dim, minimum=1,
            length=model.state_dim,
        )
        initial_states = discretize_box(init_box, counts)
        d_cands = discretize_box(model.disturbance_set, [2] * model.disturbance_dim)
        report = verify_monitor_soundness(
            model, bundle.filter, initial_states, horizon, d_cands, margin, budget
        )
        summary["checks"]["monitor_soundness"] = {
            "checked": report.checked_states,
            "certified": report.certified_states,
            "counterexamples": len(report.counterexamples),
        }

        # corrupted-certificate oracle: a value grid shifted up by +10 must
        # produce a counterexample, otherwise the checker itself is broken
        if bundle.grid is not None:
            corrupted = bundle.grid.with_values(bundle.grid.values + 10.0)
            u_cands = discretize_box(model.control_set, grid_settings.u_counts)
            bad = least_restrictive_filter(model, corrupted, u_cands, d_cands)
            bad_report = verify_monitor_soundness(
                model, bad, initial_states, horizon, d_cands, margin, budget
            )
            summary["checks"]["corruption_oracle"] = {
                "counterexamples": len(bad_report.counterexamples),
                "flagged": bool(bad_report.counterexamples),
            }

    # 2. interval one-step containment sampling
    violations = 0
    for _ in range(samples):
        center = rng.uniform(-1.0, 1.0, size=model.state_dim)
        half = rng.uniform(0.0, 0.3, size=model.state_dim)
        state_box = Box(center - half, center + half)
        u = model.control_set.sample(rng)
        d = model.disturbance_set.sample(rng)
        x = state_box.sample(rng)
        nxt = model.step(x, u, d)
        U = (tuple(u.tolist()),) * 2
        image = model.interval_step(float_rows(state_box), U, float_rows(model.disturbance_set))
        if not Box(*image).contains(nxt, tol=1e-12):
            violations += 1
    summary["checks"]["interval_step_containment"] = {
        "samples": samples,
        "violations": violations,
    }

    # 3. tube-MPC error-bound containment, when applicable
    if isinstance(bundle.filter, TubeMPCFilter):
        flt = bundle.filter
        closed = flt.A + flt.B @ flt.K
        lower = flt.tightened.error_bounds[:, 0] - 1e-9
        upper = flt.tightened.error_bounds[:, 1] + 1e-9
        bad = 0
        for _ in range(samples):
            err = np.zeros(model.state_dim)
            for tau in range(1, flt.horizon + 1):
                err = closed @ err + model.disturbance_set.sample(rng)
                if not (np.all(lower[tau] <= err) and np.all(err <= upper[tau])):
                    bad += 1
                    break
        summary["checks"]["tube_error_bounds"] = {"samples": samples, "violations": bad}
        violations += bad

    dump_resolved_config(cfg, os.path.join(out, "resolved_config.yaml"))
    counterexamples = summary["checks"].get("monitor_soundness", {}).get("counterexamples", 0)
    corruption = summary["checks"].get("corruption_oracle")
    checker_ok = corruption is None or corruption["flagged"]
    summary["ok"] = bool(violations == 0 and counterexamples == 0 and checker_ok)
    _emit(summary)
    if not summary["ok"]:
        return EXIT_VIOLATIONS
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safefilter",
        description="Safety-filter toolkit: solve safety value functions, run "
        "filtered closed-loop episodes, compare filters, verify certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("solve", cmd_solve),
        ("run", cmd_run),
        ("compare", cmd_compare),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        p.add_argument("--verbose", action="store_true")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        _emit({"command": args.command, "error": "config", "message": str(e)})
        return EXIT_CONFIG
    except DeploymentRejected as e:
        print(f"deployment rejected: {e}", file=sys.stderr)
        _emit({"command": args.command, "error": "deployment_rejected", "message": str(e)})
        return EXIT_REJECTED
    except BudgetExceededError as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        _emit({"command": args.command, "error": "budget_exceeded", "message": str(e)})
        return EXIT_BUDGET
    except Exception as e:  # pragma: no cover - defensive
        print(f"error: {e}", file=sys.stderr)
        _emit({"command": args.command, "error": "internal", "message": str(e)})
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
