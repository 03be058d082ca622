"""Closed-loop episodes, task/disturbance policies, metrics, and experiments.

Episodes are deterministic given their seed: the per-step draw order is fixed
(task policy first, then the disturbance policy, which sees the post-filter
control so an adversary can react to the actual input). Every step's filter
decision is logged so runs can be audited and replayed bit-exactly.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import MarginFunction, SystemModel, as_lattice, step
from .filters import (
    DeploymentRejected,
    FilterDecision,
    SafetyFilter,
    decide,
)
from .reachability import ValueGrid, _eval_on_nodes, successor_states

TaskPolicy = Callable[[np.ndarray, np.random.Generator], np.ndarray]
DisturbancePolicy = Callable[[np.ndarray, np.ndarray, np.random.Generator], np.ndarray]


@dataclass
class Trajectory:
    states: np.ndarray
    controls: np.ndarray
    disturbances: np.ndarray
    decisions: list[FilterDecision]
    seed: int
    termination: str = "completed"

    @property
    def steps(self) -> int:
        return self.controls.shape[0]


@dataclass
class EpisodeMetrics:
    violations: int
    intervention_count: int
    intervention_rate: float
    mean_monitor: float
    min_monitor: float
    task_cost: float
    chatter_count: int


@dataclass
class Scenario:
    """Everything an episode needs besides the filter under test."""

    x0: np.ndarray
    steps: int
    failure_margin: MarginFunction
    task_policy: TaskPolicy
    disturbance_policy: DisturbancePolicy
    goal: Optional[np.ndarray] = None
    control_weight: float = 0.1


def run_episode(
    model: SystemModel,
    flt: SafetyFilter,
    task_policy: TaskPolicy,
    disturbance_policy: DisturbancePolicy,
    x0,
    steps: int,
    seed: int,
    failure_margin: MarginFunction,
    goal=None,
    control_weight: float = 0.1,
) -> tuple[Trajectory, EpisodeMetrics]:
    """One closed-loop episode. Raises DeploymentRejected when the monitor does
    not certify the fallback at the initial state: a value that is not
    ``>= 0``, NaN included, rejects it."""
    x0 = np.asarray(x0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    flt.reset(x0)
    if not flt.monitor(x0, flt.fallback(x0)) >= 0.0:
        raise DeploymentRejected(f"monitor rejected deployment at {x0}")

    states = [x0]
    controls = []
    disturbances = []
    decisions: list[FilterDecision] = []
    x = x0
    for _ in range(steps):
        u_task = task_policy(x, rng)
        decision = decide(flt, x, u_task)
        # the disturbance is chosen after filtering so adversaries see the
        # applied control; step() validates both inputs against their boxes
        d = np.atleast_1d(np.asarray(disturbance_policy(x, decision.applied, rng), dtype=np.float64))
        x_next = step(model, x, decision.applied, d)
        states.append(x_next)
        controls.append(decision.applied)
        disturbances.append(d)
        decisions.append(decision)
        flt.observe(x_next)
        x = x_next

    traj = Trajectory(
        states=np.asarray(states),
        controls=np.asarray(controls).reshape(steps, model.control_dim),
        disturbances=np.asarray(disturbances).reshape(steps, model.disturbance_dim),
        decisions=decisions,
        seed=seed,
    )
    return traj, compute_metrics(traj, failure_margin, goal, control_weight)


def compute_metrics(
    traj: Trajectory,
    failure_margin: MarginFunction,
    goal=None,
    control_weight: float = 0.1,
) -> EpisodeMetrics:
    n_steps = traj.steps
    margins = np.asarray([float(failure_margin(x)) for x in traj.states])
    violations = int(np.sum(margins < 0.0))
    if n_steps == 0:
        return EpisodeMetrics(violations, 0, 0.0, 0.0, 0.0, 0.0, 0)
    overridden = np.asarray([d.overridden for d in traj.decisions])
    monitor_vals = np.asarray([d.monitor_value for d in traj.decisions])
    goal_vec = (
        np.zeros(traj.states.shape[1]) if goal is None else np.asarray(goal, dtype=np.float64)
    )
    cost = 0.0
    for t in range(n_steps):
        err = traj.states[t] - goal_vec
        cost += float(err @ err) + control_weight * float(traj.controls[t] @ traj.controls[t])
    chatter = int(np.sum(overridden[1:] != overridden[:-1]))
    return EpisodeMetrics(
        violations=violations,
        intervention_count=int(overridden.sum()),
        intervention_rate=float(overridden.mean()),
        mean_monitor=float(monitor_vals.mean()),
        min_monitor=float(monitor_vals.min()),
        task_cost=cost,
        chatter_count=chatter,
    )


def replay_states(model: SystemModel, traj: Trajectory) -> np.ndarray:
    """Recompute the state sequence from the logged controls and disturbances."""
    states = [traj.states[0]]
    for t in range(traj.steps):
        states.append(step(model, states[-1], traj.controls[t], traj.disturbances[t]))
    return np.asarray(states)


# --- policies ---------------------------------------------------------------


def proportional_policy(gain, goal, control_set) -> TaskPolicy:
    """u = clip(gain @ (goal - x)) onto the control box."""
    gain = np.asarray(gain, dtype=np.float64)
    goal = np.asarray(goal, dtype=np.float64)

    def policy(x, rng):
        u = gain @ (goal - np.asarray(x, dtype=np.float64))
        return np.clip(u, control_set.lower, control_set.upper)

    return policy


def random_policy(control_set) -> TaskPolicy:
    def policy(x, rng):
        return control_set.sample(rng)

    return policy


def constant_policy(u) -> TaskPolicy:
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))

    def policy(x, rng):
        return u.copy()

    return policy


def _first_min(values: np.ndarray) -> int:
    """Index of the least value, the lowest index on ties. A NaN never wins,
    and when no value is below +inf (all NaN or +inf) the answer is 0."""
    return int(np.argmin(np.fmin(values, np.inf)))  # fmin turns NaN into +inf


def margin_descent_policy(
    model: SystemModel, margin: MarginFunction, u_candidates: np.ndarray
) -> TaskPolicy:
    """Adversarial task policy: greedily steers the nominal next state toward
    the failure set. Ties go to the lowest candidate index, a NaN margin never
    wins, and candidate 0 is picked when every margin is NaN or +inf."""
    U = as_lattice(u_candidates)
    D = model.zero_disturbance()[None]

    def policy(x, rng):
        return U[_first_min(_eval_on_nodes(margin, successor_states(model, x, U, D)))].copy()

    return policy


def adversarial_disturbance(
    model: SystemModel, grid: ValueGrid, d_candidates: np.ndarray
) -> DisturbancePolicy:
    """Worst-case-within-lattice disturbance: picks the candidate minimizing the
    value at the next state given the applied control (lowest index on ties)."""
    D = as_lattice(d_candidates)

    def policy(x, u, rng):
        U = np.atleast_1d(np.asarray(u, dtype=np.float64))[None]
        return D[int(np.argmin(grid.values_at(successor_states(model, x, U, D))))].copy()

    return policy


def margin_descent_disturbance(
    model: SystemModel, margin: MarginFunction, d_candidates: np.ndarray
) -> DisturbancePolicy:
    """Adversarial disturbance for models without a solved value function:
    picks the candidate that minimizes the next-state failure margin, with the
    tie and NaN rules of ``margin_descent_policy``."""
    D = as_lattice(d_candidates)

    def policy(x, u, rng):
        U = np.atleast_1d(np.asarray(u, dtype=np.float64))[None]
        return D[_first_min(_eval_on_nodes(margin, successor_states(model, x, U, D)))].copy()

    return policy


def random_disturbance(model: SystemModel) -> DisturbancePolicy:
    def policy(x, u, rng):
        return model.disturbance_set.sample(rng)

    return policy


def constant_disturbance(d) -> DisturbancePolicy:
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))

    def policy(x, u, rng):
        return d.copy()

    return policy


def zero_disturbance(model: SystemModel) -> DisturbancePolicy:
    return constant_disturbance(model.zero_disturbance())


# --- experiments ------------------------------------------------------------


@dataclass
class SeparationReport:
    """Side-by-side unfiltered/filtered runs of the same goal-seeking policy."""

    unfiltered: list[EpisodeMetrics]
    filtered: list[EpisodeMetrics]
    seeds: list[int]

    @property
    def unfiltered_violations(self) -> int:
        return sum(m.violations for m in self.unfiltered)

    @property
    def filtered_violations(self) -> int:
        return sum(m.violations for m in self.filtered)

    @property
    def mean_cost_inflation(self) -> float:
        diffs = [f.task_cost - u.task_cost for f, u in zip(self.filtered, self.unfiltered)]
        return float(np.mean(diffs))


def separation_experiment(
    model: SystemModel,
    flt: SafetyFilter,
    task_policy: TaskPolicy,
    failure_margin: MarginFunction,
    x0,
    steps: int,
    seeds: Sequence[int],
    disturbance_policy: Optional[DisturbancePolicy] = None,
    goal=None,
    control_weight: float = 0.1,
) -> SeparationReport:
    from .filters import passthrough_filter

    if disturbance_policy is None:
        disturbance_policy = zero_disturbance(model)
    unfiltered_rows = []
    filtered_rows = []
    raw = passthrough_filter(model)
    for seed in seeds:
        _, m_raw = run_episode(
            model, raw, task_policy, disturbance_policy, x0, steps, seed,
            failure_margin, goal, control_weight,
        )
        _, m_flt = run_episode(
            model, flt, task_policy, disturbance_policy, x0, steps, seed,
            failure_margin, goal, control_weight,
        )
        unfiltered_rows.append(m_raw)
        filtered_rows.append(m_flt)
    return SeparationReport(unfiltered_rows, filtered_rows, list(seeds))


@dataclass
class MonteCarloReport:
    episodes: int
    failures: int
    estimate: float
    confidence: float
    lower: float
    upper: float


def clopper_pearson(failures: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval; degenerate n gives the full [0, 1]."""
    # scipy.stats takes about a second to import; only this function needs it
    from scipy.stats import beta as _beta_dist

    if n < 1:
        raise ValueError("need at least one trial")
    alpha = 1.0 - confidence
    lo = 0.0 if failures == 0 else float(_beta_dist.ppf(alpha / 2, failures, n - failures + 1))
    hi = 1.0 if failures == n else float(_beta_dist.ppf(1 - alpha / 2, failures + 1, n - failures))
    return lo, hi


def monte_carlo_safety(
    model: SystemModel,
    flt: SafetyFilter,
    task_policy: TaskPolicy,
    x0,
    steps: int,
    n_episodes: int,
    failure_margin: MarginFunction,
    seed: int = 0,
    confidence: float = 0.95,
    disturbance_policy: Optional[DisturbancePolicy] = None,
) -> MonteCarloReport:
    """Fraction of episodes that ever enter the failure set, with an exact
    binomial interval. Disturbances default to uniform draws over their box."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    if disturbance_policy is None:
        disturbance_policy = random_disturbance(model)
    failures = 0
    for i in range(n_episodes):
        _, metrics = run_episode(
            model, flt, task_policy, disturbance_policy, x0, steps, seed + i,
            failure_margin,
        )
        if metrics.violations > 0:
            failures += 1
    lo, hi = clopper_pearson(failures, n_episodes, confidence)
    return MonteCarloReport(
        episodes=n_episodes,
        failures=failures,
        estimate=failures / n_episodes,
        confidence=confidence,
        lower=lo,
        upper=hi,
    )


@dataclass
class FilterComparison:
    name: str
    violations: int
    intervention_rate: float
    task_cost: float
    chatter_count: int
    mean_monitor: float


def run_scenario(
    model: SystemModel,
    flt: SafetyFilter,
    scenario: Scenario,
    seeds: Sequence[int],
) -> list[tuple[Trajectory, EpisodeMetrics]]:
    return [
        run_episode(
            model, flt, scenario.task_policy, scenario.disturbance_policy,
            scenario.x0, scenario.steps, seed, scenario.failure_margin,
            scenario.goal, scenario.control_weight,
        )
        for seed in seeds
    ]


def compare_filters(
    model: SystemModel,
    named_filters: Sequence[tuple[str, SafetyFilter]],
    scenario: Scenario,
    seeds: Sequence[int],
    out_dir=None,
) -> list[FilterComparison]:
    """Run the same scenario and seeds through each filter and tabulate.

    When ``out_dir`` is given, writes ``comparison.csv`` plus a per-filter
    plot-data trace (t, monitor_value, overridden) for the first seed.
    """
    rows = []
    traces = {}
    for name, flt in named_filters:
        results = run_scenario(model, flt, scenario, seeds)
        metrics = [m for _, m in results]
        rows.append(
            FilterComparison(
                name=name,
                violations=int(sum(m.violations for m in metrics)),
                intervention_rate=float(np.mean([m.intervention_rate for m in metrics])),
                task_cost=float(np.mean([m.task_cost for m in metrics])),
                chatter_count=int(sum(m.chatter_count for m in metrics)),
                mean_monitor=float(np.mean([m.mean_monitor for m in metrics])),
            )
        )
        traces[name] = results[0][0]
    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "comparison.csv"), "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["filter", "violations", "intervention_rate", "task_cost",
                 "chatter_count", "mean_monitor"]
            )
            for r in rows:
                writer.writerow(
                    [r.name, r.violations, repr(r.intervention_rate),
                     repr(r.task_cost), r.chatter_count, repr(r.mean_monitor)]
                )
        for name, traj in traces.items():
            write_series_csv(
                os.path.join(out_dir, f"trace_{name}.csv"),
                ["t", "monitor_value", "overridden"],
                [
                    [t, repr(d.monitor_value), int(d.overridden)]
                    for t, d in enumerate(traj.decisions)
                ],
            )
    return rows


# --- file emitters ----------------------------------------------------------


def write_decisions_csv(traj: Trajectory, path) -> None:
    """Per-step audit log: t, state, candidate, applied, monitor value, override flag."""
    n = traj.states.shape[1]
    m = traj.controls.shape[1] if traj.steps else 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"candidate{i}" for i in range(m)]
            + [f"applied{i}" for i in range(m)]
            + ["monitor_value", "overridden"]
        )
        for t, d in enumerate(traj.decisions):
            writer.writerow(
                [t]
                + [repr(float(v)) for v in traj.states[t]]
                + [repr(float(v)) for v in d.candidate]
                + [repr(float(v)) for v in d.applied]
                + [repr(float(d.monitor_value)), int(d.overridden)]
            )


def write_series_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
