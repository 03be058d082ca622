"""Closed-loop episodes, task/disturbance policies, metrics, and experiments.

Episodes are deterministic given their seed: the per-step draw order is fixed
(task policy first, then the disturbance policy, which sees the post-filter
control so an adversary can react to the actual input). Every step's filter
decision is logged so runs can be audited and replayed bit-exactly.
"""
from __future__ import annotations

import os
from dataclasses import astuple, dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from numpy._core.umath import clip as _clip  # np.clip's ufunc, without its dispatch

from .dynamics import MarginFunction, SystemModel, _float_vector, as_lattice, step
from .filters import (
    DeploymentRejected,
    FilterDecision,
    SafetyFilter,
    _check_shapes,
    decide,
    passthrough_filter,
    write_series_csv,
)
from .intervals import first_min
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
    u0 = flt.fallback(x0)
    _check_shapes(flt, x0, _float_vector(u0))
    if not flt.monitor(x0, u0) >= 0.0:
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
        applied = decision.applied
        d = _float_vector(disturbance_policy(x, applied, rng))
        x_next = step(model, x, applied, d)
        states.append(x_next)
        controls.append(applied)
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
    # the subtraction is elementwise, so each row is that state's own error;
    # the dot products stay one per state, as a matrix product rounds otherwise
    for err, u in zip(traj.states[:n_steps] - goal_vec, traj.controls):
        cost += float(err @ err) + control_weight * float(u @ u)
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
    lower, upper = control_set.lower, control_set.upper

    def policy(x, rng):
        return _clip(gain @ (goal - np.asarray(x, dtype=np.float64)), lower, upper)

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


def margin_descent_policy(
    model: SystemModel, margin: MarginFunction, u_candidates: np.ndarray
) -> TaskPolicy:
    """Adversarial task policy: greedily steers the nominal next state toward
    the failure set. Ties go to the lowest candidate index, a NaN margin never
    wins, and candidate 0 is picked when every margin is NaN or +inf."""
    U = as_lattice(u_candidates)
    D = model.zero_disturbance()[None]

    def policy(x, rng):
        return U[first_min(_eval_on_nodes(margin, successor_states(model, x, U, D)).tolist())].copy()

    return policy


def _worst_disturbance(model: SystemModel, score: Callable, d_candidates) -> DisturbancePolicy:
    """Worst-case-within-lattice disturbance: picks the candidate whose next
    state under the applied control has the lowest ``score`` (states (N, n)
    to values (N,)), with the tie and NaN rules of ``margin_descent_policy``."""
    D = as_lattice(d_candidates)

    def policy(x, u, rng):
        U = np.atleast_1d(np.asarray(u, dtype=np.float64))[None]
        return D[first_min(score(successor_states(model, x, U, D)).tolist())].copy()

    return policy


def adversarial_disturbance(
    model: SystemModel, grid: ValueGrid, d_candidates: np.ndarray
) -> DisturbancePolicy:
    """Adversary on a solved grid: the candidate minimizing the next state's
    value (``values_at`` is looked up at each call, so a patch of
    ``ValueGrid.values_at`` applies)."""
    return _worst_disturbance(model, lambda xs: grid.values_at(xs), d_candidates)


def margin_descent_disturbance(
    model: SystemModel, margin: MarginFunction, d_candidates: np.ndarray
) -> DisturbancePolicy:
    """Adversary for models without a solved value function: the candidate
    minimizing the next state's failure margin."""
    return _worst_disturbance(model, lambda xs: _eval_on_nodes(margin, xs), d_candidates)


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


def run_scenario(
    model: SystemModel,
    flt: SafetyFilter,
    scenario: Scenario,
    seeds: Iterable[int],
) -> Iterator[tuple[Trajectory, EpisodeMetrics]]:
    """One episode of ``scenario`` per seed, in seed order: the one loop over
    seeds behind every experiment. Episodes are yielded as they finish, so a
    caller that consumes them as it goes holds one trajectory at a time."""
    for seed in seeds:
        yield run_episode(
            model, flt, scenario.task_policy, scenario.disturbance_policy,
            scenario.x0, scenario.steps, seed, scenario.failure_margin,
            scenario.goal, scenario.control_weight,
        )


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
    scenario: Scenario,
    seeds: Iterable[int],
) -> SeparationReport:
    """The scenario's seeds run once through the pass-through filter and once
    through ``flt``."""
    seeds = list(seeds)
    return SeparationReport(
        [m for _, m in run_scenario(model, passthrough_filter(model), scenario, seeds)],
        [m for _, m in run_scenario(model, flt, scenario, seeds)],
        seeds,
    )


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
    """Fraction of episodes (seeds ``seed`` to ``seed + n_episodes - 1``) that
    ever enter the failure set, with an exact binomial interval. Disturbances
    default to uniform draws over their box."""
    if n_episodes < 1:
        raise ValueError("n_episodes must be at least 1")
    if disturbance_policy is None:
        disturbance_policy = random_disturbance(model)
    scenario = Scenario(x0, steps, failure_margin, task_policy, disturbance_policy)
    seeds = (seed + i for i in range(n_episodes))
    failures = sum(m.violations > 0 for _, m in run_scenario(model, flt, scenario, seeds))
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


def compare_filters(
    model: SystemModel,
    named_filters: Iterable[tuple[str, SafetyFilter]],
    scenario: Scenario,
    seeds: Iterable[int],
    out_dir=None,
) -> list[FilterComparison]:
    """Run the same scenario and seeds through each filter and tabulate.

    When ``out_dir`` is given, writes ``comparison.csv`` plus a per-filter
    plot-data trace (t, monitor_value, overridden) for the first seed.
    """
    rows = []
    traces = {}
    for name, flt in named_filters:
        results = list(run_scenario(model, flt, scenario, seeds))
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
        os.makedirs(out_dir, exist_ok=True)
        write_series_csv(
            os.path.join(out_dir, "comparison.csv"),
            ["filter", "violations", "intervention_rate", "task_cost",
             "chatter_count", "mean_monitor"],
            (astuple(r) for r in rows),
        )
        for name, traj in traces.items():
            write_series_csv(
                os.path.join(out_dir, f"trace_{name}.csv"),
                ["t", "monitor_value", "overridden"],
                (
                    [t, d.monitor_value, int(d.overridden)]
                    for t, d in enumerate(traj.decisions)
                ),
            )
    return rows


# --- file emitters ----------------------------------------------------------


def write_decisions_csv(traj: Trajectory, path) -> None:
    """Per-step audit log: t, state, candidate, applied, monitor value, override flag."""
    n = traj.states.shape[1]
    m = traj.controls.shape[1] if traj.steps else 0
    write_series_csv(
        path,
        ["t", *(f"x{i}" for i in range(n)), *(f"candidate{i}" for i in range(m)),
         *(f"applied{i}" for i in range(m)), "monitor_value", "overridden"],
        (
            [t, *traj.states[t].tolist(), *d.candidate.tolist(), *d.applied.tolist(),
             float(d.monitor_value), int(d.overridden)]
            for t, d in enumerate(traj.decisions)
        ),
    )
