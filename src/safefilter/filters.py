"""The unified safety-filter abstraction: monitor, fallback, intervention.

A monitor maps (information state, candidate control) to a real number whose
nonnegativity certifies that the paired fallback can maintain robust all-time
safety after the control is applied. A filter passes candidate controls whose
monitor check succeeds and otherwise intervenes. The brute-force soundness
oracle below checks the monitor contract exhaustively on small instances.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .dynamics import InputDomainError, MarginFunction, SystemModel, all_finite, as_lattice
from .reachability import ValueGrid, optimal_safety_policy, worst_case_next_value


class DeploymentRejected(RuntimeError):
    """The initial state failed the monitor's deployment certificate."""


class BudgetExceededError(RuntimeError):
    """An exhaustive check would exceed its combinatorial node budget."""


@dataclass(frozen=True)
class Monitor:
    """Wrapper around an (information state, control) -> real evaluation."""

    evaluate: Callable[[np.ndarray, np.ndarray], float]
    name: str = ""

    def __call__(self, eta, u) -> float:
        return float(self.evaluate(eta, u))


@dataclass(frozen=True)
class FilterDecision:
    """Audit record of one filtering event.

    ``monitor_value`` is the monitor evaluated on the candidate control,
    logged before intervention. ``degraded`` marks interventions that had to
    fall back beyond their nominal construction (e.g. an infeasible QP).
    """

    candidate: np.ndarray
    applied: np.ndarray
    monitor_value: float
    overridden: bool
    degraded: bool = False


class SafetyFilter:
    """Monitor + fallback policy + switch intervention.

    ``intervene`` passes the candidate when the monitor value is nonnegative
    and applies the fallback otherwise; this is the whole least-restrictive,
    MPS and exploration scheme. Filters with another intervention (CBF-QP
    projection, tube MPC replanning) override it.

    ``state_dim`` and ``control_dim`` are the sizes of the states and the
    controls the filter takes; ``decide`` rejects others.

    Immutable after construction apart from per-episode bookkeeping
    (``last_degraded`` and any state handled by ``reset``/``observe``), which
    follows a single-writer-per-episode contract.
    """

    def __init__(
        self,
        monitor: Monitor,
        fallback: Callable[[np.ndarray], np.ndarray],
        name: str = "",
        *,
        state_dim: int,
        control_dim: int,
    ):
        self.monitor = monitor
        self.fallback = fallback
        self.name = name
        self._shapes = ((state_dim,), (control_dim,))
        self.last_degraded = False

    def intervene(self, eta, u, monitor_value: float) -> np.ndarray:
        """Return ``u`` itself when the monitor value of (eta, u) is
        nonnegative, else the fallback control. ``decide`` passes the value it
        already evaluated; other callers pass ``self.monitor(eta, u)``."""
        self.last_degraded = False
        if monitor_value >= 0.0:
            return u
        return self.fallback(eta)

    def reset(self, x0=None) -> None:
        """Clear per-episode state; called once before each episode."""
        self.last_degraded = False

    def observe(self, x) -> None:
        """Feed the current state to filters that maintain an information state."""


def least_restrictive_filter(
    model: SystemModel,
    grid: ValueGrid,
    u_candidates: np.ndarray,
    d_candidates: np.ndarray,
) -> SafetyFilter:
    """Switch filter on the solved value function.

    The monitor is the worst-case (over disturbance candidates) next-state
    value; candidates are passed through unchanged whenever it is nonnegative
    and otherwise replaced by the optimal safety policy.
    """
    if grid.domain.dim != model.state_dim:
        raise ValueError("grid dimension does not match model state dimension")
    if not len(u_candidates) or not len(d_candidates):
        raise ValueError("candidate lists must be nonempty")
    fallback = optimal_safety_policy(model, grid, u_candidates, d_candidates)
    D = as_lattice(d_candidates)

    def evaluate(x, u):
        return worst_case_next_value(model, grid, x, u, D)

    monitor = Monitor(evaluate, name="worst_case_next_value")
    return SafetyFilter(monitor, fallback, "least_restrictive",
                        state_dim=model.state_dim, control_dim=model.control_dim)


def passthrough_filter(model: SystemModel, name: str = "passthrough") -> SafetyFilter:
    """Vacuous monitor, so the switch always passes; the unfiltered baseline."""
    u_rest = model.control_set.center
    monitor = Monitor(lambda x, u: 0.0, name="vacuous")
    return SafetyFilter(monitor, lambda x: u_rest.copy(), name,
                        state_dim=model.state_dim, control_dim=model.control_dim)


def decide(flt: SafetyFilter, x, u_task) -> FilterDecision:
    """Evaluate the monitor on the candidate, intervene, and record the event.

    A state or a candidate whose shape is not the filter's ``(state_dim,)``
    or ``(control_dim,)`` raises ``ValueError`` naming both shapes, and a
    state with a NaN or infinite coordinate ``InputDomainError``, before any
    monitor call. A non-finite candidate is not shown to the monitor: its
    monitor value is NaN, which certifies nothing, and the filter intervenes.
    """
    x = np.asarray(x, dtype=np.float64)
    u_task = np.atleast_1d(np.asarray(u_task, dtype=np.float64))
    shapes = flt._shapes
    if x.shape != shapes[0] or u_task.shape != shapes[1]:
        raise ValueError(f"state and candidate have shapes {x.shape} and {u_task.shape}, "
                         f"the filter's {shapes[0]} and {shapes[1]}")
    if not all_finite(x):
        raise InputDomainError(f"state {x} is not finite")
    monitor_value = flt.monitor(x, u_task) if all_finite(u_task) else math.nan
    applied = np.atleast_1d(
        np.asarray(flt.intervene(x, u_task, monitor_value), dtype=np.float64)
    )
    return FilterDecision(
        candidate=u_task,
        applied=applied,
        monitor_value=monitor_value,
        # fresh floats compare by value, as in np.array_equal: NaN never equals
        overridden=applied.tolist() != u_task.tolist(),
        degraded=bool(flt.last_degraded),
    )


@dataclass
class SoundnessReport:
    """Result of the exhaustive fallback-rollout monitor check."""

    checked_states: int
    certified_states: int
    nodes_expanded: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.counterexamples


def verify_monitor_soundness(
    model: SystemModel,
    flt: SafetyFilter,
    initial_states: Sequence[np.ndarray],
    horizon: int,
    d_candidates: np.ndarray,
    failure_margin: MarginFunction,
    budget: int = 2_000_000,
) -> SoundnessReport:
    """Brute-force check of the monitor contract on a small instance.

    For every initial state whose fallback passes the monitor (a value
    ``>= 0``; NaN does not pass), roll out the fallback policy under *all*
    disturbance-candidate sequences up to the horizon and confirm the failure
    margin never goes negative. Each counterexample records (initial state,
    disturbance sequence, failing state). Raises BudgetExceededError before
    expanding more nodes than the budget allows.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if not len(d_candidates):
        raise ValueError("need at least one disturbance candidate")
    D = as_lattice(d_candidates)
    branching = len(D)
    if branching == 1:
        per_state = horizon + 1
    else:
        per_state = (branching ** (horizon + 1) - 1) // (branching - 1)
    n_states = len(initial_states)
    if per_state * n_states > budget:
        raise BudgetExceededError(
            f"{per_state * n_states} rollout nodes exceed budget {budget}; "
            "reduce the horizon or the disturbance lattice"
        )

    report = SoundnessReport(checked_states=n_states, certified_states=0)
    for x0 in initial_states:
        x0 = np.asarray(x0, dtype=np.float64)
        if not flt.monitor(x0, flt.fallback(x0)) >= 0.0:  # NaN certifies nothing
            continue
        report.certified_states += 1
        stack = [(x0, ())]
        while stack:
            x, d_seq = stack.pop()
            report.nodes_expanded += 1
            if float(failure_margin(x)) < 0.0:
                report.counterexamples.append((x0, d_seq, x))
                continue
            if len(d_seq) == horizon:
                continue
            u = flt.fallback(x)
            for i, d in enumerate(D):
                stack.append((model.step(x, u, d), d_seq + (i,)))
    return report


def write_series_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line and one line per row, ending in ``\\r\\n``. The csv module
    writes each cell as its ``str``, which for a float64 is the shortest
    round-trip form. Episode logs, comparison tables, tube dumps and tube-MPC
    plans all go through it; it sits here so that ``harness``, ``shielding``
    and ``tube_mpc`` can all import it."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
