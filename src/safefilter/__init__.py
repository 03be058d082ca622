"""Runtime safety filters for uncertain discrete-time systems.

Four filter families behind one monitor/fallback/intervention interface:
a least-restrictive switch filter on a solved safety value function, a
CBF-QP smooth filter, robust model-predictive shielding with interval
reachable tubes, and tube MPC for linear models, plus a closed-loop harness
that certifies recursive safety empirically.
"""

from .intervals import Box, cos_interval, sin_interval
from .dynamics import (
    InputDomainError,
    MarginFunction,
    SystemModel,
    discretize_box,
    make_double_integrator,
    make_dubins_car,
    make_inverted_pendulum,
    make_linear_model,
    make_planar_double_integrator,
    margin_halfspace,
    margin_keepout_ball,
    margin_min,
    step,
)
from .reachability import (
    SolveReport,
    ValueGrid,
    backward_step,
    grid_box_min,
    load_value_grid,
    optimal_safety_policy,
    safe_membership,
    save_value_grid,
    solve,
    value_at,
)
from .filters import (
    BudgetExceededError,
    DeploymentRejected,
    FilterDecision,
    Monitor,
    SafetyFilter,
    SoundnessReport,
    decide,
    least_restrictive_filter,
    passthrough_filter,
    verify_monitor_soundness,
)
from .cbf import (
    BarrierFunction,
    builtin_barrier_double_integrator,
    cbf_constraint,
    cbf_qp_filter,
    euler_slack_bound,
)
from .shielding import (
    FRSTube,
    FallbackPolicy,
    TerminalSafeSet,
    braking_fallback,
    braking_terminal_set,
    mps_filter,
    mps_monitor,
    optimal_fallback,
    propagate_frs,
    value_grid_terminal_set,
    write_tube_csv,
)
from .exploration import (
    ExplorationFilter,
    OccupancyWorld,
    exploration_filter,
    load_occupancy_world,
)
from .qp import InfeasibleQP, solve_qp
from .tube_mpc import TightenedProblem, TubeMPCFilter, compute_tightening, tube_mpc_filter
from .harness import (
    EpisodeMetrics,
    MonteCarloReport,
    Scenario,
    SeparationReport,
    Trajectory,
    adversarial_disturbance,
    clopper_pearson,
    compare_filters,
    compute_metrics,
    constant_disturbance,
    constant_policy,
    margin_descent_disturbance,
    margin_descent_policy,
    monte_carlo_safety,
    proportional_policy,
    random_disturbance,
    random_policy,
    replay_states,
    run_episode,
    run_scenario,
    separation_experiment,
    write_decisions_csv,
    zero_disturbance,
)
from .config import ConfigError, load_config

__version__ = "0.1.0"
