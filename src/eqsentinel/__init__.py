"""Anytime-valid sequential monitors for equilibrium deviations in games.

Betting e-processes watch repeated normal-form play for profitable
deviations with family-wise or false-discovery-rate control; likelihood
ratio monitors check compliance with known policies in stochastic games.
The harness subpackage reproduces the quantitative experiments end to end.
"""

from .eprocess import (
    BettingMixture,
    EProcessState,
    detection_bound_uniform,
    exact_uniform_mixture,
    slack_lower_bound,
)
from .games import (
    ActionProfile,
    EquilibriumMode,
    JointStrategy,
    NormalFormGame,
    StrategyKind,
    sample_profile,
    two_player_game,
)
from .monitors import (
    EquilibriumMonitor,
    HypothesisId,
    MonitorConfig,
    RejectionState,
    StepDecision,
    deviation_gain,
    ebh_rejection,
    enumerate_hypotheses,
    equilibrium_slack,
)
from .stochastic import (
    LRMonitorState,
    MatrixGameSolution,
    Policy,
    ShapleySolution,
    SolverConfig,
    StochasticGameModel,
    chi_square_div,
    exploitability,
    kl_quadratic_check,
    lr_step,
    matrix_game_solve,
    mixture_policy,
    smooth_policy,
    stationary_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ActionProfile",
    "BettingMixture",
    "EProcessState",
    "EquilibriumMode",
    "EquilibriumMonitor",
    "HypothesisId",
    "JointStrategy",
    "LRMonitorState",
    "MatrixGameSolution",
    "MonitorConfig",
    "NormalFormGame",
    "Policy",
    "RejectionState",
    "ShapleySolution",
    "SolverConfig",
    "StepDecision",
    "StochasticGameModel",
    "StrategyKind",
    "chi_square_div",
    "detection_bound_uniform",
    "deviation_gain",
    "ebh_rejection",
    "enumerate_hypotheses",
    "equilibrium_slack",
    "exact_uniform_mixture",
    "exploitability",
    "kl_quadratic_check",
    "lr_step",
    "matrix_game_solve",
    "mixture_policy",
    "sample_profile",
    "slack_lower_bound",
    "smooth_policy",
    "stationary_distribution",
    "two_player_game",
]
