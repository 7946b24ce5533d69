"""The quantitative experiments behind the CLI subcommands.

Every experiment is deterministic given its config: per-run rng substreams
are keyed by (cell, run) indices, artifacts print floats with 17 significant
digits, and each summary statistic is a pure function of the rows in
``runs.csv``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import InitVar, dataclass
from operator import add
from pathlib import Path

import numpy as np

from ..envs import prey, soccer
from ..eprocess import (
    ORACLE_GRID_NODES,
    BettingMixture,
    _log_mix,
    detection_bound_uniform,
    exact_uniform_mixture,
    slack_lower_bound,
)
from ..errors import ConfigError, DomainError, ShapeError
from ..games import ActionProfile, EquilibriumMode, JointStrategy, NormalFormGame, cumulative_cuts
from ..monitors import (
    EquilibriumMonitor,
    MonitorConfig,
    _log_ladder,
    deviation_gain,
    enumerate_hypotheses,
)
from ..stochastic import (
    Policy,
    SolverConfig,
    _backup,
    exploitability,
    kl_quadratic_check,
    log_likelihood_ratios,
    matrix_game_solve,
    policy_to_text,
    shapley_solve_arrays,
    smooth_policy,
    stationary_distribution,
)
from . import nfstreams, scenarios
from .csvio import write_csv, write_figure_data, write_summary, write_text
from .seeding import DEFAULT_SEED, run_rng, run_rngs, run_streams


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    summary: dict
    checks: dict[str, bool]
    artifacts: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def _finish(
    name: str, out_dir: Path, summary: dict, checks: dict, runs=None, figure=None, extra=()
) -> ExperimentResult:
    """Write an experiment's artifacts: ``runs.csv`` from (columns, rows),
    ``summary.csv`` with the experiment name first, and a figure file from
    (file name, header, rows); then ``extra`` files already written."""
    summary = {"experiment": name, **summary}
    artifacts = []
    if runs is not None:
        artifacts.append(write_csv(out_dir / "runs.csv", name, *runs))
    artifacts.append(write_summary(out_dir / "summary.csv", name, summary))
    if figure is not None:
        file_name, header, rows = figure
        artifacts.append(write_figure_data(out_dir / file_name, header, rows))
    return ExperimentResult(name, summary, checks, (*artifacts, *extra))


def _first(crossings) -> list:
    """Per run of (m, runs) crossing rounds, the earliest positive one, or -1
    when nothing crossed."""
    first = np.where(crossings > 0, crossings, np.iinfo(crossings.dtype).max).min(axis=0)
    return np.where(crossings.max(axis=0) > 0, first, -1).tolist()


def _mean(values) -> float:
    """The mean of ``values``, or NaN when there are none."""
    return float(values.mean()) if values.size else math.nan


def _blocks(rows, column: int, runs: int) -> np.ndarray:
    """One column of rows written cell by cell, as a (cells, runs) float array."""
    return np.array([r[column] for r in rows], dtype=float).reshape(-1, runs)


def fit_loglog_slope(points) -> tuple[float, float]:
    """Ordinary least squares of log(tau) on log(eps); needs >= 3 points."""
    points = list(points)
    if len(points) < 3:
        raise DomainError("slope fit needs at least 3 points")
    xs, ys = zip(*points)
    if min(xs) <= 0.0 or min(ys) <= 0.0:
        raise DomainError("slope fit needs positive coordinates")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)


def _validate_config(config, unread=()) -> None:
    """Reject, before any artifact directory exists, what no library config
    object checks: a negative seed, an empty list, an int field other than
    ``seed`` (each counts something) below 1, a crossing threshold not above
    1 or infinite, or an unknown mixture. Fields in ``unread`` go unchecked."""
    if config.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {config.seed}")
    for name, value in vars(config).items():
        if name in (*unread, "seed"):
            continue
        if value == ():
            raise ConfigError(f"{name} must list at least one value")
        if isinstance(value, int) and not value >= 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    threshold = getattr(config, "threshold", 2.0)
    if not threshold > 1.0:
        raise ConfigError(f"threshold must exceed 1, got {threshold}")
    if threshold == math.inf:
        raise ConfigError("threshold must be finite: no likelihood ratio crosses inf")
    if getattr(config, "mixture", "dirac") not in ("dirac", "uniform"):
        raise ConfigError(f"mixture must be dirac or uniform, got {config.mixture!r}")


def _validate_weights(name: str, values, positive=False, fit_from=None) -> None:
    """Reject a deviation weight outside [0, 1], or (0, 1] when ``positive``,
    and fewer than 3 weights at or above ``fit_from`` to fit a slope to."""
    for value in values:
        if not (0.0 < value <= 1.0 if positive else 0.0 <= value <= 1.0):
            raise ConfigError(f"{name} must lie in {'(0' if positive else '[0'}, 1], got {value}")
    if fit_from is not None and sum(value >= fit_from for value in values) < 3:
        raise ConfigError(f"slope fit needs at least 3 of {name} at or above {fit_from}")


# ---------------------------------------------------------------------------
# nf-fwer-null: false-alarm grid under equilibrium play
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullGridConfig:
    seed: int = DEFAULT_SEED
    runs: int = 300
    horizon: int = 4000
    lambdas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.4)
    alphas: tuple[float, ...] = (0.2, 0.1, 0.05)
    #: A custom game and generating strategy; None plays the two-signal scenario's.
    game: NormalFormGame | None = None
    strategy: JointStrategy | None = None

    def __post_init__(self) -> None:
        _validate_config(self)
        for lam in self.lambdas:
            for alpha in self.alphas:
                MonitorConfig(alpha, BettingMixture.dirac(lam))


def run_nf_fwer_null(config: NullGridConfig, out_dir: Path) -> ExperimentResult:
    game = config.game or scenarios.two_signal_game()
    strategy = config.strategy or scenarios.two_signal_nash()
    strategy.check_compatible(game)
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    offsets = nfstreams.stream_offsets(strategy, config.horizon)
    rows = []
    cells = [(lam, alpha) for lam in config.lambdas for alpha in config.alphas]
    for cell, (lam, alpha) in enumerate(cells):
        mixture = BettingMixture.dirac(lam)
        streams = run_streams(config.seed, cell, config.runs, offsets)
        levels = np.full((1, m), math.log(m / alpha))
        rounds, _ = nfstreams.replay_runs(
            strategy, tables, mixture, config.horizon, streams, levels
        )
        for run, first in enumerate(_first(rounds[0])):
            rows.append((lam, alpha, run, int(first > 0), first))
    summary: dict = {"seed": config.seed, "runs_per_cell": config.runs}
    checks: dict[str, bool] = {}
    fig_rows = []
    for (lam, alpha), hits in zip(cells, _blocks(rows, 3, config.runs)):
        fwer = float(hits.mean())
        summary[f"fwer[lambda={lam},alpha={alpha}]"] = fwer
        checks[f"fwer_le_alpha[lambda={lam},alpha={alpha}]"] = fwer <= alpha
        fig_rows.append((lam, alpha, m / alpha, fwer))
    base_cell = summary.get("fwer[lambda=0.05,alpha=0.2]")
    if base_cell is not None:
        checks["base_cell_le_0.05"] = base_cell <= 0.05
    runs = (["lambda", "alpha", "run", "rejected", "first_rejection_round"], rows)
    figure = ("figure_fwer_grid.dat", ["lambda", "alpha", "threshold", "empirical_fwer"], fig_rows)
    return _finish("nf-fwer-null", out_dir, summary, checks, runs, figure)


# ---------------------------------------------------------------------------
# nf-detect: FDR vs FWER stopping times under the two-signal alternative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectConfig:
    seed: int = DEFAULT_SEED
    runs: int = 300
    horizon: int = 4000
    alpha: float = 0.2
    betting_fraction: float = 0.05
    #: A custom game and generating strategy; None plays the two-signal scenario's.
    game: NormalFormGame | None = None
    strategy: JointStrategy | None = None

    def __post_init__(self) -> None:
        _validate_config(self)
        MonitorConfig(self.alpha, BettingMixture.dirac(self.betting_fraction))


def run_nf_detect(config: DetectConfig, out_dir: Path) -> ExperimentResult:
    game = config.game or scenarios.two_signal_game()
    strategy = config.strategy or scenarios.two_signal_alternative()
    strategy.check_compatible(game)
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    weights = np.full(m, 1.0 / m)
    mixture = BettingMixture.dirac(config.betting_fraction)
    offsets = nfstreams.stream_offsets(strategy, config.horizon)
    streams = run_streams(config.seed, 0, config.runs, offsets)
    # Level stack: the FWER threshold m/alpha, then the e-BH ladder.
    levels = np.vstack([np.full(m, math.log(m / config.alpha)), _log_ladder(config.alpha, weights)])
    rounds, last = nfstreams.replay_runs(strategy, tables, mixture, config.horizon, streams, levels)
    alarms = nfstreams.first_alarms(rounds[1:])
    labels = [h.label() for h in hypotheses]
    rows = []
    for run, (tau_fwer, wealth) in enumerate(zip(_first(rounds[0]), np.exp(last).T.tolist())):
        tau_fdr, k_at_alarm, rejected = alarms[run]
        fdr_dominates = tau_fdr != -1 and (tau_fwer == -1 or tau_fdr <= tau_fwer)
        rejected = "|".join(labels[j] for j in rejected)
        rows.append((run, tau_fwer, tau_fdr, k_at_alarm, rejected, int(fdr_dominates), *wealth))
    columns = ["run", "tau_fwer", "tau_fdr", "k_at_alarm", "rejected", "fdr_dominates"]
    columns += [f"final_wealth[{label}]" for label in labels]
    tau_fwer = np.array([r[1] for r in rows], dtype=float)
    tau_fdr = np.array([r[2] for r in rows], dtype=float)
    all_detected = bool((tau_fwer > 0).all() and (tau_fdr > 0).all())
    dominance = int(sum(r[5] for r in rows))
    ratio = float(tau_fwer.mean() / tau_fdr.mean()) if all_detected else math.nan
    summary = {
        "seed": config.seed,
        "runs": config.runs,
        "dominance_count": dominance,
        "mean_tau_fwer": float(tau_fwer.mean()),
        "mean_tau_fdr": float(tau_fdr.mean()),
        "speedup_ratio": ratio,
    }
    checks = {
        "all_runs_detected": all_detected,
        "fdr_never_later": dominance == config.runs,
        "speedup_in_band": all_detected and 1.05 <= ratio <= 1.30,
    }
    figure = ("figure_detect_scatter.dat", ["run", "tau_fwer", "tau_fdr"], [r[:3] for r in rows])
    return _finish("nf-detect", out_dir, summary, checks, (columns, rows), figure)


# ---------------------------------------------------------------------------
# nf-sensitivity: stopping times over the (alpha, lambda/mixture, eta) grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SensitivityConfig:
    seed: int = DEFAULT_SEED
    runs: int = 300
    horizon: int = 20000
    alphas: tuple[float, ...] = (0.2, 0.1, 0.05)
    lambdas: tuple[float, ...] = (0.05, 0.1, 0.15, 0.4)
    etas: tuple[float, ...] = (0.05, 0.1, 0.15)
    # "dirac" sweeps lambdas; "uniform" uses one grid of grid_nodes. Only
    # dirac reads lambdas, and only uniform reads grid_nodes.
    mixture: str = "dirac"
    grid_nodes: int = 101

    def __post_init__(self) -> None:
        _validate_config(self, unread=("grid_nodes",) if self.mixture == "dirac" else ("lambdas",))
        for _, mixture in self.mixtures():
            for alpha in self.alphas:
                MonitorConfig(alpha, mixture)
        calibrated = sorted(scenarios.SENSITIVITY_ROWS)
        for eta in self.etas:
            if eta not in calibrated:
                raise ConfigError(f"etas must be in {calibrated}, got {eta}")

    def mixtures(self) -> list[tuple[str, BettingMixture]]:
        """(cell name, mixture): one Dirac mass per lambda, or one grid."""
        if self.mixture == "uniform":
            return [(f"uniform[{self.grid_nodes}]", BettingMixture.uniform_grid(self.grid_nodes))]
        return [(f"dirac[{lam}]", BettingMixture.dirac(lam)) for lam in self.lambdas]


def run_nf_sensitivity(config: SensitivityConfig, out_dir: Path) -> ExperimentResult:
    game = scenarios.two_signal_game()
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    signal_index = 0  # hypothesis (player 1, deviation 0) carries the signal
    mixtures = config.mixtures()
    profiles = {eta: scenarios.sensitivity_profile(eta) for eta in config.etas}
    offsets = {eta: nfstreams.stream_offsets(p, config.horizon) for eta, p in profiles.items()}
    rows = []
    cells = [
        (alpha, eta, name, mix)
        for alpha in config.alphas
        for eta in config.etas
        for name, mix in mixtures
    ]
    for cell, (alpha, eta, name, mix) in enumerate(cells):
        strategy = profiles[eta]
        streams = run_streams(config.seed, cell, config.runs, offsets[eta])
        # Any crossing before the signal's is evaluated by the time it is
        # reached, so the run ends there and tau_stop is already settled.
        rounds, _ = nfstreams.replay_runs(
            strategy, tables, mix, config.horizon, streams,
            np.full((1, m), math.log(m / alpha)), stop=signal_index,
        )
        signal = rounds[0, signal_index].tolist()
        for run, tau in enumerate(_first(rounds[0])):
            rows.append((alpha, eta, name, run, tau, signal[run]))
    summary: dict = {"seed": config.seed, "runs_per_cell": config.runs}
    checks: dict[str, bool] = {}
    fig_rows = []
    blocks = zip(cells, _blocks(rows, 4, config.runs), _blocks(rows, 5, config.runs))
    for (alpha, eta, name, _), taus, signal in blocks:
        detected = taus[taus > 0]
        key = f"alpha={alpha},eta={eta},mixture={name}"
        mean_tau = summary[f"mean_tau[{key}]"] = _mean(detected)
        summary[f"detect_rate[{key}]"] = float((taus > 0).mean())
        q25, q75 = np.percentile(detected, [25, 75]).tolist() if detected.size else (math.nan,) * 2
        fig_rows.append((alpha, eta, name, mean_tau, q25, q75))
        if config.mixture == "uniform":
            bound = detection_bound_uniform(m / alpha, eta)
            ok = bool((signal > 0).all() and signal.mean() <= bound)
            summary[f"uniform_bound[{key}]"] = bound
            checks[f"mean_below_uniform_bound[{key}]"] = ok
    runs = (["alpha", "eta", "mixture", "run", "tau_stop", "tau_signal"], rows)
    header = ["alpha", "eta", "mixture", "mean_tau", "q25", "q75"]
    figure = ("figure_sensitivity.dat", header, fig_rows)
    return _finish("nf-sensitivity", out_dir, summary, checks, runs, figure)


# ---------------------------------------------------------------------------
# nf-slack: deterministic-gap stopping rounds against the closed form
# ---------------------------------------------------------------------------


#: The ranges each nf-slack triple draws its alpha, fraction and slack from.
ALPHA_RANGE = (0.05, 0.8)
LAMBDA_RANGE = (0.05, 0.95)
ETA_RANGE = (0.02, 0.5)


@dataclass(frozen=True)
class SlackConfig:
    seed: int = DEFAULT_SEED
    triples: int = 20

    def __post_init__(self) -> None:
        _validate_config(self)


def run_nf_slack(config: SlackConfig, out_dir: Path) -> ExperimentResult:
    rows = []
    for trial in range(config.triples):
        rng = run_rng(config.seed, trial)
        alpha = float(rng.uniform(*ALPHA_RANGE))
        lam = float(rng.uniform(*LAMBDA_RANGE))
        eta = float(rng.uniform(*ETA_RANGE))
        game = scenarios.constant_gap_game(eta)
        monitor = EquilibriumMonitor(
            game, MonitorConfig(alpha=alpha, mixture=BettingMixture.dirac(lam))
        )
        b = monitor.threshold
        predicted = slack_lower_bound(b, lam, eta)
        profile = ActionProfile((0, 0))
        observed = -1
        for _ in range(predicted + 10):
            decision = monitor.step_fwer(profile)
            if decision.stopped:
                observed = decision.round
                break
        rows.append((trial, b, lam, eta, predicted, observed, int(observed == predicted)))
    matches = sum(r[6] for r in rows)
    summary = {"seed": config.seed, "triples": config.triples, "exact_matches": matches}
    checks = {"all_rounds_exact": matches == config.triples}
    columns = ["trial", "threshold", "lambda", "eta", "predicted_round", "observed_round", "match"]
    return _finish("nf-slack", out_dir, summary, checks, (columns, rows))


# ---------------------------------------------------------------------------
# soccer-solve: equilibrium policies for the grid-soccer model
# ---------------------------------------------------------------------------


#: The soccer-solve config is the solver's own; the name stays for callers.
SoccerSolveConfig = SolverConfig


def _solve_soccer(config: SolverConfig):
    tab = soccer.soccer_build_model()
    return tab, shapley_solve_arrays(tab.native_reward, tab.model.kernel, config)


def run_soccer_solve(config: SolverConfig, out_dir: Path) -> ExperimentResult:
    tab, solution = _solve_soccer(config)
    smoothed_a = smooth_policy(solution.row_policy, config.smoothing)
    smoothed_b = smooth_policy(solution.col_policy, config.smoothing)
    pol_a = write_text(out_dir / "policy_attacker.txt", policy_to_text(smoothed_a))
    pol_b = write_text(out_dir / "policy_defender.txt", policy_to_text(smoothed_b))
    # Residual of one more sweep, as a fixed-point certificate.
    backup = _backup(*tab.model.kernel, solution.values).reshape(tab.native_reward.shape)
    q = tab.native_reward + config.discount * backup
    resolve = np.array([matrix_game_solve(q[s]).value for s in range(q.shape[0])])
    post_residual = float(np.max(np.abs(resolve - solution.values)))
    init = soccer.state_index(soccer.INITIAL_STATE)
    summary = {
        "states": tab.model.num_states,
        "iterations": solution.iterations,
        "residual": solution.residual,
        "converged": int(solution.converged),
        "post_resolve_residual": post_residual,
        "initial_state_value": float(solution.values[init]),
        "initial_attacker_east_prob": float(smoothed_a.table[init, 2]),
    }
    checks = {
        "converged_within_budget": solution.converged
        and solution.iterations <= config.max_iterations,
        "fixed_point_stable": post_residual < config.tolerance,
    }
    return _finish("soccer-solve", out_dir, summary, checks, extra=(pol_a, pol_b))


# ---------------------------------------------------------------------------
# soccer-scaling: detection time vs deviation magnitude
# ---------------------------------------------------------------------------


#: The band both scaling laws' fitted log-log slope must fall in (inverse square).
SLOPE_BAND = (-2.5, -1.5)
#: Largest |KL / (eps^2 * chi-square) - 1| at check_eps that kl-check passes.
KL_RATIO_TOL = 0.05


@dataclass(frozen=True)
class SoccerScalingConfig:
    seed: int = DEFAULT_SEED
    trials: int = 150
    epsilons: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5)
    threshold: float = 20.0
    t_max: int = 200000
    smoothing: float = 0.05
    # Trials run in one process; 1, which perfbench's workloads pass, is the one value taken.
    workers: InitVar[int] = 1

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ConfigError(f"trials run in one process; workers must be 1, got {workers}")
        _validate_config(self)
        _validate_weights("epsilons", self.epsilons, positive=True, fit_from=0.0)
        SolverConfig(smoothing=self.smoothing)


#: Uniforms a soccer trial draws per ``rng.random(n)`` call, and raw words a
#: prey trial reads per ``random_raw(n)`` call; draws left over when the trial
#: ends go unused.
_DRAW_BLOCK = 256


def _trial_rows(values, taus) -> list:
    """One ``runs.csv`` row (cell value, trial, tau, detected) per trial."""
    return [
        (value, run, int(tau), int(tau > 0))
        for value, cell_taus in zip(values, taus)
        for run, tau in enumerate(cell_taus)
    ]


def _soccer_tables(eps, null_table, afraid_table) -> tuple[list, list]:
    """The attacker's cut rows (``games.cumulative_cuts``) and log ratios at weight eps."""
    alt_table = (1.0 - eps) * null_table + eps * afraid_table
    log_ratio = log_likelihood_ratios(null_table, alt_table[..., None])[..., 0]
    return cumulative_cuts(alt_table).tolist(), log_ratio.tolist()


def _soccer_trial(rng, t_max, threshold, cuts_b, cuts_a, log_ratio) -> int:
    """One monitored stream of concatenated episodes, drawn from ``rng``;
    returns the crossing round tau, or -1.

    The match runs over state ids (:func:`soccer.kickoff_successors`) and
    reads the players' cut rows and the log ratios as nested lists.
    A step uses its uniforms in the order :func:`soccer.soccer_step` does:
    attacker, defender, then (unless the ratio crossed) the slip and, only
    when two outcomes remain, the coin. The defender's row is searched only
    when the slip did not replace its action, though its uniform is used
    either way.
    ``rng.random(n)`` yields the same doubles as n successive
    ``rng.random()`` calls.
    """
    successors = soccer.kickoff_successors()
    s = soccer.state_index(soccer.INITIAL_STATE)
    slip = soccer.SLIP_PROB
    actions, wait = soccer.NUM_ACTIONS, soccer.WAIT
    log_b = math.log(threshold)
    log_lr = 0.0
    u, i, end = [], 0, -1
    for t in range(1, t_max + 1):
        if i > end:  # fewer than the 4 uniforms a step can use
            u = u[i:] + rng.random(_DRAW_BLOCK).tolist()
            i, end = 0, len(u) - 4
        a_act = bisect_right(cuts_a[s], u[i])
        log_lr += log_ratio[s][a_act]
        if log_lr >= log_b:
            return t
        b_act = wait if u[i + 2] < slip else bisect_right(cuts_b[s], u[i + 1])
        nxt = successors[s][actions * a_act + b_act]
        i += 3
        if len(nxt) == 1:
            s = nxt[0]
        else:
            s = nxt[u[i] < 0.5]
            i += 1
    return -1


def run_soccer_scaling(
    config: SoccerScalingConfig,
    out_dir: Path,
    policies: tuple[Policy, Policy] | None = None,
) -> ExperimentResult:
    """Sweep the deviation weight; the monitor tests the smoothed equilibrium
    against the mixture actually played, so each cell is a known-alternative
    likelihood-ratio test on concatenated episodes."""
    if policies is None:
        _, solution = _solve_soccer(SolverConfig())
        policies = (solution.row_policy, solution.col_policy)
    if any(p.table.shape != (soccer.NUM_STATES, soccer.NUM_ACTIONS) for p in policies):
        raise ShapeError(f"soccer policies are {soccer.NUM_STATES}x{soccer.NUM_ACTIONS} tables")
    null_a = smooth_policy(policies[0], config.smoothing)
    defender = smooth_policy(policies[1], config.smoothing)
    afraid = Policy(soccer.afraid_transform(null_a.table))
    excluded = (null_a.table == 0.0) & (afraid.table > 0.0)
    if np.any(excluded) and any(eps > 0.0 for eps in config.epsilons):
        # The builder scores such an action -inf, which would hide the attacker.
        raise DomainError(
            "the null attacker policy puts no mass on an action the timid "
            "deviation plays; use smoothing > 0"
        )
    cuts_b = cumulative_cuts(defender.table).tolist()
    taus = np.empty((len(config.epsilons), config.trials))
    for cell, eps in enumerate(config.epsilons):
        tables = _soccer_tables(eps, null_a.table, afraid.table)
        for run in range(config.trials):
            rng = run_rng(config.seed, cell, run)
            taus[cell, run] = _soccer_trial(rng, config.t_max, config.threshold, cuts_b, *tables)
    summary: dict = {"seed": config.seed, "trials_per_epsilon": config.trials}
    points = []
    fig_rows = []
    for eps, cell_taus in zip(config.epsilons, taus):
        detected = cell_taus[cell_taus > 0]
        mean_tau = summary[f"mean_tau[eps={eps}]"] = _mean(detected)
        points.append((eps, mean_tau))
        std_tau = float(detected.std()) if detected.size else math.nan
        fig_rows.append((eps, mean_tau, std_tau, cell_taus.size))
    slope, intercept = fit_loglog_slope(points)
    summary["slope"] = slope
    summary["intercept"] = intercept
    checks = {
        "all_trials_detected": bool((taus > 0).all()),
        "slope_in_band": SLOPE_BAND[0] <= slope <= SLOPE_BAND[1],
    }
    runs = (["epsilon", "trial", "tau", "detected"], _trial_rows(config.epsilons, taus))
    figure = ("figure_soccer_scaling.dat", ["epsilon", "mean_tau", "std_tau", "trials"], fig_rows)
    return _finish("soccer-scaling", out_dir, summary, checks, runs, figure)


# ---------------------------------------------------------------------------
# prey-mixture: unknown deviation magnitude, mixture over a candidate grid
# ---------------------------------------------------------------------------


#: Prey-mixture fits its slope to, and gates detection at, eps_true >= SLOPE_MIN_EPS.
SLOPE_MIN_EPS = 0.2
MIN_DETECTION_RATE = 0.95


@dataclass(frozen=True)
class PreyMixtureConfig:
    seed: int = DEFAULT_SEED
    trials: int = 60
    eps_true: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8)
    eps_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    threshold: float = 20.0
    horizon: int = 5000
    # As in SoccerScalingConfig: trials run in one process.
    workers: InitVar[int] = 1

    def __post_init__(self, workers: int) -> None:
        if workers != 1:
            raise ConfigError(f"trials run in one process; workers must be 1, got {workers}")
        _validate_config(self)
        _validate_weights("eps_true", self.eps_true, fit_from=SLOPE_MIN_EPS)
        _validate_weights("eps_grid", self.eps_grid)


def _prey_tables(eps_true, eps_grid) -> tuple[list, list]:
    """Per distinct chase row (:func:`prey.pursuit_tables`): the suspect's
    cut row (``games.cumulative_cuts``), and per action the log increments
    of the candidate grid against uniform play."""
    played = prey.suspect_rows(eps_true)
    candidate = np.stack([prey.suspect_rows(eps) for eps in eps_grid], axis=-1)
    log_inc = log_likelihood_ratios(np.full(played.shape, 1.0 / prey.NUM_ACTIONS), candidate)
    return cumulative_cuts(played).tolist(), log_inc.tolist()


def _prey_trial(rng, threshold, horizon, played_cuts, log_inc) -> int:
    """One monitored pursuit stream, drawn from ``rng``; returns the crossing
    round tau, or -1.

    The pursuit runs over cell ids (:func:`prey.pursuit_tables`) and draws
    in the order of the object-level loop: the suspect's uniform, then, as
    :func:`prey.prey_step` does, the honest pair's and the prey's moves.

    The draws are decoded from raw PCG64 words exactly as ``rng.random()``
    and ``rng.integers(5)`` consume them (O'Neill 2014; Lemire, TOMACS
    2019). The uniform is ``(w >> 11) * 2**-53`` of one whole word. A move
    is ``(h * 5) >> 32`` of a 32-bit half: a fresh word gives its low half
    and keeps its high half for the next move, and the uniform leaves that
    kept half alone. So a step takes one double and three halves, 5 words
    every 2 steps. As 2**32 % 5 == 1, Lemire's method rejects a half only
    when it is 0; the move then takes the next half.

    The mixture is read out (:func:`_log_mix`) only once the largest log
    ratio, and then a pure-Python log-sum-exp over the equal weights, come
    within 1e-9 of log(threshold). Neither falls more than a few ulp below
    the readout, so neither screen hides a crossing.
    """
    moves, chase_row, _ = prey.pursuit_tables()
    start = prey.DEFAULT_START
    cells = [prey.cell_id(pos) for pos in (*start.predators, start.prey)]
    actions = prey.NUM_ACTIONS
    raw = rng.bit_generator.random_raw
    size = len(log_inc[0][0])
    weights = np.full(size, 1.0 / size)
    log_lr = [0.0] * size
    log_b = math.log(threshold)
    near = log_b - 1e-9
    log_size = math.log(size)
    exp = math.exp
    words, i, end = [], 0, -1
    held = -1  # the kept high half, -1 when there is none
    suspect, honest_1, honest_2, target = cells
    steps = 0
    for t in range(1, horizon + 1):
        if target in (suspect, honest_1, honest_2) or steps >= start.horizon:
            suspect, honest_1, honest_2, target = cells
            steps = 0
        if i > end:  # fewer than the 3 words a step can use
            words = words[i:] + raw(_DRAW_BLOCK).tolist()
            i, end = 0, len(words) - 3
        row = chase_row[suspect][target]
        act = bisect_right(played_cuts[row], (words[i] >> 11) * 2**-53)
        log_lr = list(map(add, log_lr, log_inc[row][act]))
        top = max(log_lr)
        if (
            top >= near
            and top + math.log(sum([exp(x - top) for x in log_lr])) - log_size >= near
            and _log_mix(np.array(log_lr), weights) >= log_b
        ):
            return t
        if held < 0:
            w, x = words[i + 1], words[i + 2]
            i += 3
            h_1, h_2, h_3, held = w & 0xFFFFFFFF, w >> 32, x & 0xFFFFFFFF, x >> 32
        else:
            x = words[i + 1]
            i += 2
            h_1, h_2, h_3, held = held, x & 0xFFFFFFFF, x >> 32, -1
        if not (h_1 and h_2 and h_3):
            # The moves are the nonzero halves in stream order.
            halves = [h for h in (h_1, h_2, h_3) if h]
            while len(halves) < 3:
                if held < 0:
                    if i == len(words):
                        words += raw(_DRAW_BLOCK).tolist()
                        end = len(words) - 3
                    w = words[i]
                    i += 1
                    h, held = w & 0xFFFFFFFF, w >> 32
                else:
                    h, held = held, -1
                if h:
                    halves.append(h)
            h_1, h_2, h_3 = halves
        suspect = moves[suspect][act]
        honest_1 = moves[honest_1][(h_1 * actions) >> 32]
        honest_2 = moves[honest_2][(h_2 * actions) >> 32]
        target = moves[target][(h_3 * actions) >> 32]
        steps += 1
    return -1


def run_prey_mixture(config: PreyMixtureConfig, out_dir: Path) -> ExperimentResult:
    taus = np.empty((len(config.eps_true), config.trials))
    for cell, eps in enumerate(config.eps_true):
        tables = _prey_tables(eps, config.eps_grid)
        for run in range(config.trials):
            rng = run_rng(config.seed, cell, run)
            taus[cell, run] = _prey_trial(rng, config.threshold, config.horizon, *tables)
    summary: dict = {
        "seed": config.seed,
        "trials_per_eps": config.trials,
        "eps_grid": "|".join(str(e) for e in config.eps_grid),
    }
    checks: dict[str, bool] = {}
    points = []
    fig_rows = []
    for eps, cell_taus in zip(config.eps_true, taus):
        detected = cell_taus[cell_taus > 0]
        rate = summary[f"detect_rate[eps={eps}]"] = detected.size / cell_taus.size
        mean_tau = summary[f"mean_tau[eps={eps}]"] = _mean(detected)
        fig_rows.append((eps, rate, mean_tau, cell_taus.size))
        if eps >= SLOPE_MIN_EPS:
            checks[f"detection_rate[eps={eps}]"] = rate >= MIN_DETECTION_RATE
            points.append((eps, mean_tau))
    slope, intercept = fit_loglog_slope(points)
    summary["slope"] = slope
    summary["intercept"] = intercept
    checks["slope_in_band"] = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
    runs = (["eps_true", "trial", "tau", "detected"], _trial_rows(config.eps_true, taus))
    header = ["eps_true", "detect_rate", "mean_tau", "trials"]
    figure = ("figure_prey_mixture.dat", header, fig_rows)
    return _finish("prey-mixture", out_dir, summary, checks, runs, figure)


# ---------------------------------------------------------------------------
# kl-check: quadratic scaling of the mixture KL
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KlCheckConfig:
    seed: int = DEFAULT_SEED
    pairs: int = 50
    dim: int = 5
    epsilons: tuple[float, ...] = (0.1, 0.01, 0.001)
    check_eps: float = 0.001

    def __post_init__(self) -> None:
        if not self.dim >= 2:
            raise ConfigError(f"dim must be at least 2, got {self.dim}")
        _validate_config(self)
        _validate_weights("epsilons", self.epsilons, positive=True)
        if self.check_eps not in self.epsilons:
            raise ConfigError(
                f"check_eps must be one of epsilons {self.epsilons}, got {self.check_eps}"
            )


def run_kl_check(config: KlCheckConfig, out_dir: Path) -> ExperimentResult:
    rows = []
    at_check = []
    for pair in range(config.pairs):
        rng = run_rng(config.seed, pair)
        # Blend toward uniform so the base keeps comfortably full support.
        p = 0.5 * rng.dirichlet(np.ones(config.dim)) + 0.5 / config.dim
        q = rng.dirichlet(np.ones(config.dim))
        for eps, kl, predicted in kl_quadratic_check(p, q, config.epsilons):
            ratio = kl / predicted if predicted > 0 else math.nan
            rows.append((pair, eps, kl, predicted, ratio))
            if eps == config.check_eps:
                at_check.append(ratio)
    worst = float(np.max(np.abs(np.array(at_check) - 1.0)))
    summary = {
        "seed": config.seed,
        "pairs": config.pairs,
        "check_eps": config.check_eps,
        "worst_ratio_error": worst,
    }
    checks = {"quadratic_at_small_eps": worst <= KL_RATIO_TOL}
    runs = (["pair", "epsilon", "kl", "eps2_chi2", "ratio"], rows)
    return _finish("kl-check", out_dir, summary, checks, runs)


# ---------------------------------------------------------------------------
# oracle-suite: brute-force cross-checks of the numerical paths
# ---------------------------------------------------------------------------


#: Oracle-suite sizes: longest stream, payoff and chain dimension, rational games.
STREAM_MAX_LEN = 20
MATRIX_DIM = 5
CHAIN_DIM = 5
RATIONAL_GAMES = 50


@dataclass(frozen=True)
class OracleSuiteConfig:
    seed: int = DEFAULT_SEED
    streams: int = 100
    matrices: int = 1000
    chains: int = 25

    def __post_init__(self) -> None:
        _validate_config(self)


def _rational_gain_error(rng: np.random.Generator) -> float:
    """Deviation gain via exact rational enumeration vs the numpy path.

    Payoffs and strategy weights are drawn on a dyadic/integer lattice so
    the Fraction arithmetic is exact.
    """
    from fractions import Fraction
    from itertools import product as cartesian

    counts = tuple(int(c) for c in rng.integers(2, 4, size=int(rng.integers(2, 4))))
    payoff_grid = rng.integers(0, 65, size=(len(counts), *counts))
    factors = []
    for c in counts:
        weights = rng.integers(1, 10, size=c)
        factors.append([Fraction(int(w), int(weights.sum())) for w in weights])
    player = int(rng.integers(len(counts)))
    deviation = int(rng.integers(counts[player]))

    exact = Fraction(0)
    for profile in cartesian(*(range(c) for c in counts)):
        weight = Fraction(1)
        for a, f in zip(profile, factors):
            weight *= f[a]
        switched = list(profile)
        switched[player] = deviation
        exact += weight * (
            Fraction(int(payoff_grid[player][tuple(switched)]), 64)
            - Fraction(int(payoff_grid[player][profile]), 64)
        )

    game = NormalFormGame(payoff_grid / 64.0)
    strategy = JointStrategy.product(
        *(np.array([float(w) for w in f]) for f in factors)
    )
    return abs(deviation_gain(game, strategy, player, deviation) - float(exact))


def run_oracle_suite(config: OracleSuiteConfig, out_dir: Path) -> ExperimentResult:
    rows = []

    # Midpoint quadrature against exact polynomial integration.
    mixture = BettingMixture.uniform_grid(ORACLE_GRID_NODES)
    for i, rng in enumerate(run_rngs(config.seed, 0, config.streams)):
        length = int(rng.integers(1, STREAM_MAX_LEN + 1))
        xs = rng.uniform(-0.9, 0.9, size=length)
        exact = exact_uniform_mixture(xs)
        path = nfstreams.log_wealth_paths(xs[None, :], mixture)
        approx = float(np.exp(path[0, -1]))
        rel = abs(approx - exact) / exact
        rows.append(("quadrature", i, rel))

    # LP solutions against pure best-response enumeration.
    for i, rng in enumerate(run_rngs(config.seed, 1, config.matrices)):
        payoff = rng.random((MATRIX_DIM, MATRIX_DIM))
        sol = matrix_game_solve(payoff)
        gap = exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value)
        rows.append(("matrix-exploitability", i, gap))

    # Exact state reduction (GTH) against a dense eigensolver.
    for i, rng in enumerate(run_rngs(config.seed, 2, config.chains)):
        chain = rng.random((CHAIN_DIM, CHAIN_DIM)) + 0.05
        chain /= chain.sum(axis=1, keepdims=True)
        mu = stationary_distribution(chain)
        values, vectors = np.linalg.eig(chain.T)
        lead = np.argmin(np.abs(values - 1.0))
        reference = np.real(vectors[:, lead])
        reference /= reference.sum()
        err = float(np.max(np.abs(mu - reference)))
        rows.append(("stationary", i, err))

    # Expected-payoff path against exact rational enumeration.
    for i, rng in enumerate(run_rngs(config.seed, 3, RATIONAL_GAMES)):
        err = _rational_gain_error(rng)
        rows.append(("rational-gain", i, err))

    # numpy's max, unlike Python's, keeps a NaN error, so its gate fails.
    worst_quad, worst_gap, worst_chain, worst_rational = (
        float(np.max([error for name, _, error in rows if name == check]))
        for check in ("quadrature", "matrix-exploitability", "stationary", "rational-gain")
    )
    summary = {
        "seed": config.seed,
        "worst_quadrature_rel_error": worst_quad,
        "worst_exploitability": worst_gap,
        "worst_stationary_error": worst_chain,
        "worst_rational_gain_error": worst_rational,
    }
    checks = {
        "quadrature_within_1e-3": worst_quad <= 1e-3,
        "exploitability_within_1e-6": worst_gap <= 1e-6,
        "stationary_within_1e-9": worst_chain <= 1e-9,
        "rational_gain_within_1e-12": worst_rational <= 1e-12,
    }
    return _finish("oracle-suite", out_dir, summary, checks, (["check", "case", "error"], rows))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "nf-fwer-null": (NullGridConfig, run_nf_fwer_null),
    "nf-detect": (DetectConfig, run_nf_detect),
    "nf-sensitivity": (SensitivityConfig, run_nf_sensitivity),
    "nf-slack": (SlackConfig, run_nf_slack),
    "soccer-solve": (SolverConfig, run_soccer_solve),
    "soccer-scaling": (SoccerScalingConfig, run_soccer_scaling),
    "prey-mixture": (PreyMixtureConfig, run_prey_mixture),
    "kl-check": (KlCheckConfig, run_kl_check),
    "oracle-suite": (OracleSuiteConfig, run_oracle_suite),
}


def run_experiment(name: str, config, out_dir: Path, **kwargs) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    config_class, runner = EXPERIMENTS[name]
    if not isinstance(config, config_class):
        raise ConfigError(f"{name} takes a {config_class.__name__}, got {type(config).__name__}")
    # Each artifact writer creates the directory, so a run rejected before
    # its first write leaves none behind.
    return runner(config, Path(out_dir), **kwargs)
