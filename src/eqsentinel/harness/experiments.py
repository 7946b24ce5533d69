"""The quantitative experiments behind the CLI subcommands.

Every experiment is deterministic given its config: per-run rng substreams
are keyed by (cell, run) indices, artifacts print floats with 17 significant
digits, and each summary statistic is a pure function of the rows in
``runs.csv``. Parallelism (where offered) is across runs only.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..envs import prey, soccer
from ..eprocess import (
    ORACLE_GRID_NODES,
    BettingMixture,
    detection_bound_uniform,
    exact_uniform_mixture,
    slack_lower_bound,
)
from ..errors import ConfigError, DomainError
from ..games import ActionProfile, EquilibriumMode, NormalFormGame, JointStrategy
from ..monitors import EquilibriumMonitor, MonitorConfig, enumerate_hypotheses
from ..stochastic import (
    Policy,
    SolverConfig,
    chi_square_div,
    exploitability,
    kl_divergence,
    matrix_game_solve,
    policy_to_text,
    shapley_solve_arrays,
    smooth_policy,
    stationary_distribution,
)
from . import nfstreams, scenarios
from .csvio import write_csv, write_figure_data, write_summary
from .seeding import DEFAULT_SEED, run_rng


@dataclass(frozen=True)
class ExperimentResult:
    experiment: str
    summary: dict
    checks: dict[str, bool]
    artifacts: tuple[Path, ...]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class RunRecord:
    """One monitored run: both alarm times and the closing wealth snapshot."""

    run: int
    tau_fwer: int  # -1 when the run never crossed within the horizon
    tau_fdr: int
    k_at_alarm: int
    rejected: tuple[str, ...]
    final_wealth: tuple[float, ...]

    def __post_init__(self) -> None:
        for tau in (self.tau_fwer, self.tau_fdr):
            if tau != -1 and tau < 1:
                raise ConfigError("alarm rounds are 1-based when present")

    @property
    def fdr_dominates(self) -> bool:
        return self.tau_fdr != -1 and (
            self.tau_fwer == -1 or self.tau_fdr <= self.tau_fwer
        )


def _pmap(fn, items, workers: int):
    if workers <= 1:
        return [fn(item) for item in items]
    items = list(items)
    # Trials of one cell share their tables, which a chunk pickles only once.
    chunksize = max(1, len(items) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


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


def run_nf_fwer_null(
    config: NullGridConfig,
    out_dir: Path,
    game: NormalFormGame | None = None,
    strategy: JointStrategy | None = None,
) -> ExperimentResult:
    game = game or scenarios.two_signal_game()
    strategy = strategy or scenarios.two_signal_nash()
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    rows = []
    cells = [(lam, alpha) for lam in config.lambdas for alpha in config.alphas]
    for cell, (lam, alpha) in enumerate(cells):
        for run in range(config.runs):
            rng = run_rng(config.seed, cell, run)
            stream = nfstreams.sample_action_stream(strategy, config.horizon, rng)
            paths = nfstreams.log_wealth_paths(
                tables[:, stream], BettingMixture.dirac(lam)
            )
            crossings = nfstreams.fwer_crossing_times(paths, m / alpha)
            detected = crossings[crossings > 0]
            first = int(detected.min()) if detected.size else -1
            rows.append((lam, alpha, run, int(first > 0), first))
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "nf-fwer-null",
        ["lambda", "alpha", "run", "rejected", "first_rejection_round"],
        rows,
    )
    summary: dict = {
        "experiment": "nf-fwer-null",
        "seed": config.seed,
        "runs_per_cell": config.runs,
    }
    checks: dict[str, bool] = {}
    fig_rows = []
    for lam, alpha in cells:
        hits = [r[3] for r in rows if r[0] == lam and r[1] == alpha]
        fwer = sum(hits) / len(hits)
        summary[f"fwer[lambda={lam},alpha={alpha}]"] = fwer
        checks[f"fwer_le_alpha[lambda={lam},alpha={alpha}]"] = fwer <= alpha
        fig_rows.append((lam, alpha, m / alpha, fwer))
    base_cell = summary.get("fwer[lambda=0.05,alpha=0.2]")
    if base_cell is not None:
        checks["base_cell_le_0.05"] = base_cell <= 0.05
    fig = write_figure_data(
        out_dir / "figure_fwer_grid.dat",
        ["lambda", "alpha", "threshold", "empirical_fwer"],
        fig_rows,
    )
    summary_csv = write_summary(out_dir / "summary.csv", "nf-fwer-null", summary)
    return ExperimentResult(
        "nf-fwer-null", summary, checks, (runs_csv, summary_csv, fig)
    )


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


def run_nf_detect(
    config: DetectConfig,
    out_dir: Path,
    game: NormalFormGame | None = None,
    strategy: JointStrategy | None = None,
) -> ExperimentResult:
    game = game or scenarios.two_signal_game()
    strategy = strategy or scenarios.two_signal_alternative()
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    weights = np.full(m, 1.0 / m)
    mixture = BettingMixture.dirac(config.betting_fraction)
    rows = []
    for run in range(config.runs):
        rng = run_rng(config.seed, 0, run)
        stream = nfstreams.sample_action_stream(strategy, config.horizon, rng)
        paths = nfstreams.log_wealth_paths(tables[:, stream], mixture)
        crossings = nfstreams.fwer_crossing_times(paths, m / config.alpha)
        detected = crossings[crossings > 0]
        tau_fdr, k_at_alarm, rejected = nfstreams.ebh_alarm(
            paths, config.alpha, weights
        )
        record = RunRecord(
            run=run,
            tau_fwer=int(detected.min()) if detected.size else -1,
            tau_fdr=tau_fdr,
            k_at_alarm=k_at_alarm,
            rejected=tuple(hypotheses[j].label() for j in rejected),
            final_wealth=tuple(float(np.exp(paths[j, -1])) for j in range(m)),
        )
        rows.append(
            (
                record.run,
                record.tau_fwer,
                record.tau_fdr,
                record.k_at_alarm,
                "|".join(record.rejected),
                int(record.fdr_dominates),
                *record.final_wealth,
            )
        )
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "nf-detect",
        [
            "run",
            "tau_fwer",
            "tau_fdr",
            "k_at_alarm",
            "rejected",
            "fdr_dominates",
            *[f"final_wealth[{h.label()}]" for h in hypotheses],
        ],
        rows,
    )
    tau_fwer = np.array([r[1] for r in rows], dtype=float)
    tau_fdr = np.array([r[2] for r in rows], dtype=float)
    all_detected = bool((tau_fwer > 0).all() and (tau_fdr > 0).all())
    dominance = int(sum(r[5] for r in rows))
    ratio = float(tau_fwer.mean() / tau_fdr.mean()) if all_detected else math.nan
    summary = {
        "experiment": "nf-detect",
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
    summary_csv = write_summary(out_dir / "summary.csv", "nf-detect", summary)
    fig = write_figure_data(
        out_dir / "figure_detect_scatter.dat",
        ["run", "tau_fwer", "tau_fdr"],
        [(r[0], r[1], r[2]) for r in rows],
    )
    return ExperimentResult("nf-detect", summary, checks, (runs_csv, summary_csv, fig))


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
    mixture: str = "dirac"  # "dirac" sweeps lambdas; "uniform" uses the grid
    grid_nodes: int = 101


def run_nf_sensitivity(config: SensitivityConfig, out_dir: Path) -> ExperimentResult:
    if config.mixture not in ("dirac", "uniform"):
        raise ConfigError("mixture must be dirac or uniform")
    game = scenarios.two_signal_game()
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hypotheses)
    m = len(hypotheses)
    signal_index = 0  # hypothesis (player 1, deviation 0) carries the signal
    mixtures = (
        [(f"uniform[{config.grid_nodes}]", BettingMixture.uniform_grid(config.grid_nodes))]
        if config.mixture == "uniform"
        else [(f"dirac[{lam}]", BettingMixture.dirac(lam)) for lam in config.lambdas]
    )
    rows = []
    cells = [
        (alpha, eta, name, mix)
        for alpha in config.alphas
        for eta in config.etas
        for name, mix in mixtures
    ]
    for cell, (alpha, eta, name, mix) in enumerate(cells):
        strategy = scenarios.sensitivity_profile(eta)
        for run in range(config.runs):
            rng = run_rng(config.seed, cell, run)
            stream = nfstreams.sample_action_stream(strategy, config.horizon, rng)
            paths = nfstreams.log_wealth_paths(tables[:, stream], mix)
            crossings = nfstreams.fwer_crossing_times(paths, m / alpha)
            detected = crossings[crossings > 0]
            tau_stop = int(detected.min()) if detected.size else -1
            rows.append((alpha, eta, name, run, tau_stop, int(crossings[signal_index])))
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "nf-sensitivity",
        ["alpha", "eta", "mixture", "run", "tau_stop", "tau_signal"],
        rows,
    )
    summary: dict = {
        "experiment": "nf-sensitivity",
        "seed": config.seed,
        "runs_per_cell": config.runs,
    }
    checks: dict[str, bool] = {}
    fig_rows = []
    for alpha, eta, name, _ in cells:
        taus = np.array(
            [r[4] for r in rows if (r[0], r[1], r[2]) == (alpha, eta, name)],
            dtype=float,
        )
        detected = taus[taus > 0]
        key = f"alpha={alpha},eta={eta},mixture={name}"
        summary[f"mean_tau[{key}]"] = (
            float(detected.mean()) if detected.size else math.nan
        )
        summary[f"detect_rate[{key}]"] = float((taus > 0).mean())
        q25, q75 = (
            (float(np.percentile(detected, 25)), float(np.percentile(detected, 75)))
            if detected.size
            else (math.nan, math.nan)
        )
        fig_rows.append((alpha, eta, name, summary[f"mean_tau[{key}]"], q25, q75))
        if config.mixture == "uniform":
            signal = np.array(
                [r[5] for r in rows if (r[0], r[1], r[2]) == (alpha, eta, name)],
                dtype=float,
            )
            bound = detection_bound_uniform(m / alpha, eta)
            ok = bool((signal > 0).all() and signal.mean() <= bound)
            summary[f"uniform_bound[{key}]"] = bound
            checks[f"mean_below_uniform_bound[{key}]"] = ok
    fig = write_figure_data(
        out_dir / "figure_sensitivity.dat",
        ["alpha", "eta", "mixture", "mean_tau", "q25", "q75"],
        fig_rows,
    )
    summary_csv = write_summary(out_dir / "summary.csv", "nf-sensitivity", summary)
    return ExperimentResult(
        "nf-sensitivity", summary, checks, (runs_csv, summary_csv, fig)
    )


# ---------------------------------------------------------------------------
# nf-slack: deterministic-gap stopping rounds against the closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlackConfig:
    seed: int = DEFAULT_SEED
    triples: int = 20
    alpha_low: float = 0.05
    alpha_high: float = 0.8
    lambda_low: float = 0.05
    lambda_high: float = 0.95
    eta_low: float = 0.02
    eta_high: float = 0.5


def run_nf_slack(config: SlackConfig, out_dir: Path) -> ExperimentResult:
    rows = []
    for trial in range(config.triples):
        rng = run_rng(config.seed, trial)
        alpha = float(rng.uniform(config.alpha_low, config.alpha_high))
        lam = float(rng.uniform(config.lambda_low, config.lambda_high))
        eta = float(rng.uniform(config.eta_low, config.eta_high))
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
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "nf-slack",
        ["trial", "threshold", "lambda", "eta", "predicted_round", "observed_round", "match"],
        rows,
    )
    matches = sum(r[6] for r in rows)
    summary = {
        "experiment": "nf-slack",
        "seed": config.seed,
        "triples": config.triples,
        "exact_matches": matches,
    }
    checks = {"all_rounds_exact": matches == config.triples}
    summary_csv = write_summary(out_dir / "summary.csv", "nf-slack", summary)
    return ExperimentResult("nf-slack", summary, checks, (runs_csv, summary_csv))


# ---------------------------------------------------------------------------
# soccer-solve: equilibrium policies for the grid-soccer model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoccerSolveConfig:
    discount: float = 0.95
    tolerance: float = 1e-3
    max_iterations: int = 100
    smoothing: float = 0.05


def _solve_soccer(config: SoccerSolveConfig):
    tab = soccer.soccer_build_model()
    solver = SolverConfig(
        discount=config.discount,
        tolerance=config.tolerance,
        max_iterations=config.max_iterations,
        smoothing=config.smoothing,
    )
    solution = shapley_solve_arrays(tab.native_reward, tab.model.transition, solver)
    return tab, solution


def run_soccer_solve(config: SoccerSolveConfig, out_dir: Path) -> ExperimentResult:
    tab, solution = _solve_soccer(config)
    smoothed_a = smooth_policy(solution.row_policy, config.smoothing)
    smoothed_b = smooth_policy(solution.col_policy, config.smoothing)
    out_dir.mkdir(parents=True, exist_ok=True)
    pol_a = out_dir / "policy_attacker.txt"
    pol_b = out_dir / "policy_defender.txt"
    pol_a.write_text(policy_to_text(smoothed_a))
    pol_b.write_text(policy_to_text(smoothed_b))
    # Residual of one more sweep, as a fixed-point certificate.
    q = tab.native_reward + config.discount * np.einsum(
        "sabt,t->sab", tab.model.transition, solution.values
    )
    resolve = np.array([matrix_game_solve(q[s]).value for s in range(q.shape[0])])
    post_residual = float(np.max(np.abs(resolve - solution.values)))
    init = soccer.state_index(soccer.INITIAL_STATE)
    summary = {
        "experiment": "soccer-solve",
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
    summary_csv = write_summary(out_dir / "summary.csv", "soccer-solve", summary)
    return ExperimentResult(
        "soccer-solve", summary, checks, (summary_csv, pol_a, pol_b)
    )


# ---------------------------------------------------------------------------
# soccer-scaling: detection time vs deviation magnitude
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoccerScalingConfig:
    seed: int = DEFAULT_SEED
    trials: int = 150
    epsilons: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.5)
    threshold: float = 20.0
    t_max: int = 200000
    smoothing: float = 0.05
    slope_low: float = -2.5
    slope_high: float = -1.5
    workers: int = 1


#: Uniforms a soccer trial draws per ``rng.random(n)`` call; draws left over
#: when the trial ends go unused.
_DRAW_BLOCK = 256


def _cumulative_rows(table) -> list:
    """Row-wise cumulative sums without the last entry, as nested lists.

    ``bisect_right(row, u)`` on such a row is ``searchsorted(side="right")``
    on the full row clamped to the last action, which is the action a draw
    at or past the full sum gets when a row sums to just under 1.
    """
    return np.cumsum(table, axis=-1)[..., :-1].tolist()


def _soccer_tables(eps, null_table, afraid_table) -> tuple[list, list]:
    """The attacker's cumulative rows and log-likelihood ratios at weight eps."""
    alt_table = (1.0 - eps) * null_table + eps * afraid_table
    with np.errstate(divide="ignore"):
        log_ratio = np.where(
            alt_table > 0.0, np.log(alt_table) - np.log(null_table), -np.inf
        )
    return _cumulative_rows(alt_table), log_ratio.tolist()


def _soccer_trial(args) -> tuple[int, int, int]:
    """One monitored stream of concatenated episodes; returns (cell, run, tau).

    The match runs over state ids (:func:`soccer.successor_table`) and reads
    the players' cumulative rows and the log ratios as nested lists. A step
    uses its uniforms in the order :func:`soccer.soccer_step` does: attacker,
    defender, then (unless the ratio crossed) the slip and, only when two
    outcomes remain, the coin. ``rng.random(n)`` yields the same doubles as
    n successive ``rng.random()`` calls.
    """
    cell, run, seed, t_max, threshold, cum_a, cum_b, log_ratio = args
    successors, terminal = soccer.successor_table()
    start = s = soccer.state_index(soccer.INITIAL_STATE)
    slip = soccer.DEFAULT_RULES.slip_prob
    actions, wait = soccer.NUM_ACTIONS, soccer.WAIT
    rng = run_rng(seed, cell, run)
    log_b = math.log(threshold)
    log_lr = 0.0
    u, i, end = [], 0, -1
    for t in range(1, t_max + 1):
        if i > end:  # fewer than the 4 uniforms a step can use
            u = u[i:] + rng.random(_DRAW_BLOCK).tolist()
            i, end = 0, len(u) - 4
        a_act = bisect_right(cum_a[s], u[i])
        b_act = bisect_right(cum_b[s], u[i + 1])
        log_lr += log_ratio[s][a_act]
        if log_lr >= log_b:
            return cell, run, t
        nxt = successors[s][actions * a_act + (wait if u[i + 2] < slip else b_act)]
        i += 3
        if len(nxt) == 1:
            s = nxt[0]
        else:
            s = nxt[u[i] < 0.5]
            i += 1
        if terminal[s]:
            s = start
    return cell, run, -1


def run_soccer_scaling(
    config: SoccerScalingConfig,
    out_dir: Path,
    policies: tuple[Policy, Policy] | None = None,
) -> ExperimentResult:
    """Sweep the deviation weight; the monitor tests the smoothed equilibrium
    against the mixture actually played, so each cell is a known-alternative
    likelihood-ratio test on concatenated episodes."""
    if policies is None:
        _, solution = _solve_soccer(SoccerSolveConfig(smoothing=config.smoothing))
        policies = (solution.row_policy, solution.col_policy)
    null_a = smooth_policy(policies[0], config.smoothing)
    defender = smooth_policy(policies[1], config.smoothing)
    afraid = Policy(
        np.vstack([soccer.afraid_transform(row) for row in null_a.table])
    )
    cum_b = _cumulative_rows(defender.table)
    # Lazy, so that in-process runs keep one cell's tables alive at a time.
    tables = (_soccer_tables(eps, null_a.table, afraid.table) for eps in config.epsilons)
    tasks = (
        (cell, run, config.seed, config.t_max, config.threshold, cum_a, cum_b, log_ratio)
        for cell, (cum_a, log_ratio) in enumerate(tables)
        for run in range(config.trials)
    )
    results = _pmap(_soccer_trial, tasks, config.workers)
    rows = [
        (config.epsilons[cell], run, tau, int(tau > 0))
        for cell, run, tau in sorted(results)
    ]
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "soccer-scaling",
        ["epsilon", "trial", "tau", "detected"],
        rows,
    )
    summary: dict = {
        "experiment": "soccer-scaling",
        "seed": config.seed,
        "trials_per_epsilon": config.trials,
    }
    points = []
    fig_rows = []
    all_detected = True
    for eps in config.epsilons:
        taus = np.array([r[2] for r in rows if r[0] == eps], dtype=float)
        detected = taus[taus > 0]
        all_detected &= detected.size == taus.size
        mean_tau = float(detected.mean()) if detected.size else math.nan
        summary[f"mean_tau[eps={eps}]"] = mean_tau
        points.append((eps, mean_tau))
        fig_rows.append(
            (eps, mean_tau, float(detected.std()) if detected.size else math.nan, len(taus))
        )
    slope, intercept = fit_loglog_slope(points)
    summary["slope"] = slope
    summary["intercept"] = intercept
    checks = {
        "all_trials_detected": all_detected,
        "slope_in_band": config.slope_low <= slope <= config.slope_high,
    }
    fig = write_figure_data(
        out_dir / "figure_soccer_scaling.dat",
        ["epsilon", "mean_tau", "std_tau", "trials"],
        fig_rows,
    )
    summary_csv = write_summary(out_dir / "summary.csv", "soccer-scaling", summary)
    return ExperimentResult(
        "soccer-scaling", summary, checks, (runs_csv, summary_csv, fig)
    )


# ---------------------------------------------------------------------------
# prey-mixture: unknown deviation magnitude, mixture over a candidate grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreyMixtureConfig:
    seed: int = DEFAULT_SEED
    trials: int = 60
    eps_true: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8)
    eps_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    threshold: float = 20.0
    horizon: int = 5000
    slope_min_eps: float = 0.2
    min_detection_rate: float = 0.95
    slope_low: float = -2.5
    slope_high: float = -1.5
    workers: int = 1


def _prey_tables(eps_true, eps_grid) -> tuple[list, list]:
    """Per distinct chase row (:func:`prey.pursuit_tables`): the suspect's
    cumulative played row, and per action the log increments of the
    candidate grid against uniform play."""
    _, _, chase = prey.pursuit_tables()
    uniform = 1.0 / prey.NUM_ACTIONS
    grid = np.asarray(eps_grid)
    played = (1.0 - eps_true) * uniform + eps_true * chase
    candidate = (1.0 - grid) * uniform + grid * chase[:, :, None]
    log_inc = np.log(candidate) - math.log(uniform)
    return _cumulative_rows(played), log_inc.tolist()


def _prey_trial(args) -> tuple[int, int, int]:
    """One monitored pursuit stream; returns (cell, run, tau).

    The pursuit runs over cell ids (:func:`prey.pursuit_tables`) and draws
    in the order of the object-level loop: the suspect's uniform, then, as
    :func:`prey.prey_step` does, the honest pair's and the prey's moves. The
    mixture is read out only once the largest log ratio comes within 1e-9 of
    log(threshold): the weights sum to 1, so below that the readout is at
    most exp(max) times 1 + a few ulp, under the threshold.
    """
    cell, run, seed, threshold, horizon, played_cum, log_inc = args
    moves, chase_row, _ = prey.pursuit_tables()
    start = prey.DEFAULT_START
    cells = [prey.cell_id(pos) for pos in (*start.predators, start.prey)]
    actions = prey.NUM_ACTIONS
    rng = run_rng(seed, cell, run)
    draw = rng.integers
    size = len(log_inc[0][0])
    weights = np.full(size, 1.0 / size)
    log_lr = [0.0] * size
    near = math.log(threshold) - 1e-9
    suspect, honest_1, honest_2, target = cells
    steps = 0
    for t in range(1, horizon + 1):
        if target in (suspect, honest_1, honest_2) or steps >= start.horizon:
            suspect, honest_1, honest_2, target = cells
            steps = 0
        row = chase_row[suspect][target]
        act = bisect_right(played_cum[row], rng.random())
        log_lr = [x + d for x, d in zip(log_lr, log_inc[row][act])]
        if max(log_lr) >= near:
            lr = np.array(log_lr)
            shift = lr.max()
            if math.exp(shift) * float(np.sum(weights * np.exp(lr - shift))) >= threshold:
                return cell, run, t
        move_1, move_2, move_prey = draw(actions), draw(actions), draw(actions)
        suspect = moves[suspect][act]
        honest_1 = moves[honest_1][move_1]
        honest_2 = moves[honest_2][move_2]
        target = moves[target][move_prey]
        steps += 1
    return cell, run, -1


def run_prey_mixture(config: PreyMixtureConfig, out_dir: Path) -> ExperimentResult:
    # Lazy, so that in-process runs keep one cell's tables alive at a time.
    tables = (_prey_tables(eps, config.eps_grid) for eps in config.eps_true)
    tasks = (
        (cell, run, config.seed, config.threshold, config.horizon, played_cum, log_inc)
        for cell, (played_cum, log_inc) in enumerate(tables)
        for run in range(config.trials)
    )
    results = _pmap(_prey_trial, tasks, config.workers)
    rows = [
        (config.eps_true[cell], run, tau, int(tau > 0))
        for cell, run, tau in sorted(results)
    ]
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "prey-mixture",
        ["eps_true", "trial", "tau", "detected"],
        rows,
    )
    summary: dict = {
        "experiment": "prey-mixture",
        "seed": config.seed,
        "trials_per_eps": config.trials,
        "eps_grid": "|".join(str(e) for e in config.eps_grid),
    }
    checks: dict[str, bool] = {}
    points = []
    fig_rows = []
    for eps in config.eps_true:
        taus = np.array([r[2] for r in rows if r[0] == eps], dtype=float)
        detected = taus[taus > 0]
        rate = detected.size / taus.size
        mean_tau = float(detected.mean()) if detected.size else math.nan
        summary[f"detect_rate[eps={eps}]"] = rate
        summary[f"mean_tau[eps={eps}]"] = mean_tau
        fig_rows.append((eps, rate, mean_tau, len(taus)))
        if eps >= config.slope_min_eps:
            checks[f"detection_rate[eps={eps}]"] = rate >= config.min_detection_rate
            points.append((eps, mean_tau))
    slope, intercept = fit_loglog_slope(points)
    summary["slope"] = slope
    summary["intercept"] = intercept
    checks["slope_in_band"] = config.slope_low <= slope <= config.slope_high
    fig = write_figure_data(
        out_dir / "figure_prey_mixture.dat",
        ["eps_true", "detect_rate", "mean_tau", "trials"],
        fig_rows,
    )
    summary_csv = write_summary(out_dir / "summary.csv", "prey-mixture", summary)
    return ExperimentResult(
        "prey-mixture", summary, checks, (runs_csv, summary_csv, fig)
    )


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
    tol: float = 0.05


def run_kl_check(config: KlCheckConfig, out_dir: Path) -> ExperimentResult:
    rows = []
    for pair in range(config.pairs):
        rng = run_rng(config.seed, pair)
        # Blend toward uniform so the base keeps comfortably full support.
        p = 0.5 * rng.dirichlet(np.ones(config.dim)) + 0.5 / config.dim
        q = rng.dirichlet(np.ones(config.dim))
        chi2 = chi_square_div(q, p)
        for eps in config.epsilons:
            mixed = (1.0 - eps) * p + eps * q
            kl = kl_divergence(mixed, p)
            predicted = eps**2 * chi2
            ratio = kl / predicted if predicted > 0 else math.nan
            rows.append((pair, eps, kl, predicted, ratio))
    runs_csv = write_csv(
        out_dir / "runs.csv",
        "kl-check",
        ["pair", "epsilon", "kl", "eps2_chi2", "ratio"],
        rows,
    )
    at_check = [r[4] for r in rows if r[1] == config.check_eps]
    worst = max(abs(r - 1.0) for r in at_check)
    summary = {
        "experiment": "kl-check",
        "seed": config.seed,
        "pairs": config.pairs,
        "check_eps": config.check_eps,
        "worst_ratio_error": worst,
    }
    checks = {"quadratic_at_small_eps": worst <= config.tol}
    summary_csv = write_summary(out_dir / "summary.csv", "kl-check", summary)
    return ExperimentResult("kl-check", summary, checks, (runs_csv, summary_csv))


# ---------------------------------------------------------------------------
# oracle-suite: brute-force cross-checks of the numerical paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleSuiteConfig:
    seed: int = DEFAULT_SEED
    streams: int = 100
    stream_max_len: int = 20
    quadrature_nodes: int = ORACLE_GRID_NODES
    matrices: int = 1000
    matrix_dim: int = 5
    chains: int = 25
    chain_dim: int = 5
    rational_games: int = 50


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
    from ..games import deviation_gain

    return abs(deviation_gain(game, strategy, player, deviation) - float(exact))


def run_oracle_suite(config: OracleSuiteConfig, out_dir: Path) -> ExperimentResult:
    rows = []

    # Midpoint quadrature against exact polynomial integration.
    worst_quad = 0.0
    mixture = BettingMixture.uniform_grid(config.quadrature_nodes)
    for i in range(config.streams):
        rng = run_rng(config.seed, 0, i)
        length = int(rng.integers(1, config.stream_max_len + 1))
        xs = rng.uniform(-0.9, 0.9, size=length)
        exact = exact_uniform_mixture(xs)
        path = nfstreams.log_wealth_paths(xs[None, :], mixture)
        approx = float(np.exp(path[0, -1]))
        rel = abs(approx - exact) / exact
        worst_quad = max(worst_quad, rel)
        rows.append(("quadrature", i, rel))

    # LP solutions against pure best-response enumeration.
    worst_gap = 0.0
    for i in range(config.matrices):
        rng = run_rng(config.seed, 1, i)
        payoff = rng.random((config.matrix_dim, config.matrix_dim))
        sol = matrix_game_solve(payoff)
        gap = exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value)
        worst_gap = max(worst_gap, gap)
        rows.append(("matrix-exploitability", i, gap))

    # Power iteration against a dense eigensolver.
    worst_chain = 0.0
    for i in range(config.chains):
        rng = run_rng(config.seed, 2, i)
        chain = rng.random((config.chain_dim, config.chain_dim)) + 0.05
        chain /= chain.sum(axis=1, keepdims=True)
        mu = stationary_distribution(chain)
        values, vectors = np.linalg.eig(chain.T)
        lead = np.argmin(np.abs(values - 1.0))
        reference = np.real(vectors[:, lead])
        reference /= reference.sum()
        err = float(np.max(np.abs(mu - reference)))
        worst_chain = max(worst_chain, err)
        rows.append(("stationary", i, err))

    # Expected-payoff path against exact rational enumeration.
    worst_rational = 0.0
    for i in range(config.rational_games):
        err = _rational_gain_error(run_rng(config.seed, 3, i))
        worst_rational = max(worst_rational, err)
        rows.append(("rational-gain", i, err))

    runs_csv = write_csv(
        out_dir / "runs.csv", "oracle-suite", ["check", "case", "error"], rows
    )
    summary = {
        "experiment": "oracle-suite",
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
    summary_csv = write_summary(out_dir / "summary.csv", "oracle-suite", summary)
    return ExperimentResult("oracle-suite", summary, checks, (runs_csv, summary_csv))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "nf-fwer-null": (NullGridConfig, run_nf_fwer_null),
    "nf-detect": (DetectConfig, run_nf_detect),
    "nf-sensitivity": (SensitivityConfig, run_nf_sensitivity),
    "nf-slack": (SlackConfig, run_nf_slack),
    "soccer-solve": (SoccerSolveConfig, run_soccer_solve),
    "soccer-scaling": (SoccerScalingConfig, run_soccer_scaling),
    "prey-mixture": (PreyMixtureConfig, run_prey_mixture),
    "kl-check": (KlCheckConfig, run_kl_check),
    "oracle-suite": (OracleSuiteConfig, run_oracle_suite),
}


def run_experiment(name: str, config, out_dir: Path, **kwargs) -> ExperimentResult:
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    _, runner = EXPERIMENTS[name]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return runner(config, out_dir, **kwargs)


def replace_config(config, **overrides):
    """Dataclass replace with unknown-key validation, for CLI overrides."""
    names = {f.name for f in dataclasses.fields(config)}
    unknown = set(overrides) - names
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return dataclasses.replace(config, **overrides)
