"""Acceptance suite: one test per acceptance criterion, at its stated
tolerance. The terminal summary prints one PASS/FAIL line per criterion.

Statistical criteria run at the frozen default master seed, so every run of
this suite reproduces the same numbers bit for bit.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from eqsentinel import (
    BettingMixture,
    EProcessState,
    EquilibriumMode,
    LRMonitorState,
    Policy,
    deviation_gain,
    detection_bound_uniform,
    ebh_rejection,
    equilibrium_slack,
    exact_uniform_mixture,
    lr_step,
    matrix_game_solve,
    slack_lower_bound,
)
from eqsentinel.envs import prey, soccer
from eqsentinel.harness import nfstreams, scenarios
from eqsentinel.harness.experiments import (
    DetectConfig,
    NullGridConfig,
    PreyMixtureConfig,
    SensitivityConfig,
    SlackConfig,
    SoccerScalingConfig,
    run_nf_detect,
    run_nf_fwer_null,
    run_nf_sensitivity,
    run_nf_slack,
    run_prey_mixture,
    run_soccer_scaling,
)
from eqsentinel.harness.seeding import DEFAULT_SEED, run_rng
from eqsentinel.monitors import enumerate_hypotheses

from _oracles import (
    TWO_SIGNAL_ALTERNATIVE,
    TWO_SIGNAL_PAYOFFS,
    best_response_gap,
    frac_deviation_gain,
)


@pytest.fixture(scope="module")
def detect_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("nf-detect")
    return run_nf_detect(DetectConfig(), out)


@pytest.mark.criterion(1, label="exact equilibrium slack and deviation gains")
def test_criterion_01_nash_verification(two_signal):
    started = time.perf_counter()
    game, nash, alternative = two_signal
    assert equilibrium_slack(game, nash, EquilibriumMode.NASH) <= 1e-12

    exact_1 = frac_deviation_gain(TWO_SIGNAL_PAYOFFS, TWO_SIGNAL_ALTERNATIVE, 0, 0)
    exact_2 = frac_deviation_gain(TWO_SIGNAL_PAYOFFS, TWO_SIGNAL_ALTERNATIVE, 1, 0)
    assert exact_1 == Fraction(129, 4000)  # 0.03225 exactly
    assert exact_2 == Fraction(133, 4000)  # 0.03325 exactly
    assert deviation_gain(game, alternative, 0, 0) == pytest.approx(
        float(exact_1), abs=1e-15
    )
    assert deviation_gain(game, alternative, 1, 0) == pytest.approx(
        float(exact_2), abs=1e-15
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.criterion(2, label="false-alarm rate controlled on the full grid")
def test_criterion_02_fwer_grid(tmp_path):
    result = run_nf_fwer_null(NullGridConfig(), tmp_path)
    assert result.summary["runs_per_cell"] == 300
    for (lam, alpha) in [(l, a) for l in (0.05, 0.1, 0.15, 0.4) for a in (0.2, 0.1, 0.05)]:
        assert result.checks[f"fwer_le_alpha[lambda={lam},alpha={alpha}]"], (
            lam,
            alpha,
            result.summary[f"fwer[lambda={lam},alpha={alpha}]"],
        )
    assert result.summary["fwer[lambda=0.05,alpha=0.2]"] <= 0.05


@pytest.mark.criterion(3, label="e-BH alarm never later than the single-threshold stop")
def test_criterion_03_dominance(detect_result):
    assert detect_result.summary["runs"] == 300
    assert detect_result.summary["dominance_count"] == 300


@pytest.mark.criterion(4, label="e-BH speedup within the expected band")
def test_criterion_04_speedup(detect_result):
    assert detect_result.checks["all_runs_detected"]
    assert 1.05 <= detect_result.summary["speedup_ratio"] <= 1.30


@pytest.mark.criterion(5, label="uniform-mixture detection-time ceiling")
def test_criterion_05_uniform_mixture_ceiling(tmp_path):
    config = SensitivityConfig(
        runs=100, horizon=4000, alphas=(0.2,), etas=(0.1,), mixture="uniform"
    )
    result = run_nf_sensitivity(config, tmp_path)
    key = "alpha=0.2,eta=0.1,mixture=uniform[101]"
    bound = detection_bound_uniform(20.0, 0.1)
    assert bound == pytest.approx(8508.2, abs=0.15)
    assert result.summary[f"uniform_bound[{key}]"] == bound
    assert result.checks[f"mean_below_uniform_bound[{key}]"]
    assert result.summary[f"mean_tau[{key}]"] <= bound


@pytest.mark.criterion(6, label="deterministic-gap stopping rounds are exact")
def test_criterion_06_deterministic_stopping(tmp_path):
    result = run_nf_slack(SlackConfig(triples=20), tmp_path)
    assert result.summary["exact_matches"] == 20
    # Spot formula check on a canonical triple.
    assert slack_lower_bound(20.0, 0.05, 0.05) == 1200


@pytest.mark.criterion(7, label="grid quadrature matches the exact mixture integral")
def test_criterion_07_quadrature_oracle():
    mixture = BettingMixture.uniform_grid(1001)
    worst = 0.0
    for case in range(100):
        rng = run_rng(DEFAULT_SEED, 7, case)
        xs = rng.uniform(-0.9, 0.9, size=int(rng.integers(1, 21)))
        state = EProcessState(mixture)
        for x in xs:
            state.update(x)
        exact = exact_uniform_mixture(xs)
        worst = max(worst, abs(state.value() - exact) / exact)
    assert worst <= 1e-3


def _nf_null_mixture_means(seeds: int, checkpoints: tuple[int, ...]):
    """Wealth samples of the grid mixture under equilibrium-play increments."""
    game = scenarios.two_signal_game()
    nash = scenarios.two_signal_nash()
    hyps = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = nfstreams.increment_tables(game, hyps)[0]  # the first hypothesis
    mixture = BettingMixture.uniform_grid(101)
    horizon = max(checkpoints)
    out = {t: [] for t in checkpoints}
    chunk = 2000
    done = 0
    block = 0
    while done < seeds:
        n = min(chunk, seeds - done)
        rng = run_rng(DEFAULT_SEED, 8, block)
        stream = np.stack(
            [
                nfstreams.sample_action_stream(nash, horizon, rng)
                for _ in range(n)
            ]
        )
        draws = tables[stream]  # (n, horizon)
        logw = np.cumsum(
            np.log1p(-draws[:, :, None] * mixture.lambdas), axis=1
        )
        for t in checkpoints:
            lw = logw[:, t - 1, :]
            shift = lw.max(axis=1)
            out[t].extend(
                np.exp(shift)
                * np.sum(mixture.weights * np.exp(lw - shift[:, None]), axis=1)
            )
        done += n
        block += 1
    return {t: np.array(v) for t, v in out.items()}


def _batched_null_lr_means(seeds: int, checkpoints: tuple[int, ...], grid):
    """Mixture likelihood-ratio wealth under null (uniform) suspect play.

    Walks all replicas of the pursuit in lockstep with array ops; capture
    resets a replica to the start state, mirroring concatenated episodes.
    """
    rng = run_rng(DEFAULT_SEED, 88)
    grid = np.asarray(grid)
    moves = np.array([[0, 0], [-1, 0], [1, 0], [0, -1], [0, 1]])
    start = prey.DEFAULT_START

    def tile(pos):
        return np.tile(np.array(pos), (seeds, 1))

    suspect, h1, h2, target = (
        tile(start.predators[0]),
        tile(start.predators[1]),
        tile(start.predators[2]),
        tile(start.prey),
    )
    log_lr = np.zeros((seeds, grid.size))
    out = {}

    def batched_move(pos, actions):
        cand = pos + moves[actions]
        off = (cand < 0).any(axis=1) | (cand >= prey.GRID).any(axis=1)
        return np.where(off[:, None], pos, cand)

    for t in range(1, max(checkpoints) + 1):
        captured = (
            (suspect == target).all(axis=1)
            | (h1 == target).all(axis=1)
            | (h2 == target).all(axis=1)
        )
        if captured.any():
            for arr, pos in (
                (suspect, start.predators[0]),
                (h1, start.predators[1]),
                (h2, start.predators[2]),
                (target, start.prey),
            ):
                arr[captured] = pos
        # Chase weights at the current geometry, replica by replica.
        landings = suspect[:, None, :] + moves[None, :, :]
        off = (landings < 0).any(axis=2) | (landings >= prey.GRID).any(axis=2)
        landings = np.where(off[:, :, None], suspect[:, None, :], landings)
        d_now = ((suspect - target) ** 2).sum(axis=1)
        d_new = ((landings - target[:, None, :]) ** 2).sum(axis=2)
        weights = np.where(
            d_new < d_now[:, None],
            prey.CHASE_CLOSER,
            np.where(d_new == d_now[:, None], prey.CHASE_NEUTRAL, prey.CHASE_FARTHER),
        )
        chase = weights / weights.sum(axis=1, keepdims=True)
        actions = rng.integers(prey.NUM_ACTIONS, size=seeds)
        chosen = chase[np.arange(seeds), actions]
        candidate = 0.2 * (1.0 - grid)[None, :] + grid[None, :] * chosen[:, None]
        log_lr += np.log(candidate / 0.2)
        if t in checkpoints:
            shift = log_lr.max(axis=1)
            out[t] = np.exp(shift) * np.mean(
                np.exp(log_lr - shift[:, None]), axis=1
            )
        suspect = batched_move(suspect, actions)
        h1 = batched_move(h1, rng.integers(prey.NUM_ACTIONS, size=seeds))
        h2 = batched_move(h2, rng.integers(prey.NUM_ACTIONS, size=seeds))
        target = batched_move(target, rng.integers(prey.NUM_ACTIONS, size=seeds))
    return out


@pytest.mark.criterion(8, label="wealth processes normalized under the null")
def test_criterion_08_martingale_normalization():
    seeds = 10_000
    betting = _nf_null_mixture_means(seeds, (10, 100))
    for t in (10, 100):
        values = betting[t]
        se = values.std(ddof=1) / math.sqrt(seeds)
        assert values.mean() <= 1.0 + 3.0 * se, (t, values.mean(), se)

    # The candidate grid is kept mild so the Monte-Carlo mean estimator of
    # the exactly-normalized process stays in its CLT regime at 1e4 seeds.
    ratios = _batched_null_lr_means(seeds, (10, 100), grid=(0.1, 0.2))
    for t in (10, 100):
        values = ratios[t]
        se = values.std(ddof=1) / math.sqrt(seeds)
        assert abs(values.mean() - 1.0) <= 3.0 * se, (t, values.mean(), se)


@pytest.mark.criterion(9, label="e-BH threshold ladder and hand rejections")
def test_criterion_09_ebh_thresholds():
    alpha, m = 0.2, 4
    weights = np.full(m, 1.0 / m)
    assert 1.0 / (1 * alpha * weights[0]) == 20.0
    assert 1.0 / (2 * alpha * weights[0]) == 10.0
    assert ebh_rejection([21.0, 3.0, 3.0, 3.0], alpha, weights) == (1, (0,))
    assert ebh_rejection([12.0, 11.0, 1.0, 1.0], alpha, weights) == (2, (0, 1))


@pytest.mark.criterion(10, label="matrix-game solutions are unexploitable")
def test_criterion_10_matrix_solver():
    pennies = matrix_game_solve([[1.0, -1.0], [-1.0, 1.0]])
    assert abs(pennies.value) <= 1e-9
    worst = 0.0
    for case in range(1000):
        rng = run_rng(DEFAULT_SEED, 10, case)
        payoff = rng.random((5, 5))
        sol = matrix_game_solve(payoff)
        worst = max(
            worst,
            best_response_gap(payoff, sol.row_strategy, sol.col_strategy, sol.value),
        )
    assert worst <= 1e-6


@pytest.mark.criterion(11, label="value iteration converges and is a fixed point")
def test_criterion_11_shapley_convergence(soccer_game, soccer_solution):
    assert soccer_solution.converged
    assert soccer_solution.iterations <= 100
    assert soccer_solution.residual < 1e-3
    q = soccer_game.native_reward + 0.95 * np.einsum(
        "sabt,t->sab", soccer_game.model.transition, soccer_solution.values
    )
    resolved = np.array(
        [matrix_game_solve(q[s]).value for s in range(q.shape[0])]
    )
    assert float(np.max(np.abs(resolved - soccer_solution.values))) < 1e-3


@pytest.mark.criterion(12, label="detection time follows the inverse-square law (soccer)")
def test_criterion_12_soccer_scaling(tmp_path, soccer_solution):
    config = SoccerScalingConfig()  # 150 trials per deviation weight
    result = run_soccer_scaling(
        config,
        tmp_path,
        policies=(soccer_solution.row_policy, soccer_solution.col_policy),
    )
    assert result.checks["all_trials_detected"]
    assert -2.5 <= result.summary["slope"] <= -1.5, result.summary["slope"]


@pytest.mark.criterion(13, label="mixture monitor robust to unknown deviation size")
def test_criterion_13_prey_mixture(tmp_path):
    config = PreyMixtureConfig(trials=60, eps_true=(0.2, 0.3, 0.4, 0.6, 0.8))
    result = run_prey_mixture(config, tmp_path)
    for eps in config.eps_true:
        assert result.summary[f"detect_rate[eps={eps}]"] >= 0.95, eps
    assert -2.5 <= result.summary["slope"] <= -1.5, result.summary["slope"]

    # Single-step mixture update at the corner-start geometry.
    _, chase_row, chase_rows = prey.pursuit_tables()
    chase_state = chase_row[prey.cell_id((0, 0))][prey.cell_id((5, 5))]
    null = Policy(np.full(chase_rows.shape, 0.2))
    alternatives = tuple(Policy(prey.suspect_rows(eps)) for eps in config.eps_grid)
    monitor = LRMonitorState.fresh(alternatives)
    lr_step(monitor, chase_state, 2, null, threshold=20.0)  # observed: Down
    assert monitor.value() == pytest.approx(1.587, abs=1e-3)


@pytest.mark.criterion(14, label="mixture KL scales quadratically near zero")
def test_criterion_14_quadratic_divergence():
    eps = 1e-3
    worst = 0.0
    for pair in range(50):
        rng = run_rng(DEFAULT_SEED, 14, pair)
        p = 0.5 * rng.dirichlet(np.ones(5)) + 0.1
        q = rng.dirichlet(np.ones(5))
        chi2 = 0.5 * float(np.sum((q - p) ** 2 / p))
        mixed = (1 - eps) * p + eps * q
        kl = float(np.sum(mixed * np.log(mixed / p)))
        worst = max(worst, abs(kl / (eps**2 * chi2) - 1.0))
    assert worst <= 0.05
