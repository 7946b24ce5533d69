import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import prey_trial, soccer_trial
from eqsentinel.envs import prey, soccer
from eqsentinel.errors import ConfigError, DomainError
from eqsentinel.harness import experiments, nfstreams, scenarios
from eqsentinel.harness.cli import main
from eqsentinel.harness.config import (
    config_from_mapping,
    game_from_mapping,
    parse_kv_text,
    strategy_from_mapping,
)
from eqsentinel.harness.csvio import read_csv, write_csv
from eqsentinel.harness.experiments import (
    DetectConfig,
    KlCheckConfig,
    NullGridConfig,
    PreyMixtureConfig,
    SlackConfig,
    SoccerScalingConfig,
    fit_loglog_slope,
    run_nf_detect,
    run_nf_fwer_null,
    run_nf_slack,
    run_prey_mixture,
    run_soccer_scaling,
)
from eqsentinel.harness.seeding import run_rng
from eqsentinel.eprocess import BettingMixture
from eqsentinel.games import EquilibriumMode
from eqsentinel.monitors import enumerate_hypotheses
from eqsentinel.stochastic import Policy, smooth_policy


class TestConfigParsing:
    def test_basic_pairs_and_comments(self):
        text = "a = 1\n# comment\nb = two # trailing\n\nc=3.5\n"
        assert parse_kv_text(text) == {"a": "1", "b": "two", "c": "3.5"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_kv_text("just words\n")

    def test_dataclass_coercion(self):
        mapping = {"seed": "7", "runs": "10", "lambdas": "0.1, 0.2"}
        config = config_from_mapping(NullGridConfig, mapping)
        assert config.seed == 7 and config.runs == 10
        assert config.lambdas == (0.1, 0.2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping(NullGridConfig, {"bogus": "1"})

    def test_game_and_strategy_round_trip(self):
        mapping = {
            "game_players": "2",
            "game_actions": "2,2",
            "game_payoffs_1": "0.9,0.2,0.3,0.7",
            "game_payoffs_2": "0.5,0.3,0.2,0.7",
            "strategy_kind": "product",
            "strategy_1": "0.85,0.15",
            "strategy_2": "0.65,0.35",
        }
        game = game_from_mapping(mapping)
        strategy = strategy_from_mapping(mapping)
        reference = scenarios.two_signal_game()
        assert game.payoffs == pytest.approx(reference.payoffs)
        assert strategy.factors[0] == pytest.approx([0.85, 0.15])

    def test_full_strategy_mapping(self):
        mapping = {
            "strategy_kind": "full",
            "strategy_shape": "2,2",
            "strategy_joint": "0.5,0,0,0.5",
        }
        strategy = strategy_from_mapping(mapping)
        assert strategy.joint[0, 0] == 0.5


class TestSeeding:
    def test_same_key_same_stream(self):
        a = run_rng(123, 4, 5).random(8)
        b = run_rng(123, 4, 5).random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = run_rng(123, 4, 5).random(8)
        b = run_rng(123, 4, 6).random(8)
        assert not np.array_equal(a, b)


class TestSlopeFit:
    def test_inverse_square_curve(self):
        points = [(e, 3.7 / e**2) for e in (0.05, 0.1, 0.2, 0.4)]
        slope, intercept = fit_loglog_slope(points)
        assert slope == pytest.approx(-2.0, abs=1e-9)
        assert intercept == pytest.approx(np.log(3.7), abs=1e-9)

    def test_constant_curve(self):
        slope, _ = fit_loglog_slope([(e, 42.0) for e in (0.1, 0.2, 0.3)])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_inverse_curve(self):
        slope, _ = fit_loglog_slope([(e, 5.0 / e) for e in (0.1, 0.2, 0.3)])
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            fit_loglog_slope([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(DomainError):
            fit_loglog_slope([(0.1, 1.0), (0.2, -2.0), (0.3, 1.0)])


class TestVectorizedReplay:
    def test_stream_matches_object_monitor(self, two_signal):
        # Same profiles through the numpy path and the object monitor.
        from eqsentinel import ActionProfile, EquilibriumMonitor, MonitorConfig

        game, _, alternative = two_signal
        hyps = enumerate_hypotheses(game, EquilibriumMode.NASH)
        tables = nfstreams.increment_tables(game, hyps)
        rng = run_rng(55, 0)
        stream = nfstreams.sample_action_stream(alternative, 2500, rng)
        paths = nfstreams.log_wealth_paths(tables[:, stream], BettingMixture.dirac(0.05))
        crossings = nfstreams.fwer_crossing_times(paths, 20.0)
        detected = crossings[crossings > 0]
        expected_round = int(detected.min())

        monitor = EquilibriumMonitor(
            game, MonitorConfig(alpha=0.2, mixture=BettingMixture.dirac(0.05))
        )
        counts = game.action_counts
        stopped_round = None
        for t, flat in enumerate(stream, start=1):
            profile = ActionProfile(tuple(np.unravel_index(flat, counts)))
            if monitor.step_fwer(profile).stopped:
                stopped_round = t
                break
        assert stopped_round == expected_round


class TestDeterminism:
    def test_nf_detect_bit_identical(self, tmp_path):
        config = DetectConfig(runs=12, horizon=2500)
        first = run_nf_detect(config, tmp_path / "a")
        second = run_nf_detect(config, tmp_path / "b")
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()
        assert first.summary == second.summary

    def test_prey_workers_do_not_change_artifacts(self, tmp_path):
        base = PreyMixtureConfig(trials=6, eps_true=(0.3, 0.5, 0.8), workers=1)
        parallel = PreyMixtureConfig(trials=6, eps_true=(0.3, 0.5, 0.8), workers=2)
        run_prey_mixture(base, tmp_path / "w1")
        run_prey_mixture(parallel, tmp_path / "w2")
        assert (tmp_path / "w1" / "runs.csv").read_bytes() == (
            tmp_path / "w2" / "runs.csv"
        ).read_bytes()

    def test_soccer_workers_do_not_change_artifacts(self, tmp_path, soccer_solution):
        policies = (soccer_solution.row_policy, soccer_solution.col_policy)
        cfg1 = SoccerScalingConfig(trials=4, epsilons=(0.2, 0.3, 0.5), workers=1)
        cfg2 = SoccerScalingConfig(trials=4, epsilons=(0.2, 0.3, 0.5), workers=2)
        run_soccer_scaling(cfg1, tmp_path / "w1", policies=policies)
        run_soccer_scaling(cfg2, tmp_path / "w2", policies=policies)
        assert (tmp_path / "w1" / "runs.csv").read_bytes() == (
            tmp_path / "w2" / "runs.csv"
        ).read_bytes()


def _terminal_steps(monkeypatch, module, name, done_at):
    """Count the steps of ``module.name`` that end an episode."""
    count = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        count[0] += bool(out[done_at])
        return out

    monkeypatch.setattr(module, name, counted)
    return count


def _trial_taus(out_dir):
    _, _, rows = read_csv(out_dir / "runs.csv")
    return {(float(row[0]), int(row[1])): int(row[2]) for row in rows}


class TestTrialLoops:
    """The table-driven trials against the object-level loops they replaced
    (``tests/_oracles.py``): same generator keys, same taus."""

    def test_soccer_matches_object_loop(self, tmp_path, soccer_solution, monkeypatch):
        config = SoccerScalingConfig(trials=20, t_max=300)
        run_soccer_scaling(
            config, tmp_path, policies=(soccer_solution.row_policy, soccer_solution.col_policy)
        )
        null = smooth_policy(soccer_solution.row_policy, config.smoothing).table
        defender = smooth_policy(soccer_solution.col_policy, config.smoothing).table
        afraid = np.vstack([soccer.afraid_transform(row) for row in null])
        resets = _terminal_steps(monkeypatch, soccer, "soccer_step", 2)
        expected = {
            (eps, run): soccer_trial(
                (cell, run, config.seed, eps, config.t_max, config.threshold,
                 null, defender, afraid)
            )[2]
            for cell, eps in enumerate(config.epsilons)
            for run in range(config.trials)
        }
        assert _trial_taus(tmp_path) == expected
        assert -1 in expected.values() and resets[0] > 0

    @pytest.mark.parametrize("episode", [prey.HORIZON, 40])
    def test_prey_matches_object_loop(self, tmp_path, monkeypatch, episode):
        # A 40-step episode horizon makes the loops reset on exhaustion too.
        monkeypatch.setattr(
            prey, "DEFAULT_START", dataclasses.replace(prey.DEFAULT_START, horizon=episode)
        )
        config = PreyMixtureConfig(trials=20, horizon=250)
        run_prey_mixture(config, tmp_path)
        resets = _terminal_steps(monkeypatch, prey, "prey_step", 1)
        expected = {
            (eps, run): prey_trial(
                (cell, run, config.seed, eps, config.eps_grid, config.threshold,
                 config.horizon)
            )[2]
            for cell, eps in enumerate(config.eps_true)
            for run in range(config.trials)
        }
        assert _trial_taus(tmp_path) == expected
        assert -1 in expected.values() and resets[0] > 0

    def test_one_generator_per_trial(self, tmp_path, soccer_solution, monkeypatch):
        keys = []
        real = experiments.run_rng

        def counted(*key):
            keys.append(key)
            return real(*key)

        monkeypatch.setattr(experiments, "run_rng", counted)
        soccer_config = SoccerScalingConfig(trials=3, epsilons=(0.2, 0.3, 0.5))
        run_soccer_scaling(
            soccer_config,
            tmp_path / "soccer",
            policies=(soccer_solution.row_policy, soccer_solution.col_policy),
        )
        prey_config = PreyMixtureConfig(trials=3, eps_true=(0.3, 0.5, 0.8))
        run_prey_mixture(prey_config, tmp_path / "prey")
        trials = [(cell, run) for cell in range(3) for run in range(3)]
        assert keys == [(soccer_config.seed, *t) for t in trials] + [
            (prey_config.seed, *t) for t in trials
        ]

    def test_soccer_draw_past_a_short_row_picks_the_last_action(self, tmp_path, monkeypatch):
        # Rows may sum to 1 - 1e-13 (inside Policy's tolerance), so the
        # largest uniform double lies past every row's last cumulative sum.
        class Saturated:
            def random(self, size=None):
                top = 1.0 - 2.0**-53
                return top if size is None else np.full(size, top)

        monkeypatch.setattr(experiments, "run_rng", lambda *key: Saturated())
        short = np.full((soccer.NUM_STATES, soccer.NUM_ACTIONS), 0.2)
        short[:, -1] -= 1e-13
        config = SoccerScalingConfig(trials=1, epsilons=(0.2, 0.3, 0.5), smoothing=0.0)
        result = run_soccer_scaling(config, tmp_path, policies=(Policy(short), Policy(short)))
        # Both players always pick Wait; Wait gains the timid attacker's
        # shifted East mass, so every trial detects.
        assert result.checks["all_trials_detected"]


class TestSummaryRecomputable:
    def test_detect_summary_is_function_of_rows(self, tmp_path):
        config = DetectConfig(runs=20, horizon=3000)
        result = run_nf_detect(config, tmp_path)
        _, columns, rows = read_csv(tmp_path / "runs.csv")
        tf = np.array([float(r[columns.index("tau_fwer")]) for r in rows])
        td = np.array([float(r[columns.index("tau_fdr")]) for r in rows])
        assert result.summary["mean_tau_fwer"] == pytest.approx(tf.mean())
        assert result.summary["mean_tau_fdr"] == pytest.approx(td.mean())
        assert result.summary["speedup_ratio"] == pytest.approx(tf.mean() / td.mean())

    def test_null_grid_summary_is_function_of_rows(self, tmp_path):
        config = NullGridConfig(runs=25, horizon=600, lambdas=(0.1,), alphas=(0.2,))
        result = run_nf_fwer_null(config, tmp_path)
        _, columns, rows = read_csv(tmp_path / "runs.csv")
        rej = [int(r[columns.index("rejected")]) for r in rows]
        assert result.summary["fwer[lambda=0.1,alpha=0.2]"] == pytest.approx(
            sum(rej) / len(rej)
        )


class TestCsvFormat:
    def test_version_line_and_float_precision(self, tmp_path):
        path = write_csv(
            tmp_path / "x.csv", "demo", ["a", "b"], [(1, 0.1), (2, 1 / 3)]
        )
        text = path.read_text().splitlines()
        assert text[0].startswith("# eqsentinel-csv v1")
        assert text[2] == "1,0.10000000000000001"
        assert float(text[3].split(",")[1]) == 1 / 3


class TestCli:
    def test_slack_subcommand_passes(self, tmp_path, capsys):
        rc = main(
            [
                "nf-slack",
                "--out",
                str(tmp_path),
                "--seed",
                "33",
                "--assert",
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "check all_rounds_exact: pass" in captured

    def test_failing_assertion_exits_two(self, tmp_path, write=None):
        config = tmp_path / "kl.cfg"
        config.write_text("experiment = kl-check\ntol = 1e-9\npairs = 5\n")
        rc = main(
            ["kl-check", "--config", str(config), "--out", str(tmp_path / "o"), "--assert"]
        )
        assert rc == 2

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = nf-slack\nnope = 4\n")
        rc = main(["nf-slack", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    def test_experiment_mismatch_exits_one(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = nf-detect\n")
        rc = main(["nf-slack", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_custom_game_through_config(self, tmp_path):
        config = tmp_path / "null.cfg"
        config.write_text(
            "experiment = nf-fwer-null\n"
            "runs = 10\nhorizon = 300\nlambdas = 0.1\nalphas = 0.2\n"
            "game_players = 2\n"
            "game_actions = 2,2\n"
            "game_payoffs_1 = 0.5,0.5,0.5,0.5\n"
            "game_payoffs_2 = 0.5,0.5,0.5,0.5\n"
            "strategy_kind = product\n"
            "strategy_1 = 0.5,0.5\n"
            "strategy_2 = 0.5,0.5\n"
        )
        rc = main(
            ["nf-fwer-null", "--config", str(config), "--out", str(tmp_path / "o"), "--assert"]
        )
        # A constant game yields zero increments: no rejections at all.
        assert rc == 0
        _, columns, rows = read_csv(tmp_path / "o" / "runs.csv")
        assert all(r[columns.index("rejected")] == "0" for r in rows)


class TestSlackExperiment:
    def test_all_random_triples_match(self, tmp_path):
        result = run_nf_slack(SlackConfig(triples=8, seed=5), tmp_path)
        assert result.checks["all_rounds_exact"]


class TestSensitivityAnchors:
    def test_low_slack_stopping_means(self, tmp_path):
        # The eta=0.05, fraction=0.1 cells have well-established mean stopping
        # times near 775 (alpha=0.1) and 911 (alpha=0.05); the frozen seed
        # lands within a few percent of both.
        from eqsentinel.harness.experiments import SensitivityConfig, run_nf_sensitivity

        config = SensitivityConfig(
            runs=300, horizon=20000, alphas=(0.1, 0.05), lambdas=(0.1,), etas=(0.05,)
        )
        result = run_nf_sensitivity(config, tmp_path)
        low = result.summary["mean_tau[alpha=0.1,eta=0.05,mixture=dirac[0.1]]"]
        high = result.summary["mean_tau[alpha=0.05,eta=0.05,mixture=dirac[0.1]]"]
        assert low == pytest.approx(775.0, rel=0.05)
        assert high == pytest.approx(911.0, rel=0.05)
        assert high > low


class TestEbhAlarmFuzz:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_alarm_matches_per_round_recomputation(self, data):
        from eqsentinel.monitors import ebh_rejection

        m = data.draw(st.integers(2, 5))
        horizon = data.draw(st.integers(3, 40))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        paths = np.cumsum(rng.normal(scale=0.8, size=(m, horizon)), axis=1)
        alpha = 0.2
        weights = np.full(m, 1.0 / m)
        alarm, k_at_alarm, rejected = nfstreams.ebh_alarm(paths, alpha, weights)

        suprema = np.maximum.accumulate(np.exp(paths), axis=1)
        expected_alarm = -1
        for t in range(horizon):
            k, idx = ebh_rejection(suprema[:, t], alpha, weights)
            if k >= 1:
                expected_alarm = t + 1
                assert (k, idx) == (k_at_alarm, rejected)
                break
        assert alarm == expected_alarm


class TestGridMixtureReplay:
    def test_object_state_matches_vectorized_grid_path(self):
        from eqsentinel.eprocess import EProcessState

        rng = np.random.default_rng(77)
        xs = rng.uniform(-0.9, 0.9, size=60)
        mixture = BettingMixture.uniform_grid(41)
        paths = nfstreams.log_wealth_paths(xs[None, :], mixture)[0]
        state = EProcessState(mixture)
        for t, x in enumerate(xs):
            state.update(x)
            assert np.log(state.value()) == pytest.approx(
                paths[t], abs=1e-12
            )


class TestCliErrors:
    def test_unwritable_output_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        rc = main(["nf-slack", "--out", str(blocker / "nested")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEpsGridMixture:
    def test_capped_grid_satisfies_shifted_monitor(self, two_signal):
        from eqsentinel import EquilibriumMonitor, MonitorConfig
        from eqsentinel.games import EquilibriumMode

        game, _, _ = two_signal
        eps = 0.25
        capped = BettingMixture.uniform_grid(21, upper=1.0 / (1.0 + eps))
        config = MonitorConfig(
            alpha=0.1, mixture=capped, mode=EquilibriumMode.EPS_APPROX, eps=eps
        )
        monitor = EquilibriumMonitor(game, config)
        assert monitor.threshold == pytest.approx(40.0)
