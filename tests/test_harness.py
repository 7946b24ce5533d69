import argparse
import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import typing
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    advanced_reference,
    nf_detect_rows_reference,
    nf_fwer_null_rows_reference,
    nf_sensitivity_rows_reference,
    prey_trial,
    profile_sampler_reference,
    sample_action_stream_reference,
    soccer_trial,
)
from eqsentinel import games
from eqsentinel.envs import prey, soccer
from eqsentinel.errors import ConfigError, DomainError, ShapeError
from eqsentinel.harness import cli, experiments, nfstreams, scenarios
from eqsentinel.harness.cli import main
from eqsentinel.harness.config import (
    config_from_mapping,
    field_types,
    game_from_mapping,
    parse_kv_text,
    strategy_from_mapping,
)
from eqsentinel.harness.csvio import format_value, read_csv, write_csv
from eqsentinel.harness.experiments import (
    DetectConfig,
    KlCheckConfig,
    NullGridConfig,
    PreyMixtureConfig,
    SensitivityConfig,
    SlackConfig,
    SoccerScalingConfig,
    fit_loglog_slope,
    run_nf_detect,
    run_nf_fwer_null,
    run_nf_sensitivity,
    run_nf_slack,
    run_prey_mixture,
    run_soccer_scaling,
)
from eqsentinel.harness.seeding import DEFAULT_SEED, run_rng, run_rngs, run_streams
from eqsentinel.eprocess import BettingMixture
from eqsentinel.games import EquilibriumMode, JointStrategy
from eqsentinel.monitors import enumerate_hypotheses
from eqsentinel.stochastic import Policy, SolverConfig, smooth_policy


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


CHECKED_IN_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


class TestCheckedInConfigs:
    """Every file under configs/ builds its experiment's config without running it."""

    @pytest.mark.parametrize("path", CHECKED_IN_CONFIGS, ids=lambda p: p.name)
    def test_config_builds(self, path):
        mapping = parse_kv_text(path.read_text())
        assert mapping["experiment"] in experiments.EXPERIMENTS
        config_cls, _ = experiments.EXPERIMENTS[mapping.pop("experiment")]
        config = config_from_mapping(config_cls, mapping)
        assert isinstance(config, config_cls)

    def test_every_experiment_has_a_config(self):
        assert {p.stem for p in CHECKED_IN_CONFIGS} >= set(experiments.EXPERIMENTS)


@pytest.mark.parametrize("name", list(experiments.EXPERIMENTS))
def test_config_of_another_experiment_rejected(tmp_path, name):
    names = list(experiments.EXPERIMENTS)
    other = experiments.EXPERIMENTS[names[(names.index(name) + 1) % len(names)]][0]()
    expected = experiments.EXPERIMENTS[name][0].__name__
    with pytest.raises(ConfigError, match=expected):
        experiments.run_experiment(name, other, tmp_path / "out")
    assert not (tmp_path / "out").exists()


class TestSeeding:
    def test_same_key_same_stream(self):
        a = run_rng(123, 4, 5).random(8)
        b = run_rng(123, 4, 5).random(8)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = run_rng(123, 4, 5).random(8)
        b = run_rng(123, 4, 6).random(8)
        assert not np.array_equal(a, b)

    @settings(deadline=None)
    @given(
        master=st.integers(0, 2**160 - 1),
        cell=st.integers(0, 2**40 - 1),
        runs=st.integers(0, 70),
    )
    # Multi-word keys, always: a master past the pool's 4 words, a 2-word cell.
    @example(master=2**130 + 9, cell=2**33 + 1, runs=3)
    @example(master=2**64 - 1, cell=2**32, runs=1)
    def test_batch_equals_one_generator_per_run(self, master, cell, runs):
        batch = run_rngs(master, cell, runs)
        assert len(batch) == runs
        for run, rng in enumerate(batch):
            reference = run_rng(master, cell, run)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert np.array_equal(rng.random(8), reference.random(8))

    @pytest.mark.parametrize("master, cell", [(-1, 0), (5, -1)], ids=["master", "cell"])
    def test_batch_refuses_a_negative_key_as_run_rng_does(self, master, cell):
        for make in (run_rng, run_rngs):
            with pytest.raises(ValueError, match="non-negative"):
                make(master, cell, 2)

    @pytest.mark.parametrize(
        "name, config",
        [
            ("nf-fwer-null", NullGridConfig(runs=3, horizon=200)),
            ("nf-detect", DetectConfig(runs=3, horizon=200)),
            ("nf-sensitivity", SensitivityConfig(runs=3, horizon=200, etas=(0.1,))),
            ("oracle-suite", experiments.OracleSuiteConfig(streams=3, matrices=3, chains=3)),
        ],
    )
    def test_batch_runners_never_seed_one_run(self, tmp_path, monkeypatch, name, config):
        def refused(*key):
            raise AssertionError(f"run_rng{key} called")

        monkeypatch.setattr(experiments, "run_rng", refused)
        experiments.run_experiment(name, config, tmp_path)
        assert (tmp_path / "runs.csv").is_file()


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


DRAW_STRATEGIES = {
    "product-2": JointStrategy.product([0.3, 0.7], [0.1, 0.5, 0.4]),
    "product-3": JointStrategy.product([0.6, 0.4], [0.2, 0.8], [0.25, 0.25, 0.5]),
    "full": JointStrategy.full([[0.1, 0.2, 0.3], [0.15, 0.05, 0.2]]),
}


class TestChunkedReplay:
    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 20000])
    @pytest.mark.parametrize("name", sorted(DRAW_STRATEGIES))
    def test_chunked_draws_equal_the_full_stream(self, name, horizon):
        # Three runs drawn chunk by chunk in blocks of two runs and one, each
        # chunk also by the scratch-generator sampler the replay used before.
        strategy = DRAW_STRATEGIES[name]
        keys = [(9, 4), (9, 5), (9, 6)]
        offsets = nfstreams.stream_offsets(strategy, horizon)
        cap = nfstreams.CHUNK_ROUNDS
        # Equal chunks of the cap, then the early-exit replay's chunks, which
        # double from a sixteenth of the cap (64, 128, ..., 1024, 1024, ...).
        for first in (cap, cap // 16):
            streams = [tuple(advanced_reference(run_rng(*key), k) for k in offsets) for key in keys]
            draw = nfstreams._profile_sampler(strategy, streams)
            scratch = profile_sampler_reference(strategy, horizon, [run_rng(*key) for key in keys])
            parts, start, chunk = [[], [], []], 0, first
            while start < horizon:
                n = min(chunk, horizon - start)
                for block in ([0, 1], [2]):
                    rows = draw(block, n)
                    assert np.array_equal(rows, scratch(block, start, n))
                    for run, row in zip(block, rows):
                        parts[run].append(row)
                start, chunk = start + n, min(2 * chunk, cap)
            for key, part in zip(keys, parts):
                full = nfstreams.sample_action_stream(strategy, horizon, run_rng(*key))
                assert np.array_equal(np.concatenate(part), full)
                reference = sample_action_stream_reference(strategy, horizon, run_rng(*key))
                assert np.array_equal(full, reference)

    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 20000])
    @pytest.mark.parametrize("name", sorted(DRAW_STRATEGIES))
    def test_run_streams_place_each_factor_as_the_scratch_scheme(self, name, horizon):
        # One, two and three drawn factors: factor 0 is the run's generator,
        # factor k the scratch PCG64 at k * horizon; run_rngs keeps factor 0.
        strategy = DRAW_STRATEGIES[name]
        offsets = nfstreams.stream_offsets(strategy, horizon)
        assert len(offsets) == len(games.strategy_cuts(strategy))
        batch = zip(run_streams(9, 4, 3, offsets), run_rngs(9, 4, 3))
        for run, (streams, rng) in enumerate(batch):
            assert rng.bit_generator.state == run_rng(9, 4, run).bit_generator.state
            assert len(streams) == len(offsets)
            for k, stream in enumerate(streams):
                expected = advanced_reference(run_rng(9, 4, run), k * horizon)
                assert stream.bit_generator.state == expected.bit_generator.state
                assert np.array_equal(stream.random(8), expected.random(8))

    def test_each_chunk_reads_each_generator_once(self):
        # Stub generators log every attribute read or set: a per-chunk reset,
        # a state assignment or an advance, would show up in the log.
        calls = []

        class Recording:
            def __init__(self, key):
                object.__setattr__(self, "key", key)

            def __setattr__(self, name, value):
                calls.append((object.__getattribute__(self, "key"), "set " + name))

            def __getattribute__(self, name):
                key = object.__getattribute__(self, "key")
                if name != "random":
                    calls.append((key, name))
                    raise AttributeError(name)

                def random(*args, **kwargs):
                    assert not args and list(kwargs) == ["out"]
                    calls.append((key, "random", kwargs["out"].shape))
                    kwargs["out"][...] = 0.5

                return random

        strategy = DRAW_STRATEGIES["product-3"]
        draw = nfstreams._profile_sampler(
            strategy, [tuple(Recording((r, k)) for k in range(3)) for r in range(4)]
        )
        # The whole cell, then blocks of the runs left after early exits.
        for runs, n in [([0, 1, 2, 3], 64), ([0, 2], 128), ([3], 256), ([3], 1)]:
            calls.clear()
            assert draw(runs, n).shape == (len(runs), n)
            assert calls == [((r, k), "random", (n,)) for r in runs for k in range(3)]

    @pytest.mark.parametrize("actions", [1, 2, 3, 4, 5, 6])
    def test_comparison_index_is_clamped_searchsorted(self, actions):
        # Both readers of the draw rule: the batch comparison count and the
        # bisect_right of the trial loops, traces and sample_profile.
        rng = np.random.default_rng(actions)
        probs = rng.dirichlet(np.ones(actions))
        short = probs * (1.0 - 1e-9)  # the cdf's last entry is below 1
        for p in (probs, short):
            cdf, cuts = np.cumsum(p), games.cumulative_cuts(p)
            # Uniforms, every cut point exactly and one step either side of
            # it, and the values around the top.
            near = [np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 1.0)]
            u = np.concatenate([rng.random(4000), *near, [0.0, 1.0 - 2**-53]])
            expected = np.minimum(np.searchsorted(cdf, u, side="right"), actions - 1)
            got = games._profiles([cuts], [u])
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
            read = [bisect_right(cuts.tolist(), x) for x in u.tolist()]
            assert read == expected.tolist()

    @pytest.mark.parametrize("name", sorted(DRAW_STRATEGIES))
    def test_profile_index_is_ravelled_clamped_searchsorted(self, name):
        strategy = DRAW_STRATEGIES[name]
        cuts = games.strategy_cuts(strategy)
        cdfs = [np.append(c, 1.0) for c in cuts]
        # Every combination of each factor's cut points, 0 and 1 - 2**-53,
        # then random uniforms.
        points = [np.concatenate([cdf, [0.0, 1.0 - 2**-53]]) for cdf in cdfs]
        grid = [g.ravel() for g in np.meshgrid(*points, indexing="ij")]
        rng = np.random.default_rng(len(name))
        uniforms = np.array([np.concatenate([g, rng.random(4000)]) for g in grid])
        actions = [
            np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)
            for cdf, u in zip(cdfs, uniforms)
        ]
        expected = np.ravel_multi_index(actions, [cdf.size for cdf in cdfs])
        got = games._profiles(cuts, uniforms)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)

    @pytest.mark.parametrize("eta, fraction", [(0.1, 0.2), (0.05, 0.05)], ids=["doubling", "capped"])
    def test_early_exit_gathers_at_most_about_twice_the_exit_round(self, monkeypatch, eta, fraction):
        # Rounds each run's blocks hold when _accumulate sums them: the
        # sampler records which runs the block it draws belongs to.
        gathered, block_runs = np.zeros(300, dtype=int), []
        accumulate, sampler = nfstreams._accumulate, nfstreams._profile_sampler

        def counting(block, carry):
            gathered[block_runs[-1]] += block.shape[2]
            return accumulate(block, carry)

        def recording(strategy, streams):
            draw = sampler(strategy, streams)

            def recorded(runs, n):
                block_runs.append(runs)
                return draw(runs, n)

            return recorded

        monkeypatch.setattr(nfstreams, "_accumulate", counting)
        monkeypatch.setattr(nfstreams, "_profile_sampler", recording)
        game, strategy = scenarios.two_signal_game(), scenarios.sensitivity_profile(eta)
        tables = nfstreams.increment_tables(game, enumerate_hypotheses(game, EquilibriumMode.NASH))
        mixture = BettingMixture.dirac(fraction)
        levels = np.full((1, len(tables)), math.log(len(tables) / 0.05))
        streams = run_streams(7, 0, 300, nfstreams.stream_offsets(strategy, 20000))
        rounds, _ = nfstreams.replay_runs(strategy, tables, mixture, 20000, streams, levels, stop=0)
        tau, first, cap = rounds[0, 0], nfstreams.CHUNK_ROUNDS // 16, nfstreams.CHUNK_ROUNDS
        # The doubling chunks (64 to 512 rounds) end at round 960; the first
        # cell's runs all leave in them, the second's all after them.
        doubling = tau <= cap - first
        assert (tau > 0).all() and len(set(doubling)) == 1
        bound = 2 * tau + first if doubling[0] else tau + cap
        assert (gathered < bound).all()

    @staticmethod
    def _reference_csv(tmp_path, produced, rows):
        schema, columns, _ = read_csv(produced)
        path = write_csv(tmp_path / "reference.csv", schema.split("schema=")[1], columns, rows)
        return path.read_bytes()

    @pytest.mark.parametrize(
        "config, signal_rounds",
        [
            # 880 Dirac runs; 1,500 rounds is not a multiple of the chunk, and
            # crossings past the first chunk exercise the carried column.
            (
                SensitivityConfig(
                    runs=110, horizon=1500, alphas=(0.2, 0.05), etas=(0.05, 0.15), lambdas=(0.05, 0.4)
                ),
                lambda signal: (signal > nfstreams.CHUNK_ROUNDS).any() and (signal == -1).any(),
            ),
            # Too short for the signal to cross: every run replays its horizon.
            (
                SensitivityConfig(runs=60, horizon=60, alphas=(0.05,), etas=(0.05,), lambdas=(0.05,)),
                lambda signal: (signal == -1).all(),
            ),
            (
                SensitivityConfig(
                    runs=40, horizon=1500, alphas=(0.2,), etas=(0.05, 0.15), mixture="uniform", grid_nodes=11
                ),
                lambda signal: (signal > 0).all(),
            ),
        ],
        ids=["dirac", "short", "uniform"],
    )
    def test_sensitivity_rows_match_the_full_horizon_loop(self, tmp_path, config, signal_rounds):
        run_nf_sensitivity(config, tmp_path)
        produced = tmp_path / "runs.csv"
        rows = nf_sensitivity_rows_reference(config)
        assert produced.read_bytes() == self._reference_csv(tmp_path, produced, rows)
        assert signal_rounds(np.array([r[5] for r in rows]))

    @pytest.mark.parametrize("mixture", [BettingMixture.dirac(0.1), BettingMixture.uniform_grid(21)])
    def test_carried_chunks_equal_one_cumsum(self, mixture):
        # A stop level no path reaches replays all 3,000 rounds in chunks.
        # The other levels are the one-cumsum path's own values every 97
        # rounds, so a crossing round moves if a chunked value is off by a bit.
        game, strategy = scenarios.two_signal_game(), scenarios.two_signal_alternative()
        tables = nfstreams.increment_tables(game, enumerate_hypotheses(game, EquilibriumMode.NASH))
        stream = nfstreams.sample_action_stream(strategy, 3000, run_rng(3, 1))
        full = nfstreams.log_wealth_paths(tables[:, stream], mixture)
        levels = np.vstack([np.full(len(full), np.inf), full[:, ::97].T])
        offsets = nfstreams.stream_offsets(strategy, 3000)
        streams = [tuple(advanced_reference(run_rng(3, 1), k) for k in offsets)]
        rounds, last = nfstreams.replay_runs(
            strategy, tables, mixture, 3000, streams, levels, stop=0
        )
        assert np.array_equal(rounds[..., 0], nfstreams._crossings(full, levels))
        assert (rounds[1:, :, 0] <= np.arange(1, 3001, 97)[:, None]).all()
        assert np.array_equal(last[:, 0], full[:, -1])

    def test_detect_and_null_rows_match_the_full_horizon_loop(self, tmp_path):
        game = scenarios.two_signal_game()
        detect = DetectConfig(runs=30, horizon=1500)
        run_nf_detect(detect, tmp_path / "detect")
        produced = tmp_path / "detect" / "runs.csv"
        rows = nf_detect_rows_reference(detect, game, scenarios.two_signal_alternative())
        assert produced.read_bytes() == self._reference_csv(tmp_path, produced, rows)

        null = NullGridConfig(runs=30, horizon=1200, lambdas=(0.1, 0.4), alphas=(0.2,))
        run_nf_fwer_null(null, tmp_path / "null")
        produced = tmp_path / "null" / "runs.csv"
        rows = nf_fwer_null_rows_reference(null, game, scenarios.two_signal_nash())
        assert produced.read_bytes() == self._reference_csv(tmp_path, produced, rows)

    def test_sub_blocks_and_early_exits_match_the_per_run_loop(self, tmp_path, monkeypatch):
        # 100-round chunks and blocks of three Dirac runs: runs leave after
        # different chunks, and nf-detect's runs replay in time chunks.
        monkeypatch.setattr(nfstreams, "CHUNK_ROUNDS", 100)
        monkeypatch.setattr(nfstreams, "BLOCK_BYTES", 3 * 100 * 4 * 8)
        game = scenarios.two_signal_game()
        cases = [
            (
                run_nf_sensitivity,
                SensitivityConfig(runs=40, horizon=1500, alphas=(0.2,), etas=(0.1,), lambdas=(0.1,)),
                nf_sensitivity_rows_reference,
                (),
            ),
            (
                run_nf_sensitivity,
                SensitivityConfig(
                    runs=7, horizon=1500, alphas=(0.2,), etas=(0.15,), mixture="uniform", grid_nodes=11
                ),
                nf_sensitivity_rows_reference,
                (),
            ),
            (
                run_nf_detect,
                DetectConfig(runs=13, horizon=1500),
                nf_detect_rows_reference,
                (game, scenarios.two_signal_alternative()),
            ),
            (
                run_nf_fwer_null,
                NullGridConfig(runs=11, horizon=700, lambdas=(0.4,), alphas=(0.2,)),
                nf_fwer_null_rows_reference,
                (game, scenarios.two_signal_nash()),
            ),
        ]
        for i, (runner, config, reference, args) in enumerate(cases):
            runner(config, tmp_path / str(i))
            produced = tmp_path / str(i) / "runs.csv"
            rows = reference(config, *args)
            assert produced.read_bytes() == self._reference_csv(tmp_path, produced, rows)
            if i == 0:  # the signal crosses in three or more different chunks
                assert len({(r[5] - 1) // 100 for r in rows if r[5] > 0}) >= 3

    def test_grid_replay_memory_stays_near_the_block_budget(self):
        import tracemalloc

        # A whole-cell (m, runs, chunk, G) block would be 40 * 4 * 1024 * 101
        # * 8 bytes, about 132 MB; a block kept alive past the next gather
        # would double the peak.
        game, strategy = scenarios.two_signal_game(), scenarios.sensitivity_profile(0.1)
        tables = nfstreams.increment_tables(game, enumerate_hypotheses(game, EquilibriumMode.NASH))
        mixture = BettingMixture.uniform_grid(101)
        streams = run_streams(5, 0, 40, nfstreams.stream_offsets(strategy, 1500))
        levels = np.full((1, len(tables)), np.inf)  # no run stops early
        tracemalloc.start()
        try:
            rounds, _ = nfstreams.replay_runs(strategy, tables, mixture, 1500, streams, levels, stop=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rounds == -1).all()
        assert peak < 2 * nfstreams.BLOCK_BYTES

    @pytest.mark.parametrize("field", ["runs", "horizon"])
    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("cls", [NullGridConfig, DetectConfig, SensitivityConfig])
    def test_runs_and_horizon_below_one_rejected(self, cls, field, value):
        with pytest.raises(ConfigError, match=field):
            cls(**{field: value})


    @pytest.mark.parametrize(
        "cls, overrides, message",
        [
            (NullGridConfig, {"lambdas": (0.1, 2.0)}, "betting fractions must lie in"),
            (NullGridConfig, {"lambdas": (0.0,)}, "betting fractions must lie in"),
            (SensitivityConfig, {"lambdas": (float("nan"),)}, "betting fractions must lie in"),
            (DetectConfig, {"betting_fraction": 1.5}, "betting fractions must lie in"),
            (DetectConfig, {"betting_fraction": float("nan")}, "betting fractions must lie in"),
            # Only the uniform mixture reads grid_nodes, so only it checks them.
            (SensitivityConfig, {"mixture": "uniform", "grid_nodes": 0},
             "grid_nodes must be at least 1"),
            (SensitivityConfig, {"mixture": "foo"}, "mixture must be dirac or uniform"),
            # log(threshold) is the crossing level: 0 used to fail inside a
            # trial (in a worker process), and NaN never crossed.
            (SoccerScalingConfig, {"threshold": 0.0}, "threshold must exceed 1"),
            (SoccerScalingConfig, {"threshold": 1.0}, "threshold must exceed 1"),
            (SoccerScalingConfig, {"threshold": math.nan}, "threshold must exceed 1"),
            (PreyMixtureConfig, {"threshold": -1.0}, "threshold must exceed 1"),
            (PreyMixtureConfig, {"threshold": 0.5}, "threshold must exceed 1"),
            (PreyMixtureConfig, {"threshold": math.nan}, "threshold must exceed 1"),
            # An infinite threshold is never crossed: every trial ran to the
            # horizon and the slope fit read nan.
            (SoccerScalingConfig, {"threshold": math.inf}, "threshold must be finite"),
            (PreyMixtureConfig, {"threshold": math.inf}, "threshold must be finite"),
            (SensitivityConfig, {"mixture": "uniform", "alphas": (1.5,)}, "alpha must lie in"),
        ],
        ids=["null-above", "null-zero", "sensitivity-nan", "detect-above", "detect-nan",
             "sensitivity-nodes", "sensitivity-mixture", "soccer-threshold-zero",
             "soccer-threshold-one", "soccer-threshold-nan", "prey-threshold-negative",
             "prey-threshold-half", "prey-threshold-nan", "soccer-threshold-inf",
             "prey-threshold-inf", "sensitivity-uniform-alpha"],
    )
    def test_bad_fraction_nodes_or_mixture_rejected(self, cls, overrides, message):
        with pytest.raises(ConfigError, match=message):
            cls(**overrides)


class TestDeterminism:
    def test_nf_detect_bit_identical(self, tmp_path):
        config = DetectConfig(runs=12, horizon=2500)
        first = run_nf_detect(config, tmp_path / "a")
        second = run_nf_detect(config, tmp_path / "b")
        assert (tmp_path / "a" / "runs.csv").read_bytes() == (
            tmp_path / "b" / "runs.csv"
        ).read_bytes()
        assert first.summary == second.summary


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


#: PCG64's 128-bit LCG multiplier, as numpy steps it.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_with_word(word: int, lag: int) -> np.random.PCG64:
    """A PCG64 whose raw output number ``lag`` (from 0) is ``word``.

    numpy's PCG64 steps its state, then outputs XSL-RR of the new state,
    ``rotr64(hi ^ lo, hi >> 58)``. Any high half gives a low half that
    outputs ``word``; stepping that state back once and ``lag`` more
    times puts ``word`` at offset ``lag``.
    """
    bit_generator = np.random.PCG64(DEFAULT_SEED)
    state = bit_generator.state
    hi = 0xD1B54A32D192ED03
    rot = hi >> 58
    mask = (1 << 64) - 1
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & mask)
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = ((((hi << 64) | lo) - state["state"]["inc"]) * inverse) % (1 << 128)
    bit_generator.state = state
    bit_generator.advance(-lag)
    return bit_generator


class TestTrialLoops:
    """The table-driven trials against the object-level loops they replaced
    (``tests/_oracles.py``): same generator keys, same taus."""

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 20260811])
    def test_soccer_matches_object_loop(self, tmp_path, soccer_solution, monkeypatch, seed):
        config = SoccerScalingConfig(seed=seed, trials=20, t_max=300)
        run_soccer_scaling(
            config, tmp_path, policies=(soccer_solution.row_policy, soccer_solution.col_policy)
        )
        null = smooth_policy(soccer_solution.row_policy, config.smoothing).table
        defender = smooth_policy(soccer_solution.col_policy, config.smoothing).table
        afraid = np.vstack([soccer.afraid_transform(row) for row in null])
        resets = _terminal_steps(monkeypatch, _oracles, "soccer_step_reference", 2)
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

    @pytest.mark.parametrize(
        "sizes",
        [{"trials": 20, "horizon": 250},
         {"trials": 3, "eps_true": (0.0, 0.2, 0.4, 0.8), "horizon": 2000}],
        ids=["short", "long"],
    )
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 20260811])
    @pytest.mark.parametrize("episode", [prey.HORIZON, 40])
    def test_prey_matches_object_loop(self, tmp_path, monkeypatch, episode, seed, sizes):
        # A 40-step episode horizon makes the loops reset on exhaustion too.
        # A trial that runs 2000 steps reads 5000 raw words, so block
        # boundaries (every 256 words, and 256 % 5 == 1) fall at every
        # offset of the 5-word, 2-step draw cycle: among them between a
        # step's double and its moves, at both step parities.
        monkeypatch.setattr(
            prey, "DEFAULT_START", dataclasses.replace(prey.DEFAULT_START, horizon=episode)
        )
        config = PreyMixtureConfig(seed=seed, **sizes)
        run_prey_mixture(config, tmp_path)
        resets = _terminal_steps(monkeypatch, _oracles, "prey_step_reference", 1)
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

    @pytest.mark.parametrize("zero", ["low", "high"])
    @pytest.mark.parametrize("lag", [1, 2, 4, 7])
    def test_prey_zero_half_rejected_as_numpy_does(self, monkeypatch, lag, zero):
        # Words 1 and 2 feed step 1's moves, word 2's kept high half and
        # word 4 step 2's, and word 7 steps 3 and 4. A zero half is
        # Lemire's rejection: numpy's integers(5) takes the next half.
        word = 0x9E3779B9 << 32 if zero == "low" else 0x7F4A7C15
        bit_generator = _pcg64_with_word(word, lag)
        assert bit_generator.random_raw(lag + 1)[lag] == word

        def forced(*key):
            return np.random.Generator(_pcg64_with_word(word, lag))

        monkeypatch.setattr(_oracles, "run_rng", forced)
        config = PreyMixtureConfig()
        for cell, eps in enumerate(config.eps_true):
            tables = experiments._prey_tables(eps, config.eps_grid)
            got = experiments._prey_trial(
                forced(config.seed, cell, 0), config.threshold, config.horizon, *tables
            )
            expected = prey_trial(
                (cell, 0, config.seed, eps, config.eps_grid, config.threshold, config.horizon)
            )
            assert got == expected[2]
            assert got == -1 or got > 4, "the trial draws past the forced word"

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

    def test_soccer_null_without_the_deviation_support_rejected(self, tmp_path, soccer_solution):
        # Unsmoothed equilibrium rows that play East but never West or Wait
        # exclude an action the timid attacker plays.
        config = SoccerScalingConfig(trials=1, smoothing=0.0)
        with pytest.raises(DomainError, match="smoothing > 0"):
            run_soccer_scaling(
                config, tmp_path, policies=(soccer_solution.row_policy, soccer_solution.col_policy)
            )
        assert not (tmp_path / "runs.csv").exists()

    def test_soccer_policies_of_another_shape_rejected(self, tmp_path):
        table = Policy(np.full((10, soccer.NUM_ACTIONS), 0.2))
        with pytest.raises(ShapeError, match="tables"):
            run_soccer_scaling(
                SoccerScalingConfig(trials=1), tmp_path / "out", policies=(table, table)
            )
        assert not (tmp_path / "out").exists()


class TestSoccerKernelMemory:
    """Neither soccer subcommand builds the model's dense 128 MB kernel: both
    solve, and soccer-solve certifies, through the stored rows."""

    @pytest.fixture
    def built(self, monkeypatch):
        models = []
        real = soccer.soccer_build_model

        def recording():
            tab = real()
            models.append(tab.model)
            return tab

        monkeypatch.setattr(soccer, "soccer_build_model", recording)
        return models

    def test_soccer_solve_leaves_the_dense_view_unbuilt(self, tmp_path, built):
        result = experiments.run_soccer_solve(SolverConfig(), tmp_path)
        assert all(result.checks.values())
        (model,) = built
        assert "transition" not in vars(model)

    def test_soccer_scaling_leaves_the_dense_view_unbuilt(self, tmp_path, built):
        run_soccer_scaling(SoccerScalingConfig(trials=1, t_max=200), tmp_path)
        (model,) = built
        assert "transition" not in vars(model)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
    def test_soccer_solve_peaks_under_the_dense_kernel_size(self, tmp_path):
        # The dense kernel alone is 128 MB. wait4 reads one child's peak, where
        # RUSAGE_CHILDREN would take the largest of every child so far. A
        # child's peak also counts the process it was forked from, so the CLI
        # starts from a small launcher, not from this test process.
        root = Path(__file__).resolve().parents[1]
        cli = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from eqsentinel.harness.cli import main\n"
            "sys.exit(main(['soccer-solve', '--config', {config!r}, '--out', {out!r}]))"
        ).format(
            src=str(root / "src"),
            config=str(root / "configs" / "soccer-solve.cfg"),
            out=str(tmp_path),
        )
        launcher = (
            "import os, subprocess, sys\n"
            "child = subprocess.Popen([sys.executable, '-c', {cli!r}], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(child.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
        ).format(cli=cli)
        done = subprocess.run([sys.executable, "-c", launcher], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        exit_code, peak_kib = map(int, done.stdout.split())
        assert exit_code == 0
        assert peak_kib / 1024 < 96


def _detected_mean(taus):
    detected = taus[taus > 0]
    return float(detected.mean()) if detected.size else float("nan")


def _detect_rate(taus):
    return float((taus > 0).mean())


def _cell_value(text):
    try:
        return float(text)
    except ValueError:
        return text


def _recomputed_per_cell(out_dir, cell_columns, stats):
    """Per-cell summary entries recomputed from runs.csv, with rows grouped
    by the values of their cell columns wherever they appear."""
    _, columns, rows = read_csv(out_dir / "runs.csv")
    groups = {}
    for row in rows:
        cell = tuple(_cell_value(row[columns.index(c)]) for c in cell_columns)
        groups.setdefault(cell, []).append(row)
    expected = {}
    for cell, cell_rows in groups.items():
        for template, column, stat in stats:
            values = np.array([float(r[columns.index(column)]) for r in cell_rows])
            expected[template.format(*cell)] = stat(values)
    return expected


def _run_soccer_scaling(out_dir, request):
    solution = request.getfixturevalue("soccer_solution")
    config = SoccerScalingConfig(trials=6, epsilons=(0.2, 0.3, 0.5), t_max=2000)
    return run_soccer_scaling(
        config, out_dir, policies=(solution.row_policy, solution.col_policy)
    )


_SENSITIVITY_KEY = "[alpha={},eta={},mixture={}]"

#: Multi-cell runs and, per case, the cell columns of runs.csv and each
#: per-cell summary entry as (key template, column, statistic).
PER_CELL_CASES = {
    "nf-fwer-null-2x2": (
        lambda out_dir, _: run_nf_fwer_null(
            NullGridConfig(runs=16, horizon=400, lambdas=(0.1, 0.4), alphas=(0.2, 0.1)),
            out_dir,
        ),
        ("lambda", "alpha"),
        [("fwer[lambda={},alpha={}]", "rejected", np.mean)],
    ),
    "nf-sensitivity-dirac": (
        lambda out_dir, _: run_nf_sensitivity(
            SensitivityConfig(
                runs=10, horizon=400, alphas=(0.2, 0.05), etas=(0.05, 0.15), lambdas=(0.1, 0.4)
            ),
            out_dir,
        ),
        ("alpha", "eta", "mixture"),
        [
            ("mean_tau" + _SENSITIVITY_KEY, "tau_stop", _detected_mean),
            ("detect_rate" + _SENSITIVITY_KEY, "tau_stop", _detect_rate),
        ],
    ),
    "soccer-scaling": (
        _run_soccer_scaling,
        ("epsilon",),
        [("mean_tau[eps={}]", "tau", _detected_mean)],
    ),
    "prey-mixture": (
        lambda out_dir, _: run_prey_mixture(
            PreyMixtureConfig(trials=8, eps_true=(0.3, 0.5, 0.8), horizon=1500), out_dir
        ),
        ("eps_true",),
        [
            ("detect_rate[eps={}]", "tau", _detect_rate),
            ("mean_tau[eps={}]", "tau", _detected_mean),
        ],
    ),
}


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

    @pytest.mark.parametrize("case", sorted(PER_CELL_CASES))
    def test_per_cell_entries_are_functions_of_rows(self, tmp_path, request, case):
        run, cell_columns, stats = PER_CELL_CASES[case]
        result = run(tmp_path, request)
        expected = _recomputed_per_cell(tmp_path, cell_columns, stats)
        assert len(expected) >= 3 * len(stats), "several cells"
        per_cell = {k: v for k, v in result.summary.items() if "[" in k}
        np.testing.assert_equal(per_cell, expected)


class TestCsvFormat:
    def test_version_line_and_float_precision(self, tmp_path):
        path = write_csv(
            tmp_path / "x.csv", "demo", ["a", "b"], [(1, 0.1), (2, 1 / 3)]
        )
        text = path.read_text().splitlines()
        assert text[0].startswith("# eqsentinel-csv v1")
        assert text[2] == "1,0.10000000000000001"
        assert float(text[3].split(",")[1]) == 1 / 3

    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "1"),
            (False, "0"),
            (np.True_, "1"),
            (np.False_, "0"),
            (0.1, "0.10000000000000001"),
            (np.float64(0.1), "0.10000000000000001"),
            (np.float32(0.1), "0.10000000149011612"),
            (np.float16(0.1), "0.0999755859375"),
            (3, "3"),
            (np.int64(-7), "-7"),
            ("fwer[lambda=0.05]", "fwer[lambda=0.05]"),
        ],
        ids=["true", "false", "np-true", "np-false", "float", "np-float64", "np-float32",
             "np-float16", "int", "np-int64", "str"],
    )
    def test_numpy_scalars_are_written_as_python_ones(self, tmp_path, value, text):
        # A numpy bool or float reads back as the Python value it holds.
        assert format_value(value) == text
        path = write_csv(tmp_path / "x.csv", "demo", ["v", "w"], [(value, value)])
        assert path.read_text().splitlines()[2] == f"{text},{text}"
        if isinstance(value, (float, np.floating)):
            assert float(text) == float(value)

    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("# eqsentinel-csv v1 schema=demo\n", ShapeError, "column header line"),
            ("a,b\n1,2\n", DomainError, "line 1"),
            ("# eqsentinel-csv v9 schema=demo\na,b\n", DomainError, "line 1"),
        ],
        ids=["version-line-only", "no-version-line", "other-version"],
    )
    def test_read_errors_name_file_and_line(self, tmp_path, text, error, line):
        path = tmp_path / "x.csv"
        path.write_text(text)
        with pytest.raises(error, match=f"{re.escape(str(path))}: .*{line}"):
            read_csv(path)


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

    def test_failing_assertion_exits_two(self, tmp_path, monkeypatch):
        # No config key moves a gate, so the test tightens the module constant.
        monkeypatch.setattr(experiments, "KL_RATIO_TOL", 1e-9)
        config = tmp_path / "kl.cfg"
        config.write_text("experiment = kl-check\npairs = 5\n")
        rc = main(
            ["kl-check", "--config", str(config), "--out", str(tmp_path / "o"), "--assert"]
        )
        assert rc == 2

    def test_all_with_a_failing_gate_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "KL_RATIO_TOL", 1e-9)
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "kl.cfg").write_text("experiment = kl-check\npairs = 5\n")
        monkeypatch.chdir(tmp_path)
        assert main(["all", "--out", "o"]) == 2

    def test_all_with_a_bad_config_and_a_failing_gate_exits_two(self, tmp_path, monkeypatch):
        # The largest exit code wins: 1 for the bad config, 2 for the gate.
        monkeypatch.setattr(experiments, "KL_RATIO_TOL", 1e-9)
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "a-bad.cfg").write_text("pairs = 5\n")
        (tmp_path / "configs" / "b-kl.cfg").write_text("experiment = kl-check\npairs = 5\n")
        monkeypatch.chdir(tmp_path)
        assert main(["all", "--out", "o"]) == 2

    def test_all_without_configs_exits_one_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["all", "--out", "o"]) == 1
        assert capsys.readouterr().err == f"error: no configs/*.cfg under {tmp_path}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"pairs = 2\n", "experiment is None, not one of ['kl-check', "),
            (b"experiment = nope\n", "experiment is 'nope', not one of ['kl-check', "),
            (b"experiment = kl-check\n# caf\xe9\n", "line 2 is not UTF-8 text\n"),
        ],
        ids=["no-experiment-key", "unknown-experiment", "not-utf8"],
    )
    def test_all_reports_a_bad_config_and_runs_the_rest(
        self, tmp_path, monkeypatch, capsys, body, message
    ):
        # The bad config sorts first; the good one after it still runs.
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "a-bad.cfg").write_bytes(body)
        (tmp_path / "configs" / "b-good.cfg").write_text("experiment = kl-check\npairs = 2\n")
        monkeypatch.chdir(tmp_path)
        assert main(["all", "--out", "o"]) == 1
        assert f"error: {Path('configs', 'a-bad.cfg')}: {message}" in capsys.readouterr().err
        written = sorted(p.name for p in (tmp_path / "o" / "b-good").iterdir())
        assert written == ["runs.csv", "summary.csv"]
        assert not (tmp_path / "o" / "a-bad").exists()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        # Besides a made-up key, the former range and gate fields are now
        # module constants, so a config can no longer set them.
        for name, body in [
            ("nf-slack", "nope = 4"),
            ("nf-slack", "alpha_low = 0.5"),
            ("soccer-scaling", "slope_low = -10"),
            ("prey-mixture", "min_detection_rate = 0.1"),
            ("oracle-suite", "matrix_dim = 3"),
            # Trials run in one process, so no config sets workers.
            ("prey-mixture", "workers = 1"),
            ("soccer-scaling", "workers = 2"),
        ]:
            config = tmp_path / "bad.cfg"
            config.write_text(f"experiment = {name}\n{body}\n")
            rc = main([name, "--config", str(config), "--out", str(tmp_path / "o")])
            assert rc == 1, body
            assert "unknown key" in capsys.readouterr().err, body
            assert not (tmp_path / "o").exists(), body

    @pytest.mark.parametrize(
        "argv",
        [
            ["nf-slack", "--workers", "2"],
            ["soccer-solve", "--seed", "5"],
            ["soccer-scaling", "--workers", "2"],
            ["prey-mixture", "--workers", "1"],
        ],
        ids=["slack-workers", "solve-seed", "soccer-workers", "prey-workers"],
    )
    def test_flag_without_a_config_field_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name", ["soccer-scaling", "prey-mixture"])
    def test_seed_reaches_the_config(self, tmp_path, monkeypatch, name):
        seen = []

        def record(experiment, config, out_dir, **kwargs):
            seen.append(config)
            return experiments.ExperimentResult(experiment, {}, {}, ())

        monkeypatch.setattr("eqsentinel.harness.cli.run_experiment", record)
        config = tmp_path / "run.cfg"
        config.write_text(f"experiment = {name}\nseed = 1\n")
        argv = [name, "--config", str(config), "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 0
        assert seen[0].seed == 5

    def test_rerun_into_a_used_directory_writes_new_files(self, tmp_path):
        # Each artifact is written as a new file: a longer stale file leaves
        # no tail, and a link at an artifact path is replaced, not written through.
        config = tmp_path / "detect.cfg"
        config.write_text("experiment = nf-detect\nruns = 8\nhorizon = 400\n")
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        for out in (fresh, used):
            assert main(["nf-detect", "--config", str(config), "--out", str(out)]) == 0
        (used / "runs.csv").write_bytes((fresh / "runs.csv").read_bytes() * 3)
        target = tmp_path / "outside.txt"
        target.write_text("not an artifact\n")
        (used / "summary.csv").unlink()
        (used / "summary.csv").symlink_to(target)
        assert main(["nf-detect", "--config", str(config), "--out", str(used)]) == 0
        assert not (used / "summary.csv").is_symlink()
        assert (used / "summary.csv").is_file()
        assert target.read_text() == "not an artifact\n"
        assert sorted(p.name for p in used.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for path in fresh.iterdir():
            assert (used / path.name).read_bytes() == path.read_bytes(), path.name

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


class TestSensitivityLambdas:
    """Only the dirac mixture reads ``lambdas``, so only it checks them."""

    BODY = "experiment = nf-sensitivity\nruns = 3\nhorizon = 200\nalphas = 0.2\netas = 0.1\n"

    def run(self, tmp_path, name, body):
        config = tmp_path / f"{name}.cfg"
        config.write_text(self.BODY + body)
        return main(["nf-sensitivity", "--config", str(config), "--out", str(tmp_path / name)])

    def test_uniform_ignores_out_of_range_lambdas(self, tmp_path):
        uniform = "mixture = uniform\ngrid_nodes = 11\n"
        assert self.run(tmp_path, "plain", uniform) == 0
        assert self.run(tmp_path, "keyed", uniform + "lambdas = 2.0\n") == 0
        names = sorted(p.name for p in (tmp_path / "plain").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "keyed").iterdir())
        for name in names:
            plain = (tmp_path / "plain" / name).read_bytes()
            assert plain == (tmp_path / "keyed" / name).read_bytes(), name

    def test_dirac_rejects_out_of_range_lambdas(self, tmp_path, capsys):
        assert self.run(tmp_path, "dirac", "mixture = dirac\nlambdas = 2.0\n") == 1
        assert "betting fractions must lie in (0, 1], got 2.0" in capsys.readouterr().err
        assert not (tmp_path / "dirac").exists()

    @pytest.mark.parametrize(
        "overrides",
        [{"grid_nodes": 0}, {"mixture": "uniform", "lambdas": ()}],
        ids=["dirac-zero-nodes", "uniform-empty-lambdas"],
    )
    def test_key_the_mixture_does_not_read_is_not_checked(self, overrides):
        config = SensitivityConfig(**overrides)
        names = [name for name, _ in config.mixtures()]
        assert names == [name for name, _ in SensitivityConfig(mixture=config.mixture).mixtures()]


def _alarm_by_round(rounds):
    """e-BH recomputed at each crossing round of one run's (m, m) ladder
    crossings (row k-1 at level k, -1 = never): the first round with a
    level k of at least k crossings, the largest such k, and its row."""
    m = rounds.shape[0]
    for t in sorted(set(rounds[rounds > 0].tolist())):
        crossed = (rounds > 0) & (rounds <= t)
        levels = [k for k in range(1, m + 1) if crossed[k - 1].sum() >= k]
        if levels:
            k = levels[-1]
            return t, k, tuple(np.flatnonzero(crossed[k - 1]).tolist())
    return -1, 0, ()


class TestEbhAlarmFuzz:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_alarms_match_per_round_recomputation(self, data):
        # Few distinct rounds, so ties are common, -1 for never, and runs
        # whose crossings never fill a level.
        m = data.draw(st.integers(1, 5))
        runs = data.draw(st.integers(1, 6))
        entries = st.sampled_from([-1, -1, 1, 2, 3, 7])
        rounds = np.array(
            data.draw(st.lists(entries, min_size=m * m * runs, max_size=m * m * runs))
        ).reshape(m, m, runs)
        got = nfstreams.first_alarms(rounds)
        assert got == [_alarm_by_round(rounds[:, :, run]) for run in range(runs)]

    def test_batched_alarms_on_fixed_runs(self):
        never = np.full((3, 3), -1)
        short = np.array([[-1, -1, -1], [4, -1, -1], [2, 5, -1]])  # no level fills
        tied = np.array([[-1, -1, -1], [3, 3, -1], [3, 3, 3]])  # k = 3 at round 3
        late = np.array([[6, -1, -1], [2, 6, -1], [2, 4, 9]])  # k = 2 at round 6
        rounds = np.stack([never, short, tied, late], axis=-1)
        expected = [(-1, 0, ()), (-1, 0, ()), (3, 3, (0, 1, 2)), (6, 2, (0, 1))]
        assert nfstreams.first_alarms(rounds) == expected
        assert [_alarm_by_round(rounds[:, :, run]) for run in range(4)] == expected

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

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"experiment = nf-slack\ntriples = 1\n\xff\xfe\n")
        rc = main(["nf-slack", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {config}: line 3 is not UTF-8 text\n"
        assert not (tmp_path / "o").exists(), "no output directory is made"

    @pytest.mark.parametrize("name", ["nf-fwer-null", "nf-detect"])
    @pytest.mark.parametrize(
        "body, message",
        [
            (
                "game_players = 2\ngame_actions = 3,3\n"
                "game_payoffs_1 = 0,0,0,0,0,0,0,0,0\ngame_payoffs_2 = 0,0,0,0,0,0,0,0,0",
                "strategy shape (2, 2) does not match game (3, 3)",
            ),
            (
                "strategy_kind = product\nstrategy_1 = 0.2,0.3,0.5\nstrategy_2 = 0.2,0.3,0.5",
                "strategy shape (3, 3) does not match game (2, 2)",
            ),
        ],
        ids=["custom-game-default-strategy", "custom-strategy-default-game"],
    )
    def test_strategy_that_does_not_fit_the_game_exits_one(
        self, tmp_path, capsys, name, body, message
    ):
        # Either side may come from the config while the other is the
        # experiment's default; a mismatch must not replay profiles of the
        # wrong shape.
        config = tmp_path / "bad.cfg"
        config.write_text(f"experiment = {name}\nruns = 2\nhorizon = 10\n{body}\n")
        rc = main([name, "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, body, message",
        [
            ("soccer-solve", "discount = 1.5", "discount must lie in (0, 1)"),
            ("nf-fwer-null", "runs = 2\nlambdas = 2.0", "betting fractions must lie in"),
            ("nf-fwer-null", "alphas = 0.2, 0.0", "alpha must lie in (0, 1), got 0.0"),
            ("nf-detect", "alpha = 1.5", "alpha must lie in (0, 1), got 1.5"),
            ("nf-sensitivity", "alphas = 1.0", "alpha must lie in (0, 1), got 1.0"),
            ("nf-sensitivity", "mixture = foo", "mixture must be dirac or uniform"),
            ("nf-fwer-null", "runs = abc", "runs: expected int, got 'abc'"),
            ("nf-detect", "alpha = 0.2.1", "alpha: expected float, got '0.2.1'"),
            (
                "nf-fwer-null",
                "game_players = 2\ngame_actions = 2,x",
                "game_actions: expected int, got 'x'",
            ),
            (
                "nf-detect",
                "strategy_kind = full\nstrategy_shape = 2,2\nstrategy_joint = 0.5,0.5",
                "strategy_joint has 2 entries",
            ),
            (
                "nf-fwer-null",
                "game_players = 2\ngame_actions = 2,-2\ngame_payoffs_1 = 0,0,0,0",
                "game_actions must list one positive count per player",
            ),
            (
                "nf-detect",
                "strategy_kind = full\nstrategy_shape = 2,-2\nstrategy_joint = 0.25,0.25,0.25,0.25",
                "strategy_joint has 4 entries",
            ),
            ("nf-fwer-null", "alphas = ", "alphas must list at least one value"),
            ("nf-sensitivity", "lambdas = ", "lambdas must list at least one value"),
            ("nf-sensitivity", "etas = ", "etas must list at least one value"),
            ("nf-sensitivity", "etas = 0.1, 0.2", "etas must be in [0.05, 0.1, 0.15], got 0.2"),
            ("soccer-scaling", "trials = 0", "trials must be at least 1, got 0"),
            ("prey-mixture", "trials = -2", "trials must be at least 1, got -2"),
            ("kl-check", "pairs = 0", "pairs must be at least 1, got 0"),
            ("kl-check", "check_eps = 0.5", "check_eps must be one of epsilons"),
            ("kl-check", "tol = 1", "unknown key 'tol' for KlCheckConfig"),
            (
                "prey-mixture",
                "eps_true = 0.2, 0.4",
                "slope fit needs at least 3 of eps_true at or above 0.2",
            ),
            (
                "soccer-scaling",
                "epsilons = 0.2, 0.5",
                "slope fit needs at least 3 of epsilons at or above 0.0",
            ),
            ("soccer-scaling", "epsilons = 0, 0.3, 0.5", "epsilons must lie in (0, 1], got 0.0"),
            ("prey-mixture", "eps_true = 1.5", "eps_true must lie in [0, 1], got 1.5"),
            ("prey-mixture", "eps_grid = 0.1, -0.3", "eps_grid must lie in [0, 1], got -0.3"),
            ("nf-slack", "triples = 0", "triples must be at least 1, got 0"),
            ("oracle-suite", "streams = 0", "streams must be at least 1, got 0"),
            ("oracle-suite", "matrices = 0", "matrices must be at least 1, got 0"),
            ("oracle-suite", "chains = 0", "chains must be at least 1, got 0"),
            ("kl-check", "dim = 0", "dim must be at least 2, got 0"),
            ("kl-check", "dim = 1", "dim must be at least 2, got 1"),
            ("kl-check", "epsilons = 1.5, 0.001", "epsilons must lie in (0, 1], got 1.5"),
            ("soccer-scaling", "t_max = 0", "t_max must be at least 1, got 0"),
            ("soccer-scaling", "smoothing = 1.5", "smoothing must lie in [0, 1), got 1.5"),
            ("soccer-scaling", "threshold = 0", "threshold must exceed 1, got 0.0"),
            ("prey-mixture", "threshold = nan", "threshold must exceed 1, got nan"),
            ("prey-mixture", "threshold = inf", "threshold must be finite"),
            (
                "nf-slack",
                "triples = 1\ngame_players = 2\ngame_actions = 2,2\n"
                "game_payoffs_1 = 0.9,0.2,0.3,0.7\ngame_payoffs_2 = 0.5,0.3,0.2,0.7\n"
                "strategy_kind = banana",
                "unknown key 'game_players' for SlackConfig",
            ),
            (
                "nf-sensitivity",
                "runs = 2\ngame_players = 2\ngame_actions = 2,2",
                "unknown key 'game_players' for SensitivityConfig",
            ),
            (
                "soccer-solve",
                "game_players = 2\ngame_actions = 2,2",
                "unknown key 'game_players' for SolverConfig",
            ),
            ("nf-detect", "runs = 2\ngame_bogus = 1", "unknown key 'game_bogus' for DetectConfig"),
            (
                "nf-detect",
                "runs = 2\ngame_actions = 2,2\ngame_payoffs_1 = 0.9,0.2,0.3,0.7\n"
                "game_payoffs_2 = 0.5,0.3,0.2,0.7",
                "unknown key 'game_actions' for DetectConfig",
            ),
            (
                "nf-detect",
                "runs = 2\nstrategy_1 = 0.85,0.15\nstrategy_2 = 0.65,0.35",
                "unknown key 'strategy_1' for DetectConfig",
            ),
            (
                "nf-fwer-null",
                "runs = 2\nstrategy_kind = product\nstrategy_1 = 0.5,0.5\nstrategy_3 = 0.5,0.5",
                "unknown key 'strategy_3' for NullGridConfig",
            ),
            (
                "nf-fwer-null",
                "runs = 2\ngame_players = 2\ngame_actions = 2,2\n"
                "game_payoffs_1 = 0.9,0.2,0.3,0.7\ngame_payoffs_2 = 0.5,0.3,0.2,0.7\n"
                "game_payoffs_3 = 0,0,0,0",
                "unknown key 'game_payoffs_3' for NullGridConfig",
            ),
            ("nf-slack", "seed = -1", "seed must be nonnegative, got -1"),
            ("nf-slack", "--seed -1", "seed must be nonnegative, got -1"),
        ],
        ids=["soccer-discount", "fwer-lambda", "fwer-alpha", "detect-alpha", "sensitivity-alpha",
             "sensitivity-mixture", "unparsable-int", "unparsable-float", "unparsable-game",
             "strategy-length", "negative-game-count", "negative-strategy-shape", "empty-alphas",
             "empty-lambdas", "empty-etas", "uncalibrated-eta", "soccer-trials", "prey-trials",
             "kl-pairs", "kl-check-eps", "kl-tol", "prey-slope-points", "soccer-slope-points",
             "soccer-zero-eps", "prey-eps-above-one", "prey-negative-grid", "slack-triples",
             "oracle-streams", "oracle-matrices", "oracle-chains", "kl-dim-zero", "kl-dim-one",
             "kl-eps-above-one", "soccer-t-max",
             "soccer-smoothing", "soccer-zero-threshold", "prey-nan-threshold",
             "prey-inf-threshold", "slack-game-keys", "sensitivity-game-keys",
             "soccer-game-keys", "detect-game-bogus", "game-without-players",
             "strategy-without-kind", "strategy-3-after-1", "payoffs-of-a-third-player",
             "negative-seed", "negative-seed-flag"],
    )
    def test_out_of_domain_value_exits_one(self, tmp_path, capsys, name, body, message):
        # A body of flags is passed on the command line instead of in the file.
        flags = body.split() if body.startswith("--") else []
        config = tmp_path / "bad.cfg"
        config.write_text(f"experiment = {name}\n{'' if flags else body}\n")
        rc = main([name, "--config", str(config), "--out", str(tmp_path / "o"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists(), "no output directory is made"


#: (experiment, field) for every integer config field that counts something.
COUNT_FIELDS = [
    (name, field)
    for name, (config_cls, _) in experiments.EXPERIMENTS.items()
    for field, hint in field_types(config_cls).items()
    if hint is int and field != "seed"
]


class TestConfigCounts:
    @pytest.mark.parametrize(
        "name, field", COUNT_FIELDS, ids=[f"{name}-{field}" for name, field in COUNT_FIELDS]
    )
    def test_zero_count_rejected_at_construction(self, name, field):
        config_cls, _ = experiments.EXPERIMENTS[name]
        # nf-sensitivity reads grid_nodes only under the uniform mixture.
        extra = {"mixture": "uniform"} if field == "grid_nodes" else {}
        with pytest.raises(ConfigError):
            config_cls(**{field: 0}, **extra)


#: (experiment, field, hint) for every float or float-tuple config field.
FLOAT_FIELDS = [
    (name, field, hint)
    for name, (config_cls, _) in experiments.EXPERIMENTS.items()
    for field, hint in field_types(config_cls).items()
    if hint in (float, tuple[float, ...])
]


class TestConfigFloats:
    """A library config object's own check is a ``ConfigError``, so every
    config builds from any float, NaN and infinities included, or rejects
    it with a ``ConfigError``."""

    def test_config_error_is_a_domain_error(self):
        assert issubclass(ConfigError, DomainError)

    @pytest.mark.parametrize(
        "name, field, hint", FLOAT_FIELDS, ids=[f"{n}-{field}" for n, field, _ in FLOAT_FIELDS]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_float_builds_or_raises_config_error(self, name, field, hint, data):
        floats = st.floats(allow_nan=True, allow_infinity=True)
        value = data.draw(floats if hint is float else st.lists(floats, max_size=4).map(tuple))
        config_cls, _ = experiments.EXPERIMENTS[name]
        with np.errstate(all="raise"):
            try:
                config_cls(**{field: value})
            except ConfigError:
                pass


@pytest.mark.parametrize("config_cls", [SoccerScalingConfig, PreyMixtureConfig])
class TestOneProcess:
    """Trials run in one process: ``workers`` is no config field, and only the
    value 1 is taken at construction."""

    def test_workers_is_not_a_field(self, config_cls):
        assert "workers" not in {f.name for f in dataclasses.fields(config_cls)}

    def test_one_worker_builds_the_default_config(self, config_cls):
        assert config_cls(workers=1) == config_cls()

    @pytest.mark.parametrize("workers", [0, 2])
    def test_other_worker_counts_rejected(self, config_cls, workers):
        message = f"trials run in one process; workers must be 1, got {workers}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_cls(workers=workers)

    def test_config_file_builds_the_config(self, config_cls):
        config = config_from_mapping(config_cls, {"trials": "3", "seed": "5"})
        assert config == config_cls(trials=3, seed=5)


def test_init_only_annotation_is_not_evaluated():
    # Before Python 3.11, typing.get_type_hints refuses an InitVar hint; an
    # undefined name stands in for it here, so evaluating it raises.
    @dataclasses.dataclass
    class Config:
        n: "int" = 1
        extra: "dataclasses.InitVar[Undefined]" = None  # noqa: F821

        def __post_init__(self, extra):
            pass

    with pytest.raises(NameError):
        typing.get_type_hints(Config)
    assert field_types(Config) == {"n": int}
    assert config_from_mapping(Config, {"n": "4"}) == Config(n=4)


def test_cli_import_starts_no_process_pool():
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(root / 'src')!r})\n"
        "import eqsentinel.harness.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestGatesSeeNan:
    def test_oracle_suite_fails_on_nan_solutions(self, tmp_path, monkeypatch):
        solve = experiments.matrix_game_solve

        def nan_rows(payoff):
            sol = solve(payoff)
            return dataclasses.replace(sol, row_strategy=np.full_like(sol.row_strategy, np.nan))

        monkeypatch.setattr(experiments, "matrix_game_solve", nan_rows)
        monkeypatch.setattr(
            experiments, "stationary_distribution", lambda chain: np.full(len(chain), np.nan)
        )
        config = experiments.OracleSuiteConfig(streams=2, matrices=3, chains=3)
        result = experiments.run_oracle_suite(config, tmp_path)
        assert not result.checks["exploitability_within_1e-6"]
        assert not result.checks["stationary_within_1e-9"]
        assert math.isnan(result.summary["worst_exploitability"])
        assert math.isnan(result.summary["worst_stationary_error"])
        assert result.checks["quadrature_within_1e-3"]
        assert result.checks["rational_gain_within_1e-12"]

    def test_kl_check_fails_on_a_nan_ratio(self, tmp_path, monkeypatch):
        check = experiments.kl_quadratic_check
        calls = []

        def nan_second_pair(p, q, epsilons):
            calls.append(None)
            rows = check(p, q, epsilons)
            if len(calls) == 2:
                rows = [(eps, math.nan, predicted) for eps, _, predicted in rows]
            return rows

        monkeypatch.setattr(experiments, "kl_quadratic_check", nan_second_pair)
        result = experiments.run_kl_check(KlCheckConfig(pairs=3), tmp_path)
        assert math.isnan(result.summary["worst_ratio_error"])
        assert not result.checks["quadratic_at_small_eps"]


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


@pytest.fixture(scope="module")
def all_run(tmp_path_factory):
    """``eqsentinel all`` from the repository root, run once for the
    tests that read its output: (exit code, output directory)."""
    out = tmp_path_factory.mktemp("all")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(Path(__file__).resolve().parents[1])
        rc = main(["all", "--out", str(out)])
    return rc, out


class TestExportTracesScript:
    # The traces' bytes under numpy 2.4, pinned so that a rewrite of the
    # traces or of the policies they play shows any change of output.
    SHA256 = {
        "soccer_equilibrium_episode.csv":
            "8a11ffaeb3e06016b19161780f09112316c33b52ffed7c0ccea9a903e468845a",
        "soccer_timid_episode.csv":
            "786dc593d045a3165075769c90339fbecbe200d7d6142d748adab0f5ddbfb74a",
        "prey_suspect_episode.csv":
            "34b33aad190f9efc6e1b81676e2941f505252b7e0628e40d08358daf34f87289",
    }

    def test_writes_three_traces_starting_at_one(self, all_run):
        traces = all_run[1] / "traces"
        assert sorted(p.name for p in traces.iterdir()) == sorted(self.SHA256)
        for name, digest in self.SHA256.items():
            _, columns, rows = read_csv(traces / name)
            assert rows, name
            assert float(rows[0][columns.index("martingale")]) == 1.0, name
            assert hashlib.sha256((traces / name).read_bytes()).hexdigest() == digest, name

    def test_default_out_is_under_the_repo_root(self, tmp_path, monkeypatch):
        # As for every other subcommand, the default is results/ under the
        # working directory.
        (tmp_path / "configs").mkdir()
        (tmp_path / "configs" / "kl.cfg").write_text("experiment = kl-check\npairs = 2\n")
        monkeypatch.chdir(tmp_path)
        assert main(["all"]) == 0
        written = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {
            "configs/kl.cfg",
            "results/kl/runs.csv",
            "results/kl/summary.csv",
            *(f"results/traces/{name}" for name in self.SHA256),
        }


class TestRunAllArtifacts:
    """Every file ``eqsentinel all`` writes for the checked-in configs is
    pinned by its sha256 in ``tests/golden/artifacts.sha256``, so a change
    that moves any byte of any artifact fails here. The bytes depend on the
    numpy release, which the table's header names."""

    TABLE = Path(__file__).resolve().parent / "golden" / "artifacts.sha256"

    def test_every_artifact_matches_its_digest(self, all_run):
        text = self.TABLE.read_text()
        recorded = re.search(r"numpy (\S+?)\.?$", text.splitlines()[0]).group(1)
        expected = dict(
            line.split("  ")[::-1] for line in text.splitlines() if not line.startswith("#")
        )
        rc, out = all_run
        assert rc == 0
        got = {
            path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.rglob("*")
            if path.is_file()
        }
        assert sorted(got) == sorted(expected)
        mismatched = [
            f"{name}: table {expected[name]}, written {got[name]}"
            for name in sorted(got)
            if got[name] != expected[name]
        ]
        assert not mismatched, (
            f"recorded under numpy {recorded}, running numpy {np.__version__}:\n"
            + "\n".join(mismatched)
        )


def test_script_help_prints_usage_and_writes_nothing(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "eqsentinel.harness.cli", "all", "--help"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: eqsentinel all [-h] [--out OUT]\n")
    assert list(tmp_path.iterdir()) == []


class TestReadmeCli:
    """README's CLI section documents the parser it describes."""

    @staticmethod
    def section() -> str:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        start = text.index("\n## CLI\n")
        return text[start : text.index("\n## ", start + 1)]

    def test_synopsis_equals_the_cli_docstring(self):
        readme = re.search(r"```\n(eqsentinel .*)\n```", self.section()).group(1)
        docstring = re.search(r"^    (eqsentinel .*)$", cli.__doc__, re.M).group(1)
        assert readme == docstring

    def test_synopsis_lists_the_parser_flags(self):
        synopsis = re.search(r"^    (eqsentinel .*)$", cli.__doc__, re.M).group(1)
        listed = set(re.findall(r"--[a-z-]+", synopsis))
        sub = next(
            a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        registered = {
            option
            for parser in sub.choices.values()
            for action in parser._actions
            for option in action.option_strings
        }
        assert listed == registered - {"-h", "--help"}

    def test_subcommand_table_lists_the_parser_subcommands(self):
        table = self.section().split("| subcommand ", 1)[1].split("\n\n", 1)[0]
        listed = re.findall(r"^\| `([^`]+)` ", table, re.M)
        parsed = re.search(r"\{([^}]+)\}", cli.build_parser().format_usage()).group(1)
        assert sorted(listed) == parsed.split(",")
