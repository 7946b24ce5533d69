import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsentinel import (
    ActionProfile,
    BettingMixture,
    EProcessState,
    EquilibriumMode,
    EquilibriumMonitor,
    HypothesisId,
    JointStrategy,
    MonitorConfig,
    NormalFormGame,
    ebh_rejection,
    enumerate_hypotheses,
    equilibrium_slack,
    sample_profile,
    slack_lower_bound,
    two_player_game,
)
from eqsentinel.errors import DomainError, ShapeError, StateError
from eqsentinel.harness import nfstreams, scenarios
from eqsentinel.monitors import increment, increment_tables

from _oracles import _increment_tables, ebh_rejection_brute_force


def dirac_config(alpha=0.2, lam=0.05, **kwargs):
    return MonitorConfig(alpha=alpha, mixture=BettingMixture.dirac(lam), **kwargs)


class TestEnumeration:
    def test_two_by_two_unconditional(self, two_signal):
        game, _, _ = two_signal
        for mode in (EquilibriumMode.NASH, EquilibriumMode.CCE, EquilibriumMode.CE):
            assert len(enumerate_hypotheses(game, mode)) == 4

    def test_single_player_single_action(self):
        game = type(
            "G",
            (),
            {"num_players": 1, "action_counts": (1,)},
        )()
        hyps = enumerate_hypotheses(game, EquilibriumMode.NASH)
        assert hyps == [HypothesisId(0, 0)]

    def test_conditional_ce_count(self, two_signal):
        game, _, _ = two_signal
        hyps = enumerate_hypotheses(game, EquilibriumMode.CE, conditional_ce=True)
        assert len(hyps) == 4
        assert all(h.condition is not None for h in hyps)

    def test_condition_equals_deviation_rejected(self):
        with pytest.raises(DomainError):
            HypothesisId(0, 1, condition=1)


class TestMonitorConfig:
    def test_threshold_derived_from_count(self, two_signal):
        game, _, _ = two_signal
        monitor = EquilibriumMonitor(game, dirac_config(alpha=0.2))
        assert monitor.threshold == pytest.approx(20.0)

    def test_eps_mode_caps_fractions(self):
        with pytest.raises(DomainError):
            MonitorConfig(
                alpha=0.1,
                mixture=BettingMixture.dirac(0.9),
                mode=EquilibriumMode.EPS_APPROX,
                eps=0.5,
            )
        ok = MonitorConfig(
            alpha=0.1,
            mixture=BettingMixture.dirac(0.6),
            mode=EquilibriumMode.EPS_APPROX,
            eps=0.5,
        )
        assert ok.eps == 0.5

    def test_eps_outside_eps_mode_rejected(self):
        with pytest.raises(DomainError):
            MonitorConfig(alpha=0.1, mixture=BettingMixture.dirac(0.1), eps=0.2)

    @pytest.mark.parametrize(
        "mode, eps",
        [(EquilibriumMode.NASH, 0.0), (EquilibriumMode.CCE, 0.0), (EquilibriumMode.EPS_APPROX, 0.2)],
        ids=["nash", "cce", "eps-approx"],
    )
    def test_conditional_ce_outside_ce_mode_rejected(self, mode, eps):
        # Outside CE mode the flag would silently monitor the unconditional
        # hypotheses instead.
        with pytest.raises(DomainError, match="conditional_ce is only meaningful in CE mode"):
            MonitorConfig(
                alpha=0.1,
                mixture=BettingMixture.dirac(0.1),
                mode=mode,
                eps=eps,
                conditional_ce=True,
            )

    def test_fdr_weights_validated(self):
        with pytest.raises(DomainError):
            MonitorConfig(
                alpha=0.1,
                mixture=BettingMixture.dirac(0.1),
                procedure="fdr",
                weights=np.array([0.5, 0.4]),
            )

    def test_weights_refused_under_fwer(self):
        # The family-wise threshold is m/alpha; it would drop the weights.
        with pytest.raises(DomainError, match="weights are only meaningful for the fdr procedure"):
            MonitorConfig(
                alpha=0.1, mixture=BettingMixture.dirac(0.1), weights=np.array([0.5, 0.5])
            )


class TestFwer:
    def test_zero_increments_never_reject(self, two_signal):
        game, _, _ = two_signal
        const = two_player_game(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        monitor = EquilibriumMonitor(const, dirac_config())
        for _ in range(200):
            decision = monitor.step_fwer(ActionProfile((0, 1)))
            assert not decision.stopped
        assert all(v == pytest.approx(1.0) for v in monitor.wealth().values())

    def test_deterministic_gap_stops_exactly(self):
        game = scenarios.constant_gap_game(0.05)
        monitor = EquilibriumMonitor(game, dirac_config(alpha=0.2, lam=0.05))
        predicted = slack_lower_bound(monitor.threshold, 0.05, 0.05)
        assert predicted == 1200
        profile = ActionProfile((0, 0))
        for t in range(1, predicted + 1):
            decision = monitor.step_fwer(profile)
            if decision.stopped:
                assert t == predicted
                assert decision.rejected == (HypothesisId(0, 1),)
                break
        else:
            pytest.fail("monitor never stopped")

    def test_step_after_stop_is_error(self):
        game = scenarios.constant_gap_game(0.5)
        monitor = EquilibriumMonitor(game, dirac_config(alpha=0.5, lam=0.9))
        profile = ActionProfile((0, 0))
        while not monitor.step_fwer(profile).stopped:
            pass
        with pytest.raises(StateError):
            monitor.step_fwer(profile)

    def test_procedure_mismatch(self, two_signal):
        game, _, _ = two_signal
        fdr_monitor = EquilibriumMonitor(game, dirac_config(procedure="fdr"))
        with pytest.raises(StateError):
            fdr_monitor.step_fwer(ActionProfile((0, 0)))
        fwer_monitor = EquilibriumMonitor(game, dirac_config())
        with pytest.raises(StateError):
            fwer_monitor.step_fdr(ActionProfile((0, 0)))
        # A refused step leaves the monitor untouched.
        assert fdr_monitor.round == fwer_monitor.round == 0

    def test_empirical_fwer_controlled_under_null(self, two_signal):
        game, nash, _ = two_signal
        hyps = enumerate_hypotheses(game, EquilibriumMode.NASH)
        tables = nfstreams.increment_tables(game, hyps)
        rejections = 0
        runs, horizon, alpha = 300, 2000, 0.2
        for run in range(runs):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=4242, spawn_key=(run,))
            )
            stream = nfstreams.sample_action_stream(nash, horizon, rng)
            paths = nfstreams.log_wealth_paths(
                tables[:, stream], BettingMixture.dirac(0.05)
            )
            crossings = nfstreams.fwer_crossing_times(paths, len(hyps) / alpha)
            rejections += int((crossings > 0).any())
        assert rejections / runs <= alpha


class TestEbhRejection:
    def test_threshold_ladder(self):
        # m=4, uniform weights, alpha=0.2: level-1 and level-2 thresholds.
        w = np.full(4, 0.25)
        assert 1.0 / (1 * 0.2 * 0.25) == pytest.approx(20.0)
        assert 1.0 / (2 * 0.2 * 0.25) == pytest.approx(10.0)
        k, rejected = ebh_rejection([21.0, 3.0, 3.0, 3.0], 0.2, w)
        assert (k, rejected) == (1, (0,))

    def test_two_signals_reject_at_level_two(self):
        w = np.full(4, 0.25)
        k, rejected = ebh_rejection([12.0, 11.0, 1.0, 1.0], 0.2, w)
        assert (k, rejected) == (2, (0, 1))

    def test_no_rejection(self):
        w = np.full(4, 0.25)
        assert ebh_rejection([4.9, 4.9, 4.9, 4.9], 0.2, w) == (0, ())

    def test_boundary_crossing_counts(self):
        # The lowest ladder level for m=4, alpha=0.2 sits at exactly 5.
        w = np.full(4, 0.25)
        k, rejected = ebh_rejection([5.0, 5.0, 5.0, 5.0], 0.2, w)
        assert (k, rejected) == (4, (0, 1, 2, 3))

    def test_all_weight_on_one_hypothesis_is_ville_test(self):
        w = np.array([1.0, 0.0, 0.0, 0.0])
        alpha = 0.1
        below = ebh_rejection([9.9, 1e9, 1e9, 1e9], alpha, w)
        assert below == (0, ())
        k, rejected = ebh_rejection([10.0, 1e9, 1e9, 1e9], alpha, w)
        assert (k, rejected) == (1, (0,))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ebh_rejection([1.0, 2.0], 0.1, [0.5, 0.25, 0.25])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        # Worded as MonitorConfig words it, with the offending value.
        message = f"alpha must lie in (0, 1), got {alpha}"
        with pytest.raises(DomainError) as raised:
            ebh_rejection([1.0, 2.0], alpha, [0.5, 0.5])
        assert str(raised.value) == message
        with pytest.raises(DomainError) as raised:
            MonitorConfig(alpha, BettingMixture.dirac(0.1))
        assert str(raised.value) == message

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reported_level_is_maximal(self, data):
        m = data.draw(st.integers(1, 6))
        maxima = np.array(
            [data.draw(st.floats(0.0, 100.0)) for _ in range(m)]
        )
        alpha = data.draw(st.floats(0.05, 0.5))
        w = np.full(m, 1.0 / m)
        k, rejected = ebh_rejection(maxima, alpha, w)
        counts = [
            int(np.sum(maxima >= 1.0 / (kk * alpha * w))) for kk in range(1, m + 1)
        ]
        feasible = [kk for kk in range(1, m + 1) if counts[kk - 1] >= kk]
        assert k == (max(feasible) if feasible else 0)
        if k:
            assert len(rejected) == counts[k - 1]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_largest_self_consistent_set(self, data):
        # Weights n_j / 2^p and a dyadic alpha make the threshold
        # 1 / (k * alpha * w_j) a float exactly whenever k * n_j is a power of
        # two; those maxima are drawn as exact ties. The others sit a factor
        # off a threshold that no ratio of two levels reaches, so rounding
        # never decides a comparison.
        m = data.draw(st.integers(1, 8))
        total = 2 ** (m.bit_length() + data.draw(st.integers(0, 2)))
        cuts = data.draw(st.sets(st.integers(1, total - 1), min_size=m - 1, max_size=m - 1))
        w = np.diff([0, *sorted(cuts), total]) / total
        alpha = data.draw(st.sampled_from([0.5, 0.25, 0.125, 0.0625]))
        maxima = np.empty(m)
        for j in range(m):
            k = data.draw(st.integers(1, m))
            tie = Fraction(1) / (k * Fraction(alpha) * Fraction(w[j]))
            if data.draw(st.booleans()) and Fraction(float(tie)) == tie:
                maxima[j] = float(tie)
            else:
                maxima[j] = float(tie) * data.draw(st.sampled_from([0.7, 0.9, 1.1, 1.3]))
        assert ebh_rejection(maxima, alpha, w) == ebh_rejection_brute_force(maxima, alpha, w)


class TestFdrMonitor:
    def run_fdr(self, game, strategy, rounds, seed, weights=None):
        monitor = EquilibriumMonitor(
            game, dirac_config(alpha=0.2, lam=0.1, procedure="fdr", weights=weights)
        )
        rng = np.random.default_rng(seed)
        snapshots = []
        for _ in range(rounds):
            state = monitor.step_fdr(sample_profile(strategy, rng))
            snapshots.append(dict(state.rejected))
        return monitor, snapshots

    def test_rejections_are_nested(self, two_signal):
        game, _, alternative = two_signal
        _, snapshots = self.run_fdr(game, alternative, 800, seed=5)
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert set(earlier) <= set(later)

    def test_null_stream_never_rejects(self, two_signal):
        game, _, _ = two_signal
        const = two_player_game(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        monitor = EquilibriumMonitor(const, dirac_config(procedure="fdr"))
        for _ in range(300):
            state = monitor.step_fdr(ActionProfile((1, 1)))
        assert state.rejected == {}
        assert state.k == 0

    def test_fdr_alarm_never_later_than_fwer(self, two_signal):
        game, _, alternative = two_signal
        for seed in range(12):
            monitor, _ = self.run_fdr(game, alternative, 4000, seed=seed)
            fwer_times = monitor.threshold_crossings.values()
            tau_fwer = min(fwer_times) if monitor.threshold_crossings else None
            tau_fdr = monitor.rejection.first_rejection_round
            assert tau_fdr is not None
            if tau_fwer is not None:
                assert tau_fdr <= tau_fwer

    def test_matches_vectorized_replay(self, two_signal):
        game, _, alternative = two_signal
        hyps = enumerate_hypotheses(game, EquilibriumMode.NASH)
        tables = nfstreams.increment_tables(game, hyps)
        rng = np.random.default_rng(31)
        stream = nfstreams.sample_action_stream(alternative, 3000, rng)
        paths = nfstreams.log_wealth_paths(
            tables[:, stream], BettingMixture.dirac(0.1)
        )
        alarm, k, rejected = nfstreams.ebh_alarm(paths, 0.2, np.full(4, 0.25))
        monitor = EquilibriumMonitor(
            game, dirac_config(alpha=0.2, lam=0.1, procedure="fdr")
        )
        counts = game.action_counts
        profiles = [
            ActionProfile(tuple(np.unravel_index(s, counts))) for s in stream
        ]
        first = None
        for t, profile in enumerate(profiles, start=1):
            state = monitor.step_fdr(profile)
            if state.rejected and first is None:
                first = t
                assert state.k == k
                break
        assert first == alarm
        # Per-hypothesis wealth agrees with the replayed paths.
        wealth = monitor.wealth()
        for j, h in enumerate(hyps):
            assert wealth[h] == pytest.approx(
                float(np.exp(paths[j, first - 1])), rel=1e-12
            )


class TestConditionalCe:
    def test_updates_only_on_matching_recommendation(self):
        game, joint = scenarios.coordination_ce()
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.2),
            mode=EquilibriumMode.CE,
            conditional_ce=True,
        )
        monitor = EquilibriumMonitor(game, config)
        monitor.step_fwer(ActionProfile((0, 0)))
        for j, h in enumerate(monitor.hypotheses):
            expected = 1 if h.condition == 0 else 0
            assert monitor.updates[j] == expected

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_table_is_zero_where_inactive_and_updates_count_active_rounds(self, data):
        players = data.draw(st.integers(2, 3))
        counts = tuple(data.draw(st.integers(2, 3)) for _ in range(players))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        game = NormalFormGame(rng.random((players, *counts)))
        hyps = enumerate_hypotheses(game, EquilibriumMode.CE, conditional_ce=True)
        own = np.unravel_index(np.arange(int(np.prod(counts))), counts)
        active = np.stack([own[h.player] == h.condition for h in hyps])
        table = increment_tables(game, hyps)
        np.testing.assert_array_equal(table[active], _increment_tables(game, hyps)[active])
        assert (table[~active] == 0.0).all()
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.2),
            mode=EquilibriumMode.CE,
            procedure="fdr",
            conditional_ce=True,
        )
        monitor = EquilibriumMonitor(game, config)
        flat = rng.integers(active.shape[1], size=data.draw(st.integers(1, 60)))
        for i in flat:
            monitor.step_fdr(ActionProfile(np.unravel_index(i, counts)))
        np.testing.assert_array_equal(monitor.updates, active[:, flat].sum(axis=1))

    def test_ce_stream_keeps_wealth_controlled(self):
        game, joint = scenarios.coordination_ce()
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.2),
            mode=EquilibriumMode.CE,
            conditional_ce=True,
        )
        means = []
        for seed in range(400):
            monitor = EquilibriumMonitor(game, config)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=777, spawn_key=(seed,))
            )
            for _ in range(40):
                monitor.step_fwer(sample_profile(joint, rng))
            means.append(np.mean(list(monitor.wealth().values())))
        mc = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
        assert mc <= 1.0 + 3.0 * se


class TestEpsApprox:
    def test_shifted_null_is_not_flagged(self):
        # A gap of 0.05 is tolerated by an eps=0.05 approximate null.
        game = scenarios.constant_gap_game(0.05)
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.05),
            mode=EquilibriumMode.EPS_APPROX,
            eps=0.05,
        )
        monitor = EquilibriumMonitor(game, config)
        for _ in range(3000):
            assert not monitor.step_fwer(ActionProfile((0, 0))).stopped

    def test_larger_gap_still_detected(self):
        game = scenarios.constant_gap_game(0.3)
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.05),
            mode=EquilibriumMode.EPS_APPROX,
            eps=0.05,
        )
        monitor = EquilibriumMonitor(game, config)
        stopped_at = None
        for t in range(1, 3000):
            if monitor.step_fwer(ActionProfile((0, 0))).stopped:
                stopped_at = t
                break
        assert stopped_at == slack_lower_bound(monitor.threshold, 0.05, 0.25)


class TestSnapshot:
    def test_round_trip_resumes_identically(self, two_signal):
        game, _, alternative = two_signal
        monitor = EquilibriumMonitor(
            game, dirac_config(alpha=0.2, lam=0.1, procedure="fdr")
        )
        rng = np.random.default_rng(8)
        stream = [sample_profile(alternative, rng) for _ in range(600)]
        for profile in stream[:300]:
            monitor.step_fdr(profile)
        text = monitor.to_snapshot()
        restored = EquilibriumMonitor.from_snapshot(game, text)
        for profile in stream[300:]:
            a = monitor.step_fdr(profile)
            b = restored.step_fdr(profile)
        assert a.rejected == b.rejected
        assert a.k == b.k
        assert monitor.log_wealth == pytest.approx(restored.log_wealth, rel=0, abs=0)

    def test_snapshot_rejects_garbage(self, two_signal):
        game, _, _ = two_signal
        with pytest.raises(DomainError):
            EquilibriumMonitor.from_snapshot(game, "not a snapshot\n")


class TestFwerSnapshot:
    def test_stopped_monitor_survives_round_trip(self):
        game = scenarios.constant_gap_game(0.3)
        monitor = EquilibriumMonitor(game, dirac_config(alpha=0.5, lam=0.5))
        profile = ActionProfile((0, 0))
        while not monitor.step_fwer(profile).stopped:
            pass
        restored = EquilibriumMonitor.from_snapshot(game, monitor.to_snapshot())
        assert restored.rejection.stopped
        assert restored.rejection.stopping_round == monitor.rejection.stopping_round
        assert restored.rejection.rejected == monitor.rejection.rejected
        with pytest.raises(StateError):
            restored.step_fwer(profile)


class TestWeightedFdr:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_alarm_matches_recomputation_under_random_weights(self, data):
        from eqsentinel.harness import nfstreams

        m = data.draw(st.integers(2, 5))
        horizon = data.draw(st.integers(3, 30))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        raw = rng.random(m) + 0.05
        weights = raw / raw.sum()
        paths = np.cumsum(rng.normal(scale=0.9, size=(m, horizon)), axis=1)
        alarm, k_at_alarm, rejected = nfstreams.ebh_alarm(paths, 0.25, weights)
        suprema = np.maximum.accumulate(np.exp(paths), axis=1)
        expected = -1
        for t in range(horizon):
            k, idx = ebh_rejection(suprema[:, t], 0.25, weights)
            if k >= 1:
                expected = t + 1
                assert (k, idx) == (k_at_alarm, rejected)
                break
        assert alarm == expected

    def test_single_dominant_stream_alarms_with_fwer(self):
        # With one growing supremum and the rest flat, the level-1 e-BH
        # threshold coincides with the FWER threshold, so both procedures
        # raise the alarm on the same round.
        game = scenarios.constant_gap_game(0.2)
        profile = ActionProfile((0, 0))
        fwer_monitor = EquilibriumMonitor(game, dirac_config(alpha=0.2, lam=0.1))
        fdr_monitor = EquilibriumMonitor(
            game, dirac_config(alpha=0.2, lam=0.1, procedure="fdr")
        )
        fwer_round = None
        for t in range(1, 5000):
            if fwer_round is None and fwer_monitor.step_fwer(profile).stopped:
                fwer_round = t
            state = fdr_monitor.step_fdr(profile)
            if state.rejected:
                assert state.first_rejection_round == fwer_round == t
                assert state.k == 1
                break
        else:
            pytest.fail("no alarm raised")

    def test_balanced_streams_alarm_before_fwer(self):
        # Two suprema that pass the level-2 threshold well before either
        # passes the level-1 threshold trigger a strictly earlier alarm.
        from eqsentinel.harness import nfstreams

        m, alpha = 4, 0.2
        weights = np.full(m, 0.25)
        horizon = 30
        paths = np.full((m, horizon), -5.0)
        ramp = np.linspace(0.0, np.log(12.0), horizon)  # crosses 10, never 20
        paths[0] = ramp
        paths[1] = ramp
        alarm, k, rejected = nfstreams.ebh_alarm(paths, alpha, weights)
        level2_round = int(np.argmax(ramp >= np.log(10.0))) + 1
        assert (alarm, k, rejected) == (level2_round, 2, (0, 1))
        fwer_rounds = nfstreams.fwer_crossing_times(paths, m / alpha)
        assert (fwer_rounds == -1).all()


class TestConditionalCeDetection:
    def test_anticorrelated_play_flags_the_conditional_deviation(self):
        # An anti-correlated coin on a coordination game is maximally far
        # from a correlated equilibrium: conditionally on either own action,
        # switching always pays 1.
        game, _ = scenarios.coordination_ce()
        anti = JointStrategy.full([[0.0, 0.5], [0.5, 0.0]])
        assert equilibrium_slack(game, anti, EquilibriumMode.CE) == pytest.approx(1.0)
        config = MonitorConfig(
            alpha=0.2,
            mixture=BettingMixture.dirac(0.5),
            mode=EquilibriumMode.CE,
            conditional_ce=True,
        )
        monitor = EquilibriumMonitor(game, config)
        rng = np.random.default_rng(0)
        decision = None
        for _ in range(200):
            decision = monitor.step_fwer(sample_profile(anti, rng))
            if decision.stopped:
                break
        assert decision is not None and decision.stopped
        assert all(h.condition is not None for h in decision.rejected)


GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"
#: Its lambda=1 node dies at the first increment of exactly 1.
HALF_ONE_GRID = BettingMixture("grid", np.array([0.5, 1.0]), np.array([0.5, 0.5]))


def anti_coordination_stream(rounds, seed):
    """Mostly mis-coordinated play on the coordination game, whose 0/1
    payoffs give increments of exactly 1 (a dead lambda=1 component)."""
    anti = JointStrategy.full([[0.1, 0.4], [0.4, 0.1]])
    rng = np.random.default_rng(seed)
    return [sample_profile(anti, rng) for _ in range(rounds)]


def golden_v2_monitor():
    """The monitor whose snapshot is ``golden/monitor_snapshot_v2.txt``."""
    game, _ = scenarios.coordination_ce()
    config = MonitorConfig(
        alpha=0.2,
        mixture=HALF_ONE_GRID,
        mode=EquilibriumMode.CE,
        conditional_ce=True,
        procedure="fdr",
    )
    monitor = EquilibriumMonitor(game, config)
    for actions in [(0, 0), (1, 1), (0, 0)] + [(0, 1), (1, 0), (0, 1)] * 9:
        monitor.step_fdr(ActionProfile(actions))
    return game, monitor


class TestBlockSnapshot:
    @pytest.mark.parametrize("procedure", ["fwer", "fdr"])
    @pytest.mark.parametrize(
        "mixture",
        [
            BettingMixture.dirac(1.0),
            BettingMixture("grid", np.array([0.5, 1.0]), np.array([0.5, 0.5])),
        ],
        ids=["dirac-1", "grid-half-one"],
    )
    def test_round_trip_with_dead_components_conditional_ce(self, mixture, procedure):
        game, _ = scenarios.coordination_ce()
        config = MonitorConfig(
            alpha=0.01,
            mixture=mixture,
            mode=EquilibriumMode.CE,
            conditional_ce=True,
            procedure=procedure,
        )
        monitor = EquilibriumMonitor(game, config)
        step = monitor.step_fwer if procedure == "fwer" else monitor.step_fdr
        stream = anti_coordination_stream(60, seed=4)
        for profile in stream[:4]:
            step(profile)
        assert np.isneginf(monitor.log_wealth).any()
        restored = EquilibriumMonitor.from_snapshot(game, monitor.to_snapshot())
        restored_step = restored.step_fwer if procedure == "fwer" else restored.step_fdr
        for profile in stream[4:]:
            if monitor.rejection.stopped:
                break
            a, b = step(profile), restored_step(profile)
            assert a == b if procedure == "fwer" else (a.k, a.rejected) == (b.k, b.rejected)
        np.testing.assert_array_equal(monitor.log_wealth, restored.log_wealth)
        np.testing.assert_array_equal(monitor.log_max, restored.log_max)
        np.testing.assert_array_equal(monitor.updates, restored.updates)
        assert monitor.rejection == restored.rejection
        assert monitor.threshold_crossings == restored.threshold_crossings

    def test_seed_v1_snapshot_restores(self):
        # Written by the per-hypothesis monitor this block state replaced:
        # conditional-CE e-BH at round 20, lambda=1 components dead.
        game, _ = scenarios.coordination_ce()
        text = (GOLDEN / "monitor_snapshot_v1.txt").read_text()
        monitor = EquilibriumMonitor.from_snapshot(game, text)
        assert monitor.round == 20
        assert monitor.rejection.k == 2
        assert np.isneginf(monitor.log_wealth[:, 1]).all()
        np.testing.assert_array_equal(monitor.updates, [11, 9, 10, 10])
        assert np.exp(monitor.log_max) == pytest.approx(
            [4.805419921875, 37.69531249999999, 3.2036132812500004, 72.54296875], rel=1e-15
        )
        rest = [(0, 0), (1, 1), (0, 1), (0, 1), (1, 0), (1, 0), (0, 1), (1, 0), (0, 0), (1, 0),
                (0, 1), (0, 0), (1, 0), (1, 1), (0, 1), (1, 0), (0, 1), (1, 0), (1, 0), (0, 1)]
        for actions in rest:
            state = monitor.step_fdr(ActionProfile(actions))
        # The seed monitor's readout at round 40 on the same profiles.
        expected = {
            "p0|a0->a1": 10.263138055801397,
            "p0|a1->a0": 41.052552223205666,
            "p1|a0->a1": 10.263138055801397,
            "p1|a1->a0": 41.052552223205666,
        }
        got = {h.label(): v for h, v in monitor.wealth().items()}
        assert got == pytest.approx(expected, rel=1e-12)
        assert state.k == 4
        assert {h.label(): t for h, t in state.rejected.items()} == {
            "p1|a1->a0": 11, "p0|a1->a0": 12, "p0|a0->a1": 27, "p1|a0->a1": 28,
        }
        with pytest.raises(ShapeError):
            EquilibriumMonitor.from_snapshot(game, text.replace("dead 0 1", "dead 0 1 1", 1))

    def test_v2_snapshot_golden_bytes(self):
        # Conditional-CE e-BH on a two-node grid at round 30: lambda=1 dead,
        # three rejections, two crossings of m/alpha.
        text = (GOLDEN / "monitor_snapshot_v2.txt").read_text()
        game, monitor = golden_v2_monitor()
        assert monitor.to_snapshot() == text
        assert EquilibriumMonitor.from_snapshot(game, text).to_snapshot() == text

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("alpha 0.2\n", "", "alpha"),
            ("round 20", "round x", "round"),
            ("rounds 11\n", "", "rounds"),
            ("hypothesis 0 1 0", "hypothesis 0 1", "hypothesis"),
            ("runmax 4.805419921875", "runmax 0.0", "runmax"),
            ("lambdas 0.5 1.0", "lambdas 0.5 one", "lambdas"),
        ],
    )
    def test_missing_or_malformed_line_names_its_key(self, old, new, key):
        game, _ = scenarios.coordination_ce()
        text = (GOLDEN / "monitor_snapshot_v1.txt").read_text()
        assert old in text
        # A hypothesis line with two values has the wrong count: ShapeError.
        error = ShapeError if key == "hypothesis" else DomainError
        with pytest.raises(error, match=f"'{key}'"):
            EquilibriumMonitor.from_snapshot(game, text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("logw 0.0\n", "logw nan\n", "logw"),
            ("logw 0.0\n", "logw inf\n", "logw"),
            ("logmax 0.0\n", "logmax nan\n", "logmax"),
            ("logmax 0.0\n", "logmax -inf\n", "logmax"),
            ("round 3\n", "round -5\n", "round"),
            ("rounds 3\n", "rounds -3\n", "rounds"),
            ("k 0\n", "k -1\n", "k"),
        ],
        ids=["logw-nan", "logw-inf", "logmax-nan", "logmax-neginf", "round", "rounds", "k"],
    )
    def test_corrupt_value_names_its_key(self, old, new, key):
        game, text = ebh_snapshot_at_round_3()
        assert old in text
        with pytest.raises(DomainError, match=f"'{key}'"):
            EquilibriumMonitor.from_snapshot(game, text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "old, bound, past, key",
        [
            ("rounds 3\n", "rounds 3\n", "rounds 4\n", "rounds"),
            ("global_crossing -1\n", "global_crossing 3\n", "global_crossing 4\n",
             "global_crossing"),
            ("rejected_at -1\n", "rejected_at 3\n", "rejected_at 999\n", "rejected_at"),
            ("stopping_round -1\n", "stopping_round 3\n", "stopping_round 4\n",
             "stopping_round"),
            ("k 0\n", "k 4\n", "k 7\n", "k"),
        ],
        ids=["rounds", "global_crossing", "rejected_at", "stopping_round", "k"],
    )
    def test_count_past_its_bound_names_its_key(self, old, bound, past, key):
        # No count, crossing, rejection or stop lies past round 3, and no
        # level past the m = 4 hypotheses; a value at the bound restores.
        game, text = ebh_snapshot_at_round_3()
        assert old in text
        EquilibriumMonitor.from_snapshot(game, text.replace(old, bound, 1))
        with pytest.raises(DomainError, match=f"'{key}'"):
            EquilibriumMonitor.from_snapshot(game, text.replace(old, past, 1))

    @pytest.mark.parametrize(
        "edit, error, line",
        [
            (lambda ls: ls[:20] + ls[26:], DomainError, 21),
            (lambda ls: ls[:32] + ls[38:], DomainError, 33),
            (lambda ls: ls[:20] + ls[14:20] + ls[26:], DomainError, 21),
            (lambda ls: ls[:11] + ["bogus 7"] + ls[11:], DomainError, 12),
            (lambda ls: ls[:11] + ["round 9"] + ls[11:], DomainError, 12),
            (lambda ls: ls + ["round 9"], ShapeError, 40),
            (lambda ls: [*ls[:12], "stopped 2", *ls[13:]], DomainError, 13),
            (lambda ls: [*ls[:5], "conditional_ce 2", *ls[6:]], DomainError, 6),
            (lambda ls: ["eqsentinel-monitor-snapshot v3", *ls[1:]], DomainError, 1),
            (lambda ls: [ls[0], "procedure fwer", *ls[2:]], DomainError, 10),
        ],
        ids=["dropped-block", "dropped-last-block", "duplicated-block", "unknown-key",
             "second-round", "text-after-end", "stopped-2", "conditional-ce-2",
             "unknown-version", "weights-without-fdr"],
    )
    def test_strict_reader_names_the_line(self, edit, error, line):
        # Each of these restored without error under the keyed reader; a
        # dropped block came back as a fresh process.
        game, _ = scenarios.coordination_ce()
        lines = (GOLDEN / "monitor_snapshot_v2.txt").read_text().splitlines()
        with pytest.raises(error, match=f"^line {line}: "):
            EquilibriumMonitor.from_snapshot(game, "\n".join(edit(lines)) + "\n")

    @settings(max_examples=60, deadline=None)
    @given(
        procedure=st.sampled_from(["fwer", "fdr"]),
        grid=st.booleans(),
        conditional_ce=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        split=st.integers(0, 40),
    )
    def test_restore_at_any_round_resumes_bit_for_bit(
        self, procedure, grid, conditional_ce, seed, split
    ):
        game, _ = scenarios.coordination_ce()
        config = MonitorConfig(
            alpha=0.2,
            mixture=HALF_ONE_GRID if grid else BettingMixture.dirac(0.5),
            mode=EquilibriumMode.CE if conditional_ce else EquilibriumMode.NASH,
            conditional_ce=conditional_ce,
            procedure=procedure,
        )
        stream = anti_coordination_stream(40, seed)

        def step(monitor, profile):
            if procedure == "fwer":
                return monitor.step_fwer(profile)
            return monitor.step_fdr(profile)

        monitor = EquilibriumMonitor(game, config)
        for profile in stream[:split]:
            if monitor.rejection.stopped:
                break
            step(monitor, profile)
        text = monitor.to_snapshot()
        restored = EquilibriumMonitor.from_snapshot(game, text)
        assert restored.to_snapshot() == text
        for profile in stream[split:]:
            if monitor.rejection.stopped:
                break
            assert step(monitor, profile) == step(restored, profile)
        for name in ("log_wealth", "log_max", "updates"):
            assert getattr(monitor, name).tobytes() == getattr(restored, name).tobytes()
        assert (monitor.round, monitor.rejection) == (restored.round, restored.rejection)
        assert monitor.threshold_crossings == restored.threshold_crossings
        assert monitor.to_snapshot() == restored.to_snapshot()

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["monitor_snapshot_v1.txt", "monitor_snapshot_v2.txt"]),
        edit=st.sampled_from(["delete", "duplicate", "insert"]),
        data=st.data(),
    )
    def test_one_line_corruption_never_restores(self, name, edit, data):
        game, _ = scenarios.coordination_ce()
        lines = (GOLDEN / name).read_text().splitlines()
        i = data.draw(st.integers(0, len(lines) - (edit != "insert")), label="line")
        if edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, lines[i])
        else:
            known = {line.split()[0] for line in lines}
            key = data.draw(
                st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=16).filter(
                    lambda k: k not in known
                ),
                label="key",
            )
            value = data.draw(st.sampled_from(["7", "-1", "0.5", "inf", "x"]), label="value")
            lines.insert(i, f"{key} {value}")
        with pytest.raises((DomainError, ShapeError)):
            EquilibriumMonitor.from_snapshot(game, "\n".join(lines) + "\n")


def ebh_snapshot_at_round_3():
    """A v2 snapshot of a 4-hypothesis e-BH monitor at round 3, checked to
    restore as written."""
    game = scenarios.constant_gap_game(0.3)
    monitor = EquilibriumMonitor(game, dirac_config(lam=1 / 3, procedure="fdr"))
    for _ in range(3):
        monitor.step_fdr(ActionProfile((0, 0)))
    text = monitor.to_snapshot()
    EquilibriumMonitor.from_snapshot(game, text)
    return game, text


class TestLongStreams:
    """Log-space readouts: no stream length overflows a monitor."""

    ROUNDS = 100_000

    def test_fdr_constant_gap_runs_long(self):
        game = scenarios.constant_gap_game(0.3)
        mixture = BettingMixture.uniform_grid()
        monitor = EquilibriumMonitor(
            game, MonitorConfig(alpha=0.05, mixture=mixture, procedure="fdr")
        )
        profile = ActionProfile((0, 0))
        for _ in range(self.ROUNDS):
            state = monitor.step_fdr(profile)
        gap = HypothesisId(0, 1)
        assert state.k == 1 and list(state.rejected) == [gap]
        assert monitor.wealth()[gap] == math.inf
        j = monitor.hypotheses.index(gap)
        per_fraction = self.ROUNDS * np.log1p(0.3 * mixture.lambdas)
        shift = per_fraction.max()
        expected = shift + np.log(np.exp(per_fraction - shift) @ mixture.weights)
        assert monitor.log_max[j] == pytest.approx(expected, rel=1e-9)

    def test_bare_eprocess_state_runs_long(self):
        from eqsentinel import EProcessState

        state = EProcessState(BettingMixture.uniform_grid(), threshold=80.0)
        for _ in range(self.ROUNDS):
            state.update(-0.3)
        assert state.value() == math.inf
        assert 0.0 < state.log_value() == state.log_max < math.inf
        assert state.crossing_time is not None

    def test_lr_monitor_runs_long(self):
        from eqsentinel import LRMonitorState, Policy, lr_step

        null = Policy(np.array([[0.5, 0.5]]))
        alt = Policy(np.array([[0.99, 0.01]]))
        state = LRMonitorState.fresh((alt, null))
        for _ in range(5_000):
            lr_step(state, 0, 0, null, 20.0)
        assert state.value() == math.inf
        assert state.log_max == state.log_value() == pytest.approx(
            5_000 * math.log(1.98) + math.log(0.5), rel=1e-9
        )
        assert state.crossing_time == math.ceil(math.log(40.0) / math.log(1.98))


def conditional_replay(tables, hypotheses, flat, counts):
    """Replay increments, zeroed where a conditional hypothesis sleeps."""
    incr = tables[:, flat]
    own = np.unravel_index(flat, counts)
    for j, h in enumerate(hypotheses):
        if h.condition is not None:
            incr[j, own[h.player] != h.condition] = 0.0
    return incr


class TestObjectMatchesReplay:
    def test_one_round_is_the_scalar_recursion_bit_for_bit(self):
        # The block step keeps the per-hypothesis arithmetic of the scalar
        # path, EProcessState.update, for every hypothesis and profile.
        rng = np.random.default_rng(12)
        mixture = BettingMixture.uniform_grid(7, 1.0 / 1.2)
        for counts in [(2, 3), (3, 2, 2)]:
            game = NormalFormGame(rng.random((len(counts), *counts)))
            config = MonitorConfig(
                alpha=0.1, mixture=mixture, mode=EquilibriumMode.EPS_APPROX, eps=0.2
            )
            for actions in np.ndindex(*counts):
                monitor = EquilibriumMonitor(game, config)
                monitor.step_fwer(ActionProfile(actions))
                for j, h in enumerate(monitor.hypotheses):
                    x = increment(game, ActionProfile(actions), h.player, h.deviation, 0.2)
                    expected = EProcessState(mixture).update(x).log_wealth
                    np.testing.assert_array_equal(monitor.log_wealth[j], expected)

    @pytest.mark.parametrize(
        "mixture",
        [BettingMixture.dirac(0.1), BettingMixture.uniform_grid(101)],
        ids=["dirac", "grid"],
    )
    def test_log_wealth_is_the_replay_bit_for_bit(self, two_signal, mixture):
        # The monitor steps the replay's log-factor table, so its
        # per-fraction log wealth is the replay's cumulative sum exactly.
        game, _, alternative = two_signal
        monitor = EquilibriumMonitor(
            game, MonitorConfig(alpha=0.05, mixture=mixture, procedure="fdr")
        )
        rng = np.random.default_rng(3)
        stream = [sample_profile(alternative, rng) for _ in range(3_000)]
        for profile in stream:
            monitor.step_fdr(profile)
        flat = np.array([np.ravel_multi_index(p.actions, game.action_counts) for p in stream])
        tables = nfstreams.increment_tables(game, monitor.hypotheses)
        block = nfstreams.log_factors(tables[:, flat], mixture)[:, None]  # one run
        replay = nfstreams._accumulate(block, None)[:, 0]
        np.testing.assert_array_equal(
            monitor.log_wealth, replay[:, -1].reshape(monitor.log_wealth.shape)
        )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_games(self, data):
        players = data.draw(st.integers(2, 3))
        counts = tuple(data.draw(st.integers(2, 3)) for _ in range(players))
        seed = data.draw(st.integers(0, 2**31 - 1))
        mode = data.draw(st.sampled_from(["nash", "conditional-ce", "eps"]))
        procedure = data.draw(st.sampled_from(["fwer", "fdr"]))
        horizon = data.draw(st.integers(1, 150))
        rng = np.random.default_rng(seed)
        game = NormalFormGame(rng.random((players, *counts)))
        eps = data.draw(st.floats(0.01, 0.3)) if mode == "eps" else 0.0
        upper = 1.0 / (1.0 + eps)
        if data.draw(st.booleans()):
            mixture = BettingMixture.dirac(data.draw(st.floats(0.05, 0.95)) * upper)
        else:
            mixture = BettingMixture.uniform_grid(data.draw(st.integers(2, 15)), upper)
        config = MonitorConfig(
            alpha=data.draw(st.floats(0.05, 0.5)),
            mixture=mixture,
            mode={"nash": EquilibriumMode.NASH, "conditional-ce": EquilibriumMode.CE,
                  "eps": EquilibriumMode.EPS_APPROX}[mode],
            eps=eps,
            procedure=procedure,
            conditional_ce=mode == "conditional-ce",
        )
        monitor = EquilibriumMonitor(game, config)
        # Skewed play, so that some deviations pay and the monitors move.
        joint = rng.dirichlet(np.full(int(np.prod(counts)), 0.3))
        flat = rng.choice(joint.size, p=joint, size=horizon)
        tables = nfstreams.increment_tables(game, monitor.hypotheses, eps)
        paths = nfstreams.log_wealth_paths(
            conditional_replay(tables, monitor.hypotheses, flat, counts), mixture
        )
        if procedure == "fwer":
            crossings = nfstreams.fwer_crossing_times(paths, monitor.threshold)
            hit = crossings[crossings > 0]
            expected = int(hit.min()) if hit.size else -1
        else:
            alarm, k, rejected = nfstreams.ebh_alarm(paths, config.alpha, monitor.weights)
            expected = (alarm, k, tuple(monitor.hypotheses[j] for j in rejected))
        got = -1 if procedure == "fwer" else (-1, 0, ())
        for t, i in enumerate(flat, start=1):
            profile = ActionProfile(tuple(int(a) for a in np.unravel_index(i, counts)))
            if procedure == "fwer":
                if monitor.step_fwer(profile).stopped:
                    got = t
                    break
            else:
                state = monitor.step_fdr(profile)
                if state.k:
                    rejected = tuple(sorted(state.rejected, key=monitor.hypotheses.index))
                    got = (t, state.k, rejected)
                    break
        assert got == expected
        log_values = np.log(np.array(list(monitor.wealth().values())))
        assert log_values == pytest.approx(paths[:, monitor.round - 1], rel=1e-9, abs=1e-9)
