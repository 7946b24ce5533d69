import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsentinel import (
    ActionProfile,
    EquilibriumMode,
    JointStrategy,
    NormalFormGame,
    deviation_gain,
    equilibrium_slack,
    sample_profile,
    two_player_game,
)
from eqsentinel.errors import DomainError, ShapeError
from eqsentinel.harness import scenarios

from _oracles import (
    TWO_SIGNAL_ALTERNATIVE,
    TWO_SIGNAL_NASH,
    TWO_SIGNAL_PAYOFFS,
    deviation_gain_reference,
    enumerate_deviation_gain,
    equilibrium_slack_reference,
    expected_payoff,
    frac_deviation_gain,
    sample_profile_reference,
)


@pytest.fixture(scope="module")
def game():
    return scenarios.two_signal_game()


@pytest.fixture(scope="module")
def nash():
    return scenarios.two_signal_nash()


@pytest.fixture(scope="module")
def alternative():
    return scenarios.two_signal_alternative()


class TestConstruction:
    def test_payoffs_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            two_player_game([[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            NormalFormGame(np.zeros((3, 2, 2)))

    def test_strategy_normalization_not_silently_fixed(self):
        with pytest.raises(DomainError):
            JointStrategy.product([0.6, 0.399999999])

    def test_full_strategy_must_match_joint_space(self, game):
        full = JointStrategy.full(np.full((2, 3), 1.0 / 6.0))
        with pytest.raises(ShapeError):
            expected_payoff(game, full, 0)

    def test_profile_bounds(self, game):
        with pytest.raises(ShapeError):
            ActionProfile((2, 0)).validate(game.action_counts)


class TestExpectedPayoff:
    def test_mixed_equilibrium_indifference_value(self, game, nash):
        assert expected_payoff(game, nash, 0) == pytest.approx(5.7 / 11, abs=1e-15)

    def test_point_mass_returns_pure_payoff(self, game):
        point = JointStrategy.product([0.0, 1.0], [1.0, 0.0])
        assert expected_payoff(game, point, 0) == pytest.approx(0.3)
        assert expected_payoff(game, point, 1) == pytest.approx(0.2)

    def test_constant_game(self):
        const = two_player_game(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        strat = JointStrategy.product([0.3, 0.7], [0.9, 0.1])
        assert expected_payoff(const, strat, 0) == pytest.approx(0.5)

    @given(
        w=st.floats(0.0, 1.0),
        p=st.floats(0.05, 0.95),
        q=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_each_marginal(self, game, w, p, q):
        other = [0.4, 0.6]
        mix = [w * p + (1 - w) * q, 1 - (w * p + (1 - w) * q)]
        blended = expected_payoff(game, JointStrategy.product(mix, other), 0)
        parts = w * expected_payoff(
            game, JointStrategy.product([p, 1 - p], other), 0
        ) + (1 - w) * expected_payoff(
            game, JointStrategy.product([q, 1 - q], other), 0
        )
        assert blended == pytest.approx(parts, abs=1e-12)


class TestDeviationGain:
    def test_alternative_profile_gains(self, game, alternative):
        assert deviation_gain(game, alternative, 0, 0) == pytest.approx(0.03225, abs=1e-15)
        assert deviation_gain(game, alternative, 1, 0) == pytest.approx(0.03325, abs=1e-15)

    def test_exact_fractions_match(self):
        g1 = frac_deviation_gain(TWO_SIGNAL_PAYOFFS, TWO_SIGNAL_ALTERNATIVE, 0, 0)
        g2 = frac_deviation_gain(TWO_SIGNAL_PAYOFFS, TWO_SIGNAL_ALTERNATIVE, 1, 0)
        assert (g1.numerator, g1.denominator) == (129, 4000)
        assert (g2.numerator, g2.denominator) == (133, 4000)

    def test_self_deviation_of_point_mass_is_zero(self, game):
        point = JointStrategy.product([1.0, 0.0], [0.0, 1.0])
        assert deviation_gain(game, point, 0, 0) == 0.0

    def test_nash_has_no_profitable_deviation(self, game, nash):
        for player in range(2):
            for dev in range(2):
                assert deviation_gain(game, nash, player, dev) <= 1e-12

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_oracle_on_random_games(self, data):
        num_players = data.draw(st.integers(2, 3))
        counts = [data.draw(st.integers(1, 3)) for _ in range(num_players)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        game = NormalFormGame(rng.random((num_players, *counts)))
        factors = []
        for c in counts:
            raw = rng.random(c) + 0.05
            factors.append(raw / raw.sum())
        strategy = JointStrategy.product(*factors)
        player = data.draw(st.integers(0, num_players - 1))
        dev = data.draw(st.integers(0, counts[player] - 1))
        expected = enumerate_deviation_gain(
            game.payoffs, strategy.joint_law(), player, dev
        )
        assert deviation_gain(game, strategy, player, dev) == pytest.approx(
            expected, abs=1e-12
        )


class TestEquilibriumSlack:
    def test_nash_certified(self, game, nash):
        assert equilibrium_slack(game, nash, EquilibriumMode.NASH) <= 1e-12

    def test_alternative_slack_is_max_gain(self, game, alternative):
        assert equilibrium_slack(game, alternative, EquilibriumMode.NASH) == pytest.approx(
            0.03325, abs=1e-15
        )

    def test_uniform_full_on_matching_pennies_is_cce(self):
        u1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        game = two_player_game(u1, 1.0 - u1)
        uniform = JointStrategy.full(np.full((2, 2), 0.25))
        assert equilibrium_slack(game, uniform, EquilibriumMode.CCE) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_correlated_coin_is_ce(self):
        game, joint = scenarios.coordination_ce()
        assert equilibrium_slack(game, joint, EquilibriumMode.CE) <= 1e-12
        lopsided = JointStrategy.full([[0.5, 0.25], [0.25, 0.0]])
        assert equilibrium_slack(game, lopsided, EquilibriumMode.CE) > 0.1

    def test_ce_skips_offsupport_recommendations(self):
        game, _ = scenarios.coordination_ce()
        point = JointStrategy.product([1.0, 0.0], [1.0, 0.0])
        # Only the played recommendation is conditioned on.
        assert equilibrium_slack(game, point, EquilibriumMode.CE) <= 0.0

    def test_slack_epsilon_relaxation(self, game, alternative):
        slack = equilibrium_slack(game, alternative, EquilibriumMode.NASH)
        for player in range(2):
            for dev in range(2):
                assert deviation_gain(game, alternative, player, dev) <= slack + 1e-15

    def test_eps_mode_rejected(self, game, nash):
        with pytest.raises(DomainError):
            equilibrium_slack(game, nash, EquilibriumMode.EPS_APPROX)


class TestGainsMatchReference:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_expectations_match_the_sum_formulas(self, data):
        # Slack and gains are expectations of the increment table; the
        # reference sums the played and the deviating payoff separately and
        # loops over recommendations for CE.
        num_players = data.draw(st.integers(2, 3))
        counts = tuple(data.draw(st.integers(1, 4)) for _ in range(num_players))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        game = NormalFormGame(rng.random((num_players, *counts)))
        if data.draw(st.booleans()):
            strategy = JointStrategy.product(*(rng.dirichlet(np.ones(c)) for c in counts))
        else:
            # Zeroed entries, and sometimes a whole recommendation of one
            # player, so that some conditional CE gains have no mass.
            keep = data.draw(st.sampled_from([0.3, 0.7]))
            law = rng.random(counts) * (rng.random(counts) < keep)
            player = data.draw(st.integers(0, num_players - 1))
            if data.draw(st.booleans()) and counts[player] > 1:
                np.moveaxis(law, player, 0)[0] = 0.0
            if law.sum() == 0.0:
                law[(-1,) * num_players] = 1.0
            strategy = JointStrategy.full(law / law.sum())
        for mode in (EquilibriumMode.NASH, EquilibriumMode.CCE, EquilibriumMode.CE):
            assert equilibrium_slack(game, strategy, mode) == pytest.approx(
                equilibrium_slack_reference(game, strategy, mode), abs=1e-14
            )
        for player in range(num_players):
            for dev in range(counts[player]):
                assert deviation_gain(game, strategy, player, dev) == pytest.approx(
                    deviation_gain_reference(game, strategy, player, dev), abs=1e-14
                )


def _dirichlet_strategy(seed: int) -> JointStrategy:
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=rng.integers(1, 4))
    if seed % 2:
        return JointStrategy.product(*(rng.dirichlet(np.ones(k)) for k in counts))
    return JointStrategy.full(rng.dirichlet(np.ones(counts.prod())).reshape(counts))


CHOICE_STRATEGIES = {
    "two-signal-nash": scenarios.two_signal_nash(),
    "two-signal-alternative": scenarios.two_signal_alternative(),
    **{
        f"sensitivity-{eta}": scenarios.sensitivity_profile(eta)
        for eta in scenarios.SENSITIVITY_ROWS
    },
    "coordination-ce": scenarios.coordination_ce()[1],
    **{f"dirichlet-{seed}": _dirichlet_strategy(seed) for seed in range(20)},
}


class TestSampling:
    def test_point_mass(self, game, rng):
        point = JointStrategy.product([0.0, 1.0], [1.0, 0.0])
        for _ in range(5):
            assert sample_profile(point, rng).actions == (1, 0)

    def test_seed_determinism(self, nash):
        draws = lambda: [
            sample_profile(nash, np.random.default_rng(7)).actions for _ in range(20)
        ]
        assert draws() == draws()

    def test_law_of_large_numbers(self):
        strat = JointStrategy.product([0.5, 0.5], [0.5, 0.5])
        rng = np.random.default_rng(0)
        counts = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            a = sample_profile(strat, rng).actions
            counts[a] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.01)

    def test_full_strategy_sampling(self, rng):
        joint = JointStrategy.full([[0.7, 0.0], [0.0, 0.3]])
        seen = {sample_profile(joint, rng).actions for _ in range(200)}
        assert seen == {(0, 0), (1, 1)}

    @pytest.mark.parametrize("name", sorted(CHOICE_STRATEGIES))
    def test_draw_rule_equals_generator_choice(self, name):
        # The cut rule against the Generator.choice draws it replaced, on the
        # same stream: 10,000 draws at a fixed seed per strategy.
        strategy, seed = CHOICE_STRATEGIES[name], list(CHOICE_STRATEGIES).index(name)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10_000):
            assert sample_profile(strategy, ours) == sample_profile_reference(strategy, theirs)
