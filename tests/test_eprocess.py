import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsentinel import (
    ActionProfile,
    BettingMixture,
    EProcessState,
    EquilibriumMonitor,
    MonitorConfig,
    detection_bound_uniform,
    exact_uniform_mixture,
    slack_lower_bound,
    two_player_game,
)
from eqsentinel.errors import CapacityError, DomainError, ShapeError
from eqsentinel.monitors import increment


class TestIncrement:
    def test_played_worse_than_deviation(self, two_signal):
        game, _, _ = two_signal
        assert increment(game, ActionProfile((1, 0)), 0, 0) == pytest.approx(-0.6)

    def test_played_better_than_deviation(self, two_signal):
        game, _, _ = two_signal
        assert increment(game, ActionProfile((1, 1)), 0, 0) == pytest.approx(0.5)

    def test_self_deviation_returns_shift(self, two_signal):
        game, _, _ = two_signal
        assert increment(game, ActionProfile((1, 1)), 0, 1, eps_shift=0.25) == 0.25

    def test_bad_indices(self, two_signal):
        game, _, _ = two_signal
        with pytest.raises(ShapeError):
            increment(game, ActionProfile((1, 1)), 0, 5)
        with pytest.raises(ShapeError):
            increment(game, ActionProfile((1, 2)), 0, 0)


def one_round_value(x: float, lam: float) -> float:
    """Wealth after one round of a single fixed-fraction bet: 1 - lam * x."""
    return EProcessState(BettingMixture.dirac(lam)).update(x).value()


class TestEvalue:
    @pytest.mark.parametrize(
        "x, lam, expected",
        [(-0.6, 0.1, 1.06), (0.0, 0.7, 1.0), (1.0, 1.0, 0.0)],
    )
    def test_formula(self, x, lam, expected):
        assert one_round_value(x, lam) == pytest.approx(expected)

    def test_lambda_domain(self):
        with pytest.raises(DomainError):
            BettingMixture.dirac(0.0)
        with pytest.raises(DomainError):
            BettingMixture.dirac(1.5)

    @given(x=st.floats(-1.0, 1.0), lam=st.floats(0.001, 1.0))
    @settings(max_examples=200)
    def test_nonnegative(self, x, lam):
        assert one_round_value(x, lam) >= 0.0


class TestMixtureConstruction:
    def test_grid_excludes_endpoints(self):
        grid = BettingMixture.uniform_grid(101)
        assert 0.0 < grid.lambdas[0] and grid.lambdas[-1] < 1.0
        assert grid.weights.sum() == pytest.approx(1.0)

    def test_dirac_at_one_allowed(self):
        assert BettingMixture.dirac(1.0).lambdas[0] == 1.0

    def test_invalid_fractions(self):
        with pytest.raises(DomainError):
            BettingMixture.dirac(0.0)
        with pytest.raises(DomainError):
            BettingMixture("grid", np.array([0.5, 0.25]), np.array([0.5, 0.5]))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            BettingMixture("grid", np.array([0.2, 0.4]), np.array([0.5, 0.6]))


class TestStateUpdates:
    def test_fresh_state_value_is_one(self):
        st_ = EProcessState(BettingMixture.uniform_grid(11))
        assert st_.value() == 1.0
        assert st_.round == 0

    def test_single_factor(self):
        st_ = EProcessState(BettingMixture.dirac(0.05))
        st_.update(-0.6)
        assert st_.value() == pytest.approx(1.03)

    def test_zero_stream_pins_wealth(self):
        st_ = EProcessState(BettingMixture.uniform_grid(7))
        for _ in range(50):
            st_.update(0.0)
        assert st_.value() == pytest.approx(1.0)
        assert st_.log_max == pytest.approx(0.0)

    def test_grid_matches_exact_integral(self):
        st_ = EProcessState(BettingMixture.uniform_grid(1001))
        st_.update(-1.0)
        st_.update(-1.0)
        assert st_.value() == pytest.approx(7.0 / 3.0, rel=1e-3)

    def test_single_negative_one(self):
        st_ = EProcessState(BettingMixture.uniform_grid(101))
        st_.update(-1.0)
        assert st_.value() == pytest.approx(1.5, rel=1e-6)

    def test_dead_flag_on_exact_zero(self):
        st_ = EProcessState(BettingMixture.dirac(1.0))
        st_.update(1.0)
        assert st_.dead.all()
        assert st_.value() == 0.0
        st_.update(-1.0)  # dead components stay dead
        assert st_.value() == 0.0

    def test_nan_increment_rejected_before_any_write(self):
        st_ = EProcessState(BettingMixture.uniform_grid(5))
        with pytest.raises(DomainError):
            st_.update(float("nan"))
        assert st_.round == 0 and (st_.log_wealth == 0.0).all()

    @pytest.mark.parametrize("x", [-math.inf, math.inf, math.nan])
    def test_non_finite_increment_rejected_before_any_write(self, x):
        st_ = EProcessState(BettingMixture.uniform_grid(11), threshold=20)
        with pytest.raises(DomainError, match="finite"):
            st_.update(x)
        assert st_.round == 0 and (st_.log_wealth == 0.0).all()
        assert st_.value() == 1.0 and st_.crossing_time is None

    def test_grid_mismatch_rejected(self):
        # A stored state whose grid differs from its mixture cannot be loaded.
        game = two_player_game(np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        config = MonitorConfig(alpha=0.2, mixture=BettingMixture.uniform_grid(11))
        text = EquilibriumMonitor(game, config).to_snapshot()
        text = text.replace("logw 0.0 ", "logw 0.0 0.0 ", 1)
        with pytest.raises(ShapeError):
            EquilibriumMonitor.from_snapshot(game, text)

    def test_crossing_time_recorded_once(self):
        st_ = EProcessState(BettingMixture.dirac(0.5), threshold=2.0)
        for _ in range(10):
            st_.update(-1.0)
        assert st_.crossing_time == math.ceil(math.log(2.0) / math.log(1.5))

    @given(
        xs=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=30),
        nodes=st.sampled_from([1, 5, 51]),
    )
    @settings(max_examples=60, deadline=None)
    def test_running_max_replays_prefix_maximum(self, xs, nodes):
        mixture = BettingMixture.uniform_grid(nodes)
        state = EProcessState(mixture)
        prefix_values = [1.0]
        for x in xs:
            state.update(x)
            prefix_values.append(state.value())
        assert np.exp(state.log_max) == pytest.approx(max(prefix_values), rel=1e-12)
        assert state.round == len(xs)
        assert np.isfinite(state.log_wealth[~state.dead]).all()


class TestExactUniformMixture:
    @pytest.mark.parametrize(
        "xs, expected",
        [((), 1.0), ((-1.0,), 1.5), ((-1.0, -1.0), 7.0 / 3.0)],
    )
    def test_known_integrals(self, xs, expected):
        assert exact_uniform_mixture(xs) == pytest.approx(expected, abs=1e-12)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            exact_uniform_mixture([0.0] * 65)

    def test_quadrature_agreement_on_random_streams(self):
        rng = np.random.default_rng(99)
        mixture = BettingMixture.uniform_grid(1001)
        for _ in range(30):
            xs = rng.uniform(-0.9, 0.9, size=rng.integers(1, 21))
            state = EProcessState(mixture)
            for x in xs:
                state.update(x)
            exact = exact_uniform_mixture(xs)
            assert state.value() == pytest.approx(exact, rel=1e-3)


class TestClosedForms:
    def test_optimal_lambda_is_identity_on_slack(self):
        # Against the worst-case increments, +-1 with mean -eta, the growth
        # rate E log(1 - lam * x) peaks at lam = eta.
        lams = np.linspace(0.001, 0.999, 999)
        for eta in (0.1, 0.05, 0.5):
            growth = (1 + eta) / 2 * np.log(1 - lams * -1.0) + (1 - eta) / 2 * np.log(
                1 - lams * 1.0
            )
            assert lams[np.argmax(growth)] == pytest.approx(eta, abs=1e-3)
        with pytest.raises(DomainError):
            BettingMixture.dirac(0.0)
        with pytest.raises(DomainError):
            BettingMixture.dirac(1.2)

    def test_detection_bound_values(self):
        assert detection_bound_uniform(20, 0.1) == pytest.approx(8508.2, abs=0.15)
        expected = 12.0 * (1.0 + math.log(4.0) + math.log(1.5))
        assert detection_bound_uniform(math.e, 1.0) == pytest.approx(expected)

    def test_detection_bound_log_linearity_in_threshold(self):
        eta = 0.3
        delta = detection_bound_uniform(40, eta) - detection_bound_uniform(20, eta)
        assert delta == pytest.approx(12.0 * math.log(2.0) / eta**2)

    def test_detection_bound_domain(self):
        with pytest.raises(DomainError):
            detection_bound_uniform(1.0, 0.1)
        with pytest.raises(DomainError):
            detection_bound_uniform(20, 0.0)

    def test_slack_lower_bound_values(self):
        assert slack_lower_bound(20, 0.05, 0.05) == 1200
        assert slack_lower_bound(1.0000001, 0.5, 0.5) == 1

    def test_slack_lower_bound_small_gap_scaling(self):
        coarse = slack_lower_bound(20, 0.01, 0.02)
        fine = slack_lower_bound(20, 0.01, 0.01)
        assert fine / coarse == pytest.approx(2.0, rel=1e-3)


class TestSupermartingaleProperty:
    @pytest.mark.parametrize(
        "values, probs",
        [
            ((-1.0, 1.0), (0.5, 0.5)),  # mean zero, extreme support
            ((-0.6, 0.0, 0.5), (10 / 77, 5 / 7, 12 / 77)),  # equilibrium increments
            ((-0.2, 0.4), (0.5, 0.5)),  # strictly positive mean
        ],
    )
    def test_monte_carlo_mean_not_above_one(self, values, probs):
        # Mean of the mixture wealth under any null stream stays <= 1 + 3 SE.
        rng = np.random.default_rng(2024)
        seeds, horizon = 10_000, 30
        lam = BettingMixture.uniform_grid(31)
        draws = rng.choice(values, p=probs, size=(seeds, horizon))
        logw = np.cumsum(
            np.log1p(-draws[:, :, None] * lam.lambdas), axis=1
        )
        shift = logw[:, -1, :].max(axis=1)
        wealth = np.exp(shift) * np.sum(
            lam.weights * np.exp(logw[:, -1, :] - shift[:, None]), axis=1
        )
        se = wealth.std(ddof=1) / math.sqrt(seeds)
        assert wealth.mean() <= 1.0 + 3.0 * se


class TestLogMix:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_reduction_test_bit_for_bit(self, data):
        # The dead-row test is a Python ``in``; the readout it guards must be
        # the one the ``shift.min() == -inf`` test gave, bit for bit.
        from eqsentinel.eprocess import _log_mix

        shape = data.draw(st.sampled_from([(5,), (1,), (4, 101), (3, 5), (4, 1)]))
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        log_wealth = rng.normal(scale=30.0, size=shape)
        dead = rng.random(shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        log_wealth[dead] = -np.inf
        weights = rng.dirichlet(np.ones(shape[-1]))

        shift = log_wealth.max(axis=-1)
        safe = np.where(shift == -np.inf, 0.0, shift) if shift.min() == -np.inf else shift
        with np.errstate(divide="ignore"):
            expected = safe + np.log((weights * np.exp(log_wealth - safe[..., None])).sum(axis=-1))
        got = _log_mix(log_wealth, weights)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)
