"""Input validation shared across modules: the one probability-vector check
behind every strategy, policy, weight vector, kernel and chain, and scalar
domain checks that must reject NaN."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqsentinel.envs.prey import PreyState
from eqsentinel.eprocess import (
    BettingMixture,
    EProcessState,
    detection_bound_uniform,
    slack_lower_bound,
)
from eqsentinel.errors import PROB_TOL, DomainError, ShapeError
from eqsentinel.games import ActionProfile, EquilibriumMode, JointStrategy, two_player_game
from eqsentinel.monitors import MonitorConfig, increment
from eqsentinel.stochastic import (
    ROW_TOL,
    LRMonitorState,
    Policy,
    SolverConfig,
    StochasticGameModel,
    chi_square_div,
    exploitability,
    lr_detection_bound,
    matrix_game_solve,
    stationary_distribution,
)


def _uniform(k):
    return np.full(k, 1.0 / k)


def _model(v):
    transition = np.tile(_uniform(v.size), (v.size, 1, 1, 1))
    transition[0, 0, 0] = v
    return StochasticGameModel(np.zeros((2, v.size, 1, 1)), transition, discount=0.5)


def _chain(v):
    # State 0 is transient: no other row leads to it.
    chain = np.zeros((v.size, v.size))
    chain[1:, 1:] = 1.0 / (v.size - 1)
    chain[0] = v
    return stationary_distribution(chain)


def _recurrent_chain(v):
    # Every entry is positive, so state 0 is recurrent and its row's sum,
    # off by up to the tolerance, enters the solve.
    chain = np.tile(_uniform(v.size), (v.size, 1))
    chain[0] = v
    return stationary_distribution(chain)


#: Each entry point that takes a probability vector: how to hand it ``v``, and
#: the tolerance on its sum.
ENTRY_POINTS = {
    "joint-product": (lambda v: JointStrategy.product(v, _uniform(2)), PROB_TOL),
    # Two half rows: the whole table, not each row, sums to 1.
    "joint-full": (lambda v: JointStrategy.full(np.vstack([v, v]) / 2.0), PROB_TOL),
    "policy": (lambda v: Policy(np.vstack([_uniform(v.size), v])), PROB_TOL),
    "betting-mixture": (
        lambda v: BettingMixture("grid", (np.arange(v.size) + 0.5) / v.size, v),
        PROB_TOL,
    ),
    "monitor-weights": (
        lambda v: MonitorConfig(alpha=0.1, mixture=BettingMixture.dirac(0.5), weights=v),
        PROB_TOL,
    ),
    "lr-prior": (
        lambda v: LRMonitorState.fresh([Policy(np.full((1, 2), 0.5))] * v.size, v),
        PROB_TOL,
    ),
    "chi-square-q": (lambda v: chi_square_div(v, _uniform(v.size)), ROW_TOL),
    "chi-square-p": (lambda v: chi_square_div(_uniform(v.size), v), ROW_TOL),
    "model-transition": (_model, ROW_TOL),
    "chain": (_chain, ROW_TOL),
    "chain-recurrent": (_recurrent_chain, ROW_TOL),
}

FAULTS = {
    "nan": lambda v, i, tol: math.nan,
    "inf": lambda v, i, tol: math.inf,
    "-inf": lambda v, i, tol: -math.inf,
    "negative": lambda v, i, tol: -v[i],
    "sum-over": lambda v, i, tol: v[i] + 2.0 * tol,
    "sum-under": lambda v, i, tol: v[i] - 2.0 * tol,
}

vectors = st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5).map(
    lambda w: np.array(w) / sum(w)
)


class TestOneDistributionCheck:
    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @given(v=vectors, index=st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_malformed_vector_raises_domain_error(self, entry, fault, v, index):
        call, tol = ENTRY_POINTS[entry]
        i = index % v.size
        v[i] = FAULTS[fault](v, i, tol)
        with pytest.raises(DomainError):
            call(v)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @given(v=vectors, index=st.integers(0, 4), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=15, deadline=None)
    def test_sum_within_tolerance_accepted(self, entry, v, index, sign):
        call, tol = ENTRY_POINTS[entry]
        v[index % v.size] += sign * tol / 2.0
        call(v)


class TestScalarDomainsRejectNan:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: BettingMixture("grid", [math.nan, 0.75], [0.5, 0.5]),
            lambda: BettingMixture.dirac(math.nan),
            lambda: BettingMixture.uniform_grid(math.nan),
            lambda: EProcessState(BettingMixture.dirac(0.5), threshold=math.nan),
            lambda: SolverConfig(tolerance=math.nan),
            lambda: detection_bound_uniform(math.nan, 0.1),
            lambda: slack_lower_bound(math.nan, 0.5, 0.1),
            lambda: slack_lower_bound(20, 0.5, math.nan),
            lambda: lr_detection_bound(math.nan, 0.0, 0.1),
            lambda: lr_detection_bound(20, math.nan, 0.1),
            lambda: lr_detection_bound(20, 0.0, math.nan),
            lambda: MonitorConfig(
                alpha=0.1,
                mixture=BettingMixture.dirac(0.5),
                mode=EquilibriumMode.EPS_APPROX,
                eps=math.nan,
            ),
            lambda: increment(
                two_player_game(np.eye(2), np.eye(2)), ActionProfile((0, 0)), 0, 1, math.nan
            ),
            lambda: PreyState(((0, 0), (0, 1), (0, 2)), (5, 5), horizon=math.nan),
        ],
        ids=[
            "mixture-fraction", "dirac-fraction", "grid-nodes", "eprocess-threshold",
            "solver-tolerance", "detection-bound-threshold", "slack-bound-threshold",
            "slack-bound-eta", "lr-bound-threshold", "lr-bound-overshoot", "lr-bound-kl",
            "eps-approx-eps", "increment-shift", "prey-horizon",
        ],
    )
    def test_nan_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestMatrixGameRange:
    """A payoff range past the largest float has no finite span to normalise
    the tableau by; it is rejected up front unless a saddle point answers."""

    def test_overflowing_range_raises_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="payoff range"):
                matrix_game_solve([[1e308, -1e308], [-1e308, 1e308]])

    def test_saddle_point_of_a_huge_range_is_read_off(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = matrix_game_solve([[1e308, -1e308], [1e308, 1e308]])
        assert sol.value == 1e308
        assert sol.row_strategy.tolist() == [0.0, 1.0]
        assert sol.col_strategy.tolist() == [1.0, 0.0]


class TestExploitabilityShapes:
    @pytest.mark.parametrize(
        "payoff, row, col",
        [
            ([1.0, 0.0], [1.0], [0.5, 0.5]),
            (np.ones((2, 2, 2)), [0.5, 0.5], [0.5, 0.5]),
            (np.eye(2), [0.5, 0.25, 0.25], [0.5, 0.5]),
            (np.eye(2), [0.5, 0.5], [1.0]),
            (np.ones((2, 3)), [1 / 3] * 3, [0.5, 0.5]),
            (np.eye(2), [[0.5, 0.5]], [0.5, 0.5]),
        ],
        ids=["vector-payoff", "3d-payoff", "long-row", "short-col", "swapped", "2d-row"],
    )
    def test_mismatch_raises_shape_error(self, payoff, row, col):
        with pytest.raises(ShapeError, match="strategies"):
            exploitability(payoff, row, col, 0.5)
