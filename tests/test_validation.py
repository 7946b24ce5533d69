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
from eqsentinel.errors import PROB_TOL, ConfigError, DomainError, ShapeError
from eqsentinel.games import (
    ActionProfile,
    EquilibriumMode,
    JointStrategy,
    NormalFormGame,
    two_player_game,
)
from eqsentinel.harness.config import parse_kv_text
from eqsentinel.harness.csvio import CSV_VERSION, read_csv
from eqsentinel.monitors import SNAPSHOT_HEADER, EquilibriumMonitor, MonitorConfig, increment
from eqsentinel.stochastic import (
    POLICY_HEADER,
    ROW_TOL,
    LRMonitorState,
    Policy,
    SolverConfig,
    StochasticGameModel,
    chi_square_div,
    exploitability,
    matrix_game_solve,
    policy_from_text,
    stationary_distribution,
)

from _oracles import lr_detection_bound

GAME = two_player_game(np.eye(2), np.eye(2))


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
        lambda v: MonitorConfig(
            alpha=0.1, mixture=BettingMixture.dirac(0.5), procedure="fdr", weights=v
        ),
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


#: Each state that takes a supplied log-wealth vector, of three entries.
LOG_WEALTH_ENTRY_POINTS = {
    "eprocess-state": lambda v: EProcessState(BettingMixture.uniform_grid(3), log_wealth=v),
    "lr-monitor-state": lambda v: LRMonitorState((Policy(np.full((1, 2), 0.5)),) * 3, log_lr=v),
}

#: Faults of a log-wealth vector and the error each raises; -inf is a dead
#: component, not a fault.
LOG_WEALTH_FAULTS = {
    "short": (lambda v: v[:1], ShapeError),
    "long": (lambda v: np.zeros(4), ShapeError),
    "matrix": (lambda v: v[None, :], ShapeError),
    "nan": (lambda v: np.where(v == 0.5, math.nan, v), DomainError),
    "inf": (lambda v: np.where(v == 0.5, math.inf, v), DomainError),
}


class TestLogWealthCheck:
    @pytest.mark.parametrize("fault", list(LOG_WEALTH_FAULTS))
    @pytest.mark.parametrize("entry", list(LOG_WEALTH_ENTRY_POINTS))
    def test_malformed_log_wealth_raises(self, entry, fault):
        make, error = LOG_WEALTH_FAULTS[fault]
        with pytest.raises(error):
            LOG_WEALTH_ENTRY_POINTS[entry](make(np.array([-math.inf, 0.5, -2.0])))

    @pytest.mark.parametrize("entry", list(LOG_WEALTH_ENTRY_POINTS))
    def test_dead_component_is_read_out(self, entry):
        state = LOG_WEALTH_ENTRY_POINTS[entry]([-math.inf, 0.5, -2.0])
        assert state.value() == pytest.approx((math.exp(0.5) + math.exp(-2.0)) / 3.0)


class TestEmptyInputs:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Policy(np.empty((0, 3))),
            lambda: JointStrategy.product([0.5, 0.5], []),
            lambda: MonitorConfig(
                alpha=0.1, mixture=BettingMixture.dirac(0.5), procedure="fdr", weights=[]
            ),
            lambda: stationary_distribution(np.empty((0, 0))),
            lambda: chi_square_div([], []),
            lambda: BettingMixture("grid", [], []),
            lambda: NormalFormGame(np.zeros((2, 0, 2))),
            lambda: StochasticGameModel(np.zeros((2, 0, 1, 1)), np.zeros((0, 1, 1, 0)), 0.5),
        ],
        ids=["policy", "joint-product", "monitor-weights", "chain", "chi-square",
             "betting-mixture", "game", "model"],
    )
    def test_empty_input_raises_shape_error(self, call):
        with pytest.raises(ShapeError):
            call()


class TestEmptyText:
    """Every text reader refuses empty text and a header with nothing after
    it, with the package's own errors."""

    @pytest.mark.parametrize(
        "read, header",
        [
            (lambda text: EquilibriumMonitor.from_snapshot(GAME, text), SNAPSHOT_HEADER),
            (policy_from_text, POLICY_HEADER),
            (parse_kv_text, "# experiment config"),
            (read_csv, f"# {CSV_VERSION} schema=runs"),
        ],
        ids=["snapshot", "policy", "config", "csv"],
    )
    @pytest.mark.parametrize("header_only", [False, True], ids=["empty", "header-only"])
    def test_rejected(self, read, header, header_only, tmp_path):
        text = header + "\n" if header_only else ""
        if read is read_csv:  # reads a file
            (tmp_path / "runs.csv").write_text(text)
            text = tmp_path / "runs.csv"
        with pytest.raises((DomainError, ShapeError, ConfigError), match="line"):
            read(text)


def test_csv_that_is_not_utf8_rejected(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_bytes(f"# {CSV_VERSION} schema=runs\nrun,tau\n0,\xff\n".encode("latin-1"))
    with pytest.raises(DomainError) as caught:
        read_csv(path)
    assert str(caught.value) == f"{path}: line 3 is not UTF-8 text"


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
