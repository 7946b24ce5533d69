import dataclasses
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from eqsentinel import (
    LRMonitorState,
    Policy,
    SolverConfig,
    StochasticGameModel,
    chi_square_div,
    exploitability,
    kl_quadratic_check,
    lr_step,
    matrix_game_solve,
    mixture_policy,
    smooth_policy,
    stationary_distribution,
    stochastic,
)
from eqsentinel.envs import prey, trace
from eqsentinel.errors import DomainError, ErgodicityError, ShapeError
from eqsentinel.harness.experiments import SoccerSolveConfig, _soccer_tables
from eqsentinel.stochastic import (
    MatrixGameSolution,
    kl_divergence,
    log_likelihood_ratios,
    policy_from_text,
    policy_to_text,
    shapley_solve_arrays,
)

from _oracles import (
    best_response_gap,
    lr_detection_bound,
    matrix_game_solve_lp_reference,
    matrix_game_solve_reference,
    overshoot_constant,
    shapley_solve_reference,
    shapley_sweep_reference,
    state_avg_kl,
    stationary_distribution_reference,
    tableau_solve_reference,
    unique_equilibrium_reference,
)


def uniform_policy(states, actions):
    return Policy(np.full((states, actions), 1.0 / actions))


def ratios(null: Policy, alt: Policy) -> np.ndarray:
    """The builder's (S, A) log-ratio table for one alternative."""
    return log_likelihood_ratios(null.table, alt.table[..., None])[..., 0]


def one_step_value(null: Policy, alt: Policy, state: int, action: int) -> float:
    monitor = LRMonitorState.fresh((alt,))
    lr_step(monitor, state, action, null, 20.0)
    return monitor.value()


class TestLrEvalue:
    """The per-round likelihood ratio, read from the log-ratio builder and
    from one step of the monitor."""

    def test_ratio(self):
        null = uniform_policy(1, 5)
        alt = Policy(np.array([[0.3409, 0.1879, 0.1879, 0.1879, 0.0954]]))
        assert math.exp(ratios(null, alt)[0, 0]) == pytest.approx(1.7045)
        assert one_step_value(null, alt, 0, 0) == pytest.approx(1.7045)

    def test_identity_alternative(self):
        null = uniform_policy(3, 4)
        assert np.all(ratios(null, null) == 0.0)
        for s in range(3):
            for a in range(4):
                assert one_step_value(null, null, s, a) == 1.0

    def test_zero_alternative_mass(self):
        null = uniform_policy(1, 2)
        alt = Policy(np.array([[1.0, 0.0]]))
        assert ratios(null, alt)[0, 1] == -math.inf
        assert one_step_value(null, alt, 0, 1) == 0.0

    def test_support_violation(self):
        # The alternative plays an action the null excludes: the observation
        # is impossible under the null and kills the component.
        null = Policy(np.array([[1.0, 0.0]]))
        alt = Policy(np.array([[0.5, 0.5]]))
        assert ratios(null, alt)[0, 1] == -math.inf
        assert one_step_value(null, alt, 0, 1) == 0.0

    def test_undefined_action(self):
        # Neither policy plays the action: the ratio is 0/0, read as dead,
        # without a floating-point warning.
        null = Policy(np.array([[1.0, 0.0]]))
        alt = Policy(np.array([[1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ratios(null, alt)[0, 1] == -math.inf
            assert one_step_value(null, alt, 0, 1) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_normalization_identity(self, seed):
        # Expected ratio under the null is exactly 1 at every state.
        rng = np.random.default_rng(seed)
        null = Policy((lambda t: t / t.sum(1, keepdims=True))(rng.random((3, 4)) + 0.05))
        alt = Policy((lambda t: t / t.sum(1, keepdims=True))(rng.random((3, 4)) + 0.05))
        totals = np.sum(null.table * np.exp(ratios(null, alt)), axis=1)
        assert totals == pytest.approx(np.ones(3), abs=1e-12)


class TestLrMonitor:
    def test_identity_alternative_stays_at_one(self):
        null = uniform_policy(2, 3)
        state = LRMonitorState.fresh((null,))
        rng = np.random.default_rng(3)
        for _ in range(100):
            lr_step(state, int(rng.integers(2)), int(rng.integers(3)), null, 50.0)
        assert state.value() == pytest.approx(1.0)
        assert state.crossing_time is None

    def test_mixture_equals_weighted_single_monitors(self):
        rng = np.random.default_rng(11)
        normalize = lambda t: t / t.sum(1, keepdims=True)
        null = Policy(normalize(rng.random((4, 3)) + 0.1))
        alts = tuple(Policy(normalize(rng.random((4, 3)) + 0.1)) for _ in range(3))
        weights = np.array([0.5, 0.3, 0.2])
        mixture = LRMonitorState.fresh(alts, weights)
        singles = [LRMonitorState.fresh((alt,)) for alt in alts]
        for _ in range(200):
            s, a = int(rng.integers(4)), int(rng.integers(3))
            lr_step(mixture, s, a, null, 1e9)
            for single in singles:
                lr_step(single, s, a, null, 1e9)
        expected = sum(w * s.value() for w, s in zip(weights, singles))
        assert math.log(mixture.value()) == pytest.approx(
            math.log(expected), abs=1e-12
        )

    def test_dead_component_does_not_kill_mixture(self):
        null = uniform_policy(1, 2)
        alive = Policy(np.array([[0.9, 0.1]]))
        dying = Policy(np.array([[1.0, 0.0]]))
        state = LRMonitorState.fresh((alive, dying))
        lr_step(state, 0, 1, null, 1e9)  # kills the point-mass component
        assert state.value() == pytest.approx(0.5 * (0.1 / 0.5))
        lr_step(state, 0, 0, null, 1e9)
        assert state.value() > 0.0

    def test_crossing_time(self):
        null = uniform_policy(1, 2)
        alt = Policy(np.array([[0.8, 0.2]]))
        state = LRMonitorState.fresh((alt,))
        t = 0
        while state.crossing_time is None:
            t += 1
            lr_step(state, 0, 0, null, 5.0)
        assert state.crossing_time == t == math.ceil(math.log(5) / math.log(1.6))

    def test_null_play_mean_close_to_one(self):
        # Martingale normalization over 2000 short replicas.
        rng = np.random.default_rng(21)
        null = uniform_policy(1, 4)
        alt = Policy(np.array([[0.4, 0.3, 0.2, 0.1]]))
        finals = []
        for _ in range(2000):
            state = LRMonitorState.fresh((alt,))
            for _ in range(20):
                lr_step(state, 0, int(rng.integers(4)), null, 1e9)
            finals.append(state.value())
        finals = np.array(finals)
        se = finals.std(ddof=1) / math.sqrt(len(finals))
        assert abs(finals.mean() - 1.0) <= 3.0 * se


TWO_STATE_NULL = uniform_policy(2, 3)
TWO_STATE_ALT = Policy(np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]))


def step_two_state(state, action, null=TWO_STATE_NULL, threshold=20.0):
    monitor = LRMonitorState.fresh((TWO_STATE_ALT,))
    try:
        lr_step(monitor, state, action, null, threshold)
    finally:
        # A rejected step writes nothing.
        assert monitor.round == 0 and np.all(monitor.log_lr == 0.0)


class TestLrStepBoundary:
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: step_two_state(-1, 2), ShapeError),
            (lambda: step_two_state(2, 0), ShapeError),
            (lambda: step_two_state(0, -1), ShapeError),
            (lambda: step_two_state(0, 3), ShapeError),
            (lambda: step_two_state(0, 0, null=uniform_policy(5, 3)), ShapeError),
            (lambda: step_two_state(0, 0, null=uniform_policy(2, 4)), ShapeError),
            (lambda: step_two_state(0, 0, threshold=1.0), DomainError),
            (lambda: step_two_state(0, 0, threshold=0.5), DomainError),
            (lambda: step_two_state(0, 0, threshold=math.nan), DomainError),
            (lambda: LRMonitorState.fresh((TWO_STATE_ALT, uniform_policy(5, 3))), ShapeError),
            (lambda: LRMonitorState.fresh(()), ShapeError),
            (lambda: LRMonitorState.fresh((TWO_STATE_ALT,), [0.5, 0.5]), ShapeError),
        ],
        ids=[
            "negative-state", "state-past-end", "negative-action", "action-past-end",
            "null-with-more-states", "null-with-more-actions", "threshold-one",
            "threshold-below-one", "threshold-nan", "alternatives-of-two-shapes",
            "no-alternatives", "weights-per-alternative",
        ],
    )
    def test_rejected_with_package_errors(self, call, error):
        with pytest.raises(error):
            call()


def random_policy(rng, states, actions, zeros):
    """A random policy whose entries are 0 with probability ``zeros`` (one
    action per row always keeps mass)."""
    table = rng.random((states, actions)) * (rng.random((states, actions)) >= zeros)
    table[np.arange(states), rng.integers(actions, size=states)] += 0.1
    return Policy(table / table.sum(axis=1, keepdims=True))


class TestOneRecursion:
    """The monitor, the trial tables and the traces all read the log-ratio
    builder's table."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_monitor_and_trial_tables_read_the_builder(self, seed):
        rng = np.random.default_rng(seed)
        states, actions, k = (int(v) for v in rng.integers(1, 6, size=3))
        actions += 1
        null = random_policy(rng, states, actions, 0.2)
        alts = tuple(random_policy(rng, states, actions, 0.2) for _ in range(k))
        table = log_likelihood_ratios(
            null.table, np.stack([alt.table for alt in alts], axis=-1)
        )
        monitor = LRMonitorState.fresh(alts)
        visited = rng.integers(states, size=40)
        played = rng.integers(actions, size=40)
        for s, a in zip(visited.tolist(), played.tolist()):
            lr_step(monitor, s, a, null, math.inf)
        expected = np.cumsum(table[visited, played], axis=0)[-1]
        assert np.array_equal(monitor.log_lr, expected)

        eps = float(rng.random())
        afraid = alts[0].table
        alt_table = (1.0 - eps) * null.table + eps * afraid
        assert _soccer_tables(eps, null.table, afraid)[1] == log_likelihood_ratios(
            null.table, alt_table[..., None]
        )[..., 0].tolist()

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.05, 1.0),
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_prey_trace_is_the_monitor(self, seed, eps_true, eps_grid):
        columns, rows = trace.prey_episode_trace(
            eps_true, eps_grid, np.random.default_rng(seed), max_steps=40
        )
        _, _, chase_rows = prey.pursuit_tables()
        uniform = 1.0 / prey.NUM_ACTIONS
        # Each chase row plays a distinct suspect row, which the trace logs.
        chase_of = {
            tuple(r): i
            for i, r in enumerate(((1.0 - eps_true) * uniform + eps_true * chase_rows).tolist())
        }
        null = Policy(np.full(chase_rows.shape, uniform))
        monitor = LRMonitorState.fresh(
            Policy((1.0 - eps) * uniform + eps * chase_rows) for eps in eps_grid
        )
        first = columns.index(prey.ACTION_NAMES[0])
        for row in rows:
            before = float(np.exp(monitor.log_value()))
            assert row[columns.index("martingale")] == before
            lr_step(
                monitor,
                chase_of[tuple(row[first:first + prey.NUM_ACTIONS])],
                prey.ACTION_NAMES.index(row[columns.index("action")]),
                null,
                20.0,
            )
            assert row[columns.index("evalue")] == monitor.value() / before
        # The trace stops on the round the monitor crosses.
        assert monitor.crossing_time in (None, len(rows))


class TestDetectionBound:
    def test_plain_bound(self):
        assert lr_detection_bound(20, 0.0, 0.01) == pytest.approx(
            math.log(20) / 0.01
        )

    def test_overshoot_additive(self):
        base = lr_detection_bound(20, 0.0, 0.05)
        assert lr_detection_bound(20, 1.0, 0.05) == pytest.approx(base + 1.0 / 0.05)

    def test_mixture_weight_penalty(self):
        penalized = lr_detection_bound(20, 0.0, 0.1, prior_weight=0.2)
        assert penalized == pytest.approx((math.log(20) + math.log(5)) / 0.1)

    def test_domain(self):
        with pytest.raises(DomainError):
            lr_detection_bound(1.0, 0.0, 0.1)
        with pytest.raises(DomainError):
            lr_detection_bound(20.0, 0.0, 0.0)

    def test_overshoot_constant(self):
        null = Policy(np.array([[0.5, 0.5]]))
        alt = Policy(np.array([[0.8, 0.2]]))
        assert overshoot_constant(null, alt) == pytest.approx(abs(math.log(0.4)))
        violated = Policy(np.array([[1.0, 0.0]]))
        assert overshoot_constant(violated, alt) == math.inf


class TestDivergences:
    def test_state_avg_kl_zero_iff_equal(self):
        null = uniform_policy(3, 4)
        assert state_avg_kl(null, null, np.array([0.2, 0.5, 0.3])) == 0.0

    def test_point_mass_recovers_single_state(self):
        null = Policy(np.array([[0.5, 0.5], [0.5, 0.5]]))
        alt = Policy(np.array([[0.6, 0.4], [0.9, 0.1]]))
        mu = np.array([1.0, 0.0])
        expected = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert state_avg_kl(null, alt, mu) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.020136, abs=1e-6)

    def test_support_violation_returns_infinity(self, caplog):
        null = Policy(np.array([[1.0, 0.0]]))
        alt = Policy(np.array([[0.5, 0.5]]))
        with caplog.at_level("WARNING"):
            assert state_avg_kl(null, alt, np.array([1.0])) == math.inf
        assert "support violation" in caplog.text

    def test_chi_square_examples(self):
        assert chi_square_div([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert chi_square_div([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.02)
        p = np.array([0.5, 0.5])
        assert chi_square_div([0.3, 0.7], p) == chi_square_div([0.7, 0.3], p)

    def test_chi_square_domain(self):
        with pytest.raises(DomainError):
            chi_square_div([0.5, 0.5], [1.0, 0.0])
        with pytest.raises(ShapeError):
            chi_square_div([0.5, 0.5], [0.5, 0.25, 0.25])

    def test_kl_quadratic_rows(self):
        rows = kl_quadratic_check([0.5, 0.5], [0.6, 0.4], [0.0, 1e-3])
        assert rows[0][1] == 0.0
        eps, kl, predicted = rows[1]
        assert predicted == pytest.approx(1e-6 * 0.02)
        assert kl / predicted == pytest.approx(1.0, abs=0.05)

    def test_kl_quadratic_identity(self):
        rows = kl_quadratic_check([0.3, 0.7], [0.3, 0.7], [0.1, 0.5])
        assert all(row[1] == pytest.approx(0.0, abs=1e-15) for row in rows)


@st.composite
def dyadic_chains(draw):
    """1-7 state chains with exact binary-fraction entries.

    A "rows" chain spreads each row's 1, 2, 4, 8 or 16 equal units over
    random columns, from deterministic to dense rows; "blocks" does the same
    inside two diagonal blocks, which makes it reducible; "permutation" is a
    permuted identity, periodic or reducible past one state.
    """
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["rows", "blocks", "permutation"]))
    if kind == "permutation":
        return np.eye(n)[draw(st.permutations(range(n)))]
    cut = draw(st.integers(1, n - 1)) if kind == "blocks" and n > 1 else n
    chain = np.zeros((n, n))
    for i in range(n):
        lo, hi = (0, cut) if i < cut else (cut, n)
        units = draw(st.sampled_from([1, 2, 4, 8, 16]))
        for j in draw(st.lists(st.integers(lo, hi - 1), min_size=units, max_size=units)):
            chain[i, j] += 1.0 / units
    return chain


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        chain = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert stationary_distribution(chain) == pytest.approx([0.5, 0.5])

    def test_doubly_stochastic_perturbation(self):
        n = 4
        chain = 0.9 * np.eye(n) + 0.1 / n
        assert stationary_distribution(chain) == pytest.approx(np.full(n, 0.25))

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(17)
        chain = rng.random((4, 4)) + 0.02
        chain /= chain.sum(axis=1, keepdims=True)
        mu = stationary_distribution(chain)
        values, vectors = np.linalg.eig(chain.T)
        lead = np.argmin(np.abs(values - 1.0))
        ref = np.real(vectors[:, lead])
        ref /= ref.sum()
        assert mu == pytest.approx(ref, abs=1e-9)
        assert mu @ chain == pytest.approx(mu, abs=1e-11)

    def test_reducible_chain_rejected(self):
        chain = np.array(
            [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
             [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]]
        )
        with pytest.raises(ErgodicityError):
            stationary_distribution(chain)

    def test_periodic_chain_rejected(self):
        with pytest.raises(ErgodicityError):
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_transient_states_get_zero_mass(self):
        chain = np.array([[0.0, 0.5, 0.5], [0.0, 0.6, 0.4], [0.0, 0.3, 0.7]])
        mu = stationary_distribution(chain)
        assert mu[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [1e-2, 1e-3, 1e-4])
    def test_nearly_periodic_two_state(self, d):
        chain = np.array([[d, 1.0 - d], [1.0 - d, d]])
        assert stationary_distribution(chain) == pytest.approx([0.5, 0.5])

    def test_dominant_negative_eigenvalue_accepted(self):
        # Sparse, with a positive diagonal and so aperiodic; its second
        # eigenvalue is -0.76.
        rng = np.random.default_rng(139)
        chain = rng.random((5, 5))
        chain[chain < 0.3] = 0.0
        chain += 1e-3 * np.eye(5)
        chain /= chain.sum(axis=1, keepdims=True)
        values, vectors = np.linalg.eig(chain.T)
        ref = np.real(vectors[:, np.argmin(np.abs(values - 1.0))])
        assert stationary_distribution(chain) == pytest.approx(ref / ref.sum(), abs=1e-9)

    def test_nearly_decomposable_chain(self):
        chain = np.array([[1.0, 1e-20], [3e-20, 1.0]])
        mu = stationary_distribution(chain)
        assert mu == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_three_cycle_rejected_as_periodic(self):
        with pytest.raises(ErgodicityError, match="aperiodic recurrent class"):
            stationary_distribution(np.roll(np.eye(3), 1, axis=1))

    def test_recurrent_row_off_within_tolerance(self):
        chain = np.full((3, 3), 1.0 / 3.0)
        chain[0, 0] += 5e-10
        assert stationary_distribution(chain) == pytest.approx(np.full(3, 1.0 / 3.0))

    @given(chain=dyadic_chains())
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_reference(self, chain):
        try:
            ref = stationary_distribution_reference(chain)
        except ErgodicityError:
            with pytest.raises(ErgodicityError):
                stationary_distribution(chain)
            return
        mu = stationary_distribution(chain)
        assert np.all(mu >= 0.0)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(mu - ref)) <= 1e-12


def scipy_modules_after(experiment, tmp_path):
    """Exit code and loaded scipy modules of one CLI run in a fresh process."""
    root = Path(__file__).resolve().parents[1]
    code = (
        "import contextlib, io, sys; sys.path.insert(0, {src!r})\n"
        "import eqsentinel, eqsentinel.harness.cli as cli\n"
        "argv = [{name!r}, '--config', {config!r}, '--out', {out!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(argv)\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    ).format(
        src=str(root / "src"),
        name=experiment,
        config=str(root / "configs" / f"{experiment}.cfg"),
        out=str(tmp_path / experiment),
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    rc, modules = done.stdout.strip().split(" ", 1)
    return int(rc), modules


def test_import_and_nf_slack_load_no_scipy(tmp_path):
    # No package path imports scipy; only stochastic.linprog loads it on
    # demand.
    assert scipy_modules_after("nf-slack", tmp_path) == (0, "[]")


def test_soccer_solve_loads_no_scipy(tmp_path):
    # The sweep and the certificate back up through numpy arrays, and the
    # tableau solves every matrix game, so no scipy module is loaded.
    assert scipy_modules_after("soccer-solve", tmp_path) == (0, "[]")


def test_linprog_stays_a_module_attribute():
    from scipy.optimize import linprog

    assert stochastic.linprog is linprog
    with pytest.raises(AttributeError):
        stochastic.no_such_name


def counting_lp():
    """Counts the calls that reach HiGHS through ``stochastic.linprog``."""
    return mock.patch("eqsentinel.stochastic.linprog", wraps=stochastic.linprog)


class TestMatrixGame:
    def test_matching_pennies(self):
        sol = matrix_game_solve([[1.0, -1.0], [-1.0, 1.0]])
        assert sol.value == pytest.approx(0.0, abs=1e-9)
        assert sol.row_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
        assert sol.col_strategy == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_dominant_row(self):
        sol = matrix_game_solve([[2.0, 1.0], [0.0, 0.0]])
        assert sol.value == pytest.approx(1.0)
        assert sol.row_strategy == pytest.approx([1.0, 0.0])
        assert sol.col_strategy == pytest.approx([0.0, 1.0])

    def test_scalar_game(self):
        sol = matrix_game_solve([[0.37]])
        assert sol.value == 0.37

    @pytest.mark.parametrize(
        "payoff, value, row, col",
        [
            ([[0.3, 0.1, 0.1, 0.5]], 0.1, [1.0], [0.0, 1.0, 0.0, 0.0]),
            ([[0.4, 0.4]], 0.4, [1.0], [1.0, 0.0]),
            ([[0.2], [0.7], [0.7]], 0.7, [0.0, 1.0, 0.0], [1.0]),
            ([[-0.4], [-0.4]], -0.4, [1.0, 0.0], [1.0]),
        ],
        ids=["1x4-tied-min", "1x2-all-tied", "3x1-tied-max", "2x1-all-tied"],
    )
    def test_one_row_or_column_takes_the_first_best_entry(self, payoff, value, row, col):
        # The pure-saddle test reads these games off the matrix, with ties
        # going to the first index, and no LP runs.
        with mock.patch.object(stochastic, "linprog", side_effect=AssertionError):
            sol = matrix_game_solve(payoff)
        assert sol.value == value
        assert sol.row_strategy.tolist() == row
        assert sol.col_strategy.tolist() == col

    def test_rectangular(self):
        payoff = np.array([[0.0, 0.4, -0.2], [0.3, -0.5, 0.1]])
        sol = matrix_game_solve(payoff)
        assert exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value) <= 1e-8

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            matrix_game_solve(np.zeros((0, 2)))

    @pytest.mark.parametrize(
        "row, col, value",
        [
            ([math.nan, math.nan], [0.5, 0.5], 0.5),
            ([0.5, 0.5], [math.nan, 0.5], 0.5),
            ([0.5, 0.5], [0.5, 0.5], math.nan),
        ],
        ids=["row-strategy", "col-strategy", "value"],
    )
    def test_exploitability_of_a_nan_solution_is_nan(self, row, col, value):
        # Python's max would drop the NaN gain and report 0 here.
        assert math.isnan(exploitability([[1.0, 0.0], [0.0, 1.0]], row, col, value))

    def test_exploitability_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            payoff = rng.normal(size=(5, 5))
            sol = matrix_game_solve(payoff)
            gap = best_response_gap(payoff, sol.row_strategy, sol.col_strategy, sol.value)
            assert gap <= 1e-6

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(2, 6),
        st.sampled_from(["uniform", "normal", "integers"]),
        st.sampled_from([None, "row", "col"]),
        st.sampled_from([1.0, 1e-6, 1e6]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_lp_reference(self, seed, rows, cols, kind, duplicate, scale):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            base = rng.random((rows, cols))
        elif kind == "normal":
            base = rng.normal(size=(rows, cols))
        else:
            base = rng.integers(0, 3, size=(rows, cols)).astype(float)
        if duplicate == "row":
            base[-1] = base[0]
        elif duplicate == "col":
            base[:, -1] = base[:, 0]
        payoff = base * scale
        with counting_lp() as lp:
            sol = matrix_game_solve(payoff)
        assert not lp.called
        assert exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value) <= 1e-6
        # HiGHS's tolerances are absolute, so at scale 1e-6 its answer is off
        # by up to about 1e-3 of the scale; the reference solves the unscaled
        # game, and the value is compared relative to the payoff magnitude.
        ref = matrix_game_solve_lp_reference(base)
        tol = 1e-12 * float(np.abs(payoff).max())
        assert abs(sol.value - scale * ref.value) <= tol
        # A degenerate game has many equilibria, and HiGHS may pick another.
        mixed = payoff.min(axis=1).max() < payoff.max(axis=0).min()
        if mixed and unique_equilibrium_reference(payoff):
            np.testing.assert_allclose(sol.row_strategy, ref.row_strategy, rtol=0, atol=1e-12)
            np.testing.assert_allclose(sol.col_strategy, ref.col_strategy, rtol=0, atol=1e-12)

    def test_unique_equilibria_skip_the_lp(self):
        rng = np.random.default_rng(7)
        games = [rng.normal(size=(5, 5)) for _ in range(50)]
        mixed = [g for g in games if g.min(axis=1).max() < g.max(axis=0).min()]
        for payoff in mixed:
            with counting_lp() as lp:
                sol = matrix_game_solve(payoff)
            ref = matrix_game_solve_lp_reference(payoff)
            assert sol.value == pytest.approx(ref.value, rel=0, abs=1e-12)
            assert lp.call_count == 0
        assert len(mixed) > 40

    @pytest.mark.parametrize("transpose", [False, True], ids=["columns", "rows"])
    def test_non_unique_equilibrium_of_copies_skips_the_lp(self, transpose):
        # Columns 1 and 2 are duplicates, so the column player may split its
        # mass between them in any ratio, and the full game's tableau basis is
        # dual degenerate (primal degenerate for duplicate rows, the
        # transpose). Without the copy the game is matching pennies, whose
        # unique equilibrium the tableau finds: no LP runs, and the copy gets
        # no mass.
        payoff = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        payoff = payoff.T if transpose else payoff
        with counting_lp() as lp:
            sol = matrix_game_solve(payoff)
        ref = matrix_game_solve_lp_reference(payoff)
        assert lp.call_count == 0
        assert (sol.row_strategy if transpose else sol.col_strategy)[2] == 0.0
        assert sol.value == pytest.approx(ref.value, rel=0, abs=1e-12)
        assert_same_merged(payoff, sol, ref, 1e-12)

    def test_degenerate_game_without_copies_goes_to_the_lp(self):
        # No two actions are equal, but any row mix with both weights in
        # [1/3, 2/3] is optimal against the third column: the tableau's basis
        # is primal degenerate, and Bland's rule still ends at an optimal one.
        # No LP runs, at unit scale or at 1e6.
        for scale in (1.0, 1e6):
            payoff = np.array([[3.0, 0.0, 1.0], [0.0, 3.0, 1.0]]) * scale
            with counting_lp() as lp:
                sol = matrix_game_solve(payoff)
            assert lp.call_count == 0
            assert abs(sol.value - scale) <= 1e-12 * scale
            assert np.all((1 / 3 <= sol.row_strategy) & (sol.row_strategy <= 2 / 3))
            gap = exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value)
            assert gap <= 1e-9

    def test_a_gap_past_the_bound_raises_domain_error(self):
        # The one failure path: an answer whose gap fails the check.
        with mock.patch.object(stochastic, "exploitability", return_value=math.nan):
            with pytest.raises(DomainError, match="gap nan"):
                matrix_game_solve([[1.0, -1.0], [-1.0, 1.0]])

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from(["uniform", "integers"]),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_duplicated_actions_get_no_mass(self, seed, rows, cols, kind, extra_rows, extra_cols):
        # Copies of random actions at random places: Bland's rule gives every
        # later copy no mass, and a copy pays as its first instance does, so
        # where the game without copies has a unique equilibrium, summing each
        # action's mass over its copies gives the LP's answer on the full game.
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            base = rng.random((rows, cols))
        else:
            base = rng.integers(0, 3, size=(rows, cols)).astype(float)
        row_of = rng.permutation(np.concatenate([np.arange(rows), rng.integers(0, rows, extra_rows)]))
        col_of = rng.permutation(np.concatenate([np.arange(cols), rng.integers(0, cols, extra_cols)]))
        payoff = base[np.ix_(row_of, col_of)]
        with counting_lp() as lp:
            sol = matrix_game_solve(payoff)
        assert not lp.called
        assert exploitability(payoff, sol.row_strategy, sol.col_strategy, sol.value) <= 1e-6
        # Every copy after the first instance of its action gets no mass.
        firsts = []
        for lines, strategy in ((payoff, sol.row_strategy), (payoff.T, sol.col_strategy)):
            first = np.sort(np.unique(lines, axis=0, return_index=True)[1])
            assert not np.delete(strategy, first).any()
            firsts.append(first)
        if payoff.min(axis=1).max() == payoff.max(axis=0).min():
            return  # a pure saddle point, maybe one of several
        if not unique_equilibrium_reference(payoff[np.ix_(*firsts)]):
            return  # the game without copies has many equilibria
        ref = matrix_game_solve_lp_reference(payoff)
        assert sol.value == pytest.approx(ref.value, rel=0, abs=1e-9)
        assert_same_merged(payoff, sol, ref, 1e-9)


def assert_same_merged(payoff, sol, ref, atol):
    """Equal strategies once each action's mass is summed over its copies."""
    for lines, mine, theirs in (
        (payoff, sol.row_strategy, ref.row_strategy),
        (payoff.T, sol.col_strategy, ref.col_strategy),
    ):
        copy_of = np.unique(lines, axis=0, return_inverse=True)[1]
        np.testing.assert_allclose(
            np.bincount(copy_of, weights=mine),
            np.bincount(copy_of, weights=theirs),
            rtol=0,
            atol=atol,
        )


def assert_same_bits(sol, ref):
    """Equal value and strategies, down to the sign of a zero."""
    assert np.float64(sol.value).tobytes() == np.float64(ref.value).tobytes()
    assert sol.row_strategy.tobytes() == ref.row_strategy.tobytes()
    assert sol.col_strategy.tobytes() == ref.col_strategy.tobytes()


class TestScalarKernels:
    """The saddle test and tableau pivots on Python floats against the numpy
    forms they replaced (``matrix_game_solve_reference``): bit for bit,
    degenerate games and copied actions included."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 9),
        st.integers(1, 9),
        st.sampled_from(["uniform", "integers", "signed-zeros"]),
        st.sampled_from([None, "row", "col"]),
        st.sampled_from([1.0, 1e-6, 1e6]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_numpy_reference(self, seed, rows, cols, kind, duplicate, scale):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            base = rng.random((rows, cols))
        elif kind == "integers":
            base = rng.integers(0, 3, size=(rows, cols)).astype(float)
        else:
            base = rng.choice([-1.0, -0.0, 0.0, 1.0], size=(rows, cols))
        if duplicate == "row":
            base[-1] = base[0]
        elif duplicate == "col":
            base[:, -1] = base[:, 0]
        payoff = base * scale
        assert_same_bits(matrix_game_solve(payoff), matrix_game_solve_reference(payoff))
        if payoff.max() > payoff.min():
            assert_same_bits(
                stochastic._tableau_solve(payoff, payoff.tolist()), tableau_solve_reference(payoff)
            )

    @pytest.mark.parametrize(
        "payoff",
        [
            [[0.0, -0.0], [-0.0, 0.0]],
            [[-0.0, 0.0], [0.0, -0.0]],
            [[0.0, 0.0], [-0.0, -0.0]],
            [[0.0] * 8 + [-0.0]],
            [[-0.0]] * 9,
        ],
        ids=["2x2-diagonal", "2x2-antidiagonal", "2x2-rows", "1x9", "9x1"],
    )
    def test_a_zero_value_keeps_numpy_sign(self, payoff):
        # numpy's min and max choose between 0.0 and -0.0 by vector lane.
        assert_same_bits(matrix_game_solve(payoff), matrix_game_solve_reference(payoff))

    @pytest.mark.parametrize(
        "payoff",
        [
            [[10.0, 10.0, 10.0, 0.0], [20.0, 0.0, 10.0, 0.0], [10.0, 20.0, 0.0, 20.0]],
            [
                [0.0, 0.0, 1.9999999999999998e-05],
                [9.999999999999999e-06, 0.0, 9.999999999999999e-06],
                [9.999999999999999e-06, 9.999999999999999e-06, 0.0],
            ],
        ],
        ids=["basic-value", "slack-reduced-cost"],
    )
    def test_rounding_below_zero_reads_as_zero(self, payoff):
        # Degenerate games whose final tableau holds a basic value or a
        # slack's reduced cost a rounding below 0: the strategies stay
        # distributions.
        sol = matrix_game_solve(payoff)
        assert sol.row_strategy.min() >= 0.0 and sol.col_strategy.min() >= 0.0
        assert_same_bits(sol, matrix_game_solve_reference(payoff))

    def test_zero_diagonal_game_value_is_negative_zero(self):
        # Python's min would give 0.0 here.
        sol = matrix_game_solve([[0.0, -0.0], [-0.0, 0.0]])
        assert math.copysign(1.0, sol.value) == -1.0

    def test_random_games_match_the_numpy_reference(self):
        # The benchmark's game op: random 5x5 games, almost all mixed.
        for i in range(100):
            payoff = np.random.default_rng(i).random((5, 5))
            assert_same_bits(matrix_game_solve(payoff), matrix_game_solve_reference(payoff))


class TestShapley:
    def test_absorbing_zero_rewards(self):
        rewards = np.zeros((1, 2, 2))
        transition = np.ones((1, 2, 2, 1))
        sol = shapley_solve_arrays(rewards, transition, SolverConfig())
        assert sol.converged and sol.iterations == 1
        assert sol.values == pytest.approx([0.0])

    def test_single_state_reduces_to_matrix_game(self):
        rewards = np.array([[[1.0, -1.0], [-1.0, 1.0]]])
        transition = np.ones((1, 2, 2, 1))
        sol = shapley_solve_arrays(
            rewards, transition, SolverConfig(discount=1e-9, tolerance=1e-6)
        )
        assert sol.values == pytest.approx([0.0], abs=1e-8)
        assert sol.row_policy.table[0] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_typed_model_constant_sum_accepted(self):
        rng = np.random.default_rng(0)
        r1 = rng.random((2, 2, 2))
        rewards = np.stack([r1, 1.0 - r1])
        transition = np.zeros((2, 2, 2, 2))
        transition[..., 0] = 0.5
        transition[..., 1] = 0.5
        model = StochasticGameModel(rewards, transition, discount=0.9)
        total = model.rewards[0] + model.rewards[1]
        assert np.ptp(total) <= 1e-9  # zero-sum up to an affine rescaling
        config = SolverConfig(discount=model.discount, tolerance=1e-8, max_iterations=2000)
        sol = shapley_solve_arrays(model.rewards[0], model.transition, config)
        assert sol.converged
        # Fixed point: re-solving each state's matrix game leaves the values.
        q = model.rewards[0] + 0.9 * np.einsum(
            "sabt,t->sab", model.transition, sol.values
        )
        for s in range(2):
            assert matrix_game_solve(q[s]).value == pytest.approx(
                sol.values[s], abs=1e-6
            )


def small_game(seed, num_states, a_row, a_col, coarse, dup_row, dup_col):
    """A random (rewards, transition) pair. ``coarse`` draws rewards from
    {0, 0.5, 1}, and the ``dup_*`` flags copy action 0's rewards and
    transitions into the last row or column, so Q-matrices have ties,
    duplicate actions and many equilibria."""
    rng = np.random.default_rng(seed)
    shape = (num_states, a_row, a_col)
    rewards = rng.integers(0, 3, size=shape) / 2.0 if coarse else rng.random(shape)
    transition = rng.random((*shape, num_states)) * (rng.random((*shape, num_states)) < 0.6)
    transition[..., 0] += 1e-3
    transition /= transition.sum(axis=-1, keepdims=True)
    if dup_row and a_row > 1:
        rewards[:, -1], transition[:, -1] = rewards[:, 0], transition[:, 0]
    if dup_col and a_col > 1:
        rewards[:, :, -1], transition[:, :, -1] = rewards[:, :, 0], transition[:, :, 0]
    return rewards, transition


def assert_same_solution(sol, ref):
    """Equal sweeps, residual, values and policy tables, down to the sign
    of a zero."""
    assert (sol.iterations, sol.converged, sol.residual) == (
        ref.iterations,
        ref.converged,
        ref.residual,
    )
    assert sol.values.tobytes() == ref.values.tobytes()
    assert sol.row_policy.table.tobytes() == ref.row_policy.table.tobytes()
    assert sol.col_policy.table.tobytes() == ref.col_policy.table.tobytes()


class TestShapleySweep:
    """The sparse, saddle-batched, warm-started sweep against the per-state
    LP sweep it replaced (``shapley_solve_reference``)."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from([0.5, 0.9]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_small_games(
        self, seed, num_states, a_row, a_col, coarse, dup_row, dup_col, discount
    ):
        rewards, transition = small_game(seed, num_states, a_row, a_col, coarse, dup_row, dup_col)
        config = SolverConfig(discount=discount, tolerance=1e-6, max_iterations=25)
        sol = shapley_solve_arrays(rewards, transition, config)
        # Bit for bit the sweep with one equalizer solve per mixed state.
        assert_same_solution(sol, shapley_sweep_reference(rewards, transition, config))
        ref = shapley_solve_reference(rewards, transition, config)
        assert (sol.iterations, sol.converged) == (ref.iterations, ref.converged)
        np.testing.assert_allclose(sol.values, ref.values, rtol=0.0, atol=1e-9)
        # The strategies are equilibria of the last sweep's Q-matrices, whose
        # backup used the values one sweep earlier.
        previous = np.zeros(num_states)
        if sol.iterations > 1:
            earlier = dataclasses.replace(config, max_iterations=sol.iterations - 1)
            previous = shapley_solve_arrays(rewards, transition, earlier).values
        q = rewards + discount * np.einsum("sabt,t->sab", transition, previous)
        for s in range(num_states):
            gap = exploitability(
                q[s], sol.row_policy.table[s], sol.col_policy.table[s], sol.values[s]
            )
            assert gap <= 1e-6

    def test_soccer_matches_reference(self, soccer_game, soccer_solution):
        sweep = shapley_sweep_reference(
            soccer_game.native_reward, soccer_game.model.transition, SolverConfig()
        )
        assert_same_solution(soccer_solution, sweep)
        ref = shapley_solve_reference(
            soccer_game.native_reward, soccer_game.model.transition, SolverConfig()
        )
        sol = soccer_solution
        assert (sol.iterations, sol.converged, sol.residual) == (
            ref.iterations,
            ref.converged,
            ref.residual,
        )
        np.testing.assert_allclose(sol.values, ref.values, rtol=0.0, atol=1e-12)
        for new, old in ((sol.row_policy, ref.row_policy), (sol.col_policy, ref.col_policy)):
            np.testing.assert_allclose(new.table, old.table, rtol=0.0, atol=1e-12)
        # Pure saddle states pick the shortcut's strategies; their values
        # carry the mixed states' low-order differences through the backup.
        pure = (ref.row_policy.table.max(axis=1) == 1.0) & (
            ref.col_policy.table.max(axis=1) == 1.0
        )
        assert pure.sum() > 700
        np.testing.assert_array_equal(sol.row_policy.table[pure], ref.row_policy.table[pure])
        np.testing.assert_array_equal(sol.col_policy.table[pure], ref.col_policy.table[pure])

    def test_soccer_solve_reaches_few_lps(self, soccer_game, monkeypatch):
        # A work count, not a timing: the per-state sweep made 62,400 calls.
        inner = matrix_game_solve
        calls = []

        def counting(payoff):
            calls.append(1)
            return inner(payoff)

        monkeypatch.setattr("eqsentinel.stochastic.matrix_game_solve", counting)
        config = SoccerSolveConfig()
        sol = shapley_solve_arrays(
            soccer_game.native_reward, soccer_game.model.transition, config
        )
        assert sol.converged
        assert 0 < len(calls) <= 200

    def test_soccer_solve_logs_its_work(self, soccer_game, monkeypatch, caplog):
        # Work counts, not timings: the debug line's per-path totals match the
        # calls that were made, and each path resolves exactly as many states
        # as README records, so a rewrite that moves states between paths fails.
        inner = matrix_game_solve
        calls = []

        def counting(payoff):
            calls.append(1)
            return inner(payoff)

        monkeypatch.setattr("eqsentinel.stochastic.matrix_game_solve", counting)
        with counting_lp() as lp, caplog.at_level("DEBUG", logger="eqsentinel.stochastic"):
            sol = shapley_solve_arrays(
                soccer_game.native_reward, soccer_game.model.transition, SolverConfig()
            )
        (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("shapley")]
        sweeps, saddles, equalized, fallbacks = map(int, re.findall(r"\d+", line))
        assert (sweeps, fallbacks) == (sol.iterations, len(calls))
        assert (sweeps, saddles, equalized, fallbacks) == (78, 59_704, 2_622, 74)
        assert saddles + equalized + fallbacks == sweeps * soccer_game.model.num_states
        assert lp.call_count == 0

    def test_soccer_solve_and_certificate_reach_highs_at_most_14_times(self, soccer_game):
        # Every mixed game, degenerate or with copied actions, is solved by
        # the tableau: none reaches HiGHS.
        config = SolverConfig()
        with counting_lp() as lp:
            sol = shapley_solve_arrays(
                soccer_game.native_reward, soccer_game.model.transition, config
            )
            q = soccer_game.native_reward + config.discount * np.einsum(
                "sabt,t->sab", soccer_game.model.transition, sol.values
            )
            resolved = np.array([matrix_game_solve(q[s]).value for s in range(q.shape[0])])
        assert np.max(np.abs(resolved - sol.values)) < config.tolerance
        assert lp.call_count == 0

    def test_singular_support_falls_back_to_the_lp(self, monkeypatch):
        # State 0's columns 1 and 2 are duplicates. The LP's basic solutions
        # never use both, but x = (1/3, 1/3, 1/3), y = (1/2, 1/4, 1/4) is an
        # equilibrium too, and on that support both equalizer systems are
        # singular. State 2 is rock-paper-scissors, whose unique equilibrium
        # has the same full support, so from the second sweep on both states
        # share one stacked solve, which the singular system fails. States 0
        # and 2 move to the absorbing zero state 1, so their Q-matrices are
        # the same exact matrices in every sweep.
        rewards = np.zeros((3, 3, 3))
        rewards[0] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.5, 0.5, 0.5]]
        rewards[2] = [[0.5, 0.0, 1.0], [1.0, 0.5, 0.0], [0.0, 1.0, 0.5]]
        transition = np.zeros((3, 3, 3, 3))
        transition[..., 1] = 1.0
        calls = []

        def split_mass(payoff):
            calls.append(1)
            sol = matrix_game_solve(payoff)
            if not np.array_equal(payoff, rewards[0]):
                return sol
            return MatrixGameSolution(sol.value, np.full(3, 1 / 3), np.array([0.5, 0.25, 0.25]))

        monkeypatch.setattr("eqsentinel.stochastic.matrix_game_solve", split_mass)
        config = SolverConfig(discount=0.5)
        sol = shapley_solve_arrays(rewards, transition, config)
        # Two LPs in the first sweep, then one for state 0 alone.
        assert (sol.converged, sol.iterations, len(calls)) == (True, 2, 3)
        assert sol.values == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert sol.row_policy.table[2] == pytest.approx(np.full(3, 1 / 3), abs=1e-12)
        calls.clear()
        assert_same_solution(sol, shapley_sweep_reference(rewards, transition, config))
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "rewards, transition",
        [
            (np.zeros((2, 2)), np.full((2, 2, 2), 0.5)),
            (np.zeros((0, 2, 2)), np.zeros((0, 2, 2, 0))),
            (np.zeros((1, 2, 2)), (np.ones((1, 3)), np.zeros((1, 3), dtype=int))),
            (np.zeros((1, 2, 2)), (np.ones((1, 4)), np.zeros((2, 4), dtype=int))),
            (np.zeros((1, 2, 2)), (np.ones((1, 4)), np.full((1, 4), 1))),
            (np.zeros((1, 2, 2)), (np.ones((1, 4)), np.full((1, 4), -1))),
        ],
        ids=["rewards-2d", "zero-states", "rows-wrong-size", "rows-cols-mismatch",
             "column-at-S", "column-below-0"],
    )
    def test_malformed_input_raises_shape_error(self, rewards, transition):
        with pytest.raises(ShapeError):
            shapley_solve_arrays(rewards, transition, SolverConfig())

    def test_soccer_rows_match_the_dense_kernel_bit_for_bit(self, soccer_game, caplog):
        # The stored rows and the dense view reach the same sweeps, solution
        # and per-path work counts.
        runs = []
        for kernel in (soccer_game.model.kernel, soccer_game.model.transition):
            caplog.clear()
            with caplog.at_level("DEBUG", logger="eqsentinel.stochastic"):
                sol = shapley_solve_arrays(soccer_game.native_reward, kernel, SolverConfig())
            lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("shapley")]
            runs.append((sol, lines))
        (rows, rows_log), (dense, dense_log) = runs
        assert_same_solution(rows, dense)
        assert rows.iterations == 78
        assert len(rows_log) == 1 and rows_log == dense_log

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rewards_rejected(self, value):
        # An inf off the saddle point leaves (0, 0) a saddle in every sweep,
        # so only the up-front check sees it.
        rewards = np.array([[[1.0, value], [0.0, 0.0]]])
        transition = np.ones((1, 2, 2, 1))
        with pytest.raises(DomainError, match="rewards"):
            shapley_solve_arrays(rewards, transition, SolverConfig())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_kernel_entry_rejected(self, value):
        rewards, transition = small_game(1, 2, 2, 2, False, False, False)
        transition[0, 1, 1, 0] = value
        with pytest.raises(DomainError, match="transition"):
            shapley_solve_arrays(rewards, transition, SolverConfig())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_row_entry_rejected(self, value):
        rewards, transition = small_game(1, 2, 2, 2, False, False, False)
        probs, cols = stochastic._kernel_rows(transition.reshape(-1, 2))
        probs[1, 3] = value
        with pytest.raises(DomainError, match="transition"):
            shapley_solve_arrays(rewards, (probs, cols), SolverConfig())


class TestKernelScan:
    """The blocked nonzero scan and its backup against ``csr_matrix`` of the
    dense kernel."""

    @pytest.mark.parametrize(
        "num_rows",
        [1, stochastic._SCAN_ROWS - 1, stochastic._SCAN_ROWS, 2 * stochastic._SCAN_ROWS + 37],
    )
    def test_matches_csr_matrix(self, num_rows):
        rng = np.random.default_rng(num_rows)
        dense = rng.standard_normal((num_rows, 9)) * (rng.random((num_rows, 9)) < 0.3)
        # All-zero rows at the start, the end and a block boundary; with one
        # row, the whole matrix is zero.
        dense[[0, -1, min(stochastic._SCAN_ROWS, num_rows - 1)]] = 0.0
        dense[num_rows // 2, ::2] = -0.0
        ref = csr_matrix(dense)
        probs, cols = stochastic._kernel_rows(dense)
        assert probs.shape == cols.shape == (np.diff(ref.indptr).max(), num_rows)
        # Row by row, the kept entries are the CSR arrays; the rest is padding.
        kept = probs.T != 0.0
        np.testing.assert_array_equal(probs.T[kept], ref.data)
        np.testing.assert_array_equal(cols.T[kept], ref.indices)
        assert not cols.T[~kept].any()
        if num_rows == 1:
            assert probs.shape[0] == 0
        else:
            assert (probs < 0.0).any()
        for _ in range(3):
            v = rng.standard_normal(9)
            np.testing.assert_array_equal(stochastic._backup(probs, cols, v), ref @ v)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_entry_past_the_first_block_rejected(self, value):
        # 45 * 5 * 5 = 1,125 kernel rows: one full block and a partial one.
        rewards, transition = small_game(3, 45, 5, 5, False, False, False)
        assert rewards.size % stochastic._SCAN_ROWS
        transition[44, 4, 4, 3] = value
        with pytest.raises(DomainError, match="transition"):
            shapley_solve_arrays(rewards, transition, SolverConfig())


class TestPolicyTransforms:
    def test_smoothing_floors_probabilities(self):
        policy = Policy(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]))
        smoothed = smooth_policy(policy, 0.05)
        assert smoothed.table[0] == pytest.approx([0.96, 0.01, 0.01, 0.01, 0.01])
        assert smoothed.table.min() >= 0.05 / 5

    def test_smoothing_identity_and_fixed_point(self):
        policy = Policy(np.array([[0.25, 0.75]]))
        assert smooth_policy(policy, 0.0).table == pytest.approx(policy.table)
        uniform = uniform_policy(2, 5)
        assert smooth_policy(uniform, 0.3).table == pytest.approx(uniform.table)

    def test_smoothing_bounds_log_ratios(self):
        rng = np.random.default_rng(4)
        raw = rng.random((6, 5))
        raw[0, 1:] = 0.0  # a deterministic row
        policy = Policy(raw / raw.sum(axis=1, keepdims=True))
        smoothed = smooth_policy(policy, 0.05)
        alt = Policy(np.full((6, 5), 0.2))
        assert overshoot_constant(smoothed, alt) <= math.log(5 / 0.05)

    def test_mixture_endpoints(self):
        base = uniform_policy(1, 5)
        target = Policy(np.array([[10 / 23, 1 / 23, 10 / 23, 1 / 23, 1 / 23]]))
        assert mixture_policy(base, target, 0.0).table == pytest.approx(base.table)
        assert mixture_policy(base, target, 1.0).table == pytest.approx(target.table)
        blended = mixture_policy(base, target, 0.6)
        assert blended.table[0, 0] == pytest.approx(0.3409, abs=5e-5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_rejected(self, value):
        table = np.full((2, 5), 0.2)
        table[1, 3] = value
        with pytest.raises(DomainError):
            Policy(table)

    def test_mixture_domain(self):
        base = uniform_policy(1, 5)
        with pytest.raises(DomainError):
            mixture_policy(base, base, 1.5)


class TestSerialization:
    def test_policy_round_trip(self):
        rng = np.random.default_rng(9)
        raw = rng.random((7, 3))
        policy = Policy(raw / raw.sum(axis=1, keepdims=True))
        assert policy_from_text(policy_to_text(policy)).table == pytest.approx(
            policy.table, rel=0, abs=0
        )

    def test_kl_divergence_helper(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


class TestMalformedText:
    POLICY = "eqsentinel-policy v1\nstates 2\nactions 2\n0.5 0.5\n1.0 0.0\n"

    @pytest.mark.parametrize(
        "parse, text, error, message",
        [
            (policy_from_text, "eqsentinel-policy v1\nstates 2\n", ShapeError, "'actions' line"),
            (policy_from_text, POLICY.replace("states 2", "states x"), DomainError, "line 2"),
            (policy_from_text, POLICY.replace("states 2", "states 0"), DomainError, "line 2"),
            (policy_from_text, POLICY.replace("actions 2", "action 2"), DomainError, "line 3"),
            (policy_from_text, POLICY.replace("\n1.0 0.0", "\n1.0"), ShapeError, "line 5"),
            (policy_from_text, POLICY.replace("\n1.0 0.0\n", "\n"), ShapeError, "row line"),
            (policy_from_text, POLICY.replace("states 2", "states"), ShapeError, "line 2"),
            (policy_from_text, POLICY.replace("actions 2", "actions 2 2"), ShapeError, "line 3"),
            (policy_from_text, POLICY.replace("0.5 0.5", "0.5 high"), DomainError, "line 4"),
            (policy_from_text, POLICY + "0.3 0.7\n", ShapeError, "line 6"),
            (policy_from_text, POLICY + "states 2\n", ShapeError, "line 6"),
        ],
        ids=[
            "policy-truncated-header", "policy-states-not-int", "policy-zero-states",
            "policy-wrong-key", "policy-short-row", "policy-missing-row",
            "policy-empty-states", "policy-actions-count", "policy-row-not-float",
            "policy-extra-row", "policy-extra-line",
        ],
    )
    def test_error_names_the_line(self, parse, text, error, message):
        with pytest.raises(error, match=re.escape(message)):
            parse(text)


def rows_model(probs=((0.5, 1.0), (0.5, 0.0)), cols=((0, 1), (1, 0))):
    """Two states, one action each, from kernel rows: state 0 moves to either
    state with probability 1/2, and state 1 stays; row 1 is padded."""
    rewards = np.full((2, 2, 1, 1), 0.5)
    return StochasticGameModel(rewards, (np.array(probs), np.array(cols)), discount=0.5)


class TestModelRows:
    def test_rows_are_stored_and_the_dense_view_is_built_once(self):
        model = rows_model()
        assert "transition" not in vars(model)
        np.testing.assert_array_equal(model.transition[:, 0, 0], [[0.5, 0.5], [0.0, 1.0]])
        assert model.transition is model.transition

    def test_dense_view_is_read_only(self):
        model = rows_model()
        with pytest.raises(ValueError, match="read-only"):
            model.transition[0, 0, 0, 0] = 1.0

    def test_dense_input_is_scanned_into_rows(self):
        model = StochasticGameModel(np.full((2, 2, 1, 1), 0.5), rows_model().transition, 0.5)
        for stored, expected in zip(model.kernel, rows_model().kernel):
            assert stored.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_probability_rejected(self, value):
        with pytest.raises(DomainError, match="transition rows"):
            rows_model(probs=((0.5, 1.0), (value, 0.0)))

    def test_negative_probability_rejected(self):
        # Row 0 still sums to 1.
        with pytest.raises(DomainError, match="nonnegative"):
            rows_model(probs=((1.5, 1.0), (-0.5, 0.0)))

    @pytest.mark.parametrize("column", [-1, 2, 3], ids=["below-0", "at-S", "above-S"])
    def test_column_outside_the_states_rejected(self, column):
        with pytest.raises(ShapeError, match="columns"):
            rows_model(cols=((0, 1), (column, 0)))

    @pytest.mark.parametrize(
        "probs, cols",
        [
            (((0.5, 1.0), (0.5, 0.0)), ((0, 1),)),
            (((0.5, 1.0, 0.0), (0.5, 0.0, 0.0)), ((0, 1, 0), (1, 0, 0))),
            ((0.5, 1.0), (0, 1)),
        ],
        ids=["mismatched", "three-rows", "one-dimensional"],
    )
    def test_misshapen_rows_rejected(self, probs, cols):
        with pytest.raises(ShapeError):
            rows_model(probs, cols)

    def test_rows_other_than_a_pair_rejected(self):
        probs, cols = rows_model().kernel
        with pytest.raises(ShapeError, match="pair"):
            StochasticGameModel(np.full((2, 2, 1, 1), 0.5), (probs, cols, cols), 0.5)

    def test_float_columns_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            rows_model(cols=((0.0, 1.0), (1.0, 0.0)))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_row_sum_off_by_more_than_row_tol_rejected(self, sign):
        rows_model(probs=((0.5, 1.0), (0.5 + sign * stochastic.ROW_TOL / 2, 0.0)))
        with pytest.raises(DomainError, match="sum to 1"):
            rows_model(probs=((0.5, 1.0), (0.5 + sign * 2 * stochastic.ROW_TOL, 0.0)))


class TestModelValidation:
    @pytest.mark.parametrize("field", ["rewards", "transition"])
    def test_nan_entry_rejected(self, field):
        arrays = {
            "rewards": np.full((2, 2, 1, 1), 0.5),
            "transition": np.full((2, 1, 1, 2), 0.5),
        }
        arrays[field][0, 0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            StochasticGameModel(discount=0.5, **arrays)


class TestGoldenFormats:
    GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"

    def test_policy_golden_bytes(self):
        text = (self.GOLDEN / "policy_small.txt").read_text()
        policy = policy_from_text(text)
        assert policy_to_text(policy) == text
        assert policy.table[1] == pytest.approx([1.0, 0.0])


class TestLrNullImpossibleAction:
    def test_observing_null_zero_action_kills_every_component(self):
        null = Policy(np.array([[1.0, 0.0]]))
        alt_a = Policy(np.array([[0.9, 0.1]]))
        alt_b = Policy(np.array([[1.0, 0.0]]))
        state = LRMonitorState.fresh((alt_a, alt_b))
        lr_step(state, 0, 1, null, 10.0)
        assert state.value() == 0.0
        # and it stays dead afterwards
        lr_step(state, 0, 0, null, 10.0)
        assert state.value() == 0.0


class TestEmpiricalStateDistribution:
    def test_frequencies(self):
        from _oracles import empirical_state_distribution

        mu = empirical_state_distribution([0, 0, 2, 2, 2, 3], num_states=5)
        assert mu == pytest.approx([2 / 6, 0.0, 3 / 6, 1 / 6, 0.0])

    def test_domain(self):
        from _oracles import empirical_state_distribution

        with pytest.raises(ShapeError):
            empirical_state_distribution([5], num_states=5)
        with pytest.raises(DomainError):
            empirical_state_distribution([], num_states=5)
