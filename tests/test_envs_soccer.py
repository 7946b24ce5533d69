import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _soccer_is_terminal,
    soccer_build_model_reference,
    soccer_step_reference,
    soccer_successor_table_reference,
)
from eqsentinel.envs import soccer
from eqsentinel.errors import ShapeError, StateError
from eqsentinel.stochastic import _kernel_rows, smooth_policy


class TestStateSpace:
    def test_index_round_trip(self):
        for idx in range(soccer.NUM_STATES):
            assert soccer.state_index(soccer.index_state(idx)) == idx

    def test_positions_validated(self):
        with pytest.raises(ShapeError):
            soccer.SoccerState((4, 0), (0, 0), 0)
        with pytest.raises(ShapeError):
            soccer.SoccerState((0, 5), (0, 0), 0)

    def test_terminal_definition(self):
        assert soccer.is_terminal(soccer.SoccerState((2, 4), (0, 1), 0))
        assert not soccer.is_terminal(soccer.SoccerState((2, 4), (0, 1), 1))
        assert soccer.is_terminal(soccer.SoccerState((2, 2), (3, 0), 1))
        assert not soccer.is_terminal(soccer.SoccerState((2, 2), (3, 0), 0))

    def test_terminal_flag_matches_the_goal_columns(self):
        for idx in range(soccer.NUM_STATES):
            state = soccer.index_state(idx)
            assert soccer.is_terminal(state) is _soccer_is_terminal(state)


class TestStep:
    def test_free_move_east(self, rng):
        state = soccer.SoccerState((1, 0), (3, 4), 0)
        nxt, reward, terminal, _ = soccer.soccer_step(state, 2, 4, rng)
        assert nxt.a_pos == (1, 1)
        assert reward == pytest.approx(-0.05)
        assert not terminal

    def test_scoring_move(self, rng):
        state = soccer.SoccerState((0, 3), (3, 0), 0)
        nxt, reward, terminal, _ = soccer.soccer_step(state, 2, 4, rng)
        assert terminal and nxt.a_pos == (0, 4)
        assert reward == pytest.approx(100.0 - 0.05)

    def test_defender_steal_and_score(self, rng):
        state = soccer.SoccerState((3, 4), (2, 1), 1)
        nxt, reward, terminal, _ = soccer.soccer_step(state, 4, 3, rng)
        if nxt.b_pos == (2, 0):  # the defender may slip
            assert terminal
            assert reward == pytest.approx(-100.0 - 0.05)

    def test_both_wait_far_apart_only_slip_noise(self, rng):
        state = soccer.SoccerState((0, 0), (3, 4), 0)
        nxt, reward, terminal, _ = soccer.soccer_step(state, 4, 4, rng)
        assert nxt == state and not terminal
        assert reward == pytest.approx(-0.05)

    def test_step_on_terminal_rejected(self, rng):
        with pytest.raises(StateError):
            soccer.soccer_step(soccer.SoccerState((0, 4), (0, 0), 0), 4, 4, rng)

    def test_same_cell_state_rejected(self, rng):
        # The table absorbs it and play from kickoff never reaches it.
        with pytest.raises(StateError, match="one cell"):
            soccer.soccer_step(soccer.SoccerState((1, 2), (1, 2), 0), 2, 3, rng)

    @pytest.mark.parametrize("seed", [20260810, 20260811])
    def test_matches_the_resolve_oracle_draw_for_draw(self, seed):
        # Uniform actions reach exchanges, contests and goals often; equal
        # generator states after every step mean equal draws.
        _, coin, _, _ = soccer._rule_arrays()
        actions = np.random.default_rng(seed).integers(5, size=(20_000, 2)).tolist()
        rng, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        state = soccer.INITIAL_STATE
        coins = goals = 0
        for action_a, action_b in actions:
            step = soccer.soccer_step(state, action_a, action_b, rng)
            assert step == soccer_step_reference(state, action_a, action_b, rng_ref)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
            nxt, _, terminal, effective_b = step
            coins += coin[soccer.state_index(state), action_a, effective_b]
            goals += terminal
            state = soccer.INITIAL_STATE if terminal else nxt
        assert coins > 100 and goals > 100

    def test_wall_clipping(self, rng):
        state = soccer.SoccerState((0, 0), (3, 4), 0)
        nxt, _, _, _ = soccer.soccer_step(state, 0, 4, rng)  # N at the top wall
        assert nxt.a_pos == (0, 0)

    def test_move_into_waiting_defender_transfers_ball(self):
        # Deterministic given no slip: force slip draw above 0.25.
        class FakeRng:
            def __init__(self, values):
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        state = soccer.SoccerState((1, 2), (1, 3), 0)
        nxt, _, terminal, _ = soccer.soccer_step(state, 2, 4, FakeRng([0.9]))
        assert nxt.a_pos == (1, 2) and nxt.b_pos == (1, 3)
        assert nxt.possession == 1 and not terminal

    def test_swap_flips_possession_half_the_time(self):
        state = soccer.SoccerState((1, 2), (1, 3), 0)
        flips = 0
        rng = np.random.default_rng(3)
        for _ in range(4000):
            nxt, _, _, _ = soccer.soccer_step(state, 2, 3, rng)
            assert nxt.a_pos == state.a_pos and nxt.b_pos == state.b_pos
            flips += nxt.possession
        # Possession flip only happens on non-slip branches: P = 0.75 * 0.5
        # (slip turns the swap into a move onto a waiting defender).
        assert flips / 4000 == pytest.approx(0.75 * 0.5 + 0.25, abs=0.03)


class TestTabularModel:
    def test_dimensions(self, soccer_game):
        assert soccer_game.model.num_states == 800
        assert soccer_game.model.action_counts == (5, 5)
        assert soccer_game.model.transition.shape == (800, 5, 5, 800)

    def test_rows_sum_to_one(self, soccer_game):
        sums = soccer_game.model.transition.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_slip_split_for_nonadjacent_players(self, soccer_game):
        state = soccer.SoccerState((0, 0), (3, 4), 0)
        s = soccer.state_index(state)
        row = soccer_game.model.transition[s, 4, 0]  # A waits, B commanded N
        moved = soccer.state_index(soccer.SoccerState((0, 0), (2, 4), 0))
        slipped = soccer.state_index(state)
        assert row[moved] == pytest.approx(0.75)
        assert row[slipped] == pytest.approx(0.25)
        assert row.sum() == pytest.approx(1.0)

    def test_terminal_states_absorbing_with_zero_native_reward(self, soccer_game):
        for s in np.nonzero(soccer._rule_arrays()[2])[0]:
            assert soccer_game.model.transition[s, :, :, s].min() == 1.0
            assert np.all(soccer_game.native_reward[s] == 0.0)

    def test_scaled_rewards_are_constant_sum(self, soccer_game):
        total = soccer_game.model.rewards[0] + soccer_game.model.rewards[1]
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_native_zero_maps_to_half(self, soccer_game):
        terminal = np.nonzero(soccer._rule_arrays()[2])[0][0]
        assert soccer_game.model.rewards[0][terminal].max() == pytest.approx(0.5)

    def test_matches_the_reference_builder_bit_for_bit(self, soccer_game):
        reference = soccer_build_model_reference()
        assert soccer_game.model.transition.tobytes() == reference.model.transition.tobytes()
        assert np.array_equal(soccer_game.native_reward, reference.native_reward)
        assert np.array_equal(soccer_game.model.rewards, reference.model.rewards)

    def test_rows_are_the_scan_of_the_reference_kernel(self, soccer_game):
        # The stored rows are what the blocked scan makes of the dense kernel
        # the reference builder fills, padding and column dtype included.
        reference = soccer_build_model_reference().model.transition
        rows = _kernel_rows(reference.reshape(-1, soccer.NUM_STATES))
        probs, cols = soccer_game.model.kernel
        assert probs.tobytes() == rows[0].tobytes() and probs.shape == (3, 20_000)
        assert cols.tobytes() == rows[1].tobytes() and cols.dtype == rows[1].dtype
        assert np.count_nonzero(probs) == 29_796

    def test_build_leaves_the_dense_view_unbuilt(self):
        model = soccer.soccer_build_model().model
        assert "transition" not in vars(model)
        assert model.transition.shape == (800, 5, 5, 800)
        assert "transition" in vars(model)

    def test_simulator_matches_model_rows(self, soccer_game):
        # Monte-Carlo frequencies of the simulator against the exact kernel.
        cases = [
            (soccer.SoccerState((1, 2), (1, 3), 0), 2, 3),  # swap contention
            (soccer.SoccerState((1, 0), (1, 4), 0), 2, 2),  # kickoff pushes
            (soccer.SoccerState((2, 2), (2, 3), 1), 2, 4),  # carrier B waits
        ]
        n = 100_000
        for state, a_act, b_act in cases:
            s = soccer.state_index(state)
            expected = soccer_game.model.transition[s, a_act, b_act]
            rng = np.random.default_rng(s)
            counts = np.zeros(soccer.NUM_STATES)
            for _ in range(n):
                nxt, _, _, _ = soccer.soccer_step(state, a_act, b_act, rng)
                counts[soccer.state_index(nxt)] += 1
            freq = counts / n
            for idx in np.nonzero(expected)[0]:
                p = expected[idx]
                se = np.sqrt(p * (1 - p) / n)
                assert abs(freq[idx] - p) <= 3 * se + 1e-12
            assert freq[expected == 0].sum() == 0.0


class TestSuccessorTable:
    def test_branches_rebuild_the_model_kernel_exactly(self, soccer_game):
        first, coin, _, _ = soccer._rule_arrays()
        transition = soccer_game.model.transition
        slip = soccer.SLIP_PROB
        rows = 0
        for s in range(soccer.NUM_STATES):
            for a_act in range(soccer.NUM_ACTIONS):
                for b_act in range(soccer.NUM_ACTIONS):
                    # The model's accumulation order: commanded move, then
                    # the slip to Wait, each split by the coin.
                    branches = [(1.0 - slip, b_act), (slip, soccer.WAIT)]
                    if b_act == soccer.WAIT:
                        branches = [(1.0, soccer.WAIT)]
                    row = np.zeros(soccer.NUM_STATES)
                    for p_slip, effective_b in branches:
                        n = first[s, a_act, effective_b]
                        if coin[s, a_act, effective_b]:
                            row[n] += p_slip * 0.5
                            row[n + 1] += p_slip * 0.5
                        else:
                            row[n] += p_slip
                    assert np.array_equal(row, transition[s, a_act, b_act]), (s, a_act, b_act)
                    rows += 1
        assert rows == 20_000

    def test_array_rules_match_the_resolve_oracle(self):
        # All 800 x 25 (state, action, effective action) entries, outcome
        # order included (possession 0, then 1), and the terminal and
        # absorbing flags.
        first, coin, terminal, absorbing = soccer._rule_arrays()
        reference, reference_terminal = soccer_successor_table_reference()
        outcomes = tuple(
            tuple((n, n + 1) if flip else (n,) for n, flip in zip(row, flips))
            for row, flips in zip(
                first.reshape(soccer.NUM_STATES, -1).tolist(),
                coin.reshape(soccer.NUM_STATES, -1).tolist(),
            )
        )
        assert sum(map(len, outcomes)) == 20_000
        assert outcomes == reference
        assert tuple(terminal.tolist()) == reference_terminal
        states = map(soccer.index_state, range(soccer.NUM_STATES))
        same_cell = [state.a_pos == state.b_pos for state in states]
        assert np.array_equal(absorbing, terminal | same_cell)

    def test_kickoff_table_is_the_oracle_with_kickoff_after_a_goal(self):
        reference, terminal = soccer_successor_table_reference()
        start = soccer.state_index(soccer.INITIAL_STATE)
        kickoff = [start if flag else n for n, flag in enumerate(terminal)]
        table = soccer.kickoff_successors()
        assert table == tuple(
            tuple(tuple(kickoff[n] for n in outcome) for outcome in row) for row in reference
        )
        # One tuple object per distinct outcome of the rules, shared by
        # every entry that leads to it.
        shared = {id(outcome) for row in table for outcome in row}
        assert len(shared) == len({outcome for row in reference for outcome in row})

    def test_import_builds_nothing(self):
        # perfbench imports the package afresh on every workload, so work at
        # import would show in every workload's set-up time.
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "import eqsentinel, eqsentinel.harness.cli\n"
            "from eqsentinel.envs import soccer\n"
            "from eqsentinel.harness import experiments\n"
            "print(soccer._rule_arrays.cache_info().currsize,"
            " soccer.kickoff_successors.cache_info().currsize)"
        ).format(src=str(root / "src"))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0 0"

    def test_kickoff_never_reaches_a_shared_cell(self):
        # The rules absorb same-cell states as the model does; the
        # simulator never meets one.
        first, coin, _, _ = soccer._rule_arrays()
        seen = {soccer.state_index(soccer.INITIAL_STATE)}
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for n in {*first[s].ravel().tolist(), *(first[s][coin[s]] + 1).tolist()} - seen:
                seen.add(n)
                frontier.append(n)
        for s in seen:
            state = soccer.index_state(s)
            assert state.a_pos != state.b_pos


class TestAfraidTransform:
    def test_east_heavy_row(self):
        row = soccer.afraid_transform([0.01, 0.01, 0.96, 0.01, 0.01])
        assert row == pytest.approx([0.01, 0.01, 0.096, 0.442, 0.442])

    def test_no_east_mass_is_identity(self):
        row = np.array([0.5, 0.2, 0.0, 0.2, 0.1])
        assert soccer.afraid_transform(row) == pytest.approx(row)

    def test_table_matches_rows_bit_for_bit(self, soccer_solution):
        table = smooth_policy(soccer_solution.row_policy, 0.05).table
        rows = np.vstack([soccer.afraid_transform(row) for row in table])
        assert soccer.afraid_transform(table).tobytes() == rows.tobytes()

    def test_rejects_rows_of_another_length(self):
        with pytest.raises(ShapeError):
            soccer.afraid_transform(np.full((3, 4), 0.25))

    @given(st.lists(st.floats(0.001, 1.0), min_size=5, max_size=5))
    @settings(max_examples=100)
    def test_preserves_simplex(self, raw):
        row = np.array(raw)
        row /= row.sum()
        out = soccer.afraid_transform(row)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)
        assert out.min() >= 0.0


class TestEquilibrium:
    def test_solver_reaches_fixed_point_quickly(self, soccer_solution):
        assert soccer_solution.converged
        assert soccer_solution.iterations <= 100

    def test_kickoff_policy_pushes_east(self, soccer_solution):
        idx = soccer.state_index(soccer.INITIAL_STATE)
        smoothed = smooth_policy(soccer_solution.row_policy, 0.05)
        assert smoothed.table[idx] == pytest.approx(
            [0.01, 0.01, 0.96, 0.01, 0.01], abs=1e-9
        )

    def test_episodes_terminate_under_smoothed_play(self, soccer_solution):
        attacker = smooth_policy(soccer_solution.row_policy, 0.05)
        defender = smooth_policy(soccer_solution.col_policy, 0.05)
        rng = np.random.default_rng(2)
        lengths = []
        for _ in range(1000):
            state = soccer.INITIAL_STATE
            for t in range(1, 100_000):
                s = soccer.state_index(state)
                a = int(rng.choice(5, p=attacker.table[s]))
                b = int(rng.choice(5, p=defender.table[s]))
                state, _, terminal, _ = soccer.soccer_step(state, a, b, rng)
                if terminal:
                    lengths.append(t)
                    break
            else:
                pytest.fail("episode did not terminate")
        assert np.mean(lengths) < 1000


class TestEpisodeTrace:
    @pytest.mark.parametrize("seed, max_steps", [(0, 12), (7, 40)])
    def test_nash_play_trace(self, soccer_solution, seed, max_steps):
        from eqsentinel.envs import trace

        attacker = smooth_policy(soccer_solution.row_policy, 0.05)
        defender = smooth_policy(soccer_solution.col_policy, 0.05)
        rng = np.random.default_rng(seed)
        cols, rows = trace.soccer_episode_trace(
            attacker, defender, null_attacker=attacker, rng=rng, max_steps=max_steps
        )
        assert cols[0] == "step" and "martingale" in cols
        first = rows[0]
        assert (first[1], first[2]) == soccer.INITIAL_STATE.a_pos
        assert first[9] == "A"
        # Attacker starts East-heavy under the smoothed equilibrium.
        east = first[cols.index("pa_E")]
        assert east == pytest.approx(0.96, abs=1e-9)
        # Monitoring the played policy against itself keeps the wealth at 1.
        assert all(r[cols.index("martingale")] == pytest.approx(1.0) for r in rows)
        # A slip turns the commanded action into Wait, and the column flags
        # exactly the rows where the realized action differs; the longer
        # trace holds a commanded Wait, which a slip leaves unchanged.
        act_b, real_b, slip = (cols.index(c) for c in ("act_b", "real_b", "slip"))
        for r in rows:
            assert r[slip] == int(r[real_b] != r[act_b])
            assert r[real_b] in (r[act_b], "X")
        assert max_steps == 12 or any(r[act_b] == "X" for r in rows)

    def test_timid_play_drives_wealth_up(self, soccer_solution):
        from eqsentinel.envs import trace
        from eqsentinel.stochastic import Policy, mixture_policy

        null = smooth_policy(soccer_solution.row_policy, 0.05)
        defender = smooth_policy(soccer_solution.col_policy, 0.05)
        afraid = Policy(np.vstack([soccer.afraid_transform(r) for r in null.table]))
        played = mixture_policy(null, afraid, 0.5)
        rng = np.random.default_rng(4)
        cols, rows = trace.soccer_episode_trace(
            played, defender, null_attacker=null, rng=rng, max_steps=40
        )
        for before, after in zip(rows, rows[1:]):
            assert after[cols.index("martingale")] == pytest.approx(
                before[cols.index("martingale")] * before[cols.index("evalue")],
                rel=1e-12,
            )


class TestVisitAveragedDivergence:
    def test_rollout_kl_diagnostic_grows_with_deviation(self, soccer_solution):
        # Detection-rate diagnostics on the episodic match use the empirical
        # visit distribution of a long alternative-play rollout.
        from _oracles import empirical_state_distribution, lr_detection_bound, state_avg_kl
        from eqsentinel.stochastic import Policy, mixture_policy

        null = smooth_policy(soccer_solution.row_policy, 0.05)
        defender = smooth_policy(soccer_solution.col_policy, 0.05)
        afraid = Policy(np.vstack([soccer.afraid_transform(r) for r in null.table]))
        rng = np.random.default_rng(6)
        kls = []
        for eps in (0.1, 0.3):
            alt = mixture_policy(null, afraid, eps)
            visits = []
            state = soccer.INITIAL_STATE
            for _ in range(10_000):
                s = soccer.state_index(state)
                visits.append(s)
                a = int(rng.choice(5, p=alt.table[s]))
                b = int(rng.choice(5, p=defender.table[s]))
                state, _, terminal, _ = soccer.soccer_step(state, a, b, rng)
                if terminal:
                    state = soccer.INITIAL_STATE
            mu = empirical_state_distribution(visits, soccer.NUM_STATES)
            kl = state_avg_kl(null, alt, mu)
            assert np.isfinite(kl) and kl > 0.0
            # The ceiling composes with the empirical divergence.
            assert lr_detection_bound(20.0, 0.0, kl) > 0.0
            kls.append(kl)
        assert kls[1] > kls[0]
