import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    _prey_move,
    chase_policy_reference,
    prey_step_reference,
    pursuit_tables_reference,
    suspect_policy_row,
)
from eqsentinel.envs import prey
from eqsentinel.errors import DomainError, ShapeError, StateError


class TestState:
    def test_predator_count_fixed(self):
        with pytest.raises(ShapeError):
            prey.PreyState(predators=((0, 0), (1, 1)), prey=(5, 5))

    def test_positions_on_grid(self):
        with pytest.raises(ShapeError):
            prey.PreyState(predators=((0, 0), (0, 10), (9, 9)), prey=(5, 5))

    def test_capture_flag(self):
        state = prey.PreyState(predators=((5, 5), (0, 9), (9, 0)), prey=(5, 5))
        assert state.captured


class TestStep:
    def test_capture_by_moving_onto_prey(self, rng):
        start = prey.PreyState(predators=((4, 5), (0, 9), (9, 0)), prey=(5, 5))
        captures = 0
        for seed in range(500):
            r = np.random.default_rng(seed)
            nxt, terminal = prey.prey_step(start, 2, r)  # Down onto the prey
            if nxt.predators[0] == nxt.prey:
                captures += 1
                assert terminal
        # The prey stays put with probability ~2/5 at the wall-adjacent cell.
        assert captures > 50

    def test_horizon_exhaustion_terminal_without_capture(self, rng):
        state = prey.PreyState(
            predators=((0, 0), (0, 9), (9, 0)), prey=(5, 5),
            step_count=4999, horizon=5000,
        )
        nxt, terminal = prey.prey_step(state, 0, rng)
        assert terminal and nxt.exhausted
        assert nxt.step_count == 5000

    def test_step_after_terminal_rejected(self, rng):
        captured = prey.PreyState(predators=((5, 5), (0, 9), (9, 0)), prey=(5, 5))
        with pytest.raises(StateError):
            prey.prey_step(captured, 0, rng)
        done = prey.PreyState(
            predators=((0, 0), (0, 9), (9, 0)), prey=(5, 5),
            step_count=5000, horizon=5000,
        )
        with pytest.raises(StateError):
            prey.prey_step(done, 0, rng)

    def test_all_wait_only_counter_moves_for_suspect(self):
        class StayRng:
            def integers(self, n):
                return 0  # everyone else stays

        state = prey.DEFAULT_START
        nxt, terminal = prey.prey_step(state, 0, StayRng())
        assert nxt.predators == state.predators and nxt.prey == state.prey
        assert nxt.step_count == 1 and not terminal

    def test_off_grid_resolves_to_stay(self):
        class StayRng:
            def integers(self, n):
                return 0

        state = prey.PreyState(predators=((0, 0), (0, 9), (9, 0)), prey=(5, 5))
        nxt, _ = prey.prey_step(state, 1, StayRng())  # Up from the top row
        assert nxt.predators[0] == (0, 0)

    def test_steps_match_the_object_stepper_draw_for_draw(self):
        # Short episodes from the corner start: the suspect's random actions
        # push it off the grid often, and most episodes run out the horizon.
        off_grid = exhausted = 0
        for seed in range(6):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            actions = np.random.default_rng(1000 + seed).integers(prey.NUM_ACTIONS, size=400)
            start = dataclasses.replace(prey.DEFAULT_START, horizon=30)
            state = ref_state = start
            for action in actions.tolist():
                off_grid += action != 0 and _prey_move(state.suspect, action) == state.suspect
                state, terminal = prey.prey_step(state, action, rng)
                ref_state, ref_terminal = prey_step_reference(ref_state, action, ref_rng)
                assert (state, terminal) == (ref_state, ref_terminal)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
                if terminal:
                    exhausted += not state.captured
                    state = ref_state = start
        assert off_grid > 0 and exhausted > 0

    def test_episodes_always_end_within_horizon(self):
        _, chase_row, _ = prey.pursuit_tables()
        suspect = prey.suspect_rows(0.6)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            state = prey.PreyState(
                predators=prey.DEFAULT_START.predators,
                prey=prey.DEFAULT_START.prey,
                horizon=5000,
            )
            terminal = False
            steps = 0
            while not terminal:
                row = suspect[chase_row[prey.cell_id(state.suspect)][prey.cell_id(state.prey)]]
                act = int(rng.choice(5, p=row))
                state, terminal = prey.prey_step(state, act, rng)
                steps += 1
            assert steps <= 5000


class TestChasePolicy:
    def test_corner_toward_lower_right(self):
        row = prey.chase_policy((0, 0), (5, 5))
        # Up and Left resolve to staying, hence neutral; Down/Right close in.
        assert row == pytest.approx(np.array([1, 1, 10, 1, 10]) / 23.0)
        assert row[2] == pytest.approx(0.4348, abs=5e-5)

    def test_adjacent_interior(self):
        # One step left of the prey: Right closes in, vertical moves widen.
        row = prey.chase_policy((4, 4), (4, 5))
        weights = np.array([1.0, 0.1, 0.1, 0.1, 10.0])
        assert row == pytest.approx(weights / weights.sum())

    def test_undefined_on_capture(self):
        with pytest.raises(DomainError):
            prey.chase_policy((3, 3), (3, 3))

    @pytest.mark.parametrize("pos", [(-1, 0), (0, 10), (10, 3)])
    @pytest.mark.parametrize("side", ["predator", "prey"])
    def test_off_grid_position_rejected(self, pos, side):
        pair = (pos, (4, 4)) if side == "predator" else ((4, 4), pos)
        with pytest.raises(ShapeError, match=r"off the 10x10 grid"):
            prey.chase_policy(*pair)

    def test_returns_a_copy(self):
        row = prey.chase_policy((0, 0), (5, 5))
        row[:] = 0.0
        assert prey.chase_policy((0, 0), (5, 5)).sum() == pytest.approx(1.0)

    @given(
        pr=st.tuples(st.integers(2, 7), st.integers(2, 7)),
        dr=st.integers(-2, 2),
        dc=st.integers(-2, 2),
        shift=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    @settings(max_examples=80)
    def test_translation_invariance_in_the_interior(self, pr, dr, dc, shift):
        # Weights depend only on distance comparisons, so a common translate
        # that keeps every landing cell on the grid changes nothing.
        if (dr, dc) == (0, 0):
            return
        pred = (pr[0] + dr, pr[1] + dc)
        moved_pred = (pred[0] + shift[0], pred[1] + shift[1])
        moved_prey = (pr[0] + shift[0], pr[1] + shift[1])
        cells = [pred, pr, moved_pred, moved_prey]
        if not all(1 <= r <= 8 and 1 <= c <= 8 for r, c in cells):
            return
        base = prey.chase_policy(pred, pr)
        moved = prey.chase_policy(moved_pred, moved_prey)
        assert base == pytest.approx(moved, abs=0)


class TestPursuitTables:
    def test_tables_follow_the_rules(self):
        moves, chase_row, chase_rows = prey.pursuit_tables()
        ref_moves, ref_chase_row, ref_chase_rows = pursuit_tables_reference()
        assert chase_rows.shape == (40, prey.NUM_ACTIONS)
        assert moves == ref_moves
        assert chase_row == ref_chase_row
        assert chase_rows.dtype == ref_chase_rows.dtype
        assert chase_rows.tobytes() == ref_chase_rows.tobytes()
        cells = [(r, c) for r in range(prey.GRID) for c in range(prey.GRID)]
        for i, pos in enumerate(cells):
            assert prey.cell_id(pos) == i
            for target in cells:
                if pos != target:
                    expected = chase_policy_reference(pos, target)
                    assert prey.chase_policy(pos, target).tobytes() == expected.tobytes()

    def test_chase_rows_are_read_only(self):
        _, _, chase_rows = prey.pursuit_tables()
        assert not chase_rows.flags.writeable
        with pytest.raises(ValueError):
            chase_rows[0, 0] = 0.0


def _corner_row() -> int:
    """The chase row of the corner start: suspect at (0, 0), prey at (5, 5)."""
    _, chase_row, _ = prey.pursuit_tables()
    return chase_row[prey.cell_id((0, 0))][prey.cell_id((5, 5))]


class TestSuspectPolicy:
    def test_blend_endpoints(self):
        chase = prey.chase_policy((0, 0), (5, 5))
        assert prey.suspect_rows(0.0)[_corner_row()] == pytest.approx(np.full(5, 0.2))
        assert prey.suspect_rows(1.0)[_corner_row()] == pytest.approx(chase)

    def test_observed_probabilities_at_true_weight(self):
        row = prey.suspect_rows(0.6)[_corner_row()]
        assert row[2] == pytest.approx(0.3409, abs=5e-5)
        assert row[0] == pytest.approx(0.1061, abs=5e-5)

    def test_weight_domain(self):
        for eps in (-0.1, 1.2, math.nan):
            with pytest.raises(DomainError):
                prey.suspect_rows(eps)

    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.6, 1.0])
    def test_rows_match_the_pairwise_blend_bit_for_bit(self, eps):
        _, chase_row, _ = prey.pursuit_tables()
        rows = prey.suspect_rows(eps)
        cells = [(r, c) for r in range(prey.GRID) for c in range(prey.GRID)]
        for i, suspect in enumerate(cells):
            for j, target in enumerate(cells):
                if i != j:
                    expected = suspect_policy_row(suspect, target, eps)
                    assert rows[chase_row[i][j]].tobytes() == expected.tobytes()


class TestEpisodeTrace:
    def test_layout_and_martingale_recursion(self):
        from eqsentinel.envs import trace

        rng = np.random.default_rng(1)
        cols, rows = trace.prey_episode_trace(
            0.6, (0.1, 0.3, 0.5, 0.7, 0.9), rng, max_steps=12
        )
        assert cols[:5] == ["step", "row", "col", "action", "martingale"]
        assert rows[0][3] == "Down"
        assert rows[0][4] == pytest.approx(1.0)
        played = rows[0][5:10]
        assert played == pytest.approx([0.1061, 0.1061, 0.3409, 0.1061, 0.3409], abs=5e-5)
        # Martingale column advances by the logged per-round factor.
        assert rows[1][4] == pytest.approx(1.5869, abs=1e-3)
        for before, after in zip(rows, rows[1:]):
            assert after[4] == pytest.approx(before[4] * before[10], rel=1e-12)

    @pytest.mark.parametrize(
        "eps_true, eps_grid", [(-0.1, (0.1, 0.5)), (1.2, (0.1, 0.5)), (0.6, (0.1, 1.5))]
    )
    def test_weights_outside_the_unit_interval(self, eps_true, eps_grid):
        from eqsentinel.envs import trace

        with pytest.raises(DomainError):
            trace.prey_episode_trace(eps_true, eps_grid, np.random.default_rng(1))
