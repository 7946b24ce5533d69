"""Grid soccer: an attacker carries a ball toward one goal column while a
slippery defender tries to steal it and reach the opposite column.

Positions are (row, col) on a 4-row by 5-column pitch. Player A attacks the
right edge (column 4), player B the left edge (column 0). Actions are
ordered (N, S, E, W, Wait); N decreases the row, E increases the column.
Off-grid moves resolve to staying in place.

Collision rules, applied after the defender's slip draw:
  * both players target each other's cells, or the same empty cell: both
    bounce back and possession flips with probability 1/2;
  * one player moves onto an effectively stationary opponent: the mover
    bounces back and possession transfers to the stationary player;
  * otherwise both moves execute and possession is unchanged.

The tabular model enumerates every slip/bounce branch analytically, so its
rows are exact; the simulator below draws the same branches with an rng and
is checked against the model by Monte Carlo in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import ShapeError, StateError
from ..stochastic import StochasticGameModel

ACTION_NAMES = ("N", "S", "E", "W", "X")
NUM_ACTIONS = 5
_MOVES = ((-1, 0), (1, 0), (0, 1), (0, -1), (0, 0))
WAIT = 4

WIDTH = 5
HEIGHT = 4
NUM_CELLS = WIDTH * HEIGHT
NUM_STATES = NUM_CELLS * NUM_CELLS * 2

#: Affine map taking native rewards into [0, 1]: r01 = (r + NATIVE_OFFSET) / NATIVE_SCALE.
NATIVE_OFFSET = 100.05
NATIVE_SCALE = 200.1


@dataclass(frozen=True)
class SoccerRules:
    slip_prob: float = 0.25
    score_reward: float = 100.0
    concede_reward: float = -100.0
    step_cost: float = -0.05
    goal_col_a: int = WIDTH - 1
    goal_col_b: int = 0


DEFAULT_RULES = SoccerRules()


@dataclass(frozen=True)
class SoccerState:
    a_pos: tuple[int, int]
    b_pos: tuple[int, int]
    possession: int  # 0 = A carries, 1 = B carries

    def __post_init__(self) -> None:
        for pos in (self.a_pos, self.b_pos):
            r, c = pos
            if not (0 <= r < HEIGHT and 0 <= c < WIDTH):
                raise ShapeError(f"position {pos} off the {HEIGHT}x{WIDTH} pitch")
        if self.possession not in (0, 1):
            raise ShapeError("possession must be 0 (A) or 1 (B)")


#: Kickoff used throughout the experiments: A at (1, 0), B at (1, 4), A carries.
INITIAL_STATE = SoccerState((1, 0), (1, 4), 0)


def is_terminal(state: SoccerState, rules: SoccerRules = DEFAULT_RULES) -> bool:
    if state.possession == 0:
        return state.a_pos[1] == rules.goal_col_a
    return state.b_pos[1] == rules.goal_col_b


def _clipped_target(pos: tuple[int, int], action: int) -> tuple[int, int]:
    dr, dc = _MOVES[action]
    r, c = pos[0] + dr, pos[1] + dc
    if not (0 <= r < HEIGHT and 0 <= c < WIDTH):
        return pos
    return (r, c)


def _resolve(
    state: SoccerState, action_a: int, effective_b: int
) -> list[tuple[float, tuple[int, int], tuple[int, int], int]]:
    """Post-slip outcomes as (probability, a_pos, b_pos, possession)."""
    a_tgt = _clipped_target(state.a_pos, action_a)
    b_tgt = _clipped_target(state.b_pos, effective_b)
    a_moved = a_tgt != state.a_pos
    b_moved = b_tgt != state.b_pos
    if a_moved and b_moved and a_tgt == state.b_pos and b_tgt == state.a_pos:
        # Simultaneous cell exchange: rebound, coin flip for the ball.
        return [
            (0.5, state.a_pos, state.b_pos, 0),
            (0.5, state.a_pos, state.b_pos, 1),
        ]
    if a_tgt == b_tgt:
        if not b_moved:
            return [(1.0, state.a_pos, state.b_pos, 1)]
        if not a_moved:
            return [(1.0, state.a_pos, state.b_pos, 0)]
        return [
            (0.5, state.a_pos, state.b_pos, 0),
            (0.5, state.a_pos, state.b_pos, 1),
        ]
    return [(1.0, a_tgt, b_tgt, state.possession)]


@dataclass(frozen=True)
class StepInfo:
    """Realized randomness of one step, for episode traces."""

    effective_b: int
    slipped: bool


def soccer_step_traced(
    state: SoccerState,
    action_a: int,
    action_b: int,
    rng: np.random.Generator,
    rules: SoccerRules = DEFAULT_RULES,
) -> tuple[SoccerState, float, bool, StepInfo]:
    """As :func:`soccer_step`, also reporting the defender's realized action."""
    if is_terminal(state, rules):
        raise StateError("step on a terminal soccer state")
    if not (0 <= action_a < NUM_ACTIONS and 0 <= action_b < NUM_ACTIONS):
        raise ShapeError("soccer actions must lie in [0, 5)")
    slipped = rng.random() < rules.slip_prob
    effective_b = WAIT if slipped else action_b
    outcomes = _resolve(state, action_a, effective_b)
    if len(outcomes) == 1:
        _, a_pos, b_pos, possession = outcomes[0]
    else:
        pick = int(rng.random() < 0.5)
        _, a_pos, b_pos, possession = outcomes[pick]
    nxt = SoccerState(a_pos, b_pos, possession)
    reward = rules.step_cost
    terminal = is_terminal(nxt, rules)
    if terminal:
        reward += rules.score_reward if nxt.possession == 0 else rules.concede_reward
    return nxt, reward, terminal, StepInfo(effective_b, slipped and action_b != WAIT)


def soccer_step(
    state: SoccerState,
    action_a: int,
    action_b: int,
    rng: np.random.Generator,
    rules: SoccerRules = DEFAULT_RULES,
) -> tuple[SoccerState, float, bool]:
    """Advance the match by one joint action; reward is from A's side."""
    nxt, reward, terminal, _ = soccer_step_traced(state, action_a, action_b, rng, rules)
    return nxt, reward, terminal


# -- tabular model -----------------------------------------------------------


def state_index(state: SoccerState) -> int:
    a = state.a_pos[0] * WIDTH + state.a_pos[1]
    b = state.b_pos[0] * WIDTH + state.b_pos[1]
    return (a * NUM_CELLS + b) * 2 + state.possession


def index_state(index: int) -> SoccerState:
    if not 0 <= index < NUM_STATES:
        raise ShapeError(f"state index {index} out of range")
    possession = index % 2
    rest = index // 2
    b, a = rest % NUM_CELLS, rest // NUM_CELLS
    return SoccerState(divmod(a, WIDTH), divmod(b, WIDTH), possession)


@cache
def successor_table() -> tuple[tuple[tuple[int, ...], ...], tuple[bool, ...]]:
    """Post-slip dynamics under the default rules over state ids, for
    simulation loops.

    ``successors[s][NUM_ACTIONS * action_a + effective_b]`` holds the ids
    :func:`_resolve` leads to from state ``s``: one id, or two (possession
    0, then 1) that a fair coin picks between. Terminal and same-cell states
    absorb, as in :func:`soccer_build_model`; ``terminal[s]`` flags the
    scoring states. Built on first use and kept for the life of the process.
    """
    ids = list(range(NUM_STATES))  # one int object per id, shared by every entry
    distinct: dict[tuple[int, ...], tuple[int, ...]] = {}
    successors = []
    terminal = []
    for s in ids:
        state = index_state(s)
        terminal.append(is_terminal(state))
        if terminal[-1] or state.a_pos == state.b_pos:
            successors.append(((s,),) * NUM_ACTIONS**2)
            continue
        row = []
        for action_a in range(NUM_ACTIONS):
            for effective_b in range(NUM_ACTIONS):
                nxt = tuple(
                    ids[state_index(SoccerState(a_pos, b_pos, possession))]
                    for _, a_pos, b_pos, possession in _resolve(state, action_a, effective_b)
                )
                row.append(distinct.setdefault(nxt, nxt))
        successors.append(tuple(row))
    return tuple(successors), tuple(terminal)


@dataclass(frozen=True)
class SoccerTabularGame:
    """Exact tabular form of the match plus its native zero-sum rewards.

    ``model`` carries the [0, 1]-rescaled rewards demanded by the model type;
    ``native_reward`` keeps A's raw expected reward (step cost and +-100
    scoring), which is what the solver consumes.
    """

    model: StochasticGameModel
    native_reward: np.ndarray  # (S, 5, 5), expected reward to A
    terminal: np.ndarray  # (S,) bool
    rules: SoccerRules


def soccer_build_model(rules: SoccerRules = DEFAULT_RULES) -> SoccerTabularGame:
    """Enumerate every slip/bounce branch into an exact transition kernel.

    Terminal states (and the unreachable same-cell states) are absorbing
    with zero native reward.
    """
    transition = np.zeros((NUM_STATES, NUM_ACTIONS, NUM_ACTIONS, NUM_STATES))
    native = np.zeros((NUM_STATES, NUM_ACTIONS, NUM_ACTIONS))
    terminal = np.zeros(NUM_STATES, dtype=bool)
    for s in range(NUM_STATES):
        state = index_state(s)
        absorbing = is_terminal(state, rules) or state.a_pos == state.b_pos
        terminal[s] = is_terminal(state, rules)
        if absorbing:
            transition[s, :, :, s] = 1.0
            continue
        for action_a in range(NUM_ACTIONS):
            for action_b in range(NUM_ACTIONS):
                branches = [(1.0 - rules.slip_prob, action_b), (rules.slip_prob, WAIT)]
                if action_b == WAIT:
                    branches = [(1.0, WAIT)]
                for slip_prob, effective_b in branches:
                    for prob, a_pos, b_pos, possession in _resolve(
                        state, action_a, effective_b
                    ):
                        p = slip_prob * prob
                        nxt = SoccerState(a_pos, b_pos, possession)
                        reward = rules.step_cost
                        if is_terminal(nxt, rules):
                            reward += (
                                rules.score_reward
                                if nxt.possession == 0
                                else rules.concede_reward
                            )
                        transition[s, action_a, action_b, state_index(nxt)] += p
                        native[s, action_a, action_b] += p * reward
    scaled = (native + NATIVE_OFFSET) / NATIVE_SCALE
    rewards = np.stack([scaled, 1.0 - scaled])
    model = StochasticGameModel(rewards=rewards, transition=transition, discount=0.95)
    return SoccerTabularGame(
        model=model, native_reward=native, terminal=terminal, rules=rules
    )


def afraid_transform(policy_row) -> np.ndarray:
    """Timid-attacker rewrite of one action row: strip 90% of the East mass
    and split it evenly between West and Wait."""
    row = np.asarray(policy_row, dtype=float)
    if row.shape != (NUM_ACTIONS,):
        raise ShapeError("soccer policy rows have 5 entries")
    out = row.copy()
    delta = 0.9 * out[2]
    out[2] -= delta
    out[3] += 0.5 * delta
    out[4] += 0.5 * delta
    return out
