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

The rules are evaluated once, as arrays over every state id, attacker action
and effective defender action: :func:`_rule_arrays`, their one encoding. The
tabular model weighs those post-slip outcomes by the slip and coin
probabilities, so its rows are exact; :func:`soccer_step` draws the slip and
the coin over them, and :func:`kickoff_successors` lists them for the trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import ShapeError, StateError
from ..stochastic import StochasticGameModel, _sparse_rows

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


#: Chance that the defender's commanded action is replaced by Wait.
SLIP_PROB = 0.25
#: Native rewards to A: every step costs STEP_COST, and a step that ends in a
#: goal adds SCORE_REWARD (A scores) or CONCEDE_REWARD (B scores).
STEP_COST = -0.05
SCORE_REWARD = 100.0
CONCEDE_REWARD = -100.0


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


def is_terminal(state: SoccerState) -> bool:
    """Whether the carrier stands on its goal column (A: the last, B: the
    first): the ``terminal`` flag of :func:`_rule_arrays`."""
    return bool(_rule_arrays()[2][state_index(state)])


def soccer_step(
    state: SoccerState,
    action_a: int,
    action_b: int,
    rng: np.random.Generator,
) -> tuple[SoccerState, float, bool, int]:
    """Advance the match by one joint action: the defender's slip, then a coin
    only where the rules leave two outcomes. Returns the next state, A's
    reward, whether a goal ended the match and the defender's effective action."""
    first, coin, terminal, _ = _rule_arrays()
    s = state_index(state)
    if terminal[s]:
        raise StateError("step on a terminal soccer state")
    if state.a_pos == state.b_pos:
        raise StateError("step on a soccer state with both players in one cell")
    if not (0 <= action_a < NUM_ACTIONS and 0 <= action_b < NUM_ACTIONS):
        raise ShapeError("soccer actions must lie in [0, 5)")
    effective_b = WAIT if rng.random() < SLIP_PROB else action_b
    entry = s, action_a, effective_b
    n = int(first[entry])
    if coin[entry]:
        n += rng.random() < 0.5
    reward = STEP_COST
    if terminal[n]:
        reward += CONCEDE_REWARD if n % 2 else SCORE_REWARD
    return index_state(n), reward, bool(terminal[n]), effective_b


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
def _rule_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The collision rules, evaluated once for every state id, attacker action
    and effective defender action, as read-only arrays.

    Returns ``(first, coin, terminal, absorbing)``. ``first[s, a, b]`` is the
    first successor id and ``coin[s, a, b]`` whether a fair coin picks
    between it and ``first + 1``, the same cells with possession 1.
    ``terminal`` flags the scoring states and ``absorbing`` adds the
    same-cell states; an absorbing state leads to itself.
    """
    ids = np.arange(NUM_STATES)
    a, b = divmod(ids // 2, NUM_CELLS)
    moves = np.array(_MOVES)

    def targets(cell):  # (S, 5): the cell each action aims at, clipped to the pitch
        r = cell[:, None] // WIDTH + moves[:, 0]
        c = cell[:, None] % WIDTH + moves[:, 1]
        inside = (0 <= r) & (r < HEIGHT) & (0 <= c) & (c < WIDTH)
        return np.where(inside, r * WIDTH + c, cell[:, None])

    a_tgt, b_tgt = targets(a)[:, :, None], targets(b)[:, None, :]
    terminal = np.where(ids % 2, b % WIDTH == 0, a % WIDTH == WIDTH - 1)
    absorbing = terminal | (a == b)
    a, b, possession = a[:, None, None], b[:, None, None], (ids % 2)[:, None, None]
    a_moved, b_moved = a_tgt != a, b_tgt != b
    exchange = a_moved & b_moved & (a_tgt == b) & (b_tgt == a)
    contest = a_tgt == b_tgt
    # Both rebound from an exchange or a contested cell; the ball goes to a
    # stationary contestant, else to the coin.
    coin = exchange | contest & a_moved & b_moved
    rebound = (a * NUM_CELLS + b) * 2 + (contest & ~b_moved)
    first = np.where(exchange | contest, rebound, (a_tgt * NUM_CELLS + b_tgt) * 2 + possession)
    first[absorbing] = ids[absorbing, None, None]
    coin[absorbing] = False
    for array in (first, coin, terminal, absorbing):
        array.flags.writeable = False
    return first, coin, terminal, absorbing


@cache
def kickoff_successors() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The post-slip outcomes as tuples over state ids, every scoring id
    replaced by kickoff's, where a stream of concatenated episodes goes on.

    ``kickoff_successors()[s][NUM_ACTIONS * action_a + effective_b]`` holds one
    id, or two (possession 0, then 1) that a fair coin picks between; one tuple
    per distinct outcome is shared by every entry. Built on first use and kept
    for the life of the process.
    """
    first, coin, terminal, _ = _rule_arrays()
    start = state_index(INITIAL_STATE)
    kickoff = [start if flag else n for n, flag in enumerate(terminal.tolist())]
    single = [(n,) for n in kickoff]
    pair = list(zip(kickoff, kickoff[1:]))
    return tuple(
        tuple(pair[n] if flip else single[n] for n, flip in zip(row, flips))
        for row, flips in zip(
            first.reshape(NUM_STATES, -1).tolist(), coin.reshape(NUM_STATES, -1).tolist()
        )
    )


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


def soccer_build_model() -> SoccerTabularGame:
    """Weigh every outcome of the collision rules into an exact transition
    kernel: the commanded move with probability 1 - SLIP_PROB, the slip to
    Wait with SLIP_PROB (one branch when Wait was commanded), each split by
    the coin where two outcomes remain. The kernel is built as its nonzero
    rows, never as the dense 128 MB array.

    Terminal states (and the unreachable same-cell states) are absorbing
    with zero native reward.
    """
    first, coin, terminal, absorbing = _rule_arrays()
    ids = np.arange(NUM_STATES)
    goal = np.where(ids % 2, CONCEDE_REWARD, SCORE_REWARD)
    reward = np.where(terminal, STEP_COST + goal, STEP_COST)
    shape = (NUM_STATES, NUM_ACTIONS, NUM_ACTIONS, NUM_STATES)
    native = np.zeros(shape[:3])
    s, a, b = np.nonzero(np.broadcast_to(absorbing[:, None, None], first.shape))
    # Kernel entries as flat positions in ``shape`` and probabilities.
    flats, probs = [np.ravel_multi_index((s, a, b, s), shape)], [np.ones(s.size)]

    def weigh(s, a, b, effective_b, p_slip):
        # Outcome 0, then the coin's outcome 1: with the commanded branch
        # weighed before the slip, each sum runs in a fixed order.
        n, flip = first[s, a, effective_b], coin[s, a, effective_b]
        p = p_slip * np.where(flip, 0.5, 1.0)
        for s, a, b, n, p in ((s, a, b, n, p), (s[flip], a[flip], b[flip], n[flip] + 1, p[flip])):
            flats.append(np.ravel_multi_index((s, a, b, n), shape))
            probs.append(p)
            native[s, a, b] += p * reward[n]

    s, a, b = np.nonzero(np.broadcast_to(~absorbing[:, None, None], first.shape))
    weigh(s, a, b, b, np.where(b == WAIT, 1.0, 1.0 - SLIP_PROB))
    slip = b != WAIT
    weigh(s[slip], a[slip], b[slip], WAIT, SLIP_PROB)
    kernel = _sparse_rows(np.concatenate(flats), np.concatenate(probs), native.size, NUM_STATES)
    scaled = (native + NATIVE_OFFSET) / NATIVE_SCALE
    rewards = np.stack([scaled, 1.0 - scaled])
    model = StochasticGameModel(rewards=rewards, transition=kernel, discount=0.95)
    return SoccerTabularGame(model=model, native_reward=native, terminal=terminal.copy())


def afraid_transform(policy) -> np.ndarray:
    """Timid-attacker rewrite of an action row, or of each row of a table:
    strip 90% of the East mass and split it evenly between West and Wait."""
    out = np.array(policy, dtype=float)
    if out.shape[-1:] != (NUM_ACTIONS,):
        raise ShapeError("soccer policy rows have 5 entries")
    delta = 0.9 * out[..., 2]
    out[..., 2] -= delta
    out[..., 3] += 0.5 * delta
    out[..., 4] += 0.5 * delta
    return out
