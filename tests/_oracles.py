"""Independent reference computations used by the tests.

These deliberately avoid the library's numpy paths: expectations are summed
with ``fractions.Fraction`` over explicit profile enumerations, and best
responses are enumerated directly. The monitored trial loops at the end step
the object-level simulators, as the experiments did before they moved to
integer state ids and precomputed tables. ``shapley_solve_reference`` is
the Shapley sweep as it was before the sparse backup, the all-state saddle
test and the warm-started equalizer solves: a dense ``einsum`` backup and one
``matrix_game_solve`` per state per sweep. ``shapley_sweep_reference`` is
the sweep as it was before the stacked equalizer solves and the blocked
kernel scan: ``csr_matrix`` of the dense kernel and one ``_equalize_reference``
per mixed state. The ``*_rows_reference`` functions
are the nf-* experiments' per-run loops from before the chunked replay: each
run draws, gathers and accumulates every round of its horizon.
``ebh_rejection_brute_force`` searches every subset for e-BH's rejection
set, and ``matrix_game_solve_lp_reference`` is the HiGHS LP that solved every
mixed matrix game before the tableau fast path; the tests keep it as the
oracle of values. ``matrix_game_solve_reference`` and
``tableau_solve_reference`` are the solver with its saddle test and tableau
pivots on numpy arrays, and ``unique_equilibrium_reference`` the tableau's
old nondegeneracy test, which tells where an equilibrium is unique.
``soccer_build_model_reference``
is the soccer model builder from before it read the rule arrays,
and ``_resolve`` the soccer collision rules walked over one ``SoccerState``,
as the package applied them before it evaluated them once as arrays;
``soccer_successor_table_reference`` and ``soccer_step_reference`` are the
outcome table and the stepper built on it. ``_prey_move`` and
``chase_policy_reference`` are the pursuit rules walked over one cell and
one (predator, prey) pair, as the package applied them before it built them
once as arrays; ``pursuit_tables_reference`` and ``prey_step_reference`` are
the tables and the stepper built on them, and ``prey_trial`` the monitored
pursuit stepped on them.
``sample_profile_reference`` is ``games.sample_profile`` as it drew through
``Generator.choice`` before the package's own draw rule.
``profile_sampler_reference`` is the chunked replay's sampler as it was before
each run held one generator per player: one scratch PCG64 for the later
players, set to the run's initial state and moved on with ``advance`` for
every run and chunk; ``advanced_reference`` places one generator that way.
``expected_payoff`` is one player's expected utility under a joint strategy,
as the package exported it until nothing but the tests called it.
``deviation_gain_reference`` and ``equilibrium_slack_reference`` are the
expected gains as they were before they read the increment table: separate
sums of the played and the deviating payoff, and a loop over recommendations
for the conditional CE gains. ``stationary_distribution_reference`` finds the
recurrent class and its period by graph search and solves for the
distribution in exact rationals. ``suspect_policy_row`` is the prey
suspect's blend for one (suspect, prey) pair, as the package defined it
before ``prey.suspect_rows`` gave every chase row at once.
``lr_detection_bound``, ``overshoot_constant``, ``state_avg_kl`` and
``empirical_state_distribution`` are the detection-time ceiling
(log b + log(1/w) + C) / KL and its inputs, which the package carried
while nothing in it called them.
"""

import logging
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from eqsentinel import stochastic
from eqsentinel.eprocess import BettingMixture
from eqsentinel.envs import prey, soccer
from eqsentinel.errors import DomainError, ErgodicityError, ShapeError
from eqsentinel.games import (
    ActionProfile,
    EquilibriumMode,
    JointStrategy,
    NormalFormGame,
    StrategyKind,
    _profiles,
    strategy_cuts,
)
from eqsentinel.harness import nfstreams, scenarios
from eqsentinel.harness.seeding import run_rng
from eqsentinel.monitors import CE_SUPPORT_FLOOR, enumerate_hypotheses
from eqsentinel.stochastic import (
    EQUALIZER_TOL,
    MatrixGameSolution,
    Policy,
    ShapleySolution,
    SolverConfig,
    StochasticGameModel,
    exploitability,
    matrix_game_solve,
)

logger = logging.getLogger(__name__)


def expected_payoff(game: NormalFormGame, strategy: JointStrategy, player: int) -> float:
    """Exact expected utility of one player, by full enumeration."""
    game._check_player(player)
    strategy.check_compatible(game)
    law = strategy.joint_law()
    return float(np.sum(law * game.payoffs[player]))


def frac_expected_payoff(payoffs, factors, player) -> Fraction:
    """Exact expectation over a product strategy given Fraction payoffs.

    ``payoffs[i]`` is a nested list (indexable by profile tuples) of
    Fractions; ``factors`` are per-player lists of Fractions.
    """
    counts = [len(f) for f in factors]
    total = Fraction(0)
    for profile in product(*(range(c) for c in counts)):
        weight = Fraction(1)
        for a, f in zip(profile, factors):
            weight *= f[a]
        entry = payoffs[player]
        for a in profile:
            entry = entry[a]
        total += weight * entry
    return total


def frac_deviation_gain(payoffs, factors, player, deviation) -> Fraction:
    counts = [len(f) for f in factors]
    base = frac_expected_payoff(payoffs, factors, player)
    dev_total = Fraction(0)
    for profile in product(*(range(c) for c in counts)):
        weight = Fraction(1)
        for a, f in zip(profile, factors):
            weight *= f[a]
        switched = list(profile)
        switched[player] = deviation
        entry = payoffs[player]
        for a in switched:
            entry = entry[a]
        dev_total += weight * entry
    return dev_total - base


def enumerate_deviation_gain(payoffs, law, player, deviation) -> float:
    """Float oracle over an explicit joint law tensor (any strategy kind)."""
    law = np.asarray(law, dtype=float)
    gain = 0.0
    for profile in product(*(range(c) for c in law.shape)):
        switched = list(profile)
        switched[player] = deviation
        gain += law[profile] * (
            payoffs[player][tuple(switched)] - payoffs[player][profile]
        )
    return gain


def _deviation_payoff_reference(game, law, player, deviation) -> float:
    # E[u_i(a', a_-i)]: marginalize the player's own action out of the law.
    opponents_law = law.sum(axis=player)
    u_dev = np.take(game.payoffs[player], deviation, axis=player)
    return float(np.sum(opponents_law * u_dev))


def deviation_gain_reference(game, strategy, player, deviation) -> float:
    """Unconditional expected improvement from always playing ``deviation``.

    Positive values mean the deviation is profitable against the strategy.
    """
    game._check_action(player, deviation)
    strategy.check_compatible(game)
    law = strategy.joint_law()
    return _deviation_payoff_reference(game, law, player, deviation) - float(
        np.sum(law * game.payoffs[player])
    )


def equilibrium_slack_reference(game, strategy, mode) -> float:
    """Largest deviation gain under the given equilibrium condition.

    A value <= 0 certifies the strategy as an equilibrium of that mode. CE
    conditions on each recommended action whose probability is at least
    ``CE_SUPPORT_FLOOR``; a PRODUCT strategy is interpreted through the joint
    law it induces.
    """
    strategy.check_compatible(game)
    if mode in (EquilibriumMode.NASH, EquilibriumMode.CCE):
        gains = [
            deviation_gain_reference(game, strategy, i, a)
            for i in range(game.num_players)
            for a in range(game.action_counts[i])
        ]
        return max(gains)
    if mode is not EquilibriumMode.CE:
        raise DomainError(f"slack is defined for NASH, CCE and CE, not {mode}")

    law = strategy.joint_law()
    best = -np.inf
    for i in range(game.num_players):
        axes = tuple(ax for ax in range(game.num_players) if ax != i)
        marginal = law.sum(axis=axes)
        for rec in range(game.action_counts[i]):
            if marginal[rec] < CE_SUPPORT_FLOOR:
                continue  # conditional expectation undefined off support
            cond_law = np.take(law, rec, axis=i) / marginal[rec]
            u_rec = np.take(game.payoffs[i], rec, axis=i)
            base = float(np.sum(cond_law * u_rec))
            for dev in range(game.action_counts[i]):
                if dev == rec:
                    continue
                u_dev = np.take(game.payoffs[i], dev, axis=i)
                gain = float(np.sum(cond_law * u_dev)) - base
                best = max(best, gain)
    if best == -np.inf:
        return 0.0  # no player has an alternative action to deviate to
    return best


def best_response_gap(payoff, row_strategy, col_strategy, value) -> float:
    """Pure best-response enumeration for a zero-sum matrix game."""
    payoff = np.asarray(payoff, dtype=float)
    best_row = max(
        float(np.dot(payoff[r], col_strategy)) for r in range(payoff.shape[0])
    )
    worst_col = min(
        float(np.dot(row_strategy, payoff[:, c])) for c in range(payoff.shape[1])
    )
    return max(best_row - value, value - worst_col, 0.0)



def ebh_rejection_brute_force(maxima, alpha, weights) -> tuple[int, tuple[int, ...]]:
    """e-BH as the largest self-consistent rejection set (Wang & Ramdas,
    JRSS-B 2022), by exact search over all subsets.

    With Wang & Ramdas's weights W = m * weights, a set S is self-consistent
    when every j in S has W_j e_j >= m / (|S| alpha), that is
    e_j * |S| * alpha * weights_j >= 1, compared here in exact rationals. The
    union of self-consistent sets is self-consistent, so the largest is
    unique.
    """
    m = len(maxima)
    exact = [
        Fraction(float(e)) * Fraction(alpha) * Fraction(float(w))
        for e, w in zip(maxima, weights)
    ]
    for size in range(m, 0, -1):
        found = [s for s in combinations(range(m), size) if all(exact[j] * size >= 1 for j in s)]
        if found:
            assert len(found) == 1, found
            return size, found[0]
    return 0, ()


def matrix_game_solve_lp_reference(payoff) -> MatrixGameSolution:
    """The row player's maximin LP solved by HiGHS, the column strategy read
    from its duals: ``matrix_game_solve``'s LP body before the tableau fast
    path, with no shortcuts in front of it."""
    A = np.asarray(payoff, dtype=float)
    rows, cols = A.shape
    # Variables (x_1..x_R, v): maximize v subject to A^T x >= v, sum x = 1.
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-A.T, np.ones((cols, 1))])
    a_eq = np.hstack([np.ones((1, rows)), np.zeros((1, 1))])
    bounds = [(0.0, None)] * rows + [(None, None)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(cols),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - zero-sum LPs are always feasible
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    row = np.clip(res.x[:rows], 0.0, None)
    row /= row.sum()
    col = np.clip(-np.asarray(res.ineqlin.marginals), 0.0, None)
    total = col.sum()
    if not 0.5 < total < 2.0:  # pragma: no cover - dual degenerate fallback
        alt = matrix_game_solve_lp_reference(-A.T)
        col = alt.row_strategy
    else:
        col /= total
    return MatrixGameSolution(float(res.x[-1]), row, col)

def _tableau_reference(A: np.ndarray):
    """Bland's pivots on a numpy tableau, whole rows at a time: the final
    tableau and basis, or None when no row can pivot or the pivots outrun the
    bases."""
    rows, cols = A.shape
    low = A.min()
    span = A.max() - low
    t = np.zeros((rows + 1, cols + rows + 1))
    t[:rows, :cols] = (A - low) / span + 1.0
    t[np.arange(rows), cols + np.arange(rows)] = 1.0
    t[:rows, -1] = 1.0
    t[rows, :cols] = -1.0
    basis = np.arange(cols, cols + rows)
    for _ in range(math.comb(rows + cols, rows)):
        entering = (t[rows, :-1] < -stochastic._PIVOT_TOL).nonzero()[0]
        if not entering.size:
            return t, basis
        j = entering[0]
        eligible = (t[:rows, j] > stochastic._PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return None
        ratios = t[eligible, -1] / t[eligible, j]
        ties = eligible[ratios == ratios.min()]
        i = ties[basis[ties].argmin()]
        t[i] /= t[i, j]
        factor = t[:, j, None].copy()
        factor[i] = 0.0
        t -= factor * t[i]
        basis[i] = j
    return None


def tableau_solve_reference(A: np.ndarray) -> MatrixGameSolution:
    """``stochastic._tableau_solve`` on a numpy tableau, as it was before its
    pivots ran on Python floats, with its ending: basic values and the
    nonbasic slacks' reduced costs clipped at 0, the answer gated at
    ``max(EQUALIZER_TOL, _SCREEN_MARGIN * max|A|)``, and ``DomainError``
    otherwise."""
    rows, cols = A.shape
    final = _tableau_reference(A)
    gap = math.nan
    bound = max(EQUALIZER_TOL, stochastic._SCREEN_MARGIN * float(np.abs(A).max()))
    if final is not None:
        t, basis = final
        nonbasic = np.ones(cols + rows, dtype=bool)
        nonbasic[basis] = False
        q = np.zeros(cols + rows)
        q[basis] = np.where(t[:rows, -1] > 0.0, t[:rows, -1], 0.0)
        reduced = t[rows, cols:-1]
        duals = np.where(nonbasic[cols:] & (reduced > 0.0), reduced, 0.0)
        total = q[:cols].sum()
        row = duals / duals.sum()
        col = q[:cols] / total
        low = A.min()
        value = float((1.0 / total - 1.0) * (A.max() - low) + low)
        gap = exploitability(A, row, col, value)
        if gap <= bound:
            return MatrixGameSolution(value, row, col)
    raise DomainError(f"best-response gap {gap!r} exceeds {bound!r}")


def unique_equilibrium_reference(A: np.ndarray) -> bool:
    """Whether the tableau's final basis is primal and dual nondegenerate,
    which makes both LP optima, and so the game's equilibrium, unique: the
    test ``stochastic._tableau_solve`` made before it accepted degenerate
    bases. ``A`` must not be constant."""
    rows, cols = A.shape
    final = _tableau_reference(A)
    if final is None:
        return False
    t, basis = final
    nonbasic = np.ones(cols + rows, dtype=bool)
    nonbasic[basis] = False
    return bool(
        t[:rows, -1].min() > stochastic._PIVOT_TOL
        and t[rows, :-1][nonbasic].min() > stochastic._PIVOT_TOL
    )


def matrix_game_solve_reference(payoff) -> MatrixGameSolution:
    """``matrix_game_solve`` in numpy form: the saddle shortcut on numpy
    reductions, then ``tableau_solve_reference``."""
    A = np.asarray(payoff, dtype=float)
    rows, cols = A.shape
    row_mins = A.min(axis=1)
    col_maxs = A.max(axis=0)
    r = int(np.argmax(row_mins))
    c = int(np.argmin(col_maxs))
    if row_mins[r] == col_maxs[c]:
        row = np.zeros(rows)
        col = np.zeros(cols)
        row[r] = 1.0
        col[c] = 1.0
        return MatrixGameSolution(float(row_mins[r]), row, col)
    return tableau_solve_reference(A)


TWO_SIGNAL_PAYOFFS = [
    [
        [Fraction(9, 10), Fraction(2, 10)],
        [Fraction(3, 10), Fraction(7, 10)],
    ],
    [
        [Fraction(5, 10), Fraction(3, 10)],
        [Fraction(2, 10), Fraction(7, 10)],
    ],
]

TWO_SIGNAL_NASH = [
    [Fraction(5, 7), Fraction(2, 7)],
    [Fraction(5, 11), Fraction(6, 11)],
]

TWO_SIGNAL_ALTERNATIVE = [
    [Fraction(17, 20), Fraction(3, 20)],
    [Fraction(13, 20), Fraction(7, 20)],
]


def soccer_trial(args) -> tuple[int, int, int]:
    """One monitored stream of concatenated episodes; returns (cell, run, tau).
    Steps ``soccer_step_reference``, so no table of the package is read."""
    (cell, run, seed, eps, t_max, threshold, null_table, defender_table, afraid_table) = args
    alt_table = (1.0 - eps) * null_table + eps * afraid_table
    cum_a = np.cumsum(alt_table, axis=1)
    cum_b = np.cumsum(defender_table, axis=1)
    with np.errstate(divide="ignore"):
        log_ratio = np.where(
            alt_table > 0.0, np.log(alt_table) - np.log(null_table), -np.inf
        )
    rng = run_rng(seed, cell, run)
    log_b = math.log(threshold)
    log_lr = 0.0
    state = soccer.INITIAL_STATE
    for t in range(1, t_max + 1):
        s = soccer.state_index(state)
        a_act = int(np.searchsorted(cum_a[s], rng.random(), side="right"))
        b_act = int(np.searchsorted(cum_b[s], rng.random(), side="right"))
        log_lr += log_ratio[s, a_act]
        if log_lr >= log_b:
            return cell, run, t
        state, _, terminal, _ = soccer_step_reference(state, a_act, b_act, rng)
        if terminal:
            state = soccer.INITIAL_STATE
    return cell, run, -1


def _soccer_is_terminal(state):
    if state.possession == 0:
        return state.a_pos[1] == 4
    return state.b_pos[1] == 0


def _clipped_target(pos, action):
    dr, dc = ((-1, 0), (1, 0), (0, 1), (0, -1), (0, 0))[action]
    r, c = pos[0] + dr, pos[1] + dc
    if not (0 <= r < 4 and 0 <= c < 5):
        return pos
    return (r, c)


def _resolve(state, action_a, effective_b):
    """Post-slip soccer outcomes as (probability, a_pos, b_pos, possession):
    the collision rules walked over one ``SoccerState`` on the 4x5 pitch,
    actions (N, S, E, W, Wait)."""
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


def soccer_successor_table_reference():
    """Soccer's post-slip outcomes as ``(successors, terminal)`` tuples over
    state ids, one ``_resolve`` call per (state, attacker action, effective
    defender action): ``successors[s][5 * action_a + effective_b]`` holds one
    id, or two (possession 0, then 1) for the coin; terminal and same-cell
    states lead to themselves."""
    successors, terminal = [], []
    for s in range(soccer.NUM_STATES):
        state = soccer.index_state(s)
        terminal.append(_soccer_is_terminal(state))
        if terminal[-1] or state.a_pos == state.b_pos:
            successors.append(((s,),) * soccer.NUM_ACTIONS**2)
            continue
        successors.append(tuple(
            tuple(
                soccer.state_index(soccer.SoccerState(a_pos, b_pos, possession))
                for _, a_pos, b_pos, possession in _resolve(state, action_a, effective_b)
            )
            for action_a in range(soccer.NUM_ACTIONS)
            for effective_b in range(soccer.NUM_ACTIONS)
        ))
    return tuple(successors), tuple(terminal)


def soccer_step_reference(state, action_a, action_b, rng):
    """The object-level soccer step on ``_resolve``: the slip draw, then a
    coin draw only when two outcomes remain. Returns (next state, reward,
    terminal, effective defender action)."""
    slipped = rng.random() < 0.25
    effective_b = soccer.WAIT if slipped else action_b
    outcomes = _resolve(state, action_a, effective_b)
    pick = 0 if len(outcomes) == 1 else int(rng.random() < 0.5)
    _, a_pos, b_pos, possession = outcomes[pick]
    nxt = soccer.SoccerState(a_pos, b_pos, possession)
    reward = -0.05
    terminal = _soccer_is_terminal(nxt)
    if terminal:
        reward += 100.0 if possession == 0 else -100.0
    return nxt, reward, terminal, effective_b


def soccer_build_model_reference() -> soccer.SoccerTabularGame:
    """The soccer model builder from before it read the rule arrays: it
    walks ``_resolve`` over ``SoccerState`` objects for every (commanded,
    slipped) branch, with the rule values (slip 0.25, step cost -0.05,
    +-100 for a goal at column 4 for A or 0 for B) as literals."""
    n, actions = soccer.NUM_STATES, soccer.NUM_ACTIONS
    transition = np.zeros((n, actions, actions, n))
    native = np.zeros((n, actions, actions))
    terminal = np.zeros(n, dtype=bool)
    for s in range(n):
        state = soccer.index_state(s)
        absorbing = _soccer_is_terminal(state) or state.a_pos == state.b_pos
        terminal[s] = _soccer_is_terminal(state)
        if absorbing:
            transition[s, :, :, s] = 1.0
            continue
        for action_a in range(actions):
            for action_b in range(actions):
                branches = [(1.0 - 0.25, action_b), (0.25, soccer.WAIT)]
                if action_b == soccer.WAIT:
                    branches = [(1.0, soccer.WAIT)]
                for slip_prob, effective_b in branches:
                    for prob, a_pos, b_pos, possession in _resolve(
                        state, action_a, effective_b
                    ):
                        p = slip_prob * prob
                        nxt = soccer.SoccerState(a_pos, b_pos, possession)
                        reward = -0.05
                        if _soccer_is_terminal(nxt):
                            reward += 100.0 if nxt.possession == 0 else -100.0
                        transition[s, action_a, action_b, soccer.state_index(nxt)] += p
                        native[s, action_a, action_b] += p * reward
    scaled = (native + soccer.NATIVE_OFFSET) / soccer.NATIVE_SCALE
    rewards = np.stack([scaled, 1.0 - scaled])
    model = StochasticGameModel(rewards=rewards, transition=transition, discount=0.95)
    return soccer.SoccerTabularGame(model=model, native_reward=native, terminal=terminal)


def _prey_move(pos, action):
    """Where a pursuit action lands one piece; off-grid resolves to staying."""
    dr, dc = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))[action]
    r, c = pos[0] + dr, pos[1] + dc
    if not (0 <= r < prey.GRID and 0 <= c < prey.GRID):
        return pos
    return (r, c)


def chase_policy_reference(predator, prey_pos) -> np.ndarray:
    """The chase heuristic for one pair, each action rated by where
    ``_prey_move`` lands it: 10 closer, 1 unchanged, 0.1 farther, on integer
    squared distances; the weights divided by their sum."""
    if predator == prey_pos:
        raise DomainError("chase policy is undefined on a captured state")

    def sqdist(pos):
        return (pos[0] - prey_pos[0]) ** 2 + (pos[1] - prey_pos[1]) ** 2

    here = sqdist(predator)
    weights = np.empty(prey.NUM_ACTIONS)
    for action in range(prey.NUM_ACTIONS):
        there = sqdist(_prey_move(predator, action))
        if there < here:
            weights[action] = prey.CHASE_CLOSER
        elif there == here:
            weights[action] = prey.CHASE_NEUTRAL
        else:
            weights[action] = prey.CHASE_FARTHER
    return weights / weights.sum()


def pursuit_tables_reference():
    """``prey.pursuit_tables`` built pair by pair: ``_prey_move`` per cell and
    action, and one ``chase_policy_reference`` per ordered pair of distinct
    cells, its row numbered on first appearance."""
    cells = [divmod(i, prey.GRID) for i in range(prey.GRID * prey.GRID)]
    moves = tuple(
        tuple(prey.cell_id(_prey_move(pos, action)) for action in range(prey.NUM_ACTIONS))
        for pos in cells
    )
    distinct: dict[tuple[float, ...], int] = {}
    chase_row = []
    for predator in cells:
        ids = []
        for target in cells:
            if predator == target:
                ids.append(-1)
                continue
            key = tuple(chase_policy_reference(predator, target).tolist())
            ids.append(distinct.setdefault(key, len(distinct)))
        chase_row.append(tuple(ids))
    return moves, tuple(chase_row), np.array(list(distinct))


def prey_step_reference(state, suspect_action, rng):
    """The object-level pursuit step on ``_prey_move``: the suspect as
    commanded, then the honest pair's and the prey's uniform moves."""
    moved = [_prey_move(state.suspect, suspect_action)]
    for honest in state.predators[1:]:
        moved.append(_prey_move(honest, int(rng.integers(prey.NUM_ACTIONS))))
    new_prey = _prey_move(state.prey, int(rng.integers(prey.NUM_ACTIONS)))
    nxt = prey.PreyState(
        predators=tuple(moved),
        prey=new_prey,
        step_count=state.step_count + 1,
        horizon=state.horizon,
    )
    return nxt, nxt.captured or nxt.exhausted


def prey_trial(args) -> tuple[int, int, int]:
    """One monitored pursuit stream; returns (cell, run, tau). Steps
    ``prey_step_reference`` on ``chase_policy_reference``, so no table of
    the package is read."""
    cell, run, seed, eps_true, eps_grid, threshold, horizon = args
    rng = run_rng(seed, cell, run)
    grid = np.asarray(eps_grid)
    weights = np.full(grid.size, 1.0 / grid.size)
    log_lr = np.zeros(grid.size)
    state = prey.DEFAULT_START
    uniform = 1.0 / prey.NUM_ACTIONS
    for t in range(1, horizon + 1):
        if state.captured or state.exhausted:
            state = prey.DEFAULT_START
        chase = chase_policy_reference(state.suspect, state.prey)
        played = (1.0 - eps_true) * uniform + eps_true * chase
        act = int(np.searchsorted(np.cumsum(played), rng.random(), side="right"))
        act = min(act, prey.NUM_ACTIONS - 1)
        candidate = (1.0 - grid) * uniform + grid * chase[act]
        log_lr += np.log(candidate) - math.log(uniform)
        shift = log_lr.max()
        value = math.exp(shift) * float(np.sum(weights * np.exp(log_lr - shift)))
        if value >= threshold:
            return cell, run, t
        state, _ = prey_step_reference(state, act, rng)
    return cell, run, -1


def shapley_solve_reference(
    rewards: np.ndarray, transition: np.ndarray, config: SolverConfig
) -> ShapleySolution:
    """Per-state Shapley sweep: every state's matrix game through the LP path."""
    rewards = np.asarray(rewards, dtype=float)
    transition = np.asarray(transition, dtype=float)
    num_states, a_row, a_col = rewards.shape
    values = np.zeros(num_states)
    row_tables = np.full((num_states, a_row), 1.0 / a_row)
    col_tables = np.full((num_states, a_col), 1.0 / a_col)
    converged = False
    residual = math.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        q = rewards + config.discount * np.einsum(
            "sabt,t->sab", transition, values
        )
        new_values = np.empty(num_states)
        for s in range(num_states):
            sol = matrix_game_solve(q[s])
            new_values[s] = sol.value
            row_tables[s] = sol.row_strategy
            col_tables[s] = sol.col_strategy
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < config.tolerance:
            converged = True
            break
    return ShapleySolution(
        values=values,
        row_policy=Policy(row_tables),
        col_policy=Policy(col_tables),
        converged=converged,
        iterations=iterations,
        residual=residual,
    )


def _equalize_reference(payoff: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """One state's equalizer solution on a square support, if it verifies."""
    k = rows.size
    if k != cols.size:
        return None
    system = np.zeros((k + 1, k + 1))
    system[k, :k] = 1.0
    system[:k, k] = -1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    block = payoff[np.ix_(rows, cols)]
    try:
        system[:k, :k] = block.T
        row_part = np.linalg.solve(system, rhs)
        system[:k, :k] = block
        col_part = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        return None
    x, y = row_part[:k], col_part[:k]
    if not (np.all(x >= 0.0) and np.all(y >= 0.0)):
        return None
    row = np.zeros(payoff.shape[0])
    col = np.zeros(payoff.shape[1])
    row[rows] = x / x.sum()
    col[cols] = y / y.sum()
    value = float(row_part[k])
    if not exploitability(payoff, row, col, value) <= EQUALIZER_TOL:
        return None
    return MatrixGameSolution(value, row, col)


def shapley_sweep_reference(
    rewards: np.ndarray, transition: np.ndarray, config: SolverConfig
) -> ShapleySolution:
    """Saddle-batched, warm-started sweep with one equalizer solve per mixed
    state. Calls ``stochastic.matrix_game_solve`` through the module, so a
    patch of it reaches this sweep as it reaches the solver's."""
    rewards = np.asarray(rewards, dtype=float)
    transition = np.asarray(transition, dtype=float)
    num_states, a_row, a_col = rewards.shape
    kernel = csr_matrix(transition.reshape(-1, num_states))
    states = np.arange(num_states)
    values = np.zeros(num_states)
    row_tables = np.full((num_states, a_row), 1.0 / a_row)
    col_tables = np.full((num_states, a_col), 1.0 / a_col)
    supports = {}
    converged = False
    residual = math.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        q = rewards + config.discount * (kernel @ values).reshape(rewards.shape)
        row_mins = q.min(axis=2)
        col_maxs = q.max(axis=1)
        r = row_mins.argmax(axis=1)
        c = col_maxs.argmin(axis=1)
        new_values = row_mins[states, r]
        saddle = new_values == col_maxs[states, c]
        row_tables[saddle] = 0.0
        row_tables[saddle, r[saddle]] = 1.0
        col_tables[saddle] = 0.0
        col_tables[saddle, c[saddle]] = 1.0
        for s in np.flatnonzero(~saddle).tolist():
            sol = _equalize_reference(q[s], *supports[s]) if s in supports else None
            if sol is None:
                sol = stochastic.matrix_game_solve(q[s])
                supports[s] = (
                    np.flatnonzero(sol.row_strategy > 0.0),
                    np.flatnonzero(sol.col_strategy > 0.0),
                )
            new_values[s] = sol.value
            row_tables[s] = sol.row_strategy
            col_tables[s] = sol.col_strategy
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < config.tolerance:
            converged = True
            break
    return ShapleySolution(
        values=values,
        row_policy=Policy(row_tables),
        col_policy=Policy(col_tables),
        converged=converged,
        iterations=iterations,
        residual=residual,
    )


def stationary_distribution_reference(chain) -> np.ndarray:
    """Stationary distribution by graph search and exact elimination.

    The recurrent states are those that every state they reach reaches back;
    there must be one class of them. Its period is the gcd, over its edges
    u -> v, of level(u) + 1 - level(v) for BFS levels from one of its states
    (Kemeny & Snell, "Finite Markov Chains", 1960), and must be 1. The class
    is solved from pi (P - I) = 0 with one equation replaced by sum pi = 1,
    by Gauss-Jordan elimination over ``Fraction`` entries, which is exact
    for entries that are binary fractions. Transient states get 0.
    """
    n = len(chain)
    p = [[Fraction(float(x)) for x in row] for row in chain]
    succ = [[j for j in range(n) if p[i][j] > 0] for i in range(n)]
    reach = []
    for i in range(n):
        seen, stack = {i}, [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    classes = {frozenset(reach[i]) for i in range(n) if all(i in reach[j] for j in reach[i])}
    if len(classes) != 1:
        raise ErgodicityError(f"{len(classes)} recurrent classes")
    states = sorted(classes.pop())
    level = {states[0]: 0}
    queue = [states[0]]
    for u in queue:
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    period = 0
    for u in states:
        for v in succ[u]:
            period = math.gcd(period, level[u] + 1 - level[v])
    if period != 1:
        raise ErgodicityError(f"period {period}")
    m = len(states)
    # Row j of the augmented system: sum_i pi_i (P_ij - [i == j]) = 0.
    a = [
        [p[states[i]][states[j]] - (i == j) for i in range(m)] + [Fraction(0)]
        for j in range(m)
    ]
    a[-1] = [Fraction(1)] * (m + 1)
    for col in range(m):
        pivot = next(r for r in range(col, m) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    mu = np.zeros(n)
    for i, s in enumerate(states):
        mu[s] = float(a[i][m] / a[i][i])
    return mu


def _increment_tables(game, hypotheses) -> np.ndarray:
    tables = np.empty((len(hypotheses), int(np.prod(game.action_counts))))
    for j, h in enumerate(hypotheses):
        u = game.payoffs[h.player]
        u_dev = np.expand_dims(np.take(u, h.deviation, axis=h.player), axis=h.player)
        tables[j] = (u - u_dev).ravel()
    return tables


def sample_profile_reference(strategy, rng) -> ActionProfile:
    """One draw through ``Generator.choice``, per player of a product strategy
    or once over the flattened joint law of a full one."""
    if strategy.kind is StrategyKind.PRODUCT:
        return ActionProfile(tuple(int(rng.choice(len(f), p=f)) for f in strategy.factors))
    flat = strategy.joint.ravel()
    idx = int(rng.choice(flat.size, p=flat))
    return ActionProfile(tuple(int(a) for a in np.unravel_index(idx, strategy.joint.shape)))


def sample_action_stream_reference(strategy, horizon, rng) -> np.ndarray:
    """All of player 1's uniforms from ``rng``, then player 2's, ..."""

    def draws(probs):
        cdf = np.cumsum(probs)
        idx = np.searchsorted(cdf, rng.random(horizon), side="right")
        return np.minimum(idx, probs.size - 1)

    if strategy.kind is StrategyKind.PRODUCT:
        return np.ravel_multi_index(
            [draws(f) for f in strategy.factors], strategy.action_counts
        )
    return draws(strategy.joint.ravel())


def advanced_reference(rng, offset: int) -> np.random.Generator:
    """A generator ``offset`` outputs into ``rng``'s stream: a PCG64 set to
    ``rng``'s state, then moved on with ``advance``."""
    bits = np.random.PCG64(0)
    bits.state = rng.bit_generator.state
    bits.advance(offset)
    return np.random.Generator(bits)


def profile_sampler_reference(strategy, horizon, rngs):
    """``draw(runs, start, n)``: rounds ``start`` to ``start + n - 1`` of the
    listed runs' flattened joint-profile indices. Player 1 reads ``rngs[r]``,
    and player k >= 2 one scratch PCG64 set to the run's initial state and
    moved on with ``advance((k - 1) * horizon + start)`` for every chunk."""
    cuts = strategy_cuts(strategy)
    bits = np.random.PCG64(0)
    scratch = np.random.Generator(bits)
    initial = [g.bit_generator.state for g in rngs]

    def draw(runs, start, n):
        u = np.empty((len(cuts), len(runs), n))
        for row, r in enumerate(runs):
            rngs[r].random(out=u[0, row])
            for k in range(1, len(cuts)):
                bits.state = initial[r]
                bits.advance(k * horizon + start)
                scratch.random(out=u[k, row])
        return _profiles(cuts, u)

    return draw


def _log_wealth_paths(increments, mixture) -> np.ndarray:
    lam = mixture.lambdas
    with np.errstate(divide="ignore"):
        if lam.size == 1:
            return np.cumsum(np.log1p(-lam[0] * increments), axis=1)
        logw = np.cumsum(np.log1p(-increments[:, :, None] * lam), axis=1)
        shift = logw.max(axis=2)
        return shift + np.log(
            np.einsum("mtg,g->mt", np.exp(logw - shift[:, :, None]), mixture.weights)
        )


def _full_paths(strategy, tables, mixture, horizon, rng) -> np.ndarray:
    stream = sample_action_stream_reference(strategy, horizon, rng)
    return _log_wealth_paths(tables[:, stream], mixture)


def _first(crossings) -> int:
    detected = crossings[crossings > 0]
    return int(detected.min()) if detected.size else -1


def nf_sensitivity_rows_reference(config) -> list[tuple]:
    """``run_nf_sensitivity``'s runs.csv rows."""
    game = scenarios.two_signal_game()
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = _increment_tables(game, hypotheses)
    m = len(hypotheses)
    mixtures = (
        [(f"uniform[{config.grid_nodes}]", BettingMixture.uniform_grid(config.grid_nodes))]
        if config.mixture == "uniform"
        else [(f"dirac[{lam}]", BettingMixture.dirac(lam)) for lam in config.lambdas]
    )
    cells = [
        (alpha, eta, name, mix)
        for alpha in config.alphas
        for eta in config.etas
        for name, mix in mixtures
    ]
    rows = []
    for cell, (alpha, eta, name, mix) in enumerate(cells):
        strategy = scenarios.sensitivity_profile(eta)
        for run in range(config.runs):
            rng = run_rng(config.seed, cell, run)
            paths = _full_paths(strategy, tables, mix, config.horizon, rng)
            crossings = nfstreams.fwer_crossing_times(paths, m / alpha)
            rows.append((alpha, eta, name, run, _first(crossings), int(crossings[0])))
    return rows


def nf_detect_rows_reference(config, game, strategy) -> list[tuple]:
    """``run_nf_detect``'s runs.csv rows."""
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = _increment_tables(game, hypotheses)
    m = len(hypotheses)
    mixture = BettingMixture.dirac(config.betting_fraction)
    rows = []
    for run in range(config.runs):
        rng = run_rng(config.seed, 0, run)
        paths = _full_paths(strategy, tables, mixture, config.horizon, rng)
        tau_fwer = _first(nfstreams.fwer_crossing_times(paths, m / config.alpha))
        tau_fdr, k, rejected = nfstreams.ebh_alarm(paths, config.alpha, np.full(m, 1.0 / m))
        dominates = tau_fdr != -1 and (tau_fwer == -1 or tau_fdr <= tau_fwer)
        rows.append((
            run, tau_fwer, tau_fdr, k,
            "|".join(hypotheses[j].label() for j in rejected),
            int(dominates),
            *(float(np.exp(paths[j, -1])) for j in range(m)),
        ))
    return rows


def nf_fwer_null_rows_reference(config, game, strategy) -> list[tuple]:
    """``run_nf_fwer_null``'s runs.csv rows."""
    hypotheses = enumerate_hypotheses(game, EquilibriumMode.NASH)
    tables = _increment_tables(game, hypotheses)
    m = len(hypotheses)
    rows = []
    cells = [(lam, alpha) for lam in config.lambdas for alpha in config.alphas]
    for cell, (lam, alpha) in enumerate(cells):
        for run in range(config.runs):
            rng = run_rng(config.seed, cell, run)
            paths = _full_paths(strategy, tables, BettingMixture.dirac(lam), config.horizon, rng)
            first = _first(nfstreams.fwer_crossing_times(paths, m / alpha))
            rows.append((lam, alpha, run, int(first > 0), first))
    return rows


def suspect_policy_row(
    predator: tuple[int, int],
    prey_pos: tuple[int, int],
    epsilon: float,
) -> np.ndarray:
    """Suspect behavior: uniform random walk blended with the chase heuristic."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")
    uniform = np.full(prey.NUM_ACTIONS, 1.0 / prey.NUM_ACTIONS)
    return (1.0 - epsilon) * uniform + epsilon * chase_policy_reference(predator, prey_pos)


# -- detection-time ceiling -------------------------------------------------


def lr_detection_bound(
    b: float, overshoot: float, kl_bar: float, prior_weight: float = 1.0
) -> float:
    """Expected-detection-time ceiling (log b + log(1/w) + C) / KL.

    ``prior_weight`` is the mixture mass on the true alternative; 1 recovers
    the single-alternative bound.
    """
    if not b > 1.0:
        raise DomainError("threshold must exceed 1")
    if not overshoot >= 0.0:
        raise DomainError("overshoot constant must be nonnegative")
    if not kl_bar > 0.0:
        raise DomainError("state-averaged KL must be positive")
    if not 0.0 < prior_weight <= 1.0:
        raise DomainError("prior weight must lie in (0, 1]")
    return (math.log(b) + math.log(1.0 / prior_weight) + overshoot) / kl_bar


def overshoot_constant(null_policy: Policy, alt_policy: Policy) -> float:
    """Largest |log ratio| over the alternative's support (inf if violated)."""
    mask = alt_policy.table > 0.0
    if np.any(mask & (null_policy.table == 0.0)):
        return math.inf
    ratios = alt_policy.table[mask] / null_policy.table[mask]
    return float(np.max(np.abs(np.log(ratios))))


def state_avg_kl(null_policy: Policy, alt_policy: Policy, mu) -> float:
    """KL between alternative and null play, averaged over a state weight.

    Returns infinity (with a diagnostic log line) when the alternative uses
    an action the null excludes on a state with positive weight.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (null_policy.num_states,):
        raise ShapeError("mu must weight every state")
    if null_policy.table.shape != alt_policy.table.shape:
        raise ShapeError("policies must share a shape")
    total = 0.0
    for s in np.nonzero(mu > 0.0)[0]:
        kl = stochastic.kl_divergence(alt_policy.table[s], null_policy.table[s])
        if math.isinf(kl):
            logger.warning(
                "support violation at state %d with weight %g", s, mu[s]
            )
            return math.inf
        total += float(mu[s]) * kl
    return total


def empirical_state_distribution(visits, num_states: int) -> np.ndarray:
    """Visit frequencies from a rollout, as a distribution over states.

    Episodic environments are not single ergodic chains, so detection-rate
    diagnostics average the per-state KL under the visit frequencies of a
    long (>= 1e4 steps) rollout under the alternative instead of a
    stationary distribution.
    """
    visits = np.asarray(visits, dtype=int)
    if visits.size == 0:
        raise DomainError("need at least one visited state")
    if visits.min() < 0 or visits.max() >= num_states:
        raise ShapeError("visited state index out of range")
    counts = np.bincount(visits, minlength=num_states)
    return counts / counts.sum()
