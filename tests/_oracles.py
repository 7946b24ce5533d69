"""Independent reference computations used by the tests.

These deliberately avoid the library's numpy paths: expectations are summed
with ``fractions.Fraction`` over explicit profile enumerations, and best
responses are enumerated directly. The monitored trial loops at the end step
the object-level simulators, as the experiments did before they moved to
integer state ids and precomputed tables. ``shapley_solve_reference`` is
the Shapley sweep as it was before the sparse backup, the all-state saddle
test and the warm-started equalizer solves: a dense ``einsum`` backup and one
``matrix_game_solve`` per state per sweep.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from eqsentinel.envs import prey, soccer
from eqsentinel.harness.seeding import run_rng
from eqsentinel.stochastic import (
    Policy,
    ShapleySolution,
    SolverConfig,
    matrix_game_solve,
)


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
    """One monitored stream of concatenated episodes; returns (cell, run, tau)."""
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
        state, _, terminal = soccer.soccer_step(state, a_act, b_act, rng)
        if terminal:
            state = soccer.INITIAL_STATE
    return cell, run, -1


def prey_trial(args) -> tuple[int, int, int]:
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
        chase = prey.chase_policy(state.suspect, state.prey)
        played = (1.0 - eps_true) * uniform + eps_true * chase
        act = int(np.searchsorted(np.cumsum(played), rng.random(), side="right"))
        act = min(act, prey.NUM_ACTIONS - 1)
        candidate = (1.0 - grid) * uniform + grid * chase[act]
        log_lr += np.log(candidate) - math.log(uniform)
        shift = log_lr.max()
        value = math.exp(shift) * float(np.sum(weights * np.exp(log_lr - shift)))
        if value >= threshold:
            return cell, run, t
        state, _ = prey.prey_step(state, act, rng)
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
