"""Episode traces as CSV-ready rows.

Each trace pairs the environment log (positions, commanded and realized
actions, action probabilities) with the monitor's view of the same episode
(the per-round e-value and the running martingale *before* that round's
update, so the martingale column starts at 1).
"""

from __future__ import annotations

import math

import numpy as np

from ..stochastic import LRMonitorState, Policy, lr_step
from . import prey, soccer


def _monitor_step(monitor, state, action, null, threshold) -> tuple[float, float]:
    """Step the monitor through :func:`lr_step`; return the e-value (wealth
    after over wealth before, NaN once the wealth is 0) and the wealth before."""
    before = monitor.value()
    lr_step(monitor, state, action, null, threshold)
    return (monitor.value() / before if before > 0.0 else math.nan), before


def soccer_episode_trace(
    attacker: Policy,
    defender: Policy,
    null_attacker: Policy,
    rng: np.random.Generator,
    alternative: Policy | None = None,
    start: soccer.SoccerState = soccer.INITIAL_STATE,
    max_steps: int = 12,
) -> tuple[list[str], list[list]]:
    """Roll one match while monitoring the attacker's actions.

    The monitor's alternative defaults to the policy the attacker actually
    plays (the known-deviation test). The monitor never stops the match.
    """
    monitor = LRMonitorState.fresh((alternative or attacker,))
    columns = [
        "step", "a_row", "a_col", "b_row", "b_col",
        "act_a", "act_b", "real_b", "slip", "possession",
        *[f"pa_{n}" for n in soccer.ACTION_NAMES],
        *[f"pb_{n}" for n in soccer.ACTION_NAMES],
        "evalue", "martingale",
    ]
    rows: list[list] = []
    state = start
    for step in range(max_steps):
        if soccer.is_terminal(state):
            break
        s = soccer.state_index(state)
        pa = attacker.table[s]
        pb = defender.table[s]
        act_a = int(rng.choice(soccer.NUM_ACTIONS, p=pa))
        act_b = int(rng.choice(soccer.NUM_ACTIONS, p=pb))
        evalue, martingale = _monitor_step(monitor, s, act_a, null_attacker, math.inf)
        nxt, _, _, real_b = soccer.soccer_step(state, act_a, act_b, rng)
        rows.append(
            [
                step, *state.a_pos, *state.b_pos,
                soccer.ACTION_NAMES[act_a], soccer.ACTION_NAMES[act_b],
                soccer.ACTION_NAMES[real_b], int(real_b != act_b),
                "A" if state.possession == 0 else "B",
                *[float(v) for v in pa],
                *[float(v) for v in pb],
                evalue,
                martingale,
            ]
        )
        state = nxt
    return columns, rows


def prey_episode_trace(
    eps_true: float,
    eps_grid,
    rng: np.random.Generator,
    start: prey.PreyState = prey.DEFAULT_START,
    max_steps: int = 12,
    threshold: float = 20.0,
) -> tuple[list[str], list[list]]:
    """Roll one pursuit while the mixture monitor watches the suspect.

    The monitor's states are the distinct chase rows of
    :func:`prey.pursuit_tables`; the pursuit stops once it crosses
    ``threshold``.
    """
    _, chase_row, chase_rows = prey.pursuit_tables()
    uniform = 1.0 / prey.NUM_ACTIONS
    null = Policy(np.full(chase_rows.shape, uniform))
    monitor = LRMonitorState.fresh(
        Policy((1.0 - eps) * uniform + eps * chase_rows)
        for eps in np.asarray(eps_grid, dtype=float)
    )
    columns = [
        "step", "row", "col", "action", "martingale",
        *list(prey.ACTION_NAMES),
        "evalue",
    ]
    rows: list[list] = []
    state = start
    for step in range(max_steps):
        if state.captured or state.exhausted:
            break
        row = chase_row[prey.cell_id(state.suspect)][prey.cell_id(state.prey)]
        played = (1.0 - eps_true) * uniform + eps_true * chase_rows[row]
        act = int(rng.choice(prey.NUM_ACTIONS, p=played))
        evalue, martingale = _monitor_step(monitor, row, act, null, threshold)
        rows.append(
            [
                step, *state.suspect, prey.ACTION_NAMES[act], martingale,
                *[float(v) for v in played],
                evalue,
            ]
        )
        state, _ = prey.prey_step(state, act, rng)
        if monitor.crossing_time is not None:
            break
    return columns, rows
