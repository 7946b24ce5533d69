"""Episode traces as CSV-ready rows.

Each trace pairs the environment log (positions, commanded and realized
actions, action probabilities) with the monitor's view of the same episode
(the per-round e-value and the running martingale *before* that round's
update, so the martingale column starts at 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from ..games import cumulative_cuts
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
    max_steps: int = 12,
) -> tuple[list[str], list[list]]:
    """Roll one match from kickoff while monitoring the attacker's actions.

    The monitor's alternative is the policy the attacker actually plays (the
    known-deviation test). The monitor never stops the match.
    """
    monitor = LRMonitorState.fresh((attacker,))
    columns = [
        "step", "a_row", "a_col", "b_row", "b_col",
        "act_a", "act_b", "real_b", "slip", "possession",
        *[f"pa_{n}" for n in soccer.ACTION_NAMES],
        *[f"pb_{n}" for n in soccer.ACTION_NAMES],
        "evalue", "martingale",
    ]
    rows: list[list] = []
    cuts_a, cuts_b = (cumulative_cuts(p.table).tolist() for p in (attacker, defender))
    state = soccer.INITIAL_STATE
    for step in range(max_steps):
        if soccer.is_terminal(state):
            break
        s = soccer.state_index(state)
        act_a = bisect_right(cuts_a[s], rng.random())
        act_b = bisect_right(cuts_b[s], rng.random())
        evalue, martingale = _monitor_step(monitor, s, act_a, null_attacker, math.inf)
        nxt, _, _, real_b = soccer.soccer_step(state, act_a, act_b, rng)
        rows.append(
            [
                step, *state.a_pos, *state.b_pos,
                soccer.ACTION_NAMES[act_a], soccer.ACTION_NAMES[act_b],
                soccer.ACTION_NAMES[real_b], int(real_b != act_b),
                "A" if state.possession == 0 else "B",
                *attacker.table[s].tolist(),
                *defender.table[s].tolist(),
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
    max_steps: int = 12,
) -> tuple[list[str], list[list]]:
    """Roll one pursuit from :data:`prey.DEFAULT_START` while the mixture
    monitor watches the suspect.

    The monitor's states are the distinct chase rows of
    :func:`prey.pursuit_tables`, and its alternatives the suspect's rows
    (:func:`prey.suspect_rows`) at each weight of ``eps_grid``; the pursuit
    stops once the monitor crosses 20.
    """
    _, chase_row, _ = prey.pursuit_tables()
    suspect = prey.suspect_rows(eps_true)
    cuts = cumulative_cuts(suspect).tolist()
    null = Policy(np.full(suspect.shape, 1.0 / prey.NUM_ACTIONS))
    monitor = LRMonitorState.fresh(Policy(prey.suspect_rows(eps)) for eps in eps_grid)
    columns = [
        "step", "row", "col", "action", "martingale",
        *list(prey.ACTION_NAMES),
        "evalue",
    ]
    rows: list[list] = []
    state = prey.DEFAULT_START
    for step in range(max_steps):
        if state.captured or state.exhausted:
            break
        row = chase_row[prey.cell_id(state.suspect)][prey.cell_id(state.prey)]
        act = bisect_right(cuts[row], rng.random())
        evalue, martingale = _monitor_step(monitor, row, act, null, 20.0)
        rows.append(
            [
                step, *state.suspect, prey.ACTION_NAMES[act], martingale,
                *suspect[row].tolist(),
                evalue,
            ]
        )
        state, _ = prey.prey_step(state, act, rng)
        if monitor.crossing_time is not None:
            break
    return columns, rows
