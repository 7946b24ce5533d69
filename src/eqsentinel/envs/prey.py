"""Predator-prey pursuit on a 10x10 grid.

Three predators (the monitored suspect first, then two honest ones) chase a
single prey; an episode ends when any predator shares the prey's cell or
after 5000 steps. Actions are ordered (Stay, Up, Down, Left, Right); Up
decreases the row. Off-grid moves resolve to staying in place.

The dynamics of the honest predators and the prey are not pinned down by
the protocol; both move uniformly at random here, as a documented modeling
default isolated behind this module.

The pursuit rules are written once, as the arrays of :func:`pursuit_tables`;
:func:`prey_step`, :func:`chase_policy`, the trials and the trace read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ..errors import DomainError, ShapeError, StateError

ACTION_NAMES = ("Stay", "Up", "Down", "Left", "Right")
NUM_ACTIONS = 5
_MOVES = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))

GRID = 10
HORIZON = 5000

CHASE_CLOSER = 10.0
CHASE_NEUTRAL = 1.0
CHASE_FARTHER = 0.1


def _check_on_grid(pos: tuple[int, int]) -> None:
    r, c = pos
    if not (0 <= r < GRID and 0 <= c < GRID):
        raise ShapeError(f"position {pos} off the {GRID}x{GRID} grid")


@dataclass(frozen=True)
class PreyState:
    predators: tuple[tuple[int, int], ...]  # suspect first
    prey: tuple[int, int]
    step_count: int = 0
    horizon: int = HORIZON

    def __post_init__(self) -> None:
        if len(self.predators) != 3:
            raise ShapeError("the pursuit runs 3 predators")
        for pos in (*self.predators, self.prey):
            _check_on_grid(pos)
        if not self.horizon > 0:
            raise DomainError("horizon must be positive")

    @property
    def suspect(self) -> tuple[int, int]:
        return self.predators[0]

    @property
    def captured(self) -> bool:
        return any(p == self.prey for p in self.predators)

    @property
    def exhausted(self) -> bool:
        return self.step_count >= self.horizon


DEFAULT_START = PreyState(
    predators=((0, 0), (0, GRID - 1), (GRID - 1, 0)), prey=(5, 5)
)


def prey_step(
    state: PreyState, suspect_action: int, rng: np.random.Generator
) -> tuple[PreyState, bool]:
    """One synchronous step: suspect as commanded, everyone else uniform,
    each landing where the ``moves`` table of :func:`pursuit_tables` sends it.

    Capture is checked after all four moves; running out the horizon is
    terminal without capture. Draw order is fixed (honest pair, then prey).
    """
    if state.captured or state.exhausted:
        raise StateError("step on a terminal pursuit state")
    if not 0 <= suspect_action < NUM_ACTIONS:
        raise ShapeError("actions must lie in [0, 5)")
    moves, _, _ = pursuit_tables()
    actions = [suspect_action, *(int(rng.integers(NUM_ACTIONS)) for _ in range(3))]
    landed = [
        divmod(moves[cell_id(pos)][action], GRID)
        for pos, action in zip((*state.predators, state.prey), actions)
    ]
    nxt = PreyState(
        predators=tuple(landed[:3]),
        prey=landed[3],
        step_count=state.step_count + 1,
        horizon=state.horizon,
    )
    return nxt, nxt.captured or nxt.exhausted


def chase_policy(predator: tuple[int, int], prey: tuple[int, int]) -> np.ndarray:
    """Heuristic pursuit distribution over (Stay, Up, Down, Left, Right): a
    copy of the pair's chase row of :func:`pursuit_tables`."""
    for pos in (predator, prey):
        _check_on_grid(pos)
    if predator == prey:
        raise DomainError("chase policy is undefined on a captured state")
    _, chase_row, chase_rows = pursuit_tables()
    return chase_rows[chase_row[cell_id(predator)][cell_id(prey)]].copy()


def cell_id(pos: tuple[int, int]) -> int:
    """Integer id ``row * GRID + col`` of a grid cell."""
    return pos[0] * GRID + pos[1]


@cache
def pursuit_tables() -> tuple[
    tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], np.ndarray
]:
    """The pursuit rules over cell ids (:func:`cell_id`), for simulation loops.

    ``moves[cell][action]`` is the cell an action lands on, the cell itself
    for an off-grid move. The chase heuristic weighs each action by where it
    lands: 10 when the Euclidean distance to the prey strictly decreases, 1
    when unchanged (staying included), 0.1 when it grows; distances compare
    as integer squares, so ties are exact. ``chase_rows`` stacks the distinct
    normalised rows (read-only) in the order a scan over (predator, prey)
    first meets them, and ``chase_row[predator][prey]`` is the pair's row, or
    -1 where the two share a cell and the heuristic is undefined. Built on
    first use and kept for the life of the process.
    """
    cells = np.arange(GRID * GRID)
    r, c = np.divmod(cells, GRID)
    dr, dc = np.array(_MOVES).T
    land_r, land_c = r[:, None] + dr, c[:, None] + dc
    inside = (0 <= land_r) & (land_r < GRID) & (0 <= land_c) & (land_c < GRID)
    moves = np.where(inside, land_r * GRID + land_c, cells[:, None])
    # Squared distances to the prey as (predator, prey, action); action 0
    # stays, so its distance is the one to beat. Codes: 0 closer, 1 the
    # same, 2 farther; a pair's five codes key its row.
    to_r, to_c = np.divmod(moves[:, None, :], GRID)
    there = (to_r - r[:, None]) ** 2 + (to_c - c[:, None]) ** 2
    pairs = ~np.eye(cells.size, dtype=bool)
    codes = np.sign(there - there[:, :, :1])[pairs] + 1
    _, first, inverse = np.unique(
        codes @ 3 ** np.arange(NUM_ACTIONS), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    chase_row = np.full(pairs.shape, -1)
    chase_row[pairs] = np.argsort(order)[inverse]
    weights = np.array([CHASE_CLOSER, CHASE_NEUTRAL, CHASE_FARTHER])[codes[first[order]]]
    chase_rows = weights / weights.sum(axis=1, keepdims=True)
    chase_rows.flags.writeable = False
    return tuple(map(tuple, moves.tolist())), tuple(map(tuple, chase_row.tolist())), chase_rows


def suspect_rows(epsilon: float) -> np.ndarray:
    """The suspect's row for each distinct chase row of :func:`pursuit_tables`:
    uniform play blended with the chase heuristic at weight ``epsilon``."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in [0, 1], got {epsilon}")
    _, _, chase_rows = pursuit_tables()
    return (1.0 - epsilon) * (1.0 / NUM_ACTIONS) + epsilon * chase_rows
