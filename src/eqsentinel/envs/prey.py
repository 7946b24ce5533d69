"""Predator-prey pursuit on a 10x10 grid.

Three predators (the monitored suspect first, then two honest ones) chase a
single prey; an episode ends when any predator shares the prey's cell or
after 5000 steps. Actions are ordered (Stay, Up, Down, Left, Right); Up
decreases the row. Off-grid moves resolve to staying in place.

The dynamics of the honest predators and the prey are not pinned down by
the protocol; both move uniformly at random here, as a documented modeling
default isolated behind this module.
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
            r, c = pos
            if not (0 <= r < GRID and 0 <= c < GRID):
                raise ShapeError(f"position {pos} off the {GRID}x{GRID} grid")
        if self.horizon <= 0:
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


def _move(pos: tuple[int, int], action: int) -> tuple[int, int]:
    dr, dc = _MOVES[action]
    r, c = pos[0] + dr, pos[1] + dc
    if not (0 <= r < GRID and 0 <= c < GRID):
        return pos
    return (r, c)


def prey_step(
    state: PreyState, suspect_action: int, rng: np.random.Generator
) -> tuple[PreyState, bool]:
    """One synchronous step: suspect as commanded, everyone else uniform.

    Capture is checked after all four moves; running out the horizon is
    terminal without capture. Draw order is fixed (honest pair, then prey).
    """
    if state.captured or state.exhausted:
        raise StateError("step on a terminal pursuit state")
    if not 0 <= suspect_action < NUM_ACTIONS:
        raise ShapeError("actions must lie in [0, 5)")
    moved = [_move(state.suspect, suspect_action)]
    for honest in state.predators[1:]:
        moved.append(_move(honest, int(rng.integers(NUM_ACTIONS))))
    new_prey = _move(state.prey, int(rng.integers(NUM_ACTIONS)))
    nxt = PreyState(
        predators=tuple(moved),
        prey=new_prey,
        step_count=state.step_count + 1,
        horizon=state.horizon,
    )
    return nxt, nxt.captured or nxt.exhausted


def chase_policy(
    predator: tuple[int, int], prey: tuple[int, int], grid: int = GRID
) -> np.ndarray:
    """Heuristic pursuit distribution over (Stay, Up, Down, Left, Right).

    Each action is rated by where it actually lands (off-grid resolves to
    staying, hence counts as neutral): weight 10 when the Euclidean distance
    to the prey strictly decreases, 1 when unchanged, 0.1 when it grows.
    Distances are compared on integer squares, so ties are exact.
    """
    if predator == prey:
        raise DomainError("chase policy is undefined on a captured state")

    def sqdist(pos: tuple[int, int]) -> int:
        return (pos[0] - prey[0]) ** 2 + (pos[1] - prey[1]) ** 2

    here = sqdist(predator)
    weights = np.empty(NUM_ACTIONS)
    for action in range(NUM_ACTIONS):
        r, c = predator[0] + _MOVES[action][0], predator[1] + _MOVES[action][1]
        landing = (r, c) if 0 <= r < grid and 0 <= c < grid else predator
        there = sqdist(landing)
        if there < here:
            weights[action] = CHASE_CLOSER
        elif there == here:
            weights[action] = CHASE_NEUTRAL
        else:
            weights[action] = CHASE_FARTHER
    return weights / weights.sum()


def cell_id(pos: tuple[int, int]) -> int:
    """Integer id ``row * GRID + col`` of a grid cell."""
    return pos[0] * GRID + pos[1]


@cache
def pursuit_tables() -> tuple[
    tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], np.ndarray
]:
    """The pursuit rules over cell ids (:func:`cell_id`), for simulation loops.

    ``moves[cell][action]`` is the cell :func:`_move` lands on.
    ``chase_rows`` stacks the distinct :func:`chase_policy` rows (read-only),
    and ``chase_row[suspect][prey]`` is the index of that pair's row, or -1
    where the two share a cell and the policy is undefined. Built on first
    use and kept for the life of the process.
    """
    cells = [divmod(i, GRID) for i in range(GRID * GRID)]
    moves = tuple(
        tuple(cell_id(_move(pos, action)) for action in range(NUM_ACTIONS))
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
            key = tuple(chase_policy(predator, target).tolist())
            ids.append(distinct.setdefault(key, len(distinct)))
        chase_row.append(tuple(ids))
    chase_rows = np.array(list(distinct))
    chase_rows.flags.writeable = False
    return moves, tuple(chase_row), chase_rows


def suspect_policy_row(
    predator: tuple[int, int],
    prey: tuple[int, int],
    epsilon: float,
    grid: int = GRID,
) -> np.ndarray:
    """Suspect behavior: uniform random walk blended with the chase heuristic."""
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")
    uniform = np.full(NUM_ACTIONS, 1.0 / NUM_ACTIONS)
    return (1.0 - epsilon) * uniform + epsilon * chase_policy(predator, prey, grid)
