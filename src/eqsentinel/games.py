"""Finite normal-form games: payoff tensors, action profiles and joint strategies.

Payoffs live in [0, 1]. Strategies are either a product of per-player mixed
strategies or a single distribution over the joint action space; both are
carried by :class:`JointStrategy` with a kind tag so downstream code accepts
either, and reduce to one dense joint law. Deviation gains and equilibrium
slack are expectations of the monitors' increment table under that law, so
they live in :mod:`eqsentinel.monitors`.

Every sampled action in the package is drawn by one rule: a uniform ``u``
picks the number of cuts at or below it, ``bisect_right(cuts, u)``, in the
distribution's cut table (:func:`cumulative_cuts`, its cumulative sums before
the last), which is ``searchsorted(cdf, u, "right")`` clamped to the last
action. A strategy draws one uniform per drawn factor (:func:`strategy_cuts`)
and joins the actions in C order (:func:`_profiles`). The draws follow the bit
generator's stream, which NumPy keeps stable (NEP 19); ``Generator.choice``,
whose output it does not, divides the cdf by its last entry, so it differs
from the rule only for a ``u`` within that entry's distance from 1 of a cut.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import PROB_TOL, DomainError, ShapeError, check_distribution


class StrategyKind(enum.Enum):
    PRODUCT = "product"
    FULL = "full"


class EquilibriumMode(enum.Enum):
    """Which no-deviation condition a monitor or slack computation targets."""

    NASH = "nash"
    CCE = "cce"
    CE = "ce"
    EPS_APPROX = "eps-approx"


@dataclass(frozen=True)
class NormalFormGame:
    """Dense payoff tensors, one per player, over the joint action space.

    ``payoffs[i]`` is player ``i``'s utility indexed by the full action
    profile, so the array has shape ``(n, |A_1|, ..., |A_n|)``.
    """

    payoffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.payoffs, dtype=float)
        if arr.ndim < 2 or arr.size == 0:
            raise ShapeError("payoffs must be a nonempty (n, |A_1|, ..., |A_n|) tensor")
        n = arr.shape[0]
        if arr.ndim != n + 1:
            raise ShapeError(
                f"payoff tensor has {arr.ndim - 1} action axes for {n} players"
            )
        if not (0.0 <= arr.min() and arr.max() <= 1.0):
            raise DomainError("payoffs must lie in [0, 1]")
        object.__setattr__(self, "payoffs", arr)

    @property
    def num_players(self) -> int:
        return self.payoffs.shape[0]

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.payoffs.shape[1:]

    def _check_player(self, player: int) -> None:
        if not 0 <= player < self.num_players:
            raise ShapeError(f"player index {player} out of range")

    def _check_action(self, player: int, action: int) -> None:
        self._check_player(player)
        if not 0 <= action < self.action_counts[player]:
            raise ShapeError(
                f"action {action} out of range for player {player}"
            )


def two_player_game(u1, u2) -> NormalFormGame:
    """Convenience constructor from two payoff matrices (row player first)."""
    return NormalFormGame(np.stack([np.asarray(u1, float), np.asarray(u2, float)]))


@dataclass(frozen=True)
class ActionProfile:
    """One action index per player."""

    actions: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))

    def validate(self, action_counts: tuple[int, ...]) -> None:
        if len(self.actions) != len(action_counts):
            raise ShapeError("profile length does not match player count")
        for a, count in zip(self.actions, action_counts):
            if not 0 <= a < count:
                raise ShapeError(f"action index {a} out of range [0, {count})")


@dataclass(frozen=True)
class JointStrategy:
    """A joint strategy, either a product of marginals or a full joint law."""

    kind: StrategyKind
    factors: tuple[np.ndarray, ...] = ()
    joint: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.PRODUCT:
            if not self.factors or self.joint is not None:
                raise ShapeError("PRODUCT strategy needs per-player factors only")
            factors = tuple(
                check_distribution(np.atleast_1d(f), f"strategy of player {i}", PROB_TOL)
                for i, f in enumerate(self.factors)
            )
            object.__setattr__(self, "factors", factors)
        elif self.kind is StrategyKind.FULL:
            if self.joint is None or self.factors:
                raise ShapeError("FULL strategy needs a joint table only")
            joint = np.asarray(self.joint, dtype=float)
            check_distribution(joint.ravel(), "joint strategy", PROB_TOL)
            object.__setattr__(self, "joint", joint)
        else:  # pragma: no cover - enum exhausts kinds
            raise ShapeError(f"unknown strategy kind {self.kind}")

    @classmethod
    def product(cls, *factors) -> "JointStrategy":
        return cls(StrategyKind.PRODUCT, factors=tuple(factors))

    @classmethod
    def full(cls, joint) -> "JointStrategy":
        return cls(StrategyKind.FULL, joint=np.asarray(joint, dtype=float))

    @property
    def action_counts(self) -> tuple[int, ...]:
        if self.kind is StrategyKind.PRODUCT:
            return tuple(len(f) for f in self.factors)
        return self.joint.shape

    def joint_law(self) -> np.ndarray:
        """Dense probability tensor over the joint action space."""
        if self.kind is StrategyKind.FULL:
            return self.joint
        law = self.factors[0]
        for f in self.factors[1:]:
            law = np.multiply.outer(law, f)
        return law

    def check_compatible(self, game: NormalFormGame) -> None:
        if self.action_counts != game.action_counts:
            raise ShapeError(
                f"strategy shape {self.action_counts} does not match game "
                f"{game.action_counts}"
            )


def cumulative_cuts(probs) -> np.ndarray:
    """The draw rule's cut table: cumulative sums along the last axis, less the last."""
    return np.cumsum(probs, axis=-1)[..., :-1]


def strategy_cuts(strategy: JointStrategy) -> list[np.ndarray]:
    """One cut table per drawn factor: each player's marginal of a product
    strategy, or the flattened joint law of a full one."""
    probs = strategy.factors if strategy.kind is StrategyKind.PRODUCT else [strategy.joint.ravel()]
    return [cumulative_cuts(p) for p in probs]


def _profiles(cuts: list, uniforms) -> np.ndarray:
    """Flat joint-profile indices from uniforms, one leading row per drawn factor."""
    idx = np.zeros(np.shape(uniforms[0]), dtype=np.intp)
    for factor_cuts, u in zip(cuts, uniforms):
        idx *= factor_cuts.size + 1
        for cut in factor_cuts:
            idx += u >= cut
    return idx


def sample_profile(strategy: JointStrategy, rng: np.random.Generator) -> ActionProfile:
    """One i.i.d. draw from the joint strategy: one ``rng.random()`` per drawn factor."""
    flat = 0
    for cuts in strategy_cuts(strategy):
        flat = flat * (cuts.size + 1) + bisect_right(cuts.tolist(), rng.random())
    return ActionProfile(np.unravel_index(flat, strategy.action_counts))
