"""Sequential decision layer: hypothesis enumeration, FWER and e-BH monitors.

A monitor owns one e-process per deviation hypothesis and advances all of
them as one block on each observed action profile. The FWER procedure stops
the first time any mixture wealth reaches m/alpha. The FDR procedure never
stops: it recomputes the e-BH rejection level from running suprema each
round, which makes the rejection sets nested over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# ``increment`` is the scalar form of the increment table; it stays importable
# here because perfbench's --trace 1 wraps it as a monitors attribute.
from .eprocess import WEIGHT_TOL, BettingMixture, _log_mix, increment, log_factors  # noqa: F401
from .errors import DomainError, ShapeError, StateError
from .games import ActionProfile, EquilibriumMode, NormalFormGame

SNAPSHOT_HEADER = "eqsentinel-monitor-snapshot v2"
SNAPSHOT_HEADER_V1 = "eqsentinel-monitor-snapshot v1"


@dataclass(frozen=True)
class HypothesisId:
    """One monitored deviation: player i switching to ``deviation``.

    ``condition`` is the recommended action in the conditional CE mode and
    is absent everywhere else.
    """

    player: int
    deviation: int
    condition: int | None = None

    def __post_init__(self) -> None:
        if self.condition is not None and self.condition == self.deviation:
            raise DomainError("conditional hypothesis needs deviation != condition")

    def label(self) -> str:
        if self.condition is None:
            return f"p{self.player}->a{self.deviation}"
        return f"p{self.player}|a{self.condition}->a{self.deviation}"


def enumerate_hypotheses(
    game: NormalFormGame,
    mode: EquilibriumMode,
    conditional_ce: bool = False,
) -> list[HypothesisId]:
    """All deviation hypotheses for the given equilibrium mode.

    NASH, CCE and EPS_APPROX monitor every (player, deviation) pair. CE
    defaults to the same unconditional set; the conditional enumeration
    (player, recommendation, deviation) sits behind ``conditional_ce``.
    """
    counts = game.action_counts
    if mode is EquilibriumMode.CE and conditional_ce:
        return [
            HypothesisId(i, dev, condition=rec)
            for i in range(game.num_players)
            for rec in range(counts[i])
            for dev in range(counts[i])
            if dev != rec
        ]
    return [
        HypothesisId(i, dev)
        for i in range(game.num_players)
        for dev in range(counts[i])
    ]


def increment_tables(
    game: NormalFormGame, hypotheses: list[HypothesisId], eps_shift: float = 0.0
) -> np.ndarray:
    """Per-hypothesis increments over flattened joint profiles, (m, P):
    ``increment``'s u_i(a) - u_i(deviation, a_-i) + eps_shift. A conditional
    hypothesis gets its unconditional row; callers mask its inactive rounds."""
    u = game.payoffs
    return np.stack([
        (u[h.player] - np.take(u[h.player], [h.deviation], axis=h.player) + eps_shift).ravel()
        for h in hypotheses
    ])


@dataclass(frozen=True)
class MonitorConfig:
    """Significance level, equilibrium mode, betting mixture and procedure."""

    alpha: float
    mixture: BettingMixture
    mode: EquilibriumMode = EquilibriumMode.NASH
    eps: float = 0.0
    procedure: str = "fwer"
    weights: np.ndarray | None = None
    conditional_ce: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if self.procedure not in ("fwer", "fdr"):
            raise DomainError(f"unknown procedure {self.procedure!r}")
        if self.mode is EquilibriumMode.EPS_APPROX:
            if self.eps <= 0.0:
                raise DomainError("EPS_APPROX mode needs eps > 0")
            # Shifted increments reach 1 + eps; capping lambda keeps every
            # e-value factor nonnegative.
            if self.mixture.lambdas.max() > 1.0 / (1.0 + self.eps):
                raise DomainError(
                    "mixture fractions must not exceed 1/(1+eps) under a shift"
                )
        elif self.eps != 0.0:
            raise DomainError("eps is only meaningful in EPS_APPROX mode")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1:
                raise ShapeError("weights must be a 1-D array")
            if w.min() <= 0.0 or abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise DomainError("weights must be positive and sum to 1")
            object.__setattr__(self, "weights", w)


@dataclass
class RejectionState:
    """Nested rejection bookkeeping shared by both procedures."""

    k: int = 0
    rejected: dict[HypothesisId, int] = field(default_factory=dict)
    stopped: bool = False
    stopping_round: int | None = None

    @property
    def first_rejection_round(self) -> int | None:
        if not self.rejected:
            return None
        return min(self.rejected.values())


@dataclass(frozen=True)
class StepDecision:
    """Outcome of one FWER step: CONTINUE, or REJECT with the crossing ids."""

    rejected: tuple[HypothesisId, ...] = ()
    round: int | None = None

    @property
    def stopped(self) -> bool:
        return bool(self.rejected)


CONTINUE = StepDecision()


def _ebh(crossed: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Largest k with at least k flags in row k-1 of ``crossed``, and the
    indices flagged in that row (0 and the empty set if there is none)."""
    feasible = np.flatnonzero(crossed.sum(axis=1) >= np.arange(1, crossed.shape[0] + 1))
    if not feasible.size:
        return 0, ()
    return int(feasible[-1]) + 1, tuple(int(i) for i in np.flatnonzero(crossed[feasible[-1]]))


def _log_ladder(alpha: float, weights: np.ndarray) -> np.ndarray:
    """e-BH log thresholds, (m, m): row k-1 holds log(1 / (k * alpha * w_j))."""
    return np.array([
        [math.log(1.0 / (k * alpha * w)) for w in weights] for k in range(1, len(weights) + 1)
    ])


def ebh_rejection(maxima, alpha: float, weights) -> tuple[int, tuple[int, ...]]:
    """e-BH level and rejected indices from running suprema.

    Returns the largest k in [m] such that at least k hypotheses have ever
    crossed their level-k thresholds 1/(k * alpha * weight), together with
    the indices crossing at that level (k = 0 and the empty set if none).
    Zero weights are allowed here and mean an infinite threshold.
    """
    maxima = np.asarray(maxima, dtype=float)
    w = np.asarray(weights, dtype=float)
    if maxima.shape != w.shape or maxima.ndim != 1:
        raise ShapeError("maxima and weights must be 1-D arrays of equal length")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    inv_w = np.where(w > 0.0, 1.0 / (alpha * np.where(w > 0.0, w, 1.0)), np.inf)
    return _ebh(maxima >= inv_w / np.arange(1, maxima.size + 1)[:, None])


class EquilibriumMonitor:
    """Single-writer monitor over all deviation hypotheses of one game.

    State is one block: (m, G) per-fraction ``log_wealth`` (-inf when dead),
    (m,) running maxima ``log_max`` of the log mixture wealth and (m,)
    ``updates`` per hypothesis. Decisions are taken in log space.
    """

    def __init__(self, game: NormalFormGame, config: MonitorConfig):
        self.game = game
        self.config = config
        self.hypotheses = enumerate_hypotheses(
            game, config.mode, conditional_ce=config.conditional_ce
        )
        self.m = len(self.hypotheses)
        if config.procedure == "fdr":
            weights = np.full(self.m, 1.0 / self.m) if config.weights is None else config.weights
            if weights.size != self.m:
                raise ShapeError(f"{weights.size} weights for {self.m} hypotheses")
            self.weights = weights
            self._ladder = _log_ladder(config.alpha, weights)
        else:
            self.weights = None
        self._log_threshold = math.log(self.threshold)
        counts = game.action_counts
        self._strides = tuple(int(np.prod(counts[i + 1:])) for i in range(len(counts)))
        # By flat profile: (P, m) active mask and (P, m, G) log factors of
        # ``increment``'s values. Off its recommendation a conditional
        # hypothesis is inactive and its increment 0 leaves wealth as it is.
        own = np.indices(counts).reshape(len(counts), -1)
        self._active = np.stack(
            [(own[h.player] == h.condition) | (h.condition is None) for h in self.hypotheses], 1
        )
        shift = config.eps if config.mode is EquilibriumMode.EPS_APPROX else 0.0
        table = np.where(self._active, increment_tables(game, self.hypotheses, shift).T, 0.0)
        self._factors = log_factors(table, config.mixture).reshape(*table.shape, -1)
        self.log_wealth = np.zeros((self.m, config.mixture.size))
        self.log_max = np.zeros(self.m)
        self.updates = np.zeros(self.m, dtype=np.int64)
        self.round = 0
        self.rejection = RejectionState()
        # Global rounds at which each hypothesis first reached m/alpha;
        # ``updates`` lags global time in conditional CE mode.
        self.threshold_crossings: dict[HypothesisId, int] = {}

    @property
    def threshold(self) -> float:
        """FWER threshold m/alpha; derived, never stored independently."""
        return self.m / self.config.alpha

    def _advance(self, profile: ActionProfile) -> np.ndarray:
        """One block step; returns the indices of hypotheses now at or above m/alpha."""
        profile.validate(self.game.action_counts)
        idx = sum(a * s for a, s in zip(profile.actions, self._strides))
        self.log_wealth += self._factors[idx]
        self.round += 1
        self.updates += self._active[idx]
        log_values = _log_mix(self.log_wealth, self.config.mixture.weights)
        np.maximum(self.log_max, log_values, out=self.log_max)
        above = np.flatnonzero(log_values >= self._log_threshold)
        for j in above:
            self.threshold_crossings.setdefault(self.hypotheses[j], self.round)
        return above

    def step_fwer(self, profile: ActionProfile) -> StepDecision:
        """One FWER round; rejects and stops when any wealth reaches m/alpha."""
        if self.config.procedure != "fwer":
            raise StateError("monitor was configured for FDR")
        if self.rejection.stopped:
            raise StateError("monitor already stopped")
        above = self._advance(profile)
        if not above.size:
            return CONTINUE
        crossing = tuple(self.hypotheses[j] for j in above)
        self.rejection.stopped = True
        self.rejection.stopping_round = self.round
        for h in crossing:
            self.rejection.rejected.setdefault(h, self.round)
        self.rejection.k = len(self.rejection.rejected)
        return StepDecision(crossing, self.round)

    def step_fdr(self, profile: ActionProfile) -> RejectionState:
        """One e-BH round; accumulates evidence and never hard-stops."""
        if self.config.procedure != "fdr":
            raise StateError("monitor was configured for FWER")
        self._advance(profile)
        self.rejection.k, rejected = _ebh(self.log_max >= self._ladder)
        for j in rejected:
            self.rejection.rejected.setdefault(self.hypotheses[j], self.round)
        return self.rejection

    def wealth(self) -> dict[HypothesisId, float]:
        """Mixture wealth per hypothesis; inf at worst, never an overflow."""
        with np.errstate(over="ignore"):
            values = np.exp(_log_mix(self.log_wealth, self.config.mixture.weights))
        return dict(zip(self.hypotheses, values.tolist()))

    # -- snapshot ----------------------------------------------------------

    def to_snapshot(self) -> str:
        """Versioned text snapshot of the full monitor state."""
        cfg, rej = self.config, self.rejection
        lines = [
            SNAPSHOT_HEADER,
            f"procedure {cfg.procedure}",
            f"alpha {cfg.alpha!r}",
            f"mode {cfg.mode.value}",
            f"eps {cfg.eps!r}",
            f"conditional_ce {int(cfg.conditional_ce)}",
            f"mixture {cfg.mixture.kind}",
            f"lambdas {_floats(cfg.mixture.lambdas)}",
            f"mixture_weights {_floats(cfg.mixture.weights)}",
        ]
        if self.weights is not None:
            lines.append(f"weights {_floats(self.weights)}")
        lines += [
            f"round {self.round}",
            f"k {rej.k}",
            f"stopped {int(rej.stopped)}",
            f"stopping_round {rej.stopping_round or -1}",
        ]
        for j, h in enumerate(self.hypotheses):
            cond = -1 if h.condition is None else h.condition
            lines += [
                f"hypothesis {h.player} {h.deviation} {cond}",
                f"logw {_floats(self.log_wealth[j])}",
                f"rounds {self.updates[j]}",
                f"logmax {float(self.log_max[j])!r}",
                f"global_crossing {self.threshold_crossings.get(h, -1)}",
                f"rejected_at {rej.rejected.get(h, -1)}",
            ]
        return "\n".join(lines + ["end"]) + "\n"

    @classmethod
    def from_snapshot(cls, game: NormalFormGame, text: str) -> "EquilibriumMonitor":
        """Restore a v2 snapshot, or a v1 one (linear running maxima).

        A missing or malformed line raises ``DomainError`` naming its key;
        so do NaN or +inf log wealth, a non-finite running maximum, a
        negative round count or level, a round count, crossing, rejection
        or stopping round past ``round``, and a level past the number of
        hypotheses.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] not in (SNAPSHOT_HEADER, SNAPSHOT_HEADER_V1):
            raise DomainError("unrecognized snapshot header")
        blocks: list[dict[str, str]] = [{}]
        for line in lines[1:]:
            key, _, value = line.partition(" ")
            if key == "end":
                break
            if key == "hypothesis":
                blocks.append({})
            blocks[-1][key] = value
        fields = blocks[0]
        mixture = BettingMixture(
            _read(fields, "mixture"),
            _read(fields, "lambdas", _parse),
            _read(fields, "mixture_weights", _parse),
        )
        config = MonitorConfig(
            alpha=_read(fields, "alpha", float),
            mixture=mixture,
            mode=_read(fields, "mode", EquilibriumMode),
            eps=_read(fields, "eps", float),
            procedure=_read(fields, "procedure"),
            weights=_read(fields, "weights", _parse) if "weights" in fields else None,
            conditional_ce=bool(_read(fields, "conditional_ce", int)),
        )
        monitor = cls(game, config)
        monitor.round = _read(fields, "round", int, lambda n: n >= 0)
        last = monitor.round
        m = len(monitor.hypotheses)
        monitor.rejection.k = _read(fields, "k", int, lambda n: 0 <= n <= m)
        monitor.rejection.stopped = bool(_read(fields, "stopped", int))
        stopping = _read(fields, "stopping_round", int, lambda n: n <= last)
        monitor.rejection.stopping_round = None if stopping < 0 else stopping
        for block in blocks[1:]:
            h = _read(block, "hypothesis", _hypothesis_id)
            if h not in monitor.hypotheses:
                raise DomainError(f"snapshot hypothesis {h} not in monitor")
            j = monitor.hypotheses.index(h)
            # -inf is a dead component; v1 kept its last finite log wealth.
            logw = _read(block, "logw", _parse, lambda w: (w < math.inf).all())
            dead = _read(block, "dead", _parse) == 1.0 if "dead" in block else np.isneginf(logw)
            if not logw.size == dead.size == mixture.size:
                raise ShapeError(f"{logw.size} log wealth entries for {mixture.size} fractions")
            monitor.log_wealth[j] = np.where(dead, -np.inf, logw)
            monitor.updates[j] = _read(block, "rounds", int, lambda n: 0 <= n <= last)
            monitor.log_max[j] = (
                _read(block, "logmax", float, math.isfinite)
                if "logmax" in block
                else _read(block, "runmax", lambda v: math.log(float(v)), math.isfinite)
            )
            crossing = _read(block, "global_crossing", int, lambda n: n <= last)
            if crossing >= 0:
                monitor.threshold_crossings[h] = crossing
            rejected_at = _read(block, "rejected_at", int, lambda n: n <= last)
            if rejected_at >= 0:
                monitor.rejection.rejected[h] = rejected_at
        return monitor


def _read(fields: dict[str, str], key: str, convert=str, valid=lambda value: True):
    """One snapshot line's value, converted and checked by ``valid``;
    DomainError names a missing, malformed or invalid key."""
    if key not in fields:
        raise DomainError(f"snapshot has no '{key}' line")
    try:
        value = convert(fields[key])
    except ValueError as exc:
        raise DomainError(f"snapshot line '{key}' is malformed: {fields[key]!r}") from exc
    if not valid(value):
        raise DomainError(f"snapshot line '{key}' is invalid: {fields[key]!r}")
    return value


def _hypothesis_id(text: str) -> HypothesisId:
    player, deviation, cond = (int(v) for v in text.split())
    return HypothesisId(player, deviation, None if cond < 0 else cond)


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])

