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

from .eprocess import BettingMixture, _log_mix, log_factors
from .errors import PROB_TOL, ConfigError, DomainError, LineReader, ShapeError, StateError
from .errors import check_distribution, format_floats
from .games import ActionProfile, EquilibriumMode, JointStrategy, NormalFormGame

SNAPSHOT_HEADER = "eqsentinel-monitor-snapshot v2"
SNAPSHOT_HEADER_V1 = "eqsentinel-monitor-snapshot v1"
CE_SUPPORT_FLOOR = 1e-12


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


def _active_mask(game: NormalFormGame, hypotheses: list[HypothesisId]) -> np.ndarray:
    """(m, P) flags over flattened joint profiles: a conditional hypothesis is
    active on its recommendation only, every other hypothesis everywhere."""
    counts = game.action_counts
    own = np.indices(counts).reshape(len(counts), -1)
    return np.stack([(own[h.player] == h.condition) | (h.condition is None) for h in hypotheses])


def increment_tables(
    game: NormalFormGame, hypotheses: list[HypothesisId], eps_shift: float = 0.0
) -> np.ndarray:
    """Per-hypothesis increments over flattened joint profiles, (m, P):
    u_i(a) - u_i(deviation, a_-i) + eps_shift where the hypothesis is active
    and 0 where it is not, so an inactive round leaves wealth as it is.

    The one place the deviation gain is written: the monitor, the replay,
    ``increment``, ``deviation_gain`` and ``equilibrium_slack`` all read it.
    """
    u = game.payoffs
    table = np.stack([
        (u[h.player] - np.take(u[h.player], [h.deviation], axis=h.player) + eps_shift).ravel()
        for h in hypotheses
    ])
    return np.where(_active_mask(game, hypotheses), table, 0.0)


def increment(
    game: NormalFormGame,
    profile: ActionProfile,
    player: int,
    deviation: int,
    eps_shift: float = 0.0,
) -> float:
    """Regret-like increment of one hypothesis at one observed profile: the
    table entry of ``increment_tables`` at that profile.

    Negative values mean the deviation would have paid more this round. The
    shift is the tolerance of an approximate-equilibrium null (0 for exact
    Nash/CCE/CE).
    """
    if not eps_shift >= 0.0:
        raise DomainError("eps_shift must be nonnegative")
    game._check_action(player, deviation)
    profile.validate(game.action_counts)
    flat = np.ravel_multi_index(profile.actions, game.action_counts)
    return float(increment_tables(game, [HypothesisId(player, deviation)], eps_shift)[0, flat])


def deviation_gain(
    game: NormalFormGame, strategy: JointStrategy, player: int, deviation: int
) -> float:
    """Unconditional expected improvement from always playing ``deviation``.

    Positive values mean the deviation is profitable against the strategy.
    """
    game._check_action(player, deviation)
    strategy.check_compatible(game)
    table = increment_tables(game, [HypothesisId(player, deviation)])
    return float(-(table[0] @ strategy.joint_law().ravel()))


def equilibrium_slack(
    game: NormalFormGame, strategy: JointStrategy, mode: EquilibriumMode
) -> float:
    """Largest deviation gain under the given equilibrium condition.

    A value <= 0 certifies the strategy as an equilibrium of that mode. CE
    conditions on each recommended action whose probability is at least
    ``CE_SUPPORT_FLOOR``; a PRODUCT strategy is interpreted through the joint
    law it induces.
    """
    strategy.check_compatible(game)
    if mode not in (EquilibriumMode.NASH, EquilibriumMode.CCE, EquilibriumMode.CE):
        raise DomainError(f"slack is defined for NASH, CCE and CE, not {mode}")
    law = strategy.joint_law().ravel()
    conditional = mode is EquilibriumMode.CE
    hypotheses = enumerate_hypotheses(game, mode, conditional_ce=conditional)
    if not hypotheses:
        return 0.0  # no player has an alternative action to deviate to
    gains = -(increment_tables(game, hypotheses) @ law)
    if conditional:
        mass = _active_mask(game, hypotheses) @ law
        kept = mass >= CE_SUPPORT_FLOOR  # conditional expectation undefined off support
        if not kept.any():
            return 0.0
        gains = gains[kept] / mass[kept]
    return float(gains.max())


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
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.procedure not in ("fwer", "fdr"):
            raise ConfigError(f"unknown procedure {self.procedure!r}")
        if self.mode is EquilibriumMode.EPS_APPROX:
            if not self.eps > 0.0:
                raise ConfigError(f"EPS_APPROX mode needs eps > 0, got {self.eps}")
            # Shifted increments reach 1 + eps; capping lambda keeps every
            # e-value factor nonnegative.
            if self.mixture.lambdas.max() > 1.0 / (1.0 + self.eps):
                raise ConfigError(
                    "mixture fractions must not exceed 1/(1+eps) under a shift"
                )
        elif self.eps != 0.0:
            raise ConfigError("eps is only meaningful in EPS_APPROX mode")
        if self.conditional_ce and self.mode is not EquilibriumMode.CE:
            raise ConfigError("conditional_ce is only meaningful in CE mode")
        if self.weights is not None:
            if self.procedure != "fdr":
                raise ConfigError("weights are only meaningful for the fdr procedure")
            if np.ndim(self.weights) != 1:
                raise ShapeError("weights must be a 1-D array")
            w = check_distribution(self.weights, "weights", PROB_TOL, positive=True)
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
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
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
        # the increment table, C-ordered so that a round reads one block.
        self._active = _active_mask(game, self.hypotheses).T
        shift = config.eps if config.mode is EquilibriumMode.EPS_APPROX else 0.0
        table = np.ascontiguousarray(increment_tables(game, self.hypotheses, shift).T)
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
            f"lambdas {format_floats(cfg.mixture.lambdas)}",
            f"mixture_weights {format_floats(cfg.mixture.weights)}",
        ]
        if self.weights is not None:
            lines.append(f"weights {format_floats(self.weights)}")
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
                f"logw {format_floats(self.log_wealth[j])}",
                f"rounds {self.updates[j]}",
                f"logmax {float(self.log_max[j])!r}",
                f"global_crossing {self.threshold_crossings.get(h, -1)}",
                f"rejected_at {rej.rejected.get(h, -1)}",
            ]
        return "\n".join(lines + ["end"]) + "\n"

    @classmethod
    def from_snapshot(cls, game: NormalFormGame, text: str) -> "EquilibriumMonitor":
        """Restore a v2 snapshot, or a v1 one (linear running maxima).

        Every line must sit where ``to_snapshot`` writes it, with one block
        per hypothesis in ``hypotheses`` order; a v1 block adds its ``dead``,
        ``runmax`` and ``crossing`` lines. Errors follow ``LineReader`` and
        name their line and key. ``DomainError`` also for NaN or +inf log
        wealth, a non-finite running maximum, a flag outside {0, 1}, a
        negative round count or level, a round count, crossing, rejection or
        stopping round past ``round``, and a level past the number of
        hypotheses.
        """
        reader = LineReader(text, SNAPSHOT_HEADER, SNAPSHOT_HEADER_V1)
        read, v1 = reader.read, reader.header == SNAPSHOT_HEADER_V1
        flag = (0, 1).__contains__
        (procedure,) = read("procedure", str, valid=("fwer", "fdr").__contains__)
        (alpha,) = read("alpha")
        (mode,) = read("mode", EquilibriumMode)
        (eps,) = read("eps")
        (conditional_ce,) = read("conditional_ce", int, valid=flag)
        (kind,) = read("mixture", str)
        lambdas = read("lambdas", count=None)
        mixture = BettingMixture(kind, lambdas, read("mixture_weights", count=None))
        weights = read("weights", count=None) if procedure == "fdr" else None
        monitor = cls(game, MonitorConfig(
            alpha, mixture, mode, eps, procedure, weights, conditional_ce=bool(conditional_ce)
        ))
        rejection = monitor.rejection
        (last,) = read("round", int, valid=lambda n: n >= 0)
        monitor.round = last
        (rejection.k,) = read("k", int, valid=lambda n: 0 <= n <= monitor.m)
        (stopped,) = read("stopped", int, valid=flag)
        rejection.stopped = bool(stopped)
        at = lambda n: -1 <= n <= last  # a round, or -1 for none
        (stopping,) = read("stopping_round", int, valid=at)
        rejection.stopping_round = None if stopping < 0 else stopping
        for j, h in enumerate(monitor.hypotheses):
            expected = [h.player, h.deviation, -1 if h.condition is None else h.condition]
            if read("hypothesis", int, 3) != expected:
                want = " ".join(map(str, expected))
                raise DomainError(f"line {reader.lineno}: expected 'hypothesis {want}'")
            # -inf is a dead component; v1 kept its last finite log wealth.
            logw = np.array(read("logw", count=mixture.size, valid=lambda w: w < math.inf))
            if v1:
                logw[np.array(read("dead", int, mixture.size, valid=flag)) == 1] = -np.inf
            monitor.log_wealth[j] = logw
            (monitor.updates[j],) = read("rounds", int, valid=lambda n: 0 <= n <= last)
            if v1:
                (runmax,) = read("runmax", valid=lambda v: 0.0 < v < math.inf)
                monitor.log_max[j] = math.log(runmax)
                read("crossing", int, valid=at)
            else:
                (monitor.log_max[j],) = read("logmax", valid=math.isfinite)
            (crossing,) = read("global_crossing", int, valid=at)
            if crossing >= 0:
                monitor.threshold_crossings[h] = crossing
            (rejected_at,) = read("rejected_at", int, valid=at)
            if rejected_at >= 0:
                rejection.rejected[h] = rejected_at
        read("end", count=0)
        reader.end()
        return monitor
