"""Betting e-processes over regret increments.

Each hypothesis (player, deviation) carries a family of wealth processes,
one per betting fraction, accumulated in log space. Evidence is read out
through a mixture over betting fractions: a Dirac mass reproduces a single
fixed-fraction bet, a weighted grid approximates the uniform mixture on
(0, 1] by the midpoint rule. An exact polynomial integrator is provided as
an independent oracle for that quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PROB_TOL, CapacityError, ConfigError, DomainError, ShapeError
from .errors import check_distribution

#: Grid resolution used by monitors; oracle comparisons use 1001 nodes.
DEFAULT_GRID_NODES = 101
ORACLE_GRID_NODES = 1001

EXACT_MIXTURE_MAX_LEN = 64


@dataclass(frozen=True)
class BettingMixture:
    """A Dirac mass or a finite weighted grid of betting fractions in (0, 1]."""

    kind: str
    lambdas: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if lam.shape != w.shape or lam.ndim != 1 or lam.size == 0:
            raise ShapeError("lambdas and weights must be nonempty 1-D arrays of equal length")
        if self.kind not in ("dirac", "grid"):
            raise ConfigError(f"unknown mixture kind {self.kind!r}")
        if self.kind == "dirac" and lam.size != 1:
            raise ShapeError("a dirac mixture has exactly one node")
        if not (0.0 < lam.min() and lam.max() <= 1.0):
            bad = lam.max() if lam.min() > 0.0 else lam.min()
            raise ConfigError(f"betting fractions must lie in (0, 1], got {bad}")
        if lam.size > 1 and np.any(np.diff(lam) <= 0.0):
            raise ConfigError("grid nodes must be strictly increasing")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", check_distribution(w, "mixture weights", PROB_TOL))

    @classmethod
    def dirac(cls, lam: float) -> "BettingMixture":
        return cls("dirac", np.array([lam]), np.array([1.0]))

    @classmethod
    def uniform_grid(
        cls, nodes: int = DEFAULT_GRID_NODES, upper: float = 1.0
    ) -> "BettingMixture":
        """Midpoint-rule grid for the uniform mixture on (0, upper].

        Nodes sit strictly inside the interval, so no grid component can hit
        an exact zero factor while increments stay in [-1, 1].
        """
        if not nodes >= 1:
            raise ConfigError(f"grid needs at least one node, got {nodes}")
        if not 0.0 < upper <= 1.0:
            raise ConfigError(f"upper must lie in (0, 1], got {upper}")
        lam = upper * (np.arange(nodes) + 0.5) / nodes
        return cls("grid", lam, np.full(nodes, 1.0 / nodes))

    @property
    def size(self) -> int:
        return int(self.lambdas.size)


def log_factors(increments, mixture: BettingMixture) -> np.ndarray:
    """Log bet factors ``log1p(-lambda * x)``: the shape of ``increments``,
    with a trailing fraction axis for a grid mixture.

    The one place a bet becomes a log factor. A zero factor kills its
    component (-inf for good); a non-finite increment or a negative factor
    raises before anything is computed.
    """
    x = np.asarray(increments, dtype=float)
    lam = mixture.lambdas
    lo, hi = x.min(), x.max()
    if not -math.inf < lo <= hi < math.inf:
        raise DomainError("increments must be finite")
    if hi * lam[-1] > 1.0:
        raise DomainError("negative e-value factor: increment exceeds 1/lambda")
    with np.errstate(divide="ignore"):
        if lam.size == 1:
            return np.log1p(-lam[0] * x)
        return np.log1p(-x[..., None] * lam)


def _log_mix(log_wealth: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log mixture wealth over the last axis by max-shifted log-sum-exp; -inf
    for a row whose components are all dead."""
    shift = log_wealth.max(axis=-1)
    # A Python ``in`` over the few shifts is far cheaper than a numpy
    # reduction, above all on the scalar a 1-D input gives.
    if -np.inf in (shift.tolist() if shift.ndim else (shift,)):
        shift = np.where(shift == -np.inf, 0.0, shift)
        with np.errstate(divide="ignore"):
            return shift + np.log((weights * np.exp(log_wealth - shift[..., None])).sum(axis=-1))
    return shift + np.log((weights * np.exp(log_wealth - shift[..., None])).sum(axis=-1))


def _check_log_wealth(log_wealth, size: int, what: str) -> np.ndarray:
    """A state's log-wealth vector, zeros when none is supplied: ``ShapeError``
    unless it has ``size`` entries, ``DomainError`` for NaN or +inf. -inf is a
    dead component."""
    if log_wealth is None:
        return np.zeros(size)
    v = np.asarray(log_wealth, dtype=float)
    if v.shape != (size,):
        raise ShapeError(f"{what} has shape {v.shape}, expected ({size},)")
    if not (v < math.inf).all():
        raise DomainError(f"{what} must not hold NaN or +inf")
    return v


@dataclass
class EProcessState:
    """Per-fraction log wealth for one hypothesis, with its running extremes.

    Single-writer: one logical owner feeds updates in round order. A zero
    factor kills its component (log wealth -inf from then on). The running
    maximum and the crossing test stay in log space: no stream overflows.
    """

    mixture: BettingMixture
    threshold: float | None = None
    log_wealth: np.ndarray = field(default=None)  # type: ignore[assignment]
    round: int = 0
    log_max: float = 0.0
    crossing_time: int | None = None

    def __post_init__(self) -> None:
        self.log_wealth = _check_log_wealth(self.log_wealth, self.mixture.size, "log_wealth")
        if self.threshold is not None and not self.threshold > 1.0:
            raise DomainError(f"a registered threshold must exceed 1, got {self.threshold}")

    @property
    def dead(self) -> np.ndarray:
        return np.isneginf(self.log_wealth)

    def log_value(self) -> float:
        """Log mixture wealth; -inf once every component is dead."""
        return float(_log_mix(self.log_wealth, self.mixture.weights))

    def value(self) -> float:
        """Current mixture wealth; inf at worst, never an overflow error."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_value()))

    def update(self, x: float) -> "EProcessState":
        self.log_wealth += log_factors(x, self.mixture)
        self.round += 1
        lv = self.log_value()
        if lv > self.log_max:
            self.log_max = lv
        if (
            self.threshold is not None
            and self.crossing_time is None
            and lv >= math.log(self.threshold)
        ):
            self.crossing_time = self.round
        return self


def exact_uniform_mixture(xs) -> float:
    """Exact uniform-mixture wealth after the stream ``xs``.

    Expands the product of per-round factors into a polynomial in the betting
    fraction and integrates it term by term on (0, 1]. Degree is capped, so
    this is a test oracle rather than a monitoring path.
    """
    xs = list(xs)
    if len(xs) > EXACT_MIXTURE_MAX_LEN:
        raise CapacityError(
            f"stream longer than {EXACT_MIXTURE_MAX_LEN}: polynomial degree cap"
        )
    coeffs = np.array([1.0])
    for x in xs:
        coeffs = np.convolve(coeffs, np.array([1.0, -float(x)]))
    powers = np.arange(coeffs.size, dtype=float)
    return float(np.sum(coeffs / (powers + 1.0)))


def detection_bound_uniform(b: float, eta: float) -> float:
    """Ceiling on the expected crossing time of threshold ``b`` under the
    uniform mixture, for an alternative with slack ``eta``."""
    if not b > 1.0:
        raise DomainError(f"threshold must exceed 1, got {b}")
    if not 0.0 < eta <= 1.0:
        raise DomainError("eta must lie in (0, 1]")
    return 12.0 * (math.log(b) + math.log(4.0 / eta) + math.log(1.5)) / eta**2


def slack_lower_bound(b: float, lam: float, eta: float) -> int:
    """Exact stopping round of the deterministic constant-gap stream."""
    if not b > 1.0:
        raise DomainError(f"threshold must exceed 1, got {b}")
    if not 0.0 < lam < 1.0:
        raise DomainError("lambda must lie in (0, 1)")
    if not eta > 0.0:
        raise DomainError("eta must be positive")
    return math.ceil(math.log(b) / math.log1p(lam * eta))
