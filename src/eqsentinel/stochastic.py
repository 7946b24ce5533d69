"""Stochastic-game machinery: likelihood-ratio monitors, a zero-sum solver,
policy smoothing, and divergence diagnostics.

Compliance monitoring here compares observed actions against a known
candidate policy through per-round likelihood ratios, optionally averaged
over a finite set of hypothesized alternatives. The solver side computes
per-state matrix-game equilibria and runs value iteration on their values,
backing them up through the transition kernel's nonzeros with numpy alone.
A tabular model stores its kernel as those nonzero rows only; the dense
(S, actions..., S) array is a read-only view built on first read.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .eprocess import _check_log_wealth, _log_mix
from .errors import PROB_TOL, ConfigError, DomainError, ErgodicityError, LineReader, ShapeError
from .errors import check_distribution, format_floats

logger = logging.getLogger(__name__)

#: Sum tolerance for kernel and chain rows and the chi-square inputs.
ROW_TOL = 1e-9
EQUALIZER_TOL = 1e-9
#: Relative margin around ``EQUALIZER_TOL`` inside which ``_equalize`` rechecks
#: a stacked gain with ``exploitability``. Two orders of a sum of n products
#: of payoffs up to M with a distribution differ by at most about
#: 2n * 1.1e-16 * M, under 1e-12 * M up to n = 4,500 actions.
_SCREEN_MARGIN = 1e-12
_PIVOT_TOL = 1e-9

POLICY_HEADER = "eqsentinel-policy v1"

#: Rows of the dense kernel scanned for nonzeros at a time, so the scan's mask
#: stays under 1 MB where one over soccer's 16M entries would take 16 MB.
_SCAN_ROWS = 1024


def __getattr__(name: str):
    # Nothing in the package calls ``linprog``. perfbench's ``--trace 1`` wraps
    # ``stochastic.linprog`` by name (tests/test_perfbench_hooks.py checks the
    # wrap), so it stays a lazily loaded attribute until that wrap goes with
    # ROADMAP item 7; scipy.optimize loads only when something reads it.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True, init=False)
class StochasticGameModel:
    """Tabular model: rewards in [0, 1], a row-stochastic kernel, a discount.

    Environment-native rewards outside [0, 1] are stored through an affine
    rescaling; the Shapley iteration is affine-invariant, so equilibrium
    policies are unaffected.

    The kernel is stored only as its nonzero rows: ``kernel`` is the
    ``(probs, cols)`` pair of ``_kernel_rows``, one row per state and joint
    action in C order. ``transition`` takes those rows, or a dense
    (S, |A_1|, ..., |A_n|, S) array, which is scanned into them once. Read
    back, ``transition`` is that dense array as a read-only view, built on
    first read and cached.
    """

    rewards: np.ndarray  # (num_players, S, |A_1|, ..., |A_n|)
    kernel: tuple[np.ndarray, np.ndarray]  # (probs, cols), each (K, S * |A_1| * ... * |A_n|)
    discount: float

    def __init__(self, rewards, transition, discount: float) -> None:
        r = np.asarray(rewards, dtype=float)
        if r.ndim < 3 or r.size == 0:
            raise ShapeError("rewards must be a nonempty (players, states, actions...) tensor")
        if r.ndim != r.shape[0] + 2:
            raise ShapeError(f"reward tensor rank does not match {r.shape[0]} players")
        kernel = _as_rows(transition, r.shape[1:])
        # Written as not (lo <= x <= hi) so that a NaN, which min, max and
        # sum carry through, fails the test.
        if not (0.0 <= r.min() and r.max() <= 1.0):
            raise DomainError("rewards must lie in [0, 1]")
        check_distribution(kernel[0].T, "transition rows", ROW_TOL)
        if not 0.0 < discount < 1.0:
            raise DomainError("discount must lie strictly inside (0, 1)")
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "discount", discount)

    @functools.cached_property
    def transition(self) -> np.ndarray:
        probs, cols = self.kernel
        dense = np.zeros((probs.shape[1], self.num_states))
        # Padding adds 0.0 at column 0, which leaves every entry as it is.
        np.add.at(dense, (np.broadcast_to(np.arange(dense.shape[0]), cols.shape), cols), probs)
        dense.flags.writeable = False
        return dense.reshape(*self.rewards.shape[1:], self.num_states)

    @property
    def num_states(self) -> int:
        return self.rewards.shape[1]

    @property
    def action_counts(self) -> tuple[int, ...]:
        return self.rewards.shape[2:]


@dataclass(frozen=True)
class Policy:
    """Per-state distribution over one player's actions."""

    table: np.ndarray  # (S, A)

    def __post_init__(self) -> None:
        if np.ndim(self.table) != 2:
            raise ShapeError("policy table must be (states, actions)")
        object.__setattr__(self, "table", check_distribution(self.table, "policy rows", PROB_TOL))

    @property
    def num_states(self) -> int:
        return self.table.shape[0]

    @property
    def num_actions(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class SolverConfig:
    discount: float = 0.95
    tolerance: float = 1e-3
    max_iterations: int = 100
    smoothing: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ConfigError(f"discount must lie in (0, 1), got {self.discount}")
        if not self.tolerance > 0.0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if not self.max_iterations >= 1:
            raise ConfigError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not 0.0 <= self.smoothing < 1.0:
            raise ConfigError(f"smoothing must lie in [0, 1), got {self.smoothing}")


# -- likelihood-ratio monitoring -------------------------------------------


def log_likelihood_ratios(null, alternatives) -> np.ndarray:
    """Per-action log likelihood ratios of K alternatives against the null.

    ``alternatives`` has a trailing K axis that ``null`` broadcasts against:
    an (S, A) null against (S, A, K) alternatives, or one probability against
    K. An action the alternative excludes gives -inf for that component, and
    an action the null excludes gives -inf for every component (the
    observation is impossible under the null, so no alternative explains it
    relative to the null).
    """
    null = np.asarray(null, dtype=float)[..., None]
    alternatives = np.asarray(alternatives, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            (alternatives > 0.0) & (null > 0.0),
            np.log(alternatives) - np.log(null),
            -np.inf,
        )


@dataclass
class LRMonitorState:
    """Mixture of likelihood-ratio wealth processes over candidate deviations.

    The mixture likelihood ratio of Wald ("Sequential tests of statistical
    hypotheses", 1945) and Robbins ("Statistical methods related to the law
    of the iterated logarithm", 1970): one log ratio per alternative policy,
    read out as their prior-weighted average. The alternatives' tables are
    stacked once into an (S, A, K) ``probs`` array. Components are
    accumulated in log space; a zero-likelihood observation (or a support
    violation) kills its component rather than erroring, so a mixture
    survives one dead alternative. The running maximum and the crossing test
    stay in log space: no stream overflows.
    """

    alternatives: tuple
    prior_weights: np.ndarray | None = None
    log_lr: np.ndarray = field(default=None)  # type: ignore[assignment]
    round: int = 0
    log_max: float = 0.0
    crossing_time: int | None = None
    probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.alternatives = tuple(self.alternatives)
        if not self.alternatives:
            raise ShapeError("a mixture needs at least one alternative")
        if len({alt.table.shape for alt in self.alternatives}) != 1:
            raise ShapeError("alternatives must share a shape")
        self.probs = np.stack([alt.table for alt in self.alternatives], axis=-1)
        k = len(self.alternatives)
        if self.prior_weights is None:
            self.prior_weights = np.full(k, 1.0 / k)
        if np.shape(self.prior_weights) != (k,):
            raise ShapeError("one prior weight per alternative")
        self.prior_weights = check_distribution(
            self.prior_weights, "prior weights", PROB_TOL, positive=True
        )
        self.log_lr = _check_log_wealth(self.log_lr, k, "log_lr")

    @classmethod
    def fresh(cls, alternatives, prior_weights=None) -> "LRMonitorState":
        return cls(alternatives=alternatives, prior_weights=prior_weights)

    def log_value(self) -> float:
        """Log mixture wealth; -inf once every component is dead."""
        return float(_log_mix(self.log_lr, self.prior_weights))

    def value(self) -> float:
        """Current mixture wealth; inf at worst, never an overflow error."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_value()))


def lr_step(
    state: LRMonitorState,
    observed_state: int,
    observed_action: int,
    null_policy: Policy,
    threshold: float,
) -> LRMonitorState:
    """Advance the mixture monitor on one observed (state, action) pair.

    Raises ``ShapeError`` when the null's table and the alternatives' differ
    in shape or the pair lies outside them (negative indices included), and
    ``DomainError`` when the threshold does not exceed 1.
    """
    if not threshold > 1.0:
        raise DomainError(f"threshold must exceed 1, got {threshold}")
    num_states, num_actions, _ = state.probs.shape
    if null_policy.table.shape != (num_states, num_actions):
        raise ShapeError("null policy and alternatives must share a shape")
    if not (0 <= observed_state < num_states and 0 <= observed_action < num_actions):
        raise ShapeError(
            f"observed (state, action) ({observed_state}, {observed_action}) "
            f"lies outside the {num_states}x{num_actions} policy tables"
        )
    state.log_lr += log_likelihood_ratios(
        null_policy.table[observed_state, observed_action],
        state.probs[observed_state, observed_action],
    )
    state.round += 1
    lv = state.log_value()
    if lv > state.log_max:
        state.log_max = lv
    if state.crossing_time is None and lv >= math.log(threshold):
        state.crossing_time = state.round
    return state


# -- divergences ------------------------------------------------------------


def kl_divergence(p, q) -> float:
    """Discrete KL(p || q) with the 0 log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ShapeError("distributions must have the same length")
    mask = p > 0.0
    if np.any(mask & (q == 0.0)):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def chi_square_div(q, p) -> float:
    """Half the chi-square distance sum (q - p)^2 / p."""
    if np.shape(q) != np.shape(p):
        raise ShapeError("distributions must have the same length")
    # Each input is one distribution, whatever its shape.
    p = check_distribution(np.ravel(p), "base distribution p", ROW_TOL, positive=True)
    q = check_distribution(np.ravel(q), "q", ROW_TOL)
    return float(0.5 * np.sum((q - p) ** 2 / p))


def kl_quadratic_check(p, q, epsilons) -> list[tuple[float, float, float]]:
    """Exact KL of each mixture (1-e)p + eq against p, next to e^2 * chi^2."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    chi2 = chi_square_div(q, p)
    rows = []
    for eps in epsilons:
        if not 0.0 <= eps <= 1.0:
            raise DomainError("epsilon must lie in [0, 1]")
        mixed = (1.0 - eps) * p + eps * q
        rows.append((float(eps), kl_divergence(mixed, p), float(eps**2 * chi2)))
    return rows


# -- stationary distributions ------------------------------------------------


def stationary_distribution(chain) -> np.ndarray:
    """Stationary distribution of a chain with one aperiodic recurrent class.

    Other chains raise ``ErgodicityError``; transient states get 0. The 0/1
    support is squared to a power k >= n^2, past every state's path into the
    class plus Wielandt's bound, so the columns positive in every row are the
    class, and a periodic chain or a second class leaves none. The class is
    solved by the state reduction of Grassmann, Taksar & Heyman ("Regenerative
    analysis and steady state distributions for Markov chains", Operations
    Research 33(5), 1985), which never subtracts: the result is nonnegative and
    accurate on nearly decomposable chains.
    """
    P = np.asarray(chain, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ShapeError("chain must be a square matrix")
    check_distribution(P, "chain rows", ROW_TOL)
    n = P.shape[0]
    reach = P > 0.0
    for _ in range((n * n - 1).bit_length()):
        reach = reach @ reach
    recurrent = np.flatnonzero(reach.all(axis=0))
    if not recurrent.size:
        raise ErgodicityError("chain does not have a single aperiodic recurrent class")
    Q = P[np.ix_(recurrent, recurrent)]
    # Censor the class's states out from the last to the second; column k
    # keeps the weights that give x[k] from the states below it.
    for k in range(recurrent.size - 1, 0, -1):
        Q[:k, k] /= Q[k, :k].sum()
        Q[:k, :k] += np.outer(Q[:k, k], Q[k, :k])
    x = np.ones(recurrent.size)
    for k in range(1, recurrent.size):
        x[k] = x[:k] @ Q[:k, k]
    mu = np.zeros(n)
    mu[recurrent] = x / x.sum()
    return mu


# -- zero-sum solving ---------------------------------------------------------


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def _tableau_solve(A: np.ndarray, entries: list) -> MatrixGameSolution:
    """An equilibrium of ``A`` from a dense tableau simplex.

    Solves the column player's LP ``max 1'q s.t. B q <= 1, q >= 0`` for
    ``B = (A - min A) / span + 1``, whose entries lie in [1, 2], with Bland's
    rule (Bland 1977). At the optimum, y is q over its sum, x is the slack
    duals over theirs, and the value of A is ``(1 / sum q - 1) * span + min A``.
    Bland's rule never cycles, so a degenerate game ends at an optimal basis
    too, and the smallest index enters and leaves first, so later copies of
    an action get no mass. Rounding below 0 in a basic value or a slack's
    reduced cost reads as 0. The answer must gain no pure deviation more
    than ``max(EQUALIZER_TOL, _SCREEN_MARGIN * max|A|)``; if it does not, or
    no row can pivot, or the pivots outrun the bases, ``DomainError`` names
    the gap, as it does a payoff range that overflows a float. ``A`` must not
    be constant; ``entries`` is ``A.tolist()``.

    The pivots run on nested lists of Python floats, one IEEE operation per
    entry as numpy would do it elementwise: the row divide, ``x - f * y`` and
    the ratio test. So the result is exact, at a cost that grows as pivots x
    rows x cols in Python, which suits small games. A row with a zero in the
    pivot column is left as it is, where ``x - 0 * y`` could only flip the
    sign of a zero, which no comparison and no output reads.
    """
    rows, cols = A.shape
    low = min(map(min, entries))
    high = max(map(max, entries))
    span = high - low
    if not math.isfinite(span):
        raise DomainError(f"payoff range [{low!r}, {high!r}] overflows a float")
    t = []
    for i, payoffs in enumerate(entries):
        line = [(x - low) / span + 1.0 for x in payoffs] + [0.0] * rows + [1.0]
        line[cols + i] = 1.0
        t.append(line)
    t.append([-1.0] * cols + [0.0] * (rows + 1))
    basis = list(range(cols, cols + rows))
    # Bland's rule never repeats a basis: more pivots than bases means rounding
    # has made it cycle.
    for _ in range(math.comb(rows + cols, rows)):
        objective = t[rows]
        j = next((k for k in range(cols + rows) if objective[k] < -_PIVOT_TOL), None)
        if j is None:
            break
        # The least ratio, ties to the smallest basic index.
        i = -1
        for r in range(rows):
            pivot = t[r][j]
            if pivot > _PIVOT_TOL:
                ratio = t[r][-1] / pivot
                if i < 0 or ratio < least or ratio == least and basis[r] < basis[i]:
                    i, least = r, ratio
        if i < 0:
            break
        pivot = t[i][j]
        t[i] = pivot_row = [x / pivot for x in t[i]]
        for r, line in enumerate(t):
            f = line[j]
            if r != i and f != 0.0:
                t[r] = [x - f * y for x, y in zip(line, pivot_row)]
        basis[i] = j
    gap, bound = math.nan, max(EQUALIZER_TOL, _SCREEN_MARGIN * max(high, -low))
    if j is None:
        # A basic column's reduced cost is an exact zero, so clipping every
        # slack's reduced cost at 0 leaves the nonbasic slacks' as the duals.
        q = np.zeros(cols + rows)
        q[basis] = [max(0.0, line[-1]) for line in t[:rows]]
        duals = np.array([max(0.0, x) for x in t[rows][cols:-1]])
        total = q[:cols].sum()
        row = duals / duals.sum()
        col = q[:cols] / total
        value = float((1.0 / total - 1.0) * span + low)
        gap = exploitability(A, row, col, value)
        if gap <= bound:
            return MatrixGameSolution(value, row, col)
    raise DomainError(f"matrix game not solved: best-response gap {gap!r} exceeds {bound!r}")


def matrix_game_solve(payoff) -> MatrixGameSolution:
    """Maximin solution of a zero-sum matrix game for the row player.

    Two paths: a pure saddle point, which every one-row and one-column game
    has, is read off the matrix; any other game, degenerate or with copied
    actions, goes to the tableau simplex (``_tableau_solve``). No pure
    deviation from either strategy gains more than
    ``max(EQUALIZER_TOL, _SCREEN_MARGIN * max|A|)`` against the value, or
    ``DomainError`` is raised.
    """
    A = np.asarray(payoff, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ShapeError("payoff must be a nonempty matrix")
    if not np.all(np.isfinite(A)):
        raise DomainError("payoff entries must be finite")
    rows, cols = A.shape
    entries = A.tolist()
    # A pure saddle point is an exact equilibrium; skip the LP when one exists.
    # ``index`` finds the first of equal values, as ``argmax`` and ``argmin`` do.
    row_mins = list(map(min, entries))
    col_maxs = list(map(max, zip(*entries)))
    value = max(row_mins)
    if value == min(col_maxs):
        r = row_mins.index(value)
        if value == 0.0:
            # numpy's min picks between 0.0 and -0.0 by its vector lanes.
            value = A.min(axis=1)[r]
        row = np.zeros(rows)
        col = np.zeros(cols)
        row[r] = 1.0
        col[col_maxs.index(value)] = 1.0
        return MatrixGameSolution(float(value), row, col)
    return _tableau_solve(A, entries)


def exploitability(payoff, row_strategy, col_strategy, value: float) -> float:
    """Largest pure best-response gain against the reported solution; NaN
    when a strategy or the value holds a NaN."""
    A = np.asarray(payoff, dtype=float)
    row = np.asarray(row_strategy)
    col = np.asarray(col_strategy)
    if A.ndim != 2 or row.shape != A.shape[:1] or col.shape != A.shape[1:]:
        raise ShapeError(
            f"strategies of shapes {row.shape} and {col.shape} do not fit "
            f"a payoff of shape {A.shape}"
        )
    col_gain = float(np.max(A @ col) - value)
    row_gain = float(value - np.min(row @ A))
    if math.isnan(col_gain + row_gain):
        return math.nan
    return max(col_gain, row_gain, 0.0)


@dataclass(frozen=True)
class ShapleySolution:
    values: np.ndarray
    row_policy: Policy
    col_policy: Policy
    converged: bool
    iterations: int
    residual: float


def _equalize(payoffs: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Equalizer solutions of stacked payoffs on square supports of one size.

    On the support (rows, cols) of an equilibrium each side makes the other
    indifferent: ``x @ A[rows, cols] = v`` and ``A[rows, cols] @ y = v`` with x
    and y summing to 1 (von Neumann's support enumeration, one support).
    ``payoffs`` is (n, A_row, A_col); ``rows`` and ``cols`` are (n, A_row) and
    (n, A_col) masks with the same number k of True entries in every row.
    Both sides' 2n systems go to one stacked solve, which runs LAPACK's gesv
    on every matrix as a single solve would.

    Returns ``(accepted, values, row_strategies, col_strategies)``. A state is
    accepted only when both strategies are nonnegative and no pure deviation
    gains more than ``EQUALIZER_TOL``; the other entries are meaningless.
    """
    n, k = rows.shape[0], int(rows[0].sum())
    picked = np.arange(n)[:, None, None]
    row_ids = rows.nonzero()[1].reshape(n, k)
    col_ids = cols.nonzero()[1].reshape(n, k)
    block = payoffs[picked, row_ids[:, :, None], col_ids[:, None, :]]
    system = np.zeros((2, n, k + 1, k + 1))
    system[:, :, k, :k] = 1.0
    system[:, :, :k, k] = -1.0
    system[0, :, :k, :k] = block.transpose(0, 2, 1)
    system[1, :, :k, :k] = block
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        parts = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve state by state.
        if n == 1:
            return np.zeros(1, dtype=bool), np.zeros(1), np.zeros(rows.shape), np.zeros(cols.shape)
        singles = [_equalize(payoffs[i : i + 1], rows[i : i + 1], cols[i : i + 1]) for i in range(n)]
        return tuple(np.concatenate(part) for part in zip(*singles))
    accepted = (parts[:, :, :k] >= 0.0).all(axis=(0, 2))
    x, y = parts[:, accepted, :k]
    row = np.zeros(rows.shape)
    col = np.zeros(cols.shape)
    row[rows & accepted[:, None]] = (x / x.sum(axis=1, keepdims=True)).ravel()
    col[cols & accepted[:, None]] = (y / y.sum(axis=1, keepdims=True)).ravel()
    values = parts[0, :, k]
    # The stacked best-response gains differ from ``exploitability``'s by the
    # rounding of their sums, which is far below the margin, so only a gain
    # within it of the tolerance, or a NaN, needs ``exploitability`` to decide.
    gain = np.maximum(
        np.einsum("nrc,nc->nr", payoffs, col).max(axis=1) - values,
        values - np.einsum("nr,nrc->nc", row, payoffs).min(axis=1),
    )
    margin = _SCREEN_MARGIN * max(1.0, float(np.abs(payoffs).max()))
    unsure = accepted & ~(np.abs(gain - EQUALIZER_TOL) > margin)
    accepted &= gain <= EQUALIZER_TOL
    for i in unsure.nonzero()[0].tolist():
        accepted[i] = exploitability(payoffs[i], row[i], col[i], values[i]) <= EQUALIZER_TOL
    return accepted, values, row, col


def _kernel_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_sparse_rows`` of a dense matrix's nonzeros, scanned in blocks of
    ``_SCAN_ROWS`` rows; NaN and inf are nonzero."""
    num_rows, num_cols = matrix.shape
    data, flats = [], []
    for start in range(0, num_rows, _SCAN_ROWS):
        block = matrix[start : start + _SCAN_ROWS].ravel()
        flat = np.flatnonzero(block != 0.0)
        data.append(block[flat])
        flats.append(flat + start * num_cols)
    return _sparse_rows(np.concatenate(flats), np.concatenate(data), num_rows, num_cols)


def _sparse_rows(flats, data, num_rows: int, num_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``(probs, cols)``, both (K, rows), of the matrix with entries ``data``
    at the flat positions ``flats``; entries listed at one position are added
    onto 0.0 in the order listed, as repeated ``matrix[flats] += data`` would
    add them. Each row holds its entries in column order, K for the longest
    row, shorter rows padded with probability 0 at column 0."""
    flats, where = np.unique(flats, return_inverse=True)
    values = np.zeros(flats.size)
    np.add.at(values, where, data)
    rows, cols = np.divmod(flats, num_cols)
    counts = np.bincount(rows, minlength=num_rows)
    slots = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    probs = np.zeros((counts.max(initial=0), num_rows))
    padded = np.zeros(probs.shape, dtype=np.intp)
    probs[slots, rows] = values
    padded[slots, rows] = cols
    return probs, padded


def _as_rows(transition, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The ``(probs, cols)`` rows of a kernel over ``shape`` = (S, actions...),
    given as such rows or as a dense (*shape, S) array; ``ShapeError`` unless
    it fits ``shape`` with integer columns in [0, S)."""
    num_states, num_rows = shape[0], math.prod(shape)
    if not isinstance(transition, tuple):
        dense = np.asarray(transition, dtype=float)
        if dense.shape != (*shape, num_states):
            raise ShapeError("transition shape does not match rewards")
        return _kernel_rows(dense.reshape(num_rows, num_states))
    if len(transition) != 2:
        raise ShapeError("kernel rows are a (probs, cols) pair")
    probs, cols = np.asarray(transition[0], dtype=float), np.asarray(transition[1])
    if not (probs.ndim == 2 and probs.shape[1] == num_rows and cols.shape == probs.shape):
        raise ShapeError(f"kernel rows must be two (K, {num_rows}) arrays")
    inside = cols.size == 0 or 0 <= cols.min() and cols.max() < num_states
    if not (np.issubdtype(cols.dtype, np.integer) and inside):
        raise ShapeError(f"kernel columns must be integers in [0, {num_states})")
    return probs, cols


def _backup(probs: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``sum_k probs[k] * values[cols[k]]`` per row of ``_kernel_rows``, added
    onto zeros for k = 0, 1, ...: the order in which a CSR matrix-vector
    product sums a row, so the two agree bit for bit."""
    out = np.zeros(probs.shape[1])
    for term in probs * values.take(cols):
        out += term
    return out


def shapley_solve_arrays(
    rewards: np.ndarray, transition: np.ndarray, config: SolverConfig
) -> ShapleySolution:
    """Value iteration for a two-player zero-sum tabular game.

    ``rewards`` is the row player's (S, A_row, A_col) payoff in any affine
    units, and ``transition`` the kernel as ``StochasticGameModel.kernel``
    stores it or as a dense (S, A_row, A_col, S) array. Each sweep solves the
    matrix game of the discounted Q-values per state and stops when the value
    function moves less than the tolerance.

    A sweep backs the values up through the kernel's nonzeros (``_backup``),
    takes every pure saddle point at once (the same comparison, and so the
    same value and strategies, as ``matrix_game_solve``'s shortcut), and
    solves the remaining states on the supports of their last LP solutions,
    one stacked ``_equalize`` per support size. A state whose support is not
    square or does not verify falls back to ``matrix_game_solve``.
    """
    rewards = np.asarray(rewards, dtype=float)
    if rewards.ndim != 3 or rewards.size == 0:
        raise ShapeError("rewards must be a nonempty (states, row actions, column actions) tensor")
    num_states, a_row, a_col = rewards.shape
    kernel = _as_rows(transition, rewards.shape)
    if not np.all(np.isfinite(rewards)):
        raise DomainError("rewards must be finite")
    # A NaN or inf dense entry is nonzero, so it is among the kept entries.
    if not np.all(np.isfinite(kernel[0])):
        raise DomainError("transition entries must be finite")
    states = np.arange(num_states)
    values = np.zeros(num_states)
    row_tables = np.full((num_states, a_row), 1.0 / a_row)
    col_tables = np.full((num_states, a_col), 1.0 / a_col)
    # The support of each state's last LP solution; empty before its first.
    row_support = np.zeros((num_states, a_row), dtype=bool)
    col_support = np.zeros((num_states, a_col), dtype=bool)
    converged = False
    residual = math.inf
    iterations = 0
    # States resolved by each path, summed over sweeps, for the debug log.
    saddles = equalized = fallbacks = 0
    for iterations in range(1, config.max_iterations + 1):
        q = rewards + config.discount * _backup(*kernel, values).reshape(rewards.shape)
        # Running minima and maxima over the action slices. They are exact, so
        # they can differ from q.min(axis=2) and q.max(axis=1) only in the sign
        # of a zero, and the backup adds onto +0.0, so q holds no -0.0 unless
        # a -0.0 reward meets a discounted backup that underflows to -0.0.
        row_mins = functools.reduce(np.minimum, q.transpose(2, 0, 1))
        col_maxs = functools.reduce(np.maximum, q.transpose(1, 0, 2))
        r = row_mins.argmax(axis=1)
        c = col_maxs.argmin(axis=1)
        new_values = row_mins[states, r]
        saddle = new_values == col_maxs[states, c]
        mixed = np.flatnonzero(~saddle)
        sizes = row_support[mixed].sum(axis=1)
        square = (sizes > 0) & (sizes == col_support[mixed].sum(axis=1))
        unsolved = np.ones(num_states, dtype=bool)
        for k in np.unique(sizes[square]).tolist():
            group = mixed[square & (sizes == k)]
            accepted, group_values, rows, cols = _equalize(
                q[group], row_support[group], col_support[group]
            )
            group = group[accepted]
            new_values[group] = group_values[accepted]
            row_tables[group] = rows[accepted]
            col_tables[group] = cols[accepted]
            unsolved[group] = False
        rest = mixed[unsolved[mixed]].tolist()
        saddles += num_states - mixed.size
        equalized += mixed.size - len(rest)
        fallbacks += len(rest)
        for s in rest:
            sol = matrix_game_solve(q[s])
            row_support[s] = sol.row_strategy > 0.0
            col_support[s] = sol.col_strategy > 0.0
            new_values[s] = sol.value
            row_tables[s] = sol.row_strategy
            col_tables[s] = sol.col_strategy
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if residual < config.tolerance:
            converged = True
            break
    # Only the last sweep's strategies are returned, so its saddle rows are
    # the only ones written.
    row_tables[saddle] = 0.0
    row_tables[saddle, r[saddle]] = 1.0
    col_tables[saddle] = 0.0
    col_tables[saddle, c[saddle]] = 1.0
    logger.debug(
        "shapley: %d sweeps; states resolved as saddle points %d, by the "
        "equalizer %d, by matrix_game_solve %d",
        iterations,
        saddles,
        equalized,
        fallbacks,
    )
    return ShapleySolution(
        values=values,
        row_policy=Policy(row_tables),
        col_policy=Policy(col_tables),
        converged=converged,
        iterations=iterations,
        residual=residual,
    )


def smooth_policy(policy: Policy, beta: float) -> Policy:
    """Blend every row with the uniform distribution; floors each action at
    beta/|A| so likelihood ratios against the result stay bounded."""
    if not 0.0 <= beta < 1.0:
        raise DomainError("beta must lie in [0, 1)")
    a = policy.num_actions
    return Policy((1.0 - beta) * policy.table + beta / a)


def mixture_policy(base: Policy, target: Policy, epsilon: float) -> Policy:
    """Row-wise convex combination (1 - epsilon) * base + epsilon * target."""
    if base.table.shape != target.table.shape:
        raise ShapeError("policies must share a shape")
    if not 0.0 <= epsilon <= 1.0:
        raise DomainError("epsilon must lie in [0, 1]")
    return Policy((1.0 - epsilon) * base.table + epsilon * target.table)


# -- text serialization -------------------------------------------------------


def policy_to_text(policy: Policy) -> str:
    lines = [POLICY_HEADER, f"states {policy.num_states}", f"actions {policy.num_actions}"]
    for s in range(policy.num_states):
        lines.append(format_floats(policy.table[s]))
    return "\n".join(lines) + "\n"


def policy_from_text(text: str) -> Policy:
    reader = LineReader(text, POLICY_HEADER)
    (num_states,) = reader.read("states", int, valid=lambda n: n >= 1)
    (num_actions,) = reader.read("actions", int, valid=lambda n: n >= 1)
    rows = [reader.read(None, count=num_actions) for _ in range(num_states)]
    reader.end()
    return Policy(np.array(rows))
