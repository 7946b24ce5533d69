"""Stochastic-game machinery: likelihood-ratio monitors, a zero-sum solver,
policy smoothing, and divergence diagnostics.

Compliance monitoring here compares observed actions against a known
candidate policy through per-round likelihood ratios, optionally averaged
over a finite set of hypothesized alternatives. The solver side computes
per-state matrix-game equilibria and runs value iteration on their values.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .eprocess import _log_mix
from .errors import PROB_TOL, DomainError, ErgodicityError, ShapeError, check_distribution

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

MODEL_HEADER = "eqsentinel-model v1"
POLICY_HEADER = "eqsentinel-policy v1"

#: Rows of the dense kernel scanned for nonzeros at a time, so the scan's mask
#: stays under 1 MB where one over soccer's 16M entries would take 16 MB.
_SCAN_ROWS = 1024


def __getattr__(name: str):
    # scipy.optimize loads only when a game first reaches HiGHS. ``linprog``
    # stays a module attribute, so it can be wrapped or patched like a global.
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class StochasticGameModel:
    """Tabular model: rewards in [0, 1], a row-stochastic kernel, a discount.

    Environment-native rewards outside [0, 1] are stored through an affine
    rescaling; the Shapley iteration is affine-invariant, so equilibrium
    policies are unaffected.
    """

    rewards: np.ndarray  # (num_players, S, |A_1|, ..., |A_n|)
    transition: np.ndarray  # (S, |A_1|, ..., |A_n|, S)
    discount: float

    def __post_init__(self) -> None:
        r = np.asarray(self.rewards, dtype=float)
        p = np.asarray(self.transition, dtype=float)
        if r.ndim < 3:
            raise ShapeError("rewards must be (players, states, actions...)")
        n = r.shape[0]
        num_states = r.shape[1]
        if r.ndim != n + 2:
            raise ShapeError(f"reward tensor rank does not match {n} players")
        if p.shape != (num_states, *r.shape[2:], num_states):
            raise ShapeError("transition shape does not match rewards")
        # Written as not (lo <= x <= hi) so that a NaN, which min, max and
        # sum carry through, fails the test.
        if not (0.0 <= r.min() and r.max() <= 1.0):
            raise DomainError("rewards must lie in [0, 1]")
        check_distribution(p, "transition rows", ROW_TOL)
        if not 0.0 < self.discount < 1.0:
            raise DomainError("discount must lie strictly inside (0, 1)")
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "transition", p)

    @property
    def num_players(self) -> int:
        return self.rewards.shape[0]

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
            raise DomainError("discount must lie in (0, 1)")
        if not (self.tolerance > 0.0 and self.max_iterations > 0):
            raise DomainError("tolerance and max_iterations must be positive")
        if not 0.0 <= self.smoothing < 1.0:
            raise DomainError("smoothing must lie in [0, 1)")


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
        if self.log_lr is None:
            self.log_lr = np.zeros(k)

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
        raise DomainError("threshold must exceed 1")
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


def lr_detection_bound(
    b: float, overshoot: float, kl_bar: float, prior_weight: float = 1.0
) -> float:
    """Expected-detection-time ceiling (log b + log(1/w) + C) / KL.

    ``prior_weight`` is the mixture mass on the true alternative; 1 recovers
    the single-alternative bound.
    """
    if not b > 1.0:
        raise DomainError("threshold must exceed 1")
    if not overshoot >= 0.0:
        raise DomainError("overshoot constant must be nonnegative")
    if not kl_bar > 0.0:
        raise DomainError("state-averaged KL must be positive")
    if not 0.0 < prior_weight <= 1.0:
        raise DomainError("prior weight must lie in (0, 1]")
    return (math.log(b) + math.log(1.0 / prior_weight) + overshoot) / kl_bar


def overshoot_constant(null_policy: Policy, alt_policy: Policy) -> float:
    """Largest |log ratio| over the alternative's support (inf if violated)."""
    mask = alt_policy.table > 0.0
    if np.any(mask & (null_policy.table == 0.0)):
        return math.inf
    ratios = alt_policy.table[mask] / null_policy.table[mask]
    return float(np.max(np.abs(np.log(ratios))))


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


def state_avg_kl(null_policy: Policy, alt_policy: Policy, mu) -> float:
    """KL between alternative and null play, averaged over a state weight.

    Returns infinity (with a diagnostic log line) when the alternative uses
    an action the null excludes on a state with positive weight.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (null_policy.num_states,):
        raise ShapeError("mu must weight every state")
    if null_policy.table.shape != alt_policy.table.shape:
        raise ShapeError("policies must share a shape")
    total = 0.0
    for s in np.nonzero(mu > 0.0)[0]:
        kl = kl_divergence(alt_policy.table[s], null_policy.table[s])
        if math.isinf(kl):
            logger.warning(
                "support violation at state %d with weight %g", s, mu[s]
            )
            return math.inf
        total += float(mu[s]) * kl
    return total


def empirical_state_distribution(visits, num_states: int) -> np.ndarray:
    """Visit frequencies from a rollout, as a distribution over states.

    Episodic environments are not single ergodic chains, so detection-rate
    diagnostics average the per-state KL under the visit frequencies of a
    long (>= 1e4 steps) rollout under the alternative instead of a
    stationary distribution.
    """
    visits = np.asarray(visits, dtype=int)
    if visits.size == 0:
        raise DomainError("need at least one visited state")
    if visits.min() < 0 or visits.max() >= num_states:
        raise ShapeError("visited state index out of range")
    counts = np.bincount(visits, minlength=num_states)
    return counts / counts.sum()


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


def _tableau_solve(A: np.ndarray, entries: list) -> MatrixGameSolution | None:
    """The equilibrium of ``A`` from a dense tableau simplex, if it is unique.

    Solves the column player's LP ``max 1'q s.t. B q <= 1, q >= 0`` for
    ``B = (A - min A) / span + 1``, whose entries lie in [1, 2], with Bland's
    rule (Bland 1977). At the optimum, y is q over its sum, x is the slack
    duals over theirs, and the value of A is ``(1 / sum q - 1) * span + min A``.
    The result is returned only when the final basis is primal and dual
    nondegenerate, which makes both LP optima and so the equilibrium unique,
    and no pure deviation gains more than ``EQUALIZER_TOL``; otherwise None.
    ``A`` must not be constant; ``entries`` is ``A.tolist()``.

    The pivots run on nested lists of Python floats, one IEEE operation per
    entry as numpy would do it elementwise: the row divide, ``x - f * y`` and
    the ratio test. So the result is exact, at a cost that grows as pivots x
    rows x cols in Python, which suits small games. A row with a zero in the
    pivot column is left as it is, where ``x - 0 * y`` could only flip the
    sign of a zero, which no comparison and no output reads.
    """
    rows, cols = A.shape
    low = min(map(min, entries))
    span = max(map(max, entries)) - low
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
            return None
        pivot = t[i][j]
        t[i] = pivot_row = [x / pivot for x in t[i]]
        for r, line in enumerate(t):
            f = line[j]
            if r != i and f != 0.0:
                t[r] = [x - f * y for x, y in zip(line, pivot_row)]
        basis[i] = j
    else:
        return None
    basis = np.array(basis)
    rhs = np.array([line[-1] for line in t[:rows]])
    reduced = np.array(t[rows][:-1])
    nonbasic = np.ones(cols + rows, dtype=bool)
    nonbasic[basis] = False
    if rhs.min() <= _PIVOT_TOL or reduced[nonbasic].min() <= _PIVOT_TOL:
        return None
    q = np.zeros(cols + rows)
    q[basis] = rhs
    duals = np.where(nonbasic[cols:], reduced[cols:], 0.0)
    total = q[:cols].sum()
    row = duals / duals.sum()
    col = q[:cols] / total
    value = float((1.0 / total - 1.0) * span + low)
    if not exploitability(A, row, col, value) <= EQUALIZER_TOL:
        return None
    return MatrixGameSolution(value, row, col)


def _first_copies(lines) -> list[int]:
    """Indices of the first copy of each distinct line, in order."""
    first = {}
    for i, line in enumerate(lines):
        first.setdefault(line, i)
    return list(first.values())


def matrix_game_solve(payoff) -> MatrixGameSolution:
    """Maximin solution of a zero-sum matrix game for the row player.

    Four paths, tried in order:

    1. saddle: a pure saddle point, which every one-row and one-column game
       has, is read off the matrix;
    2. reduced tableau: a game with exactly duplicated rows or columns keeps
       the first copy of each, and a unique equilibrium of that game from
       the tableau simplex (``_tableau_solve``) is lifted back with zero
       mass on the copies. A copy pays as its first instance does, so the
       value and the exploitability carry over;
    3. tableau: a game without copies, when its equilibrium is unique;
    4. HiGHS on the full game otherwise, with the column strategy recovered
       from the LP duals.

    Both strategies are valid distributions and the best-response gap
    against either is within 1e-6 of the value. A game without a saddle
    point whose payoff range overflows a float raises ``DomainError``.
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
    low = min(row_mins)
    high = max(col_maxs)
    if not math.isfinite(high - low):
        raise DomainError(f"payoff range [{low!r}, {high!r}] overflows a float")

    # Copies of an action add no extreme equilibrium (Shapley & Snow 1950)
    # but leave the tableau's final basis degenerate, so solve without them.
    # Copies share their row minimum (column maximum), which clears most
    # games at once. Set and dict keys take 0.0 and -0.0 as equal, as
    # ``np.unique`` does.
    keep_rows, keep_cols = range(rows), range(cols)
    if len(set(row_mins)) < rows or len(set(col_maxs)) < cols:
        keep_rows = _first_copies(map(tuple, entries))
        keep_cols = _first_copies(zip(*(entries[i] for i in keep_rows)))
    if len(keep_rows) == rows and len(keep_cols) == cols:
        unique = _tableau_solve(A, entries)
        if unique is not None:
            return unique
    else:
        sub = A[np.ix_(keep_rows, keep_cols)]
        reduced = _tableau_solve(sub, sub.tolist())
        if reduced is not None:
            row = np.zeros(rows)
            col = np.zeros(cols)
            row[keep_rows] = reduced.row_strategy
            col[keep_cols] = reduced.col_strategy
            return MatrixGameSolution(reduced.value, row, col)

    # Variables (x_1..x_R, v): maximize v subject to A^T x >= v, sum x = 1.
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-A.T, np.ones((cols, 1))])
    a_eq = np.hstack([np.ones((1, rows)), np.zeros((1, 1))])
    bounds = [(0.0, None)] * rows + [(None, None)]
    # Read through the module, where ``__getattr__`` and patches are seen.
    res = sys.modules[__name__].linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(cols),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=bounds,
        method="highs",
    )
    if not res.success:  # pragma: no cover - zero-sum LPs are always feasible
        raise RuntimeError(f"matrix game LP failed: {res.message}")
    row = np.clip(res.x[:rows], 0.0, None)
    row /= row.sum()
    col = np.clip(-np.asarray(res.ineqlin.marginals), 0.0, None)
    total = col.sum()
    if not 0.5 < total < 2.0:  # pragma: no cover - dual degenerate fallback
        alt = matrix_game_solve(-A.T)
        col = alt.row_strategy
    else:
        col /= total
    return MatrixGameSolution(float(res.x[-1]), row, col)


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
    Each side's n systems go to one stacked solve, which runs LAPACK's gesv
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
    system = np.zeros((n, k + 1, k + 1))
    system[:, k, :k] = 1.0
    system[:, :k, k] = -1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        system[:, :k, :k] = block.transpose(0, 2, 1)
        row_part = np.linalg.solve(system, rhs)
        system[:, :k, :k] = block
        col_part = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        # One singular system fails the whole stack: solve state by state.
        if n == 1:
            return np.zeros(1, dtype=bool), np.zeros(1), np.zeros(rows.shape), np.zeros(cols.shape)
        parts = [_equalize(payoffs[i : i + 1], rows[i : i + 1], cols[i : i + 1]) for i in range(n)]
        return tuple(np.concatenate(part) for part in zip(*parts))
    x, y = row_part[:, :k], col_part[:, :k]
    accepted = np.all(x >= 0.0, axis=1) & np.all(y >= 0.0, axis=1)
    x, y = x[accepted], y[accepted]
    row = np.zeros(rows.shape)
    col = np.zeros(cols.shape)
    row[rows & accepted[:, None]] = (x / x.sum(axis=1, keepdims=True)).ravel()
    col[cols & accepted[:, None]] = (y / y.sum(axis=1, keepdims=True)).ravel()
    values = row_part[:, k]
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


def _csr_arrays(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of a dense 2-D matrix, as ``csr_matrix``
    stores them, from blocks of ``_SCAN_ROWS`` rows. NaN and inf are nonzero."""
    num_rows, num_cols = matrix.shape
    data, indices = [], []
    indptr = np.zeros(num_rows + 1, dtype=np.intp)
    for start in range(0, num_rows, _SCAN_ROWS):
        block = matrix[start : start + _SCAN_ROWS].ravel()
        flat = np.flatnonzero(block != 0.0)
        ends = np.arange(num_cols, block.size + 1, num_cols)
        indptr[start + 1 : start + 1 + ends.size] = indptr[start] + np.searchsorted(flat, ends)
        data.append(block[flat])
        indices.append(flat % num_cols)
    return np.concatenate(data), np.concatenate(indices), indptr


def shapley_solve_arrays(
    rewards: np.ndarray, transition: np.ndarray, config: SolverConfig
) -> ShapleySolution:
    """Value iteration for a two-player zero-sum tabular game.

    ``rewards`` is the row player's (S, A_row, A_col) payoff in any affine
    units; each sweep solves the matrix game of the discounted Q-values per
    state and stops when the value function moves less than the tolerance.

    A sweep backs the values up through the kernel as one sparse product,
    takes every pure saddle point at once (the same comparison, and so the
    same value and strategies, as ``matrix_game_solve``'s shortcut), and
    solves the remaining states on the supports of their last LP solutions,
    one stacked ``_equalize`` per support size. A state whose support is not
    square or does not verify falls back to ``matrix_game_solve``.
    """
    from scipy.sparse import csr_matrix

    rewards = np.asarray(rewards, dtype=float)
    transition = np.asarray(transition, dtype=float)
    num_states, a_row, a_col = rewards.shape
    if transition.shape != (num_states, a_row, a_col, num_states):
        raise ShapeError("transition shape does not match rewards")
    if not np.all(np.isfinite(rewards)):
        raise DomainError("rewards must be finite")
    matrix = transition.reshape(-1, num_states)
    data, indices, indptr = _csr_arrays(matrix)
    # A NaN or inf kernel entry is nonzero, so it is among the stored data.
    if not np.all(np.isfinite(data)):
        raise DomainError("transition entries must be finite")
    kernel = csr_matrix((data, indices, indptr), shape=matrix.shape)
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
        q = rewards + config.discount * (kernel @ values).reshape(rewards.shape)
        row_mins = q.min(axis=2)
        col_maxs = q.max(axis=1)
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


def shapley_solve(model: StochasticGameModel, config: SolverConfig) -> ShapleySolution:
    """Solve a two-player zero-sum (possibly affinely rescaled) model.

    The model's own discount governs the iteration; ``config.discount`` only
    applies to the raw-array entry point.
    """
    if model.num_players != 2:
        raise DomainError("the solver handles two-player games")
    total = model.rewards[0] + model.rewards[1]
    if float(np.max(total) - np.min(total)) > 1e-9:
        raise DomainError("rewards must be zero-sum up to an affine rescaling")
    effective = dataclasses.replace(config, discount=model.discount)
    return shapley_solve_arrays(model.rewards[0], model.transition, effective)


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


def _format_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def policy_to_text(policy: Policy) -> str:
    lines = [POLICY_HEADER, f"states {policy.num_states}", f"actions {policy.num_actions}"]
    for s in range(policy.num_states):
        lines.append(_format_floats(policy.table[s]))
    return "\n".join(lines) + "\n"


def _text_lines(text: str, header: str) -> list[tuple[int, list[str]]]:
    """The non-blank lines after ``header`` as (line number, fields)."""
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1] != header:
        raise DomainError(f"unrecognized header; expected {header!r}")
    return [(n, ln.split()) for n, ln in lines[1:]]


def _count(value: str) -> int:
    n = int(value)
    if n < 1:
        raise ValueError(value)
    return n


def _read_line(lines, i: int, key: str | None, cast, count: int) -> list:
    """The ``count`` values on the ``i``-th line after the header, cast, after
    ``key`` (a bare row has none). Every error names the line."""
    what = repr(key) if key else "row"
    if i >= len(lines):
        raise ShapeError(f"text ends before its {what} line")
    lineno, fields = lines[i]
    if key is not None:
        if fields[0] != key:
            raise DomainError(f"line {lineno}: expected {what}, got {fields[0]!r}")
        fields = fields[1:]
    try:
        values = [cast(v) for v in fields]
    except ValueError:
        raise DomainError(f"line {lineno}: malformed {what} values") from None
    if len(values) != count:
        raise ShapeError(f"line {lineno}: {what} has {len(values)} values, expected {count}")
    return values


def _require_end(lines, count: int) -> None:
    if len(lines) > count:
        raise ShapeError(f"line {lines[count][0]}: text past the end of the format")


def policy_from_text(text: str) -> Policy:
    lines = _text_lines(text, POLICY_HEADER)
    (num_states,) = _read_line(lines, 0, "states", _count, 1)
    (num_actions,) = _read_line(lines, 1, "actions", _count, 1)
    rows = [_read_line(lines, 2 + s, None, float, num_actions) for s in range(num_states)]
    _require_end(lines, 2 + num_states)
    return Policy(np.array(rows))


def model_to_text(model: StochasticGameModel) -> str:
    lines = [
        MODEL_HEADER,
        f"players {model.num_players}",
        f"states {model.num_states}",
        "actions " + " ".join(str(a) for a in model.action_counts),
        f"discount {model.discount!r}",
    ]
    for i in range(model.num_players):
        lines.append(f"rewards {i} " + _format_floats(model.rewards[i].ravel()))
    lines.append("transition " + _format_floats(model.transition.ravel()))
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> StochasticGameModel:
    lines = _text_lines(text, MODEL_HEADER)
    (players,) = _read_line(lines, 0, "players", _count, 1)
    (states,) = _read_line(lines, 1, "states", _count, 1)
    actions = tuple(_read_line(lines, 2, "actions", _count, players))
    (discount,) = _read_line(lines, 3, "discount", float, 1)
    size = states * math.prod(actions)
    rewards = np.empty((players, size))
    for i in range(players):
        values = _read_line(lines, 4 + i, "rewards", float, 1 + size)
        if values[0] != i:
            raise DomainError(f"line {lines[4 + i][0]}: malformed rewards block")
        rewards[i] = values[1:]
    transition = np.array(_read_line(lines, 4 + players, "transition", float, size * states))
    _require_end(lines, 5 + players)
    return StochasticGameModel(
        rewards=rewards.reshape(players, states, *actions),
        transition=transition.reshape(states, *actions, states),
        discount=discount,
    )
