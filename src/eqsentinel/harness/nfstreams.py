"""Vectorized per-run replay of the normal-form monitors.

Monte-Carlo grids need hundreds of thousands of monitor rounds; stepping
the object monitor would dominate the runtime. This module evaluates the
same log-wealth recursions with numpy over a run's rounds at once. The
object monitor remains the reference: the tests replay identical action
streams through both paths and require matching crossing rounds and, for
the per-fraction log wealth, equal values bit for bit.

Within one run the per-player action streams are drawn in player order
(all of player 1's rounds, then player 2's, ...), which is part of the
determinism contract for run-level reproducibility: player k draws the
``horizon`` uniforms that start ``(k - 1) * horizon`` outputs into the
run's PCG64 stream. ``replay_run`` keeps that order while drawing a chunk
at a time: player 1 reads the run generator itself and player k >= 2 a
copy of it moved forward with ``bit_generator.advance((k - 1) * horizon)``.
PCG64 ``random()`` spends one 64-bit output per double, so the chunked
draws are the full-stream draws, value for value.

Each cell builds its log-factor table once with ``eprocess.log_factors``,
``log1p(-lambda * x)`` over the increment table's (m, P) profiles (with a
trailing fraction axis for a grid mixture); a run gathers its rounds from
that table, and the object monitor steps the same table round by round.
Rounds are accumulated in chunks of ``CHUNK_ROUNDS``: the previous
chunk's last cumulative column is added to the next chunk's first column
before its ``cumsum``, so every partial sum is the one a single ``cumsum``
over the horizon forms. A run with a stop rule ends after the chunk in
which its stop row first reaches its level (early exit); the rounds after
it are never drawn. A run without one is a single chunk of the horizon.
"""

from __future__ import annotations

import math

import numpy as np

# ``increment_tables`` (the one deviation-gain table, zero where a conditional
# hypothesis is inactive) and ``log_factors`` (the one bet) are the monitor's
# builders; they stay resolvable here because the harness, the tests and
# perfbench's --trace 1 use them by this module's name.
from ..eprocess import BettingMixture, log_factors
from ..games import JointStrategy, StrategyKind
from ..monitors import _ebh, _log_ladder, increment_tables  # noqa: F401

#: Rounds per chunk of a run replayed with a stop rule.
CHUNK_ROUNDS = 1024


def _advanced(rng: np.random.Generator, delta: int) -> np.random.Generator:
    """A PCG64 generator at ``rng``'s state moved ``delta`` outputs on."""
    # Seeded, because an unseeded PCG64() reads OS entropy first.
    bits = np.random.PCG64(0)
    bits.state = rng.bit_generator.state
    bits.advance(delta)
    return np.random.Generator(bits)


def _profile_sampler(
    strategy: JointStrategy, horizon: int, rng: np.random.Generator, chunked: bool
):
    """``draw(n)``: the run's next n flattened joint-profile indices.

    Unchunked, ``draw(horizon)`` is called once and draws every player from
    ``rng`` in turn. Chunked, each player after the first draws from its own
    generator at its stream offset, and ``draw`` may be called chunk by
    chunk until the horizon.
    """
    product = strategy.kind is StrategyKind.PRODUCT
    probs = strategy.factors if product else [strategy.joint.ravel()]
    cdfs = [np.cumsum(p) for p in probs]
    gens = [rng] * len(cdfs)
    if chunked:
        gens[1:] = [_advanced(rng, i * horizon) for i in range(1, len(cdfs))]

    def draw(n: int) -> np.ndarray:
        # Raw uniforms through the cumulative table: keeps the realized
        # streams tied to the bit generator only, not to Generator.choice.
        idx = [
            np.minimum(np.searchsorted(cdf, g.random(n), side="right"), cdf.size - 1)
            for cdf, g in zip(cdfs, gens)
        ]
        return np.ravel_multi_index(idx, strategy.action_counts) if product else idx[0]

    return draw


def sample_action_stream(
    strategy: JointStrategy, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Flattened joint-profile indices for one run, shape (horizon,)."""
    return _profile_sampler(strategy, horizon, rng, chunked=False)(horizon)


def _accumulate(factors: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """Cumulative log wealth over a chunk's rounds, in place, continuing from
    the previous chunk's last column ``carry``."""
    if carry is not None:
        factors[:, 0] += carry
    return np.cumsum(factors, axis=1, out=factors)


def _readout(logw: np.ndarray, mixture: BettingMixture) -> np.ndarray:
    """Log mixture wealth (m, T) from per-fraction log wealth: a max-shifted
    log-sum-exp across the grid, which agrees with EProcessState.value()
    (``_log_mix``) only to rounding. A grid block ``logw`` is overwritten."""
    if mixture.lambdas.size == 1:
        return logw
    shift = logw.max(axis=2)
    np.exp(np.subtract(logw, shift[:, :, None], out=logw), out=logw)
    return shift + np.log(np.einsum("mtg,g->mt", logw, mixture.weights))


def log_wealth_paths(
    increments: np.ndarray, mixture: BettingMixture
) -> np.ndarray:
    """Log mixture wealth over time for each hypothesis: (m, T).

    Cumulative per-fraction log wealth, equal to EProcessState's bit for
    bit, then the grid readout of :func:`_readout`, equal to
    EProcessState.value() to rounding; the tests pin the crossing rounds and
    the per-fraction log wealth, not the readout's last bits.
    """
    return _readout(_accumulate(log_factors(increments, mixture), None), mixture)


def replay_run(
    strategy: JointStrategy,
    factors: np.ndarray,
    mixture: BettingMixture,
    horizon: int,
    rng: np.random.Generator,
    stop: tuple[int, float] | None = None,
) -> np.ndarray:
    """Log mixture wealth paths of one run, (m, t) with t <= horizon.

    ``factors`` is the cell's ``log_factors(tables, mixture)``. The result
    is the first t columns of ``log_wealth_paths(tables[:, stream],
    mixture)`` for ``stream = sample_action_stream(strategy, horizon, rng)``.
    Without a stop rule, t = horizon. With ``stop = (j, level)`` the run is
    replayed in chunks of ``CHUNK_ROUNDS`` and ends after the chunk in which
    row j first reaches ``level``; t = horizon when it never does.
    """
    chunk = horizon if stop is None else CHUNK_ROUNDS
    draw = _profile_sampler(strategy, horizon, rng, chunked=chunk < horizon)
    carry = None
    paths = []
    for start in range(0, horizon, chunk):
        logw = _accumulate(np.take(factors, draw(min(chunk, horizon - start)), axis=1), carry)
        carry = logw[:, -1].copy()  # the grid readout overwrites logw
        paths.append(_readout(logw, mixture))
        if stop is not None and (paths[-1][stop[0]] >= stop[1]).any():
            break
    return paths[0] if len(paths) == 1 else np.concatenate(paths, axis=1)


def first_crossing(log_path: np.ndarray, log_level: float) -> int:
    """1-based round of the first crossing, or -1 when it never happens."""
    hits = log_path >= log_level
    if not hits.any():
        return -1
    return int(np.argmax(hits)) + 1


def fwer_crossing_times(log_paths: np.ndarray, b: float) -> np.ndarray:
    """Per-hypothesis first crossing rounds of the threshold b (-1 = never)."""
    level = math.log(b)
    return np.array([first_crossing(row, level) for row in log_paths])


def ebh_alarm(
    log_paths: np.ndarray, alpha: float, weights: np.ndarray
) -> tuple[int, int, tuple[int, ...]]:
    """First e-BH alarm from full wealth paths.

    Returns (alarm round or -1, level k at the alarm, rejected indices at
    the alarm), as ``step_fdr`` recomputing e-BH every round finds them.
    With running suprema the level-k count first reaches k at the k-th
    smallest level-k crossing round, so the alarm is the least of those;
    ``step_fdr``'s level search then runs on the crossings up to it.
    """
    rounds = np.array(
        [[first_crossing(path, level) for path, level in zip(log_paths, row)]
         for row in _log_ladder(alpha, weights)],
        dtype=float,
    )
    rounds[rounds < 0] = np.inf
    alarm = np.sort(rounds, axis=1).diagonal().min()
    if alarm == np.inf:
        return -1, 0, ()
    k, rejected = _ebh(rounds <= alarm)
    return int(alarm), k, rejected
