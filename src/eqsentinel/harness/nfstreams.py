"""Vectorized replay of the normal-form monitors, all runs of a cell at once.

Monte-Carlo grids need hundreds of thousands of monitor rounds; stepping
the object monitor would dominate the runtime. This module evaluates the
same log-wealth recursions with numpy over many runs and rounds at once.
The object monitor remains the reference: the tests replay identical action
streams through both paths and require matching crossing rounds and, for
the per-fraction log wealth, equal values bit for bit.

Within one run the per-player action streams are drawn in player order
(all of player 1's rounds, then player 2's, ...), which is part of the
determinism contract for run-level reproducibility: player k draws the
``horizon`` uniforms that start ``(k - 1) * horizon`` outputs into the
run's PCG64 stream. :func:`replay_runs` keeps those streams while drawing a
chunk at a time: each run holds one generator per player, built once from
the run's seed words and moved on by its offset in :func:`stream_offsets`
(``seeding.run_streams``), and a chunk of ``n`` rounds reads the next ``n``
uniforms of each. PCG64 ``random()`` spends one 64-bit output per double and
its ``advance`` is exact, so the chunked draws are the full-stream draws,
value for value, however the runs and rounds are split. The uniforms become
flat profile indices by the package's one draw rule (:mod:`eqsentinel.games`).

:func:`replay_runs` builds a cell's log-factor table once from its (m, P)
increment table with ``eprocess.log_factors``, ``log1p(-lambda * x)`` (with a
trailing fraction axis for a grid mixture); the object monitor steps the
same table round by round. The replay gathers an (m, R, n[, G]) block of it
(m hypotheses, R runs, n rounds, G fractions), accumulates it with one
``cumsum`` along rounds, the previous chunk's last column added to the
first, reads out the mixture and takes every first crossing of a stack of
log levels with an ``argmax`` along rounds. Every partial sum is the one a
single ``cumsum`` over the horizon forms, and the readout works element by
element, so no result depends on the block sizes. A block holds at most
``BLOCK_BYTES`` of log factors, or one run and one round. A run with a stop
rule ends after the chunk in which its stop row first reaches its level
(early exit), and the rounds after it are never drawn; its chunks double
from a sixteenth of their cap, ``CHUNK_ROUNDS`` within the budget, to it. A
run without one is a single chunk of the horizon if the budget allows.
The grid mixture of bets follows Waudby-Smith & Ramdas, "Estimating means
of bounded random variables by betting" (JRSS-B 2024).
"""

from __future__ import annotations

import math

import numpy as np

# ``increment_tables`` (the one deviation-gain table, zero where a conditional
# hypothesis is inactive) is the monitor's builder; it stays resolvable here
# because the harness, the tests and perfbench's --trace 1 use it by this
# module's name. ``log_factors`` (the one bet) is what the replays build from it.
from ..eprocess import BettingMixture, log_factors
from ..games import JointStrategy, _profiles, strategy_cuts
from ..monitors import _ebh, _log_ladder, increment_tables  # noqa: F401

#: Rounds per chunk of a run replayed with a stop rule.
CHUNK_ROUNDS = 1024
#: Most bytes of gathered log factors one (m, R, n[, G]) block holds.
BLOCK_BYTES = 512 * 1024


def sample_action_stream(
    strategy: JointStrategy, horizon: int, rng: np.random.Generator
) -> np.ndarray:
    """Flattened joint-profile indices for one run, shape (horizon,): each
    drawn factor's ``horizon`` uniforms from ``rng`` in turn."""
    cuts = strategy_cuts(strategy)
    return _profiles(cuts, [rng.random(horizon) for _ in cuts])


def stream_offsets(strategy: JointStrategy, horizon: int) -> range:
    """Where each drawn factor's ``horizon`` uniforms start in a run's stream."""
    return range(0, len(strategy_cuts(strategy)) * horizon, horizon)


def _profile_sampler(strategy: JointStrategy, streams):
    """``draw(runs, n)``: the listed runs' next ``n`` flattened joint-profile
    indices, (len(runs), n), each drawn factor's from its generator in
    ``streams[r]``, which a chunk reads and leaves where it ended."""
    cuts = strategy_cuts(strategy)

    def draw(runs, n: int) -> np.ndarray:
        u = np.empty((len(cuts), len(runs), n))
        for row, r in enumerate(runs):
            for k, rng in enumerate(streams[r]):
                rng.random(out=u[k, row])
        return _profiles(cuts, u)

    return draw


def _accumulate(block: np.ndarray, carry: np.ndarray | None) -> np.ndarray:
    """Cumulative log wealth along the rounds of an (m, R, n[, G]) block, in
    place, continuing from the previous chunk's last column ``carry``."""
    if carry is not None:
        block[:, :, 0] += carry
    return np.cumsum(block, axis=2, out=block)


def _readout(logw: np.ndarray, mixture: BettingMixture) -> np.ndarray:
    """Log mixture wealth from per-fraction log wealth: a max-shifted
    log-sum-exp across the grid's last axis, which agrees with
    EProcessState.value() (``_log_mix``) only to rounding. A grid block
    ``logw`` is overwritten; a Dirac block is its own readout."""
    if mixture.lambdas.size == 1:
        return logw
    shift = logw.max(axis=-1)
    np.exp(np.subtract(logw, shift[..., None], out=logw), out=logw)
    return shift + np.log(np.einsum("...g,g->...", logw, mixture.weights))


def log_wealth_paths(
    increments: np.ndarray, mixture: BettingMixture
) -> np.ndarray:
    """Log mixture wealth over time for each hypothesis: (m, T).

    Cumulative per-fraction log wealth, equal to EProcessState's bit for
    bit, then the grid readout of :func:`_readout`, equal to
    EProcessState.value() to rounding; the tests pin the crossing rounds and
    the per-fraction log wealth, not the readout's last bits.
    """
    block = _accumulate(log_factors(increments, mixture)[:, None], None)
    return _readout(block, mixture)[:, 0]


def _crossings(paths: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """1-based first rounds at which the log paths (m, ..., T) reach the log
    levels (L, m), as (L, m, ...); -1 where a path never does."""
    hits = paths >= levels.reshape(levels.shape + (1,) * (paths.ndim - 1))
    return np.where(hits.any(axis=-1), hits.argmax(axis=-1) + 1, -1)


def replay_runs(
    strategy: JointStrategy,
    tables: np.ndarray,
    mixture: BettingMixture,
    horizon: int,
    streams,
    levels,
    stop: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """First crossing rounds and last log wealth of a cell's runs.

    ``tables`` is the cell's (m, P) increment table, and run r replays
    ``log_wealth_paths(tables[:, stream], mixture)`` for ``stream =
    sample_action_stream(strategy, horizon, rng)``: ``streams[r]`` holds one
    generator per drawn factor, ``rng`` moved on by each offset of
    :func:`stream_offsets`, which the replay reads in order. ``levels`` is an
    (L, m) stack of log levels, one per hypothesis. Returns ``(rounds,
    last)``: ``rounds[l, j, r]`` is the first round at which run r's path j
    reaches ``levels[l, j]`` (-1 if it never does) and ``last[j, r]`` path
    j's value at the run's last replayed round. Without a stop rule every
    run replays its horizon. With ``stop = j`` a run leaves after the chunk in
    which path j first reaches ``levels[0, j]``, not looking for its later
    crossings; its chunks double from a sixteenth of their cap, ``CHUNK_ROUNDS``
    cut to ``BLOCK_BYTES``, to it. No result depends on chunks or blocks.
    """
    levels = np.asarray(levels, dtype=float)
    factors = log_factors(tables, mixture)
    m, runs = factors.shape[0], len(streams)
    round_bytes = factors[:, :1].nbytes
    cap = min(horizon if stop is None else CHUNK_ROUNDS, max(1, BLOCK_BYTES // round_bytes))
    chunk = cap if stop is None else max(1, cap // 16)
    draw = _profile_sampler(strategy, streams)
    rounds = np.full((levels.shape[0], m, runs), -1)
    last = np.empty((m, runs))
    carry = np.empty((m, runs, *factors.shape[2:]))
    active, start = np.arange(runs), 0
    while start < horizon and active.size:
        n = min(chunk, horizon - start)
        per_block = max(1, BLOCK_BYTES // (round_bytes * n))
        for i in range(0, active.size, per_block):
            block = active[i : i + per_block]
            logw = np.take(factors, draw(block.tolist(), n), axis=1)
            _accumulate(logw, carry[:, block] if start else None)
            carry[:, block] = logw[:, :, -1]
            paths = _readout(logw, mixture)
            del logw  # free the block before the next gather
            found = _crossings(paths, levels)
            seen = rounds[:, :, block]
            rounds[:, :, block] = np.where((found > 0) & (seen < 0), found + start, seen)
            last[:, block] = paths[:, :, -1]
            del paths
        start += n
        if stop is not None:
            active = active[rounds[0, stop, active] < 0]
            chunk = min(2 * chunk, cap)
    return rounds, last


def fwer_crossing_times(log_paths: np.ndarray, b: float) -> np.ndarray:
    """Per-hypothesis first crossing rounds of the threshold b (-1 = never)."""
    return _crossings(log_paths, np.full((1, len(log_paths)), math.log(b)))[0]


def first_alarms(rounds: np.ndarray) -> list[tuple[int, int, tuple[int, ...]]]:
    """First e-BH alarms from the (m, m, runs) first crossing rounds of the
    ladder, row k-1 at level k (-1 = never).

    Returns per run (alarm round or -1, level k at the alarm, rejected
    indices at the alarm), as ``step_fdr`` recomputing e-BH every round finds
    them. With running suprema the level-k count first reaches k at the k-th
    smallest level-k crossing round, so the alarm is the least of those;
    ``step_fdr``'s level search then runs, for the runs that alarm, on the
    crossings up to it.
    """
    rounds = np.where(rounds > 0, rounds, np.inf)
    alarms = np.sort(rounds, axis=1).diagonal(axis1=0, axis2=1).min(axis=1)
    found = [(-1, 0, ())] * len(alarms)
    for run in np.flatnonzero(alarms < np.inf).tolist():
        k, rejected = _ebh(rounds[:, :, run] <= alarms[run])
        found[run] = (int(alarms[run]), k, rejected)
    return found


def ebh_alarm(
    log_paths: np.ndarray, alpha: float, weights: np.ndarray
) -> tuple[int, int, tuple[int, ...]]:
    """First e-BH alarm of one run's (m, T) log paths; see :func:`first_alarms`."""
    return first_alarms(_crossings(log_paths[:, None], _log_ladder(alpha, weights)))[0]
