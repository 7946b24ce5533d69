"""Deterministic per-run random streams.

Run ``i`` of cell ``c`` always draws from the generator seeded by
``SeedSequence(entropy=master_seed, spawn_key=(c, i))``, so any single run
is reproducible in isolation and results do not depend on execution order.
Runs execute in one process. ``run_rngs`` seeds a cell's runs at once, and
``run_streams`` gives each run one generator per stream offset, built from
the same seed words; a generator at a later offset is moved on once with
PCG64's exact ``advance``, and the first stream, at offset 0, is not
advanced.
"""

from __future__ import annotations

import numpy as np

#: Package-wide default master seed (date stamp of the frozen defaults).
DEFAULT_SEED = 20260810


def run_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one run, keyed by (cell, run) indices."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in key))
    )


class _SeedWords:
    """Precomputed seed words, which PCG64 asks for once, as 4 uint64. ``run_streams``
    registers it as an ISeedSequence, so importing this module skips numpy.random."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _hashes(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's hash constants ``init * mult**k`` mod 2**32, k = 0..n."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(n + 1)], np.uint32)


_STATE_HASHES = _hashes(0x8B51F9DD, 0x58F38DED, 8)  # numpy's INIT_B and MULT_B


def run_rngs(master_seed: int, cell: int, runs: int) -> list[np.random.Generator]:
    """``[run_rng(master_seed, cell, r) for r in range(runs)]``, bit for bit."""
    return [rng for rng, in run_streams(master_seed, cell, runs, (0,))]


def run_streams(master_seed: int, cell: int, runs: int, offsets) -> list[tuple]:
    """Per run r, one generator per offset: ``run_rng(master_seed, cell, r)``
    moved on by that many outputs. Offset 0 is built without an ``advance``.

    numpy's SeedSequence (O'Neill's seed_seq_fe) hashes the master's uint32
    words, zero-padded to a pool of 4, then each spawn-key word into the
    pool, each hash stepping a multiplier: 4n steps for n words. The pool
    before the run word is SeedSequence keyed by the cell alone. The run
    word's hashes (numpy's INIT_A, MULT_A, MIX_MULT_L, MIX_MULT_R) and
    generate_state are uint32 array steps over all runs, wrapping as numpy's.
    """
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_SeedWords)
    pool = np.random.SeedSequence(entropy=master_seed, spawn_key=(int(cell),)).pool
    master_words, cell_words = (max(1, -(-int(v).bit_length() // 32)) for v in (master_seed, cell))
    steps = 4 * (max(4, master_words) + cell_words)
    mix = _hashes(0x43B0D7E5 * pow(0x931E8875, steps, 1 << 32), 0x931E8875, 4)
    value = (np.arange(runs, dtype=np.uint32)[:, None] ^ mix[:-1]) * mix[1:]
    value ^= value >> 16
    pool = 0xCA01F9DD * pool - 0x4973F715 * value
    pool ^= pool >> 16
    state = (np.tile(pool, 2) ^ _STATE_HASHES[:-1]) * _STATE_HASHES[1:]
    state ^= state >> 16
    return [
        tuple(np.random.Generator(_pcg64(w, k)) for k in offsets) for w in state.view(np.uint64)
    ]


def _pcg64(words: np.ndarray, offset: int) -> np.random.PCG64:
    """PCG64 seeded by ``words``, advanced by ``offset`` outputs unless 0."""
    bitgen = np.random.PCG64(_SeedWords(words))
    return bitgen.advance(offset) if offset else bitgen
