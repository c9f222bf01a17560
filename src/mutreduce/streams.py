"""Evaluation seeds and the generators their repetitions draw from.

Every evaluation seed is ``SeedSequence(entropy).generate_state(1,
np.uint64)[0]`` of an entropy tuple (base seed, stream tag, ...), a 64-bit
integer. ``derive_seeds`` computes the seeds of many entropy tuples in one
pass: a generation's, a random-search block's or a baseline sweep's. Stream
tags in use:

* 0: evaluation seeds of search individuals, (seed, 0, generation or
  block, slot);
* 1: the initial population (seeds its generator directly);
* 2: variation (seeds its generator directly);
* 3: baseline sweeps, (seed, 3, parameter).

An evaluation with seed s runs n repetitions, row i drawing from the
child numpy's spawn would give it: ``default_rng(s).spawn(n)[i]``, a
PCG64 seeded by ``SeedSequence(s, spawn_key=(i,))``. NEP 19 keeps that
stream stable across numpy releases. ``row_generators`` builds the rows
of many seeds in one vectorised pass, and each PCG64 seeds itself in C
from the four precomputed words.

Both run one routine: numpy's SeedSequence hash-mix, as uint32 array
arithmetic over every entropy at once (``_mix_entropy``), then its state
hash (``_state_words``). The arithmetic stays in arrays, whose uint32
products wrap silently where numpy scalars warn.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_WORD = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """h_0 = init, h_{k+1} = h_k * mult mod 2**32: hash k xors its value
    with h_k and multiplies it by h_{k+1}. The sequence does not depend on
    the data, so it is fixed once, as a (count + 1, 1) column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _WORD)
    return np.array(constants, dtype=np.uint32)[:, None]


# The hash constants of an entropy of n words (n >= 4) are the first 4n + 1
# of this sequence: 4 fill the pool, 12 cross-mix it (3 per source word)
# and each word past the pool mixes into the 4 pool words. Entropies of
# more than 8 words (search seeds of 2**160 and more) compute their own.
_A = _hash_constants(_INIT_A, _MULT_A, 4 * 8)


def _cross_step(src: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Cross-mix step src hashes pool word src once per other pool word:
    the (4, 1) xor and multiply constants of those hashes, in destination
    order, with a placeholder in row src, whose mixed value is discarded."""
    k = np.insert(np.arange(3) + 4 + 3 * src, src, 0)
    return src, _A[k], _A[k + 1]


_CROSS_STEPS = [_cross_step(src) for src in range(_POOL_SIZE)]
# PCG64 asks for 4 uint64, that is 8 uint32 words drawn round the pool.
_B = _hash_constants(_INIT_B, _MULT_B, 8)
_B_LANES = np.arange(8) % _POOL_SIZE


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> 16
    return result


def _mix_entropy(words: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """The (4, m) SeedSequence pools of m entropies: column i of ``words``
    (at least 4 rows) holds entropy i's uint32 words, zero past its end, as
    SeedSequence pads a short entropy. Words past the pool mix into it one
    by one; where ``lengths`` is given, an entropy takes word j only if it
    has more than j words."""
    a = _A if 4 * len(words) < len(_A) else _hash_constants(_INIT_A, _MULT_A, 4 * len(words))
    pool = _hash(words[:_POOL_SIZE], a[:_POOL_SIZE], a[1:_POOL_SIZE + 1])
    for src, xor, mult in _CROSS_STEPS:
        mixed = _mix(pool, _hash(pool[src], xor, mult))
        mixed[src] = pool[src]
        pool = mixed
    for j in range(_POOL_SIZE, len(words)):
        k = 4 * j
        mixed = _mix(pool, _hash(words[j], a[k:k + 4], a[k + 1:k + 5]))
        pool = mixed if lengths is None else np.where(lengths > j, mixed, pool)
    return pool


def _state_words(pool: np.ndarray, n_words: int) -> np.ndarray:
    """The first n_words uint64 of each pool's ``generate_state``, one row
    per pool: 2 * n_words uint32 drawn round the pool, paired low word
    first."""
    state = _hash(pool[_B_LANES[:2 * n_words]], _B[:2 * n_words], _B[1:2 * n_words + 1])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _int_words(value: int) -> list[int]:
    """An entropy integer as SeedSequence reads it: its uint32 words, least
    significant first; 0 is one word."""
    if value < 0:
        raise ValueError(f"entropy must be integers >= 0, not {value}")
    words = [value & _WORD]
    while value := value >> 32:
        words.append(value & _WORD)
    return words


def derive_seeds(entropies: Sequence[Sequence[int]]) -> list[int]:
    """The 64-bit evaluation seed of each entropy tuple, in one pass:
    ``SeedSequence(e).generate_state(1, np.uint64)[0]`` for each e. The
    stream tags are listed in the module docstring. Each tuple is split
    into its uint32 words, so tuples may hold integers of any size and
    differ in length."""
    if not len(entropies):
        return []
    rows = [[w for value in entropy for w in _int_words(int(value))]
            for entropy in entropies]
    lengths = np.array([len(row) for row in rows])
    words = np.zeros((max(_POOL_SIZE, lengths.max()), len(rows)), dtype=np.uint32)
    for i, row in enumerate(rows):
        words[:len(row), i] = row
    return _state_words(_mix_entropy(words, lengths), 1)[:, 0].tolist()


@functools.cache
def _seed_words_type() -> type:
    """The type of a row's seed words, made on first use: its base class
    lives in numpy.random, whose import (about 13 ms) the command line's
    start-up need not pay."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """The seed words of one row, computed ahead: PCG64 asks for
        ``generate_state(4, np.uint64)`` and gets them. It cannot spawn,
        so neither can a row generator; the strategy VM never asks it to."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def row_generators(eval_seeds: Sequence[int], n: int) -> list[np.random.Generator]:
    """The n row generators of each seed, flattened seed by seed: the
    generators of ``[g for s in eval_seeds for g in
    np.random.default_rng(s).spawn(n)]``, with the same states and draws.

    Seeds must lie in [0, 2**64), as every derived seed does. Row i of
    seed s has the entropy words [low word of s, high word of s, 0, 0, i].
    """
    try:
        seeds = np.array(eval_seeds, dtype=np.uint64)
    except OverflowError:
        raise ValueError("evaluation seeds must lie in [0, 2**64)") from None
    words = np.zeros((_POOL_SIZE + 1, seeds.size, n), dtype=np.uint32)
    words[0] = seeds[:, None]  # the low word
    words[1] = (seeds >> np.uint64(32))[:, None]
    words[_POOL_SIZE] = np.arange(n)
    rows = _state_words(_mix_entropy(words.reshape(_POOL_SIZE + 1, -1)), 4)
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in rows]
