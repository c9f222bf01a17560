"""Evaluation seeds and the generators their repetitions draw from.

Every evaluation seed is ``derive_seed`` of an entropy tuple (base seed,
stream tag, ...), a 64-bit integer. Stream tags in use:

* 0: evaluation seeds of search individuals, (seed, 0, generation or
  block, slot);
* 1: the initial population (seeds its generator directly);
* 2: variation (seeds its generator directly);
* 3: baseline sweeps, (seed, 3, parameter).

An evaluation with seed s runs n repetitions, row i drawing from the
child numpy's spawn would give it: ``default_rng(s).spawn(n)[i]``, a
PCG64 seeded by ``SeedSequence(s, spawn_key=(i,))``. NEP 19 keeps that
stream stable across numpy releases. ``row_generators`` builds the rows
of many seeds in one vectorised pass: the SeedSequence hash-mix runs
over every child at once as uint32 array arithmetic, and each PCG64
seeds itself in C from the four precomputed words.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """h_0 = init, h_{k+1} = h_k * mult mod 2**32: hash k xors its value
    with h_k and multiplies it by h_{k+1}. The sequence does not depend on
    the data, so it is fixed once."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)


# Entropy [lo, hi, 0, 0, i] fills the pool of 4 with its first 4 words
# (hashes 0-3), cross-mixes the pool (hashes 4-15, 3 per source word) and
# mixes the tail word i into each pool word (hashes 16-19).
_A = _hash_constants(_INIT_A, _MULT_A, 20)
# PCG64 asks for 4 uint64, that is 8 uint32 words drawn round the pool.
_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


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


def derive_seed(entropy: tuple[int, ...]) -> int:
    """The 64-bit evaluation seed of an entropy tuple (base seed, stream
    tag, ...); the tags are listed in the module docstring."""
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def row_generators(eval_seeds: Sequence[int], n: int) -> list[np.random.Generator]:
    """The n row generators of each seed, flattened seed by seed: the
    generators of ``[g for s in eval_seeds for g in
    np.random.default_rng(s).spawn(n)]``, with the same states and draws.

    Seeds must lie in [0, 2**64), as every derive_seed output does. The
    pool words before the tail depend on the seed alone and the tail's
    hashes on the row alone, so each is computed once and the two are
    broadcast together.
    """
    try:
        seeds = np.array(eval_seeds, dtype=np.uint64)
    except OverflowError:
        raise ValueError("evaluation seeds must lie in [0, 2**64)") from None
    pool = np.empty((_POOL_SIZE, seeds.size), dtype=np.uint32)
    pool[0] = _hash(seeds.astype(np.uint32), _A[0], _A[1])  # the low word
    pool[1] = _hash((seeds >> np.uint64(32)).astype(np.uint32), _A[1], _A[2])
    pool[2:] = _hash(np.zeros((2, 1), dtype=np.uint32), _A[2:4, None], _A[3:5, None])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _A[k:k + 3, None], _A[k + 1:k + 4, None]))
        k += 3
    tail = _hash(np.arange(n, dtype=np.uint32), _A[k:k + 4, None], _A[k + 1:k + 5, None])
    pool = _mix(pool[:, :, None], tail[:, None, :]).reshape(_POOL_SIZE, -1)
    # The state words cycle the pool twice; pairs of them, low word first,
    # make each row's 4 uint64.
    state = _hash(np.concatenate([pool, pool]), _B[:8, None], _B[1:9, None])
    words = state[0::2].astype(np.uint64) | state[1::2].astype(np.uint64) << np.uint64(32)
    seed_words = _seed_words_type()
    return [np.random.Generator(np.random.PCG64(seed_words(row))) for row in words.T.copy()]
