"""The streams of ``np.random.default_rng([seed, i])`` for a range of
indices, without a ``SeedSequence`` per index.

``default_rng([seed, i])`` hashes the 32-bit words of seed and i into a pool
of 4 words with NumPy's SeedSequence hash (``hashmix``/``mix``), expands the
pool into 4 uint64 words (``generate_state``) and seeds PCG64 with them.
``seed_states`` runs that hash for a whole range of indices as one pass of
array operations; ``keyed_streams`` hands each index's words to PCG64
through an ``ISeedSequence`` that returns them. The streams are those of
``default_rng``, bit for bit. The constants and steps are those of
numpy/random/bit_generator.pyx.

The words are kept in uint64 arrays and masked to 32 bits after each
product, which equals the hash's uint32 wrap-around.

This module imports ``numpy.random``; it is imported by the search when it
runs, so that ``import assignlab`` does not.
"""

from __future__ import annotations

import operator
from functools import cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from assignlab.operators import chunk_ranges

MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative integer."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


@cache
def hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """Column of init * mult^k mod 2^32 for k = 0..steps: hash step k xors
    with entry k and multiplies by entry k + 1; read-only."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & MASK32)
    out = np.array(consts, dtype=np.uint64)[:, None]
    out.setflags(write=False)
    return out


def hashmix(value: np.ndarray, consts: np.ndarray, k: int, m: int) -> np.ndarray:
    """``hashmix`` at steps k..k+m-1, step j on row j of ``value`` (broadcast
    to m rows)."""
    value = value ^ consts[k:k + m]
    value *= consts[k + 1:k + m + 1]
    value &= MASK32
    value ^= value >> 16
    return value


def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_MULT_L
    result -= y * MIX_MULT_R
    result &= MASK32
    result ^= result >> 16
    return result


def pool_states(entropy: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the SeedSequence of each column of
    the 32-bit entropy words (L, n), as rows (n, 4). The steps the pool
    words take from one source word do not depend on each other, so each
    source word is one array pass."""
    n_words, n = entropy.shape
    a = hash_consts(INIT_A, MULT_A, 16 + 4 * max(0, n_words - 4))
    head = np.zeros((4, n), dtype=np.uint64)
    head[:n_words] = entropy[:4]
    pool = hashmix(head, a, 0, 4)
    # every pool word into every other, so late words reach early ones
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], a, 4 + 3 * src, 3))
    # the entropy beyond the pool, each word into every pool word
    for k, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(word, a, 16 + 4 * k, 4))
    # 8 words from the cycled pool, paired little-endian into 4 uint64
    state = hashmix(np.concatenate([pool, pool]), hash_consts(INIT_B, MULT_B, 8), 0, 8)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(4, np.uint64)`` for each i
    in range(lo, hi), rows (hi - lo, 4): one hash pass per number of words
    of i. Indices split into words as SeedSequence splits them, up to 2^64;
    beyond it ValueError."""
    key = uint32_words(seed)
    if hi > 2**64:
        raise ValueError(f"search index {hi - 1} is beyond 2^64")
    parts = []
    for a, b in ((lo, min(hi, 2**32)), (max(lo, 2**32), hi)):
        if a < b:
            index = np.uint64(a) + np.arange(b - a, dtype=np.uint64)
            words = (index & MASK32, index >> 32)[:1 + (a >= 2**32)]
            entropy = np.empty((len(key) + len(words), b - a), dtype=np.uint64)
            entropy[:len(key)] = np.array(key, dtype=np.uint64)[:, None]
            entropy[len(key):] = words
            parts.append(pool_states(entropy))
    return np.concatenate(parts)


class FixedState(ISeedSequence):
    """Hands PCG64 the state words computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def keyed_streams(seed: int, count: int):
    """The generators ``default_rng([seed, i])`` for i in range(count), in
    order, from one hash pass per key chunk (32 bytes of state an index:
    8192 indices at the default ``_CHUNK_BYTES``)."""
    for lo, hi in chunk_ranges(count, 32):
        for state in seed_states(seed, lo, hi):
            yield np.random.Generator(np.random.PCG64(FixedState(state)))
