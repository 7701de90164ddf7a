"""Seeded numpy generators keyed by a seed and a stream id.

Determinism contract: a stream is fully identified by ``(seed,
stream_id)`` and is numpy's ``default_rng([seed, stream_id])``.  Each
sufficient statistic is one call of one of that generator's samplers
(see :func:`bayessize.models.suffstat_sampler`), so two runs with the
same keys draw bitwise identical statistics regardless of platform,
process count or call site, for a fixed numpy version: numpy (NEP 19)
does not promise that a ``Generator`` method's stream survives an
upgrade.

``SeededGenerator.streams(seed, m, start)`` builds the streams ``(seed,
start)`` to ``(seed, m - 1)`` of a Monte Carlo run without a
``SeedSequence`` each: numpy's seed-sequence hash
(``numpy/random/bit_generator.pyx``) runs once over all those stream ids
as uint64 lanes, and each stream's PCG64 is seeded with its four words.
``test_batch_streams_are_default_rng_draw_for_draw`` checks the streams
against ``default_rng`` bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

from .errors import DomainError, integer

__all__ = ["SeededGenerator"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool's
# hash, the output hash and the pool mix, in 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_NEG_R = -0x4973F715 & _MASK32  # -MIX_MULT_R mod 2^32: no word goes negative
_POOL_SIZE = 4


def _check_seed(seed) -> None:
    # The seed enters numpy's seed-sequence hash as one uint64 lane.
    if integer("seed", seed, 0) >= 2**64:
        raise DomainError(f"seed must be below 2^64, got {seed!r}")


class SeededGenerator:
    """A numpy ``Generator``, ``generator``, keyed by a seed and a stream id.

    Distinct ``(seed, stream_id)`` pairs give statistically independent
    streams; equal pairs give identical streams.  Replicate ``j`` of a
    simulation conventionally uses ``stream_id=j``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        _check_seed(seed)
        integer("stream_id", stream_id, 0)
        self.seed = seed
        self.stream_id = stream_id
        self.generator = np.random.default_rng([seed, stream_id])

    @classmethod
    def streams(cls, seed: int, m: int, start: int = 0) -> Iterator[SeededGenerator]:
        """The streams ``(seed, start)`` to ``(seed, m - 1)``, in order.

        Each equals ``SeededGenerator(seed, j)`` draw for draw; the seed
        words of all of them come from one pass of :func:`_seed_words`.  One
        stream is built per step, so only the caller's streams stay alive.
        """
        _check_seed(seed)
        if integer("start", start, 0) > integer("m", m, 0):
            raise DomainError(f"start must be at most m = {m}, got {start!r}")
        return cls._from_words(seed, start, _seed_words(seed, start, m))

    @classmethod
    def _from_words(cls, seed: int, start: int, words: np.ndarray) -> Iterator[SeededGenerator]:
        generator, pcg64, seed_words = _pcg64_types()
        for j, row in enumerate(words, start):
            stream = cls.__new__(cls)
            stream.seed, stream.stream_id = seed, j
            stream.generator = generator(pcg64(seed_words(row)))
            yield stream


def _seed_words(seed: int, start: int, stop: int) -> np.ndarray:
    """Row ``j - start`` is ``SeedSequence([seed, j]).generate_state(4, np.uint64)``.

    numpy's algorithm, run on all stream ids at once: the entropy is the
    seed's 32-bit words then the stream id's, hashed into a pool of four
    words, each word mixed into every other, and the pool hashed out into
    eight words, read in pairs as little-endian uint64.  numpy hashes a
    zero word into each pool slot past the entropy, so the stream id's high
    word, 0 below 2^32, and the zeros appended here change nothing.  Words
    sit in uint64 lanes and every product of two words is masked back to
    32 bits, so nothing overflows.
    """
    j = np.arange(start, stop, dtype=np.uint64)
    entropy = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else []) + [j & _MASK32, j >> 32]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool_hash = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, pool_hash) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], pool_hash))
    out_hash = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], out_hash) for i in range(8)]
    words = np.empty((len(j), 4), dtype=np.uint64)
    for k in range(4):
        words[:, k] = state[2 * k] | state[2 * k + 1] << 32
    return words


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """A hash constant before and after each step of numpy's ``hashmix``."""
    h = init
    while True:
        after = h * mult & _MASK32
        yield h, after
        h = after


def _hashmix(value, constants: Iterator[tuple[int, int]]):
    before, after = next(constants)
    value = (value ^ before) * after & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (x * _MIX_MULT_L & _MASK32) + (y * _MIX_MULT_NEG_R & _MASK32) & _MASK32
    return result ^ result >> 16


@cache
def _pcg64_types():
    """numpy's ``Generator`` and ``PCG64``, and ``SeedWords``, a PCG64 seed
    sequence that hands over words already derived.  Deferred to the first
    run: numpy imports ``numpy.random`` lazily, and importing the CLI need
    not load it.  ``SeedWords`` subclasses ``ISeedSequence`` rather than
    being registered with it: the ABC check in every ``PCG64(...)`` caches
    a subclass but looks a registered class up each time."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"holds PCG64's 4 uint64 words, not {n_words} of {dtype!r}")
            return self.words

    return np.random.Generator, np.random.PCG64, SeedWords
