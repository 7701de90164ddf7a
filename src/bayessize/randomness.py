"""Seeded uniform streams and the deviate transforms built on them.

Determinism contract: a stream is fully identified by ``(seed,
stream_id)`` and is numpy's ``default_rng([seed, stream_id])``, and every
deviate is a fixed transform of uniforms drawn in a fixed order.  Two runs
with the same keys therefore produce bitwise identical draws regardless of
platform, process count, or call site.

``SeededGenerator.streams(seed, m)`` builds the streams ``(seed, 0)`` to
``(seed, m - 1)`` of a Monte Carlo run without a ``SeedSequence`` each:
numpy's seed-sequence hash (``numpy/random/bit_generator.pyx``) runs once
over all ``m`` stream ids as uint64 lanes, and each stream's PCG64 is
seeded with its four words.  ``test_batch_streams_are_default_rng_draw_for_draw``
checks the streams against ``default_rng`` bit for bit.

A Poisson deviate costs O(1) at any mean: chop-down inversion below a
mean of 10 (one uniform), PTRS transformed rejection from 10 up (two
uniforms per trial; 1.3 trials per draw at a mean of 10, 1.13 at 1e6).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import cache

import numpy as np

from .errors import DomainError

__all__ = [
    "SeededGenerator",
    "normal_deviate",
    "poisson_deviate",
]

# PTRS's constants are fitted for means of 10 and above; below, the
# inversion walk takes about ``mean`` steps and is as cheap.
_PTRS_MIN_MEAN = 10.0
_LOG_2PI = math.log(2.0 * math.pi)

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool's
# hash, the output hash and the pool mix, in 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_NEG_R = -0x4973F715 & _MASK32  # -MIX_MULT_R mod 2^32: no word goes negative
_POOL_SIZE = 4


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")


class SeededGenerator:
    """Uniform(0, 1) stream keyed by a seed and a stream id.

    Distinct ``(seed, stream_id)`` pairs give statistically independent
    streams; equal pairs give identical streams.  Replicate ``j`` of a
    simulation conventionally uses ``stream_id=j``.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        _check_seed(seed)
        if not isinstance(stream_id, int) or isinstance(stream_id, bool) or stream_id < 0:
            raise DomainError(f"stream_id must be a nonnegative integer, got {stream_id!r}")
        self.seed = seed
        self.stream_id = stream_id
        self._rng = np.random.default_rng([seed, stream_id])

    @classmethod
    def streams(cls, seed: int, m: int) -> Iterator[SeededGenerator]:
        """The streams ``(seed, 0)`` to ``(seed, m - 1)``, in order.

        Each equals ``SeededGenerator(seed, j)`` draw for draw; the seed
        words of all ``m`` come from one pass of :func:`_seed_words`.  One
        stream is built per step, so only the caller's streams stay alive.
        """
        _check_seed(seed)
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise DomainError(f"stream count must be a nonnegative integer, got {m!r}")
        return cls._from_words(seed, _seed_words(seed, m))

    @classmethod
    def _from_words(cls, seed: int, words: np.ndarray) -> Iterator[SeededGenerator]:
        generator, pcg64, seed_words = _pcg64_types()
        for j, row in enumerate(words):
            stream = cls.__new__(cls)
            stream.seed, stream.stream_id = seed, j
            stream._rng = generator(pcg64(seed_words(row)))
            yield stream

    def uniform(self) -> float:
        """One draw from Uniform[0, 1)."""
        return float(self._rng.random())

    def uniforms(self, count: int) -> np.ndarray:
        """``count`` draws from Uniform[0, 1), in stream order."""
        if count < 0:
            raise DomainError(f"count must be nonnegative, got {count!r}")
        return self._rng.random(count)


def _seed_words(seed: int, m: int) -> np.ndarray:
    """Row ``j`` is ``SeedSequence([seed, j]).generate_state(4, np.uint64)``.

    numpy's algorithm, run on all stream ids at once: the entropy is the
    seed's 32-bit words then the stream id's, hashed into a pool of four
    words, each word mixed into every other, and the pool hashed out into
    eight words, read in pairs as little-endian uint64.  numpy hashes a
    zero word into each pool slot past the entropy, so the stream id's high
    word, 0 below 2^32, and the zeros appended here change nothing.  Words
    sit in uint64 lanes and every product of two words is masked back to
    32 bits, so nothing overflows.
    """
    j = np.arange(m, dtype=np.uint64)
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
    words = np.empty((m, 4), dtype=np.uint64)
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


def normal_deviate(rng) -> float:
    """Standard normal draw via the polar form of two uniforms.

    Consumes exactly two uniforms; the sine partner of the Box-Muller
    pair is discarded to keep the per-draw uniform count fixed.
    """
    u1 = rng.uniform()
    u2 = rng.uniform()
    r = math.sqrt(-2.0 * math.log1p(-u1))
    return r * math.cos(2.0 * math.pi * u2)


def poisson_deviate(rng, mean: float) -> int:
    """Poisson draw: chop-down inversion of the CDF below a mean of 10,
    Hoermann's PTRS (transformed rejection with squeeze) from 10 up.
    """
    if not (isinstance(mean, (int, float)) and math.isfinite(mean)) or mean <= 0.0:
        raise DomainError(f"mean must be a positive finite number, got {mean!r}")
    if mean >= _PTRS_MIN_MEAN:
        return _poisson_ptrs(rng, mean)
    u = rng.uniform()
    k = 0
    pk = math.exp(-mean)
    acc = pk
    while u >= acc:
        k += 1
        pk *= mean / k
        acc += pk
        if k > 100_000_000:  # unreachable for admissible means; guards fp pathologies
            raise DomainError(f"Poisson inversion failed to terminate for mean {mean!r}")
    return k


def _poisson_ptrs(rng, mean: float) -> int:
    # W. Hoermann, "The transformed rejection method for generating Poisson
    # random variables", Insurance: Mathematics and Economics 12 (1993),
    # algorithm PTRS.
    b = 0.931 + 2.53 * math.sqrt(mean)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.uniform() - 0.5
        v = 1.0 - rng.uniform()  # in (0, 1], so log(v) is finite
        us = 0.5 - abs(u)
        # The hat's thin edges; also rejects us = 0 (u = -1/2) before it divides.
        if us < 0.013 and v > us:
            continue
        k = math.floor((2.0 * a / us + b) * u + mean + 0.43)
        if us >= 0.07 and v <= v_r:  # the squeeze: accepted without the pmf
            return k
        if k >= 0 and (
            math.log(v) + log_inv_alpha - math.log(a / (us * us) + b)
            <= _poisson_log_pmf(k, mean)
        ):
            return k


def _poisson_log_pmf(k: int, mean: float) -> float:
    """``log P(K = k)`` for ``K ~ Poisson(mean)``.

    From k = 30 up, in the saddle-point form of C. Loader (2000), "Fast and
    accurate computation of binomial probabilities": Stirling's series for
    ``log k!`` and the deviance ``k log(k / mean) - (k - mean)`` through
    ``log1p``.  Its error stays near 1e-16 |k - mean|; the direct form's
    grows like ``mean`` 1e-16, 1e-3 at a mean of 1e12.
    """
    if k < 30:
        return k * math.log(mean) - mean - math.lgamma(k + 1)
    d = k - mean
    k2 = float(k) * k
    stirling = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * k2)) / k2) / k
    return -0.5 * (_LOG_2PI + math.log(k)) - stirling - (k * math.log1p(d / mean) - d)
