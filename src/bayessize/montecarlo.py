"""Seeded Monte Carlo estimation of expected posterior functionals.

A run of ``m`` replicates at ``seed`` draws all its sufficient statistics
with one sampler call on ``default_rng(seed)``, replicate ``j``'s being
element ``j`` (see :mod:`bayessize.randomness`), so estimates are bitwise
reproducible.  A posterior depends on the data only through its
sufficient statistic, so the functionals are evaluated once per distinct
total drawn, in order of first draw, and one gather gives every replicate
its total's values.  Exponential-rate totals are evaluated a block of
``RATE_BLOCK_ROWS`` rows at a time (see
:class:`bayessize.models.RatePosterior`), Poisson and Bernoulli totals a
block of ``_COUNT_BLOCK_ROWS`` gamma or beta posteriors at a time, and
normal totals one at a time.

On Linux the ``k`` distinct totals of a run are split into contiguous
runs of whole blocks, one per process: ``min(usable CPUs, k // 500)``
processes, or one.  The calling process evaluates the first run and one
``os.fork()``ed child each other run, writing its columns of the values
table into shared memory.  Every value is the same function of its total
in whichever process and block computes it, so the estimates are
bit-identical for any split.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReplicateError, integer
from .functionals import Functional, evaluate
from .models import (
    RATE_BLOCK_ROWS,
    Bernoulli,
    ExponentialRate,
    LikelihoodFamily,
    Poisson,
    SufficientStat,
    count_posterior,
    posterior,
    rate_posterior,
    suffstat_sampler,
)
from .randomness import SeededGenerator, run_generator

__all__ = [
    "SeededGenerator",
    "MonteCarloEstimate",
    "simulate_g",
    "simulate_many",
]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo mean with its standard error and the run that produced it."""

    mean: float
    std_err: float
    replicates: int
    seed: int


# Fewest distinct totals a process is given, so that a fork pays for itself.
# With a credible length at n = 1e4, one rate total cost 14-15 us in blocks of
# 127, one Bernoulli total 43-45 us and one Poisson total 53-56 us in blocks of
# 256, and a bare fork, exit and wait about 2 ms (2-core VM).
_MIN_PER_PROCESS = 500
_COUNT_BLOCK_ROWS = 256  # Poisson or Bernoulli totals in one block of posteriors


def _process_count(k: int) -> int:
    """Processes ``k`` distinct totals are split over: one per usable CPU,
    each with at least ``_MIN_PER_PROCESS`` totals, and one off Linux."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), k // _MIN_PER_PROCESS))


def _shared_table(shape: tuple[int, int]) -> np.ndarray:
    """A float table in anonymous shared memory, written by forked children."""
    import mmap  # only a split run needs it

    return np.frombuffer(mmap.mmap(-1, shape[0] * shape[1] * 8), dtype=np.float64).reshape(shape)


def _fill_ranges(fill, bounds: list[int]) -> None:
    """``fill(lo, hi)`` on each range ``bounds[k]:bounds[k + 1]``: the first
    here, each other in a forked child that leaves with ``os._exit``.

    Every child is reaped before this returns or raises, and killed first
    if this raises.  A range whose child could not be forked or did not
    exit 0 is then redone here, in order, so its first failure raises here
    as it would in a serial run.
    """
    children = []  # (pid or None, lo, hi)
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the range is redone here
                pid = None
            if pid == 0:
                status = 1
                try:
                    fill(lo, hi)
                    status = 0
                finally:
                    os._exit(status)
            children.append((pid, lo, hi))
        fill(bounds[0], bounds[1])
    except BaseException:
        import signal

        for pid, _, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        redo = [(lo, hi) for pid, lo, hi in children
                if pid is None or os.waitpid(pid, 0)[1] != 0]
    for lo, hi in redo:
        fill(lo, hi)


def simulate_many(
    family: LikelihoodFamily,
    prior,
    theta0: float,
    n: int,
    m: int,
    functionals: list[Functional],
    seed: int,
) -> list[MonteCarloEstimate]:
    """Estimate several expected functionals from one set of replicates.

    Replicate ``j``'s sufficient statistic is element ``j`` of one draw of
    ``m`` on ``default_rng(seed)``; its posterior is formed once, and every
    requested functional evaluated on it.  The estimates therefore agree
    exactly with separate :func:`simulate_g` calls at the same seed, while
    sharing the sampling and posterior construction.

    A dict finds the distinct totals drawn, in order of first draw, and
    every replicate's column.  Each distinct total is a row of a block of
    posteriors (one ``SufficientStat`` and posterior for the normal
    family), whose functionals are evaluated once; one gather then fills
    every replicate's values, which are the same deterministic function
    of the same statistic in any block, so the estimates are bit-identical
    to evaluating every replicate.
    Poisson and Bernoulli totals are integers and repeat often; continuous
    totals practically never do.  The first replicate to fail raises
    ``ReplicateError`` carrying what replays it: a block that fails is
    redone one posterior at a time, each the block's row bit for bit.

    With several processes (see the module docstring) the sampler, which
    checks ``theta0`` and ``n`` as replicate 0, and the draw run before any
    fork, and every child is reaped before this returns or raises.  A
    run of blocks whose child failed is redone in this process, so the
    first failing replicate raises the same ``ReplicateError`` as a serial
    run.
    """
    integer("n", n)
    integer("m", m, 2)
    if not functionals:
        raise DomainError("at least one functional is required")
    generator = run_generator(seed)  # checks the seed
    try:  # checks theta0 and n once, as replicate 0's draw
        draw = suffstat_sampler(family, theta0, n)
    except Exception as exc:
        raise ReplicateError(0, exc, seed=seed, stream_id=0, family=family, prior=prior,
                             stat=None, functional=None) from exc
    drawn = draw(generator, m).tolist()
    column = dict.fromkeys(drawn)  # each distinct total's column, in order of first draw
    for u, total in enumerate(column):
        column[total] = u
    inverse = np.fromiter(map(column.__getitem__, drawn), np.intp, m)
    totals = list(column)
    distinct = np.array(totals)
    processes = _process_count(len(totals))
    values = (np.empty if processes == 1 else _shared_table)((len(functionals), len(totals)))
    rate = isinstance(family, ExponentialRate)
    block = RATE_BLOCK_ROWS if rate else _COUNT_BLOCK_ROWS if isinstance(
        family, (Poisson, Bernoulli)) else 1

    def fill_one(u: int) -> None:
        """Column ``u`` of ``values``, failing as the first replicate that
        drew its total."""
        stat = functional = None
        try:
            stat = SufficientStat(n, totals[u])
            post = posterior(family, prior, stat)
            for i, functional in enumerate(functionals):
                values[i, u] = evaluate(functional, post)
        except Exception as exc:
            j = int(np.argmax(inverse == u))
            raise ReplicateError(j, exc, seed=seed, stream_id=j, family=family,
                                 prior=prior, stat=stat, functional=functional) from exc

    def fill_block(lo: int, hi: int) -> bool:
        """Columns ``lo:hi`` of ``values`` from one block of posteriors;
        False if any of it failed."""
        try:
            post = (rate_posterior(prior, n, distinct[lo:hi]) if rate
                    else count_posterior(family, prior, n, distinct[lo:hi]))
            for i, functional in enumerate(functionals):
                values[i, lo:hi] = evaluate(functional, post)
        except Exception:
            return False
        return True

    def fill(lo: int, hi: int) -> None:
        """The columns ``lo:hi`` of ``values``, a block at a time.  A block
        that fails is redone one total at a time, so its first failing
        total raises as in a serial run."""
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            if block == 1 or not fill_block(start, stop):
                for u in range(start, stop):
                    fill_one(u)

    blocks = -(-len(totals) // block)
    _fill_ranges(fill, [min(block * -(-blocks * k // processes), len(totals))
                        for k in range(processes + 1)])
    values = values[:, inverse]

    out = []
    for functional, row in zip(functionals, values):
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            mean = float(row.mean())
            std_err = float(row.std(ddof=1) / math.sqrt(m))
        if not (math.isfinite(mean) and math.isfinite(std_err)):
            raise DomainError(f"the mean and standard error of {functional!r} over {m} "
                              f"replicates, {mean!r} and {std_err!r}, are not both finite floats")
        out.append(MonteCarloEstimate(mean, std_err, m, seed))
    return out


def simulate_g(
    family: LikelihoodFamily,
    prior,
    theta0: float,
    n: int,
    m: int,
    functional: Functional,
    seed: int,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the expected value of ``functional``.

    Runs ``m`` replicates of size ``n`` at ``theta0`` and averages the
    functional over the realised posteriors.
    """
    return simulate_many(family, prior, theta0, n, m, [functional], seed)[0]
