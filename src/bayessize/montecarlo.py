"""Seeded Monte Carlo estimation of expected posterior functionals.

Replicate ``j`` draws its data from the uniform stream keyed by
``(seed, j)``, so estimates are bitwise reproducible; a run derives the
seed words of all its streams in one pass.  A posterior depends
on the data only through its sufficient statistic, so the statistic and
its posterior are built and the functionals evaluated once per distinct
total drawn, and one gather gives every replicate its total's values.

On Linux a run of ``m`` replicates is split into contiguous ranges of
replicate indices, one per process: ``min(usable CPUs, m // 500)``
processes, or one.  The calling process runs the first range and one
``os.fork()``ed child runs each other range, writing its columns of the
values table into shared memory.  Every value is the same function of its
replicate's stream in whichever process computes it, so the estimates are
bit-identical for any split.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReplicateError
from .functionals import Functional, evaluate
from .models import LikelihoodFamily, SufficientStat, posterior, suffstat_sampler
from .randomness import SeededGenerator

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


def _check_counts(n: int, m: int):
    # The seed is checked by SeededGenerator.streams, before the first replicate.
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 2:
        raise DomainError(f"replicate count must be an integer >= 2, got {m!r}")


# Fewest replicates a process is given: a fork costs about as much as 500
# replicates of the cheapest family.
_MIN_PER_PROCESS = 500


def _process_count(m: int) -> int:
    """Processes a run of ``m`` replicates is split over: one per usable CPU,
    each with at least ``_MIN_PER_PROCESS`` replicates, and one off Linux."""
    if sys.platform != "linux" or not hasattr(os, "fork"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), m // _MIN_PER_PROCESS))


def _shared_table(shape: tuple[int, int]) -> np.ndarray:
    """A float table in anonymous shared memory, written by forked children."""
    import mmap  # only a split run needs it

    return np.frombuffer(mmap.mmap(-1, shape[0] * shape[1] * 8), dtype=np.float64).reshape(shape)


def _fill_ranges(fill, bounds: list[int]) -> None:
    """``fill(lo, hi)`` on each range ``bounds[k]:bounds[k + 1]``: the first
    here, each other in a forked child that leaves with ``os._exit``.

    Every child is reaped before this returns or raises, and killed first
    if this raises.  A range whose child could not be forked or did not
    exit 0 is then redone here, in order, so its first failing replicate
    raises here as it would in a serial run.
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

    Replicate ``j`` draws a sufficient statistic with stream ``(seed, j)``,
    forms the posterior once, and evaluates every requested functional on
    it.  The estimates therefore agree exactly with separate
    :func:`simulate_g` calls at the same seed, while sharing the per
    replicate sampling and posterior construction.

    Each replicate draws its raw total and looks it up first: only the
    first replicate to draw a total builds its ``SufficientStat`` and
    posterior and evaluates the functionals; a later one records that
    replicate's index.  One gather over those indices then fills every
    replicate's values, which are the same deterministic function of the
    same statistic, so the estimates are bit-identical to evaluating every
    replicate.  Poisson and Bernoulli totals are integers and repeat often;
    continuous totals practically never do.  The first replicate to fail
    raises ``ReplicateError`` carrying what replays it.

    The lookup and gather run per range of replicate indices.  With
    several processes (see the module docstring) the sampler, which checks
    ``theta0`` and ``n`` as replicate 0, is built before any fork, and
    every child is reaped before this returns or raises.  A range whose
    child failed is redone in this process, so the first failing
    replicate raises the same ``ReplicateError`` as a serial run.
    """
    _check_counts(n, m)
    if not functionals:
        raise DomainError("at least one functional is required")
    processes = _process_count(m)
    bounds = [m * k // processes for k in range(processes + 1)]
    first_streams = SeededGenerator.streams(seed, bounds[1])  # checks the seed before any fork
    try:  # checks theta0 and n once, as replicate 0's draw
        draw = suffstat_sampler(family, theta0, n)
    except Exception as exc:
        raise ReplicateError(0, exc, seed=seed, stream_id=0, family=family, prior=prior,
                             stat=None, functional=None) from exc
    values = (np.empty if processes == 1 else _shared_table)((len(functionals), m))

    def fill(lo: int, hi: int) -> None:
        """Columns ``lo:hi`` of ``values``: replicates ``lo`` to ``hi - 1``."""
        streams = first_streams if lo == 0 else SeededGenerator.streams(seed, hi, lo)
        first_by_total = {}  # total -> first replicate that drew it
        firsts = []  # replicate j -> first replicate that drew j's total
        for j, rng in enumerate(streams, lo):
            stat = functional = None
            try:
                total = draw(rng)
                first = first_by_total.setdefault(total, j)
                firsts.append(first)
                if first != j:
                    continue
                stat = SufficientStat(n, total)
                post = posterior(family, prior, stat)
                for i, functional in enumerate(functionals):
                    values[i, j] = evaluate(functional, post)
            except Exception as exc:
                raise ReplicateError(j, exc, seed=seed, stream_id=j, family=family,
                                     prior=prior, stat=stat, functional=functional) from exc
        values[:, lo:hi] = values[:, firsts]

    _fill_ranges(fill, bounds)

    out = []
    for i in range(len(functionals)):
        row = values[i]
        mean = float(row.mean())
        std_err = float(row.std(ddof=1) / math.sqrt(m))
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
