"""Seeded Monte Carlo estimation of expected posterior functionals.

Replicate ``j`` draws its data from the uniform stream keyed by
``(seed, j)``, so estimates are bitwise reproducible; a run derives the
seed words of all its streams in one pass.  A posterior depends
on the data only through its sufficient statistic, so replicates that draw
an equal statistic share one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReplicateError
from .functionals import Functional, evaluate
from .models import LikelihoodFamily, posterior, suffstat_sampler
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

    A replicate whose total an earlier one drew copies that replicate's
    values, which are the same deterministic function of the same
    statistic, so the estimates are bit-identical to evaluating every
    replicate.  Poisson and Bernoulli totals are integers and repeat often;
    continuous totals practically never do.  The first replicate to
    fail raises ``ReplicateError`` carrying what replays it.
    """
    _check_counts(n, m)
    if not functionals:
        raise DomainError("at least one functional is required")

    first_by_total = {}  # total -> first replicate that drew it
    values = np.empty((len(functionals), m))
    draw = None
    for j, rng in enumerate(SeededGenerator.streams(seed, m)):
        stat = functional = None
        try:
            if draw is None:  # checks theta0 and n once, as replicate 0's draw
                draw = suffstat_sampler(family, theta0, n)
            stat = draw(rng)
            first = first_by_total.setdefault(stat.s, j)
            if first != j:
                values[:, j] = values[:, first]
                continue
            post = posterior(family, prior, stat)
            for i, functional in enumerate(functionals):
                values[i, j] = evaluate(functional, post)
        except Exception as exc:
            raise ReplicateError(j, exc, seed=seed, stream_id=j, family=family, prior=prior,
                                 stat=stat, functional=functional) from exc

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
