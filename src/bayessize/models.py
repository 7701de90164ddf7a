"""Likelihood families, priors, sufficient statistics and posteriors.

Four one-parameter observation models are supported: normal with known
variance, Poisson, Bernoulli, and exponential parameterised by its rate.
The first three pair with their conjugate priors and yield closed-form
posterior families; the exponential-rate model pairs with a beta prior
restricted to rates in (0, 1].

Simulated data enter only through the sufficient statistic, and each
family's statistic has a one-deviate exact law that numpy's ``Generator``
samples in O(1) at any ``n``: a normal mean, or a Poisson, binomial or
gamma total.  :func:`suffstat_sampler` draws a run's statistics with one
generator call, and :func:`sample_suffstat` replays one of them.

The normal posterior is scalar Python.  The gamma, beta and
exponential-rate posteriors are blocks of rows of :mod:`bayessize.blocks`,
which :func:`block_posterior` imports, numpy with it, on the first block
built, so that sizing and closed-form evaluation never load numpy.  All
numeric posterior summaries resolve to 1e-8 in probability or better
unless documented otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

from .errors import (
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    check_fields,
    finite,
    integer,
    open_unit,
    positive,
)
from .specfun import std_normal_cdf, std_normal_quantile

if TYPE_CHECKING:
    import numpy as np

    from .blocks import BetaPosterior, GammaPosterior, RatePosterior

__all__ = [
    "NormalKnownVariance",
    "Poisson",
    "Bernoulli",
    "ExponentialRate",
    "LikelihoodFamily",
    "NormalPrior",
    "GammaPrior",
    "BetaPrior",
    "SufficientStat",
    "NormalPosterior",
    "HpdInterval",
    "GRID_NODES",
    "param_bounds",
    "in_domain",
    "fisher_info",
    "inf_weighted_info",
    "sample_suffstat",
    "suffstat_sampler",
    "posterior",
    "block_posterior",
    "check_rate_prior",
    "normal_posterior_variance",
]

# The node count of the fixed rate grid that ``RatePosterior`` replaced.  No
# posterior uses it; it stays only as the benchmark's HPD-width tolerance,
# 2 / GRID_NODES of mass.
GRID_NODES = 4096


# ---------------------------------------------------------------------------
# Likelihood families


@dataclass(frozen=True)
class NormalKnownVariance:
    """Normal observations with known variance ``sigma2``; mean unknown."""

    sigma2: float

    def __post_init__(self):
        check_fields(self, sigma2=positive)


@dataclass(frozen=True)
class Poisson:
    """Poisson counts with unknown positive mean."""


@dataclass(frozen=True)
class Bernoulli:
    """Bernoulli trials with unknown success probability in (0, 1)."""


@dataclass(frozen=True)
class ExponentialRate:
    """Exponential waiting times with unknown rate, density ``r exp(-r x)``."""


LikelihoodFamily = Union[NormalKnownVariance, Poisson, Bernoulli, ExponentialRate]


def param_bounds(family: LikelihoodFamily) -> tuple[float, float]:
    """Open interval of admissible parameter values for ``family``."""
    if isinstance(family, NormalKnownVariance):
        return (-math.inf, math.inf)
    if isinstance(family, (Poisson, ExponentialRate)):
        return (0.0, math.inf)
    if isinstance(family, Bernoulli):
        return (0.0, 1.0)
    raise ConfigurationError(f"unknown likelihood family {family!r}")


def in_domain(family: LikelihoodFamily, theta: float) -> bool:
    """Whether ``theta`` is a number a float can hold, strictly inside the
    family's parameter domain."""
    # NaN fails the comparison, and so does an integer such as 10**400
    if not isinstance(theta, (int, float)) or not abs(theta) <= sys.float_info.max:
        return False
    lo, hi = param_bounds(family)
    return lo < theta < hi


def _check_in_domain(family: LikelihoodFamily, name: str, theta: float) -> None:
    if not in_domain(family, theta):
        if isinstance(theta, int):
            finite(name, theta)  # refuses an integer no float can hold by name
        raise DomainError(f"{name} {theta!r} lies outside the domain of {family!r}")


def fisher_info(family: LikelihoodFamily, theta: float) -> float:
    """Per-observation Fisher information at ``theta``, refused where it
    overflows or underflows a float."""
    _check_in_domain(family, "theta", theta)
    if isinstance(family, NormalKnownVariance):
        scale = family.sigma2
    elif isinstance(family, Poisson):
        scale = theta
    elif isinstance(family, Bernoulli):
        scale = theta * (1.0 - theta)
    else:
        scale = theta * theta  # underflows to 0 below about 2e-162
    info = 1.0 / scale if scale else math.inf
    if not 0.0 < info < math.inf:
        raise DomainError(
            f"the Fisher information of {family!r} at theta {theta!r} is {info!r} as a float"
        )
    return info


def _stationary_points(family: LikelihoodFamily, theta1: float | None) -> tuple[float, ...]:
    """Where the target of ``inf_weighted_info`` has zero slope inside the
    family's domain, if anywhere.

    Unweighted, only the Bernoulli information ``1 / (t (1 - t))`` turns,
    at 1/2.  Weighted by ``(theta1 - t)^2``, the Poisson target has slope
    ``(t - theta1)(t + theta1) / t^2`` and the Bernoulli one turns at
    ``theta1 / (2 theta1 - 1)``; the normal target falls towards
    ``theta1`` and the exponential one, ``(theta1 / t - 1)^2``, turns only
    at ``theta1``, which never lies in the range.
    """
    if theta1 is None:
        return (0.5,) if isinstance(family, Bernoulli) else ()
    if isinstance(family, Poisson):
        return (-theta1,)
    if isinstance(family, Bernoulli) and theta1 != 0.5:
        return (theta1 / (2.0 * theta1 - 1.0),)
    return ()


def inf_weighted_info(
    family: LikelihoodFamily,
    lo: float,
    hi: float,
    theta1: float | None = None,
) -> float:
    """Infimum of the (optionally weighted) information over ``[lo, hi]``.

    Without ``theta1`` the target is the Fisher information itself; with
    ``theta1`` it is ``(theta1 - theta)^2 * info(theta)``, the quantity
    that governs separation criteria.  The target is smooth on the range,
    so its infimum is its least value at ``lo``, at ``hi`` or at one of
    the family's stationary points inside the range, all in closed form.

    Raises ``CriterionUnsatisfiableError`` when the infimum is zero,
    which happens exactly when ``theta1`` lies inside the planning range,
    and ``DomainError`` when it exceeds the largest float.
    """
    lo, hi = finite("lo", lo), finite("hi", hi)
    if not lo < hi:
        raise DomainError(f"planning range must satisfy lo < hi, got [{lo}, {hi}]")
    if not (in_domain(family, lo) and in_domain(family, hi)):
        raise DomainError(
            f"planning range [{lo}, {hi}] must sit inside the domain of {family!r}"
        )
    if theta1 is not None:
        theta1 = finite("theta1", theta1)
        if lo <= theta1 <= hi:
            raise CriterionUnsatisfiableError(
                f"alternative {theta1!r} lies inside the planning range; the "
                "weighted information infimum is zero there",
                theta=theta1,
            )

    def target(t: float) -> float:
        if theta1 is None:
            return fisher_info(family, t)
        gap = theta1 - t
        return fisher_info(family, t) * (gap * gap)

    inside = [t for t in _stationary_points(family, theta1) if lo < t < hi]
    inf_val, inf_at = min((target(t), t) for t in (lo, hi, *inside))
    if inf_val == math.inf:  # (theta1 - t)^2 overflowed
        raise DomainError(
            f"weighted information at theta {inf_at!r} exceeds the largest float"
        )
    if not inf_val > 0.0:
        raise CriterionUnsatisfiableError(
            f"information infimum is not positive over [{lo}, {hi}] "
            f"(value {inf_val!r} near theta {inf_at!r})",
            theta=inf_at,
        )
    return inf_val


# ---------------------------------------------------------------------------
# Priors and sufficient statistics


@dataclass(frozen=True)
class NormalPrior:
    """Normal prior with mean ``mu0`` and variance ``tau2``."""

    mu0: float
    tau2: float

    def __post_init__(self):
        check_fields(self, mu0=finite, tau2=positive)


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior with hyperparameters ``(a, b)``.

    The density is proportional to ``theta^(b-1) * exp(-a * theta)``, so
    ``b`` plays the shape role and ``a`` the rate role, and the prior
    mean is ``b / a``.  A Poisson sample of size ``n`` with total count
    ``s`` updates ``(a, b)`` to ``(a + n, b + s)``.
    """

    a: float
    b: float

    def __post_init__(self):
        check_fields(self, a=positive, b=positive)


@dataclass(frozen=True)
class BetaPrior:
    """Beta prior with the usual shape pair ``(a, b)``; mean ``a / (a + b)``."""

    a: float
    b: float

    def __post_init__(self):
        check_fields(self, a=positive, b=positive)


@dataclass(frozen=True)
class SufficientStat:
    """Sample size ``n`` and the statistic ``s`` it produced.

    ``s`` is the sample mean for the normal family and the sample sum for
    the count and waiting-time families.
    """

    n: int
    s: float

    def __post_init__(self):
        check_fields(self, n=integer, s=finite)


def sample_suffstat(
    family: LikelihoodFamily, theta0: float, n: int, rng
) -> SufficientStat:
    """Replicate ``rng.stream_id``'s sufficient statistic for ``n``
    observations at ``theta0`` in the run seeded ``rng.seed``.

    ``rng`` is a :class:`bayessize.randomness.SeededGenerator`.  The
    statistic is element ``stream_id`` of the run's one draw from its
    exact law, made by :func:`suffstat_sampler` on ``default_rng(seed)``:
    the normal mean ``theta0 + sd * Z``, the Poisson total
    Poisson(``n * theta0``), the Bernoulli total Binomial(``n``,
    ``theta0``) and the exponential sum Gamma(``n``) / ``theta0``.
    """
    return SufficientStat(n, rng.replay(suffstat_sampler(family, theta0, n)))


# numpy's limits: ``Generator.poisson`` refuses a mean above
# ``iinfo(int64).max - 10 sqrt(iinfo(int64).max)`` and ``binomial`` an
# ``n`` that does not fit in an int64.
_POISSON_MAX_MEAN = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)
_BINOMIAL_MAX_N = 2**63 - 1
# The normal, Poisson and exponential draws use ``n`` as a float.
_FLOAT_MAX_N = int(sys.float_info.max)


def suffstat_sampler(
    family: LikelihoodFamily, theta0: float, n: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """``draw(generator, size)``: ``size`` statistics of ``n`` observations
    at ``theta0``, one call of one ``generator`` sampler, with ``n`` and
    ``theta0`` checked once for every draw it makes.  ``SufficientStat(n,
    s)`` checks each statistic ``s`` itself."""
    integer("n", n)
    _check_in_domain(family, "theta0", theta0)
    if n > _FLOAT_MAX_N and not isinstance(family, Bernoulli):
        raise DomainError(f"sample size {n!r} exceeds the largest float {_FLOAT_MAX_N:.17g}")

    if isinstance(family, NormalKnownVariance):
        sd = math.sqrt(family.sigma2 / n)
        return lambda generator, size: theta0 + sd * generator.standard_normal(size)
    if isinstance(family, Poisson):
        mean = n * theta0
        if mean > _POISSON_MAX_MEAN:
            raise DomainError(
                f"Poisson mean n * theta0 = {mean!r} exceeds numpy's limit {_POISSON_MAX_MEAN!r}"
            )
        return lambda generator, size: generator.poisson(mean, size)
    if isinstance(family, Bernoulli):
        if n > _BINOMIAL_MAX_N:
            raise DomainError(
                f"Bernoulli sample size {n!r} exceeds numpy's binomial limit {_BINOMIAL_MAX_N!r}"
            )
        return lambda generator, size: generator.binomial(n, theta0, size)
    return lambda generator, size: generator.standard_gamma(n, size) / theta0


# ---------------------------------------------------------------------------
# Highest-density intervals


@dataclass(frozen=True)
class HpdInterval:
    """A highest-density interval and the posterior mass it captures."""

    lo: float
    hi: float
    mass: float


# ---------------------------------------------------------------------------
# Posterior families


@dataclass(frozen=True)
class NormalPosterior:
    """Normal posterior with the given mean and variance."""

    mean_value: float
    variance_value: float

    def __post_init__(self):
        check_fields(self, mean_value=finite, variance_value=positive)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance_value)

    def mean(self) -> float:
        return self.mean_value

    def variance(self) -> float:
        return self.variance_value

    def quantile(self, alpha: float) -> float:
        return self.mean_value + self.sd * std_normal_quantile(open_unit("alpha", alpha))

    def equal_tails(self, alpha: float) -> tuple[float, float]:
        return self.quantile(alpha), self.quantile(1.0 - alpha)

    def cdf(self, x: float) -> float:
        if math.isnan(x):
            raise DomainError("x must not be NaN")
        z = (x - self.mean_value) / self.sd  # infinite where x is, or past the floats
        return (1.0 if z > 0 else 0.0) if math.isinf(z) else std_normal_cdf(z)

    def interval_mass(self, lo: float, hi: float) -> float:
        if not lo <= hi:
            raise DomainError(f"interval must satisfy lo <= hi, got [{lo}, {hi}]")
        return max(self.cdf(hi) - self.cdf(lo), 0.0)

    def hpd(self, level: float) -> HpdInterval:
        level = open_unit("level", level)
        half = self.sd * std_normal_quantile(0.5 * (1.0 + level))
        return HpdInterval(self.mean_value - half, self.mean_value + half, level)


Posterior = Union[NormalPosterior, "GammaPosterior", "BetaPosterior", "RatePosterior"]


# ---------------------------------------------------------------------------
# Conjugate updating


def check_rate_prior(prior) -> None:
    """Refuse ``prior`` unless it is a beta prior with ``b >= 1``: the rule
    of every rate posterior, checked by :func:`block_posterior`."""
    if not isinstance(prior, BetaPrior):
        raise ConfigurationError(f"the rate posterior needs a beta prior, got {prior!r}")
    if prior.b < 1.0:
        raise ConfigurationError(
            "rates on (0, 1] with beta prior need b >= 1; the posterior "
            "density is unbounded at 1 otherwise"
        )


def normal_posterior_variance(sigma2: float, tau2: float, n: float) -> float:
    """Posterior variance of a normal mean after ``n`` draws of variance
    ``sigma2`` under a prior of variance ``tau2``, refused unless a positive
    float (inf, NaN or 0 where ``n * tau2`` overflows)."""
    return positive("posterior variance", sigma2 * tau2 / (n * tau2 + sigma2))


def block_posterior(family: LikelihoodFamily, prior, n: int, totals):
    """The posteriors of ``n`` Poisson, Bernoulli or exponential-rate
    observations with ``totals`` (a float, or a 1-d array of rows): a
    block of gamma, beta or rate posteriors under a gamma or beta
    ``prior``, one row per total.  Anything else raises
    ``ConfigurationError``."""
    import numpy as np  # with the block posteriors, on the first block built

    from .blocks import BetaPosterior, GammaPosterior, RatePosterior

    s = np.asarray(totals, dtype=float)
    if isinstance(family, Poisson) and isinstance(prior, GammaPrior):
        bad = ~((s >= 0.0) & (s == np.floor(s)))
        if bad.any():
            raise DomainError(f"Poisson total must be a nonnegative integer, got "
                              f"{float(s[bad].flat[0])!r}")
        return GammaPosterior(shape=prior.b + totals, rate=prior.a + n)
    if isinstance(family, Bernoulli) and isinstance(prior, BetaPrior):
        bad = ~((s >= 0.0) & (s <= n) & (s == np.floor(s)))
        if bad.any():
            raise DomainError(f"Bernoulli total must be an integer in [0, n], got "
                              f"{float(s[bad].flat[0])!r}")
        return BetaPosterior(prior.a + totals, prior.b + (n - totals))
    if isinstance(family, ExponentialRate) and isinstance(prior, BetaPrior):
        check_rate_prior(prior)
        bad = ~(s > 0.0)  # NaN too
        if bad.any():
            raise DomainError(f"exponential total must be positive, got {float(s[bad].flat[0])!r}")
        return RatePosterior(prior.a + n, prior.b, s)
    raise ConfigurationError(f"no conjugate update for family {family!r} with prior {prior!r}")


def posterior(family: LikelihoodFamily, prior, stat: SufficientStat) -> Posterior:
    """Posterior for ``family`` under ``prior`` given a sufficient statistic.

    Supported pairs: normal/normal, and Poisson/gamma, Bernoulli/beta and
    exponential-rate/beta (rates restricted to (0, 1]), each a block of
    one row built from a float (see :func:`block_posterior`).  Anything
    else raises ``ConfigurationError``.
    """
    if isinstance(family, NormalKnownVariance) and isinstance(prior, NormalPrior):
        c = family.sigma2 / (stat.n * prior.tau2)
        mean = (stat.s + c * prior.mu0) / (1.0 + c)
        return NormalPosterior(mean, normal_posterior_variance(family.sigma2, prior.tau2, stat.n))
    return block_posterior(family, prior, stat.n, stat.s)
