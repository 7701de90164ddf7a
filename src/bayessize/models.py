"""Likelihood families, priors, sufficient statistics and posteriors.

Four one-parameter observation models are supported: normal with known
variance, Poisson, Bernoulli, and exponential parameterised by its rate.
The first three pair with their conjugate priors and yield closed-form
posterior families; the exponential-rate model pairs with a beta prior
restricted to rates in (0, 1], and each of its posteriors is tabulated on
its own nodes, a block of posteriors at once (:class:`RatePosterior`).

Simulated data enter only through the sufficient statistic, and each
family's statistic has a one-deviate exact law that numpy's ``Generator``
samples in O(1) at any ``n``: a normal mean, or a Poisson, binomial or
gamma total.  :func:`suffstat_sampler` draws a run's statistics with one
generator call, and :func:`sample_suffstat` replays one of them.

The gamma and beta posteriors, like the exponential-rate one, are blocks
of rows, one per shape.  Their CDFs are the regularized incomplete gamma
and beta functions of :mod:`bayessize.specfun`, and their quantiles one
Newton iteration over every row.  The exponential-rate posterior's CDF
and quantiles come from the trapezoid rule on its nodes, certified to
1e-8, but its log density is closed form.  Where bounded, all three
densities are unimodal, and each highest-density interval is one Newton
root in both ends: equal densities and mass ``level`` under the
posterior's own CDF.  A density unbounded at one edge is monotone, and
its interval ends at that edge: ``[0, Q(level)]`` or ``[Q(1 - level), 1]``.

Posterior objects are immutable once constructed and safe to share
across threads.  All numeric posterior summaries (quantiles, interval
masses, highest-density regions) resolve to 1e-8 in probability or
better unless documented otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    UnsupportedShapeError,
    check_fields,
    finite,
    integer,
    open_unit,
    positive,
    positive_rows,
)
from .specfun import (
    beta_i_rows,
    beta_log_norm,
    gamma_log_norm,
    gamma_p_rows,
    std_normal_cdf,
    std_normal_quantile,
)

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
    "GammaPosterior",
    "BetaPosterior",
    "RatePosterior",
    "HpdInterval",
    "GRID_NODES",
    "RATE_BLOCK_ROWS",
    "RATE_TOLERANCE",
    "param_bounds",
    "in_domain",
    "fisher_info",
    "inf_weighted_info",
    "sample_suffstat",
    "suffstat_sampler",
    "posterior",
    "rate_posterior",
    "count_posterior",
    "check_rate_prior",
    "normal_posterior_variance",
]

# The node count of the fixed rate grid that ``RatePosterior`` replaced.  No
# posterior uses it; it stays only as the benchmark's HPD-width tolerance,
# 2 / GRID_NODES of mass.
GRID_NODES = 4096
_TINY = float(np.finfo(float).tiny)


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
        if math.isinf(x):
            return 1.0 if x > 0 else 0.0
        return std_normal_cdf((x - self.mean_value) / self.sd)

    def interval_mass(self, lo: float, hi: float) -> float:
        if not lo <= hi:
            raise DomainError(f"interval must satisfy lo <= hi, got [{lo}, {hi}]")
        z_hi = (hi - self.mean_value) / self.sd
        z_lo = (lo - self.mean_value) / self.sd
        upper = (1.0 if z_hi > 0 else 0.0) if math.isinf(z_hi) else std_normal_cdf(z_hi)
        lower = (1.0 if z_lo > 0 else 0.0) if math.isinf(z_lo) else std_normal_cdf(z_lo)
        return max(upper - lower, 0.0)

    def hpd(self, level: float) -> HpdInterval:
        level = open_unit("level", level)
        half = self.sd * std_normal_quantile(0.5 * (1.0 + level))
        return HpdInterval(self.mean_value - half, self.mean_value + half, level)


def _normal_quantiles(p):
    """:func:`std_normal_quantile` of each of ``p``, a float or an array of
    a few distinct probabilities."""
    if np.ndim(p) == 0:
        return std_normal_quantile(p)
    z = {v: std_normal_quantile(v) for v in set(p.tolist())}
    return np.array([z[v] for v in p.tolist()])


def _log_power(c: np.ndarray, num: np.ndarray, den: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """``c log(num / den)``, through ``log1p(gap / den)`` with ``gap = num -
    den`` formed by the caller where ``num`` is near ``den``, so that it
    keeps its digits; 0 where ``c`` is, a power 0 being 1 at an edge too."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log = np.where(np.abs(gap) < 0.5 * den, np.log1p(gap / den), np.log(num / den))
        return np.where(c == 0.0, 0.0, c * log)


class _NumericPosterior:
    """Gamma or beta posteriors, one row per parameter set: each field a
    float or a 1-d array of rows; the summaries return an array over the
    rows, or a float when every field is a float.  The CDF is the
    incomplete gamma or beta function of :mod:`bayessize.specfun`, one
    series per row, and the log density its prefactor's log; quantiles
    and HPD ends are Newton iterations over every row at once, and a
    row's floats do not depend on its block.  A subclass supplies, for
    ``rows`` at ``x`` inside the support, ``_cdf_parts`` (the CDF and the
    log density), ``_dlog_pdf`` (its first three derivatives) and
    ``_log_ratio`` (``l(x) - l(y)``); ``_guess(rows, p)``, ``_mode``, ``_hi``
    (the support's upper edge or a point past every representable
    quantile) and ``_edge_shapes``, the exponents ``e`` of the density's
    power laws ``x^(e - 1)`` at zero and ``(1 - x)^(e - 1)`` at one (inf for
    the gamma's tail).
    """

    _fields: tuple[str, ...] = ()

    def __post_init__(self):
        values = [positive_rows(name, getattr(self, name)) for name in self._fields]
        rows = np.broadcast_arrays(*(np.atleast_1d(v) for v in values))
        for name, value, row in zip(self._fields, values, rows):
            object.__setattr__(self, name, value)
            object.__setattr__(self, "_" + name, row.copy())
            getattr(self, "_" + name).setflags(write=False)
        object.__setattr__(self, "_scalar", all(np.ndim(v) == 0 for v in values))
        object.__setattr__(self, "_hpd_cache", {})

    def _row(self, i: int) -> str:
        fields = ", ".join(f"{k}={float(getattr(self, '_' + k)[i])!r}" for k in self._fields)
        return f"{type(self).__name__}({fields})"

    def __repr__(self) -> str:
        return self._row(0) if self._scalar else f"{type(self).__name__}(<{len(self)} rows>)"

    def __len__(self) -> int:
        return getattr(self, "_" + self._fields[0]).size

    def _out(self, values: np.ndarray):
        return float(values[0]) if self._scalar else values

    def _every(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Every row, and ``x`` (a float or one per row) as one float per row."""
        return np.arange(len(self)), np.broadcast_to(np.asarray(x, dtype=float),
                                                     (len(self),)).reshape(-1)

    def _cdf(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The CDF of ``rows`` at ``x``: 0 at or below 0, 1 from ``_hi`` on."""
        out = np.where(x <= 0.0, 0.0, 1.0)
        inside = np.flatnonzero((x > 0.0) & (x < self._hi[rows]))
        if inside.size:
            out[inside] = self._cdf_parts(rows[inside], x[inside])[0]
        return out

    def cdf(self, x):
        rows, x = self._every(x)
        if np.isnan(x).any():
            raise DomainError("x must not be NaN")
        return self._out(self._cdf(rows, x))

    def interval_mass(self, lo, hi):
        (rows, lo), hi = self._every(lo), self._every(hi)[1]
        if not np.all(lo <= hi):
            raise DomainError(f"interval must satisfy lo <= hi, got [{lo}, {hi}]")
        upper, lower = np.split(self._cdf(np.tile(rows, 2), np.concatenate((hi, lo))), 2)
        return self._out(np.maximum(upper - lower, 0.0))

    def quantile(self, alpha: float):
        return self._out(self._quantile(np.arange(len(self)), open_unit("alpha", alpha)))

    def equal_tails(self, alpha: float):
        """Each row's quantiles at ``alpha`` and ``1 - alpha``, the ends of a
        central interval, found in one Newton iteration over both."""
        lo, hi = self._equal_tails(open_unit("alpha", alpha))
        return self._out(lo), self._out(hi)

    def _equal_tails(self, alpha: float) -> list[np.ndarray]:
        return np.split(self._quantile(np.tile(np.arange(len(self)), 2),
                                       np.repeat([alpha, 1.0 - alpha], len(self))), 2)

    def _quantile(self, rows: np.ndarray, p) -> np.ndarray:
        """Invert the CDF of ``rows`` at ``p`` (a float, or one per row):
        from Newton's step ``s`` the
        inverse CDF's Taylor series to fourth order, ``s (1 - h / 2 + (2 h^2
        - k) / 6 + (7 h k - j - 6 h^3) / 24)`` with ``h = l' s``, ``k = l''
        s^2``, ``j = l''' s^3`` and ``l`` the log density, its factor held
        within [1/2, 2]; bisection where a step leaves the bracket a row's
        evaluated points have built up.  A row's result is within 1e-8 in
        probability or, where no double comes that close, next to the exact
        quantile; else ``AccuracyError`` names it.  The last step, below
        1e-12 of the point, is applied: the HPD's equal-density ends need it.
        """
        out, at = np.empty(rows.size), np.arange(rows.size)
        lo, hi, p = np.zeros(rows.size), self._hi[rows], np.broadcast_to(p, rows.shape)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = np.minimum(np.maximum(self._guess(rows, p), 1e-300), hi * (1.0 - 2.0**-52))
            for _ in range(100):
                cdf, log_pdf = self._cdf_parts(rows, x)
                err = cdf - p
                lo, hi = np.where(err < 0.0, x, lo), np.where(err > 0.0, x, hi)
                # Capping the exponent sends a step from a vanishing density
                # out of the bracket, not to inf.
                step = -err * np.exp(np.minimum(-log_pdf, 700.0))
                l1, l2, l3 = self._dlog_pdf(rows, x)
                h, k = l1 * step, l2 * (step * step)
                factor = 1.0 + (h * (8.0 * h - 12.0 - 6.0 * h * h + 7.0 * k) - 4.0 * k
                                - l3 * step * step * step) / 24.0
                new = x + step * np.fmin(np.fmax(factor, 0.5), 2.0)  # NaN gives 1/2
                converged = np.abs(err) <= 1e-8
                if converged.any():
                    converged &= np.abs(new - x) <= 1e-12 * x
                inside = (lo < new) & (new < hi)
                if inside.all() and not converged.any():
                    x = new
                    continue
                settled = np.where(inside, new, x)
                # A step below one ulp tries the neighbouring double.
                new = np.where(new == x, np.nextafter(x, np.where(err > 0.0, lo, hi)), new)
                mid = 0.5 * (lo + hi)
                bisect = ~((lo < new) & (new < hi))
                stuck = bisect & ~((lo < mid) & (mid < hi))  # no double between lo and hi
                finished = converged | stuck
                out[at[finished]] = np.where(converged, settled, x)[finished]
                if finished.all():
                    return out
                left = ~finished
                x, at, rows = np.where(bisect, mid, new)[left], at[left], rows[left]
                lo, hi, p = lo[left], hi[left], p[left]
        raise AccuracyError(f"{self._row(int(rows[0]))}: quantile did not reach 1e-8 "
                            f"at p={float(p[0])!r}")

    def hpd(self, level: float) -> HpdInterval:
        """Highest-density interval of each row, found once per level: ends
        of equal density (Hyndman 1996; Chen and Shao 1999) from
        ``_hpd_ends``, widened by doubling pads from an ulp until the mass
        reaches ``level``.  A density unbounded at one edge, a shape below 1
        there, is monotone and its interval ends at that edge; a row
        unbounded at both raises ``UnsupportedShapeError``."""
        level = open_unit("level", level)
        box = self._hpd_cache.get(level)
        if box is None:
            both = np.flatnonzero(np.maximum(*self._edge_shapes) < 1.0)
            if both.size:
                raise UnsupportedShapeError(
                    "highest-density intervals need a density bounded at one edge; "
                    f"{self._row(int(both[0]))} is unbounded at both edges of its support")
            lo, hi = self._hpd_ends(level)
            every = np.arange(len(self))
            mass = self._cdf(every, hi) - self._cdf(every, lo)
            pad_lo, pad_hi = np.spacing(lo), np.spacing(hi)
            short = np.flatnonzero(mass < level)  # the quantiles' rounding can leave it short
            while short.size:
                lo[short] = np.maximum(lo[short] - pad_lo[short], 0.0)
                hi[short] = np.minimum(hi[short] + pad_hi[short], self._hi[short])
                mass[short] = self._cdf(short, hi[short]) - self._cdf(short, lo[short])
                pad_lo[short] *= 2.0
                pad_hi[short] *= 2.0
                short = short[mass[short] < level]
            box = self._hpd_cache[level] = HpdInterval(lo, hi, mass)
        return HpdInterval(self._out(box.lo), self._out(box.hi), self._out(box.mass))

    def _hpd_ends(self, level: float) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ends ``lo < mode < hi`` of equal log density ``l`` and
        mass ``F(hi) - F(lo) = level``, by Newton steps in both ends of every
        row at once from the equal-tail quantiles; the Jacobian's
        determinant ``l'(lo) f(hi) - l'(hi) f(lo)`` is positive.  Steps go in
        ``log(lo)``, and in ``log(_hi - hi)`` past ``_hi / 2`` (else in
        ``log(hi)``), where the edges' power laws are linear and an end keeps
        its digits; one that leaves the bracket halves the distance to it.  A
        row stops when both steps are below 1e-9 of its ends, the last one
        applied.  An edge at least as dense as ``Q(level)`` or ``Q(1 -
        level)`` is an end instead, 0 or ``_hi``; its density is taken at
        ``x0``, the least positive double, or at ``top``, the last below
        ``_hi``.
        """
        every, edge, mode = np.arange(len(self)), self._hi, self._mode
        top, x0 = np.nextafter(edge, 0.0), np.full(len(self), _TINY)
        lo, hi = self._equal_tails(0.5 * (1.0 - level))
        hi = np.minimum(hi, top)
        # Unimodality: an edge that is an end is at least as dense as the
        # other end's equal-tail quantile.
        newton = np.ones(len(self), dtype=bool)
        for zero, end, other, p in ((True, x0, hi, level), (False, top, lo, 1.0 - level)):
            rows = np.flatnonzero(newton & (self._log_ratio(every, end, other) >= 0.0))
            if rows.size:
                q = self._quantile(rows, p)
                on = self._log_ratio(rows, end[rows], np.minimum(q, top[rows])) >= 0.0
                lo[rows[on]], hi[rows[on]] = (0.0, q[on]) if zero else (q[on], edge[rows[on]])
                newton[rows[on]] = False
        rows = np.flatnonzero(newton)
        x0, m, t, e, a, b = x0[rows], mode[rows], top[rows], edge[rows], lo[rows], hi[rows]
        a = np.where((x0 < a) & (a < m), a, 0.5 * (x0 + m))
        b = np.where((m < b) & (b <= t), b, 0.5 * (m + t))
        live = np.arange(rows.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(100):
                if live.size == 0:
                    lo[rows], hi[rows] = a, b
                    return lo, hi
                r, al, bl, xl, ml, tl, el = (v[live] for v in (rows, a, b, x0, m, t, e))
                (cdf_lo, l_lo), (cdf_hi, l_hi) = self._cdf_parts(r, al), self._cdf_parts(r, bl)
                f_lo, f_hi, h = np.exp(l_lo), np.exp(l_hi), cdf_hi - cdf_lo - level
                g = self._log_ratio(r, al, bl)
                dl_lo, dl_hi = self._dlog_pdf(r, al)[0], self._dlog_pdf(r, bl)[0]
                # Positive unless both densities underflow: NaN steps then halve.
                det = dl_lo * f_hi - dl_hi * f_lo
                det = np.where(det == 0.0, np.nan, det)
                step_lo, step_hi = -(f_hi * g + dl_hi * h) / det, -(f_lo * g + dl_lo * h) / det
                done = (np.abs(step_lo) <= 1e-9 * al) & (np.abs(step_hi) <= 1e-9 * bl)
                new_lo = al * np.exp(np.minimum(step_lo / al, 700.0))
                new_hi = np.where(bl < 0.5 * el, bl * np.exp(np.minimum(step_hi / bl, 700.0)),
                                  el - (el - bl) * np.exp(np.minimum(-step_hi / (el - bl), 700.0)))
                a[live] = np.where((xl < new_lo) & (new_lo < ml), new_lo,
                                   0.5 * (al + np.where(new_lo <= xl, xl, ml)))
                b[live] = np.where((ml < new_hi) & (new_hi <= tl), new_hi,
                                   0.5 * (bl + np.where(new_hi > tl, tl, ml)))
                live = live[~done]
        raise AccuracyError(f"{self._row(int(rows[live[0]]))}: HPD ends did not reach "
                            f"equal densities at level={level!r}")


@dataclass(frozen=True, repr=False)
class GammaPosterior(_NumericPosterior):
    """Gamma posteriors in the shape/rate parameterisation."""

    shape: float
    rate: float
    _fields = ("shape", "rate")

    def mean(self):
        return self._out(self._shape / self._rate)

    def variance(self):
        return self._out(self._shape / (self._rate * self._rate))

    @cached_property
    def _norm(self) -> np.ndarray:
        return gamma_log_norm(self._shape)

    def _cdf_parts(self, rows: np.ndarray, x: np.ndarray):
        # The density k x^(k-1) e^-y rate^k / Gamma(k + 1) is k / x times
        # the prefactor of P(k, y).
        k = self._shape[rows]
        cdf, prefactor = gamma_p_rows(k, self._rate[rows] * x, self._norm[rows])
        return cdf, (np.log(k) - np.log(x)) + prefactor

    def _dlog_pdf(self, rows: np.ndarray, x: np.ndarray):
        u = (self._shape[rows] - 1.0) / x
        return u - self._rate[rows], -u / x, 2.0 * u / (x * x)

    def _log_ratio(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``l(x) - l(y)``, exact where the density is flat."""
        return _log_power(self._shape[rows] - 1.0, x, y, x - y) - self._rate[rows] * (x - y)

    @property
    def _edge_shapes(self) -> tuple[np.ndarray, np.ndarray]:
        return self._shape, np.full(len(self), math.inf)

    @cached_property
    def _mode(self) -> np.ndarray:
        return np.maximum(self._shape - 1.0, 0.0) / self._rate

    @cached_property
    def _hi(self) -> np.ndarray:
        # Forty standard deviations (plus forty units for small shapes)
        # past the mean, where the upper tail is far below 1e-16.
        return (self._shape + 40.0 * np.sqrt(self._shape) + 40.0) / self._rate

    def _guess(self, rows: np.ndarray, p: float) -> np.ndarray:
        # Numerical Recipes 6.2.1: Wilson-Hilferty above shape 1, raised to
        # the power law y^k / Gamma(k + 1) >= P(k, y), a lower bound on the
        # quantile that is sharp in the far lower tail.  Below shape 1, the
        # power law near zero and an exponential tail beyond.
        k = self._shape[rows]
        y = k * np.maximum(1.0 - 1.0 / (9.0 * k) + _normal_quantiles(p) / (3.0 * np.sqrt(k)),
                           0.0) ** 3
        log_gamma = k * np.log(k) - k - self._norm[rows]  # lgamma(k + 1)
        y = np.maximum(y, np.exp((np.log(p) + log_gamma) / k))
        if k.min() <= 1.0:
            t = 1.0 - k * (0.253 + 0.12 * k)
            small = np.where(p < t, (p / t) ** (1.0 / k), 1.0 - np.log1p(-(p - t) / (1.0 - t)))
            y = np.where(k > 1.0, y, small)
        return y / self._rate[rows]


@dataclass(frozen=True, repr=False)
class BetaPosterior(_NumericPosterior):
    """Beta posteriors with shape pair ``(a, b)`` on the unit interval."""

    a: float
    b: float
    _fields = ("a", "b")

    def mean(self):
        return self._out(self._a / (self._a + self._b))

    def variance(self):
        t = self._a + self._b
        return self._out(self._a * self._b / (t * t * (t + 1.0)))

    @cached_property
    def _norm(self) -> np.ndarray:
        return beta_log_norm(self._a, self._b)

    def _cdf_parts(self, rows: np.ndarray, x: np.ndarray):
        # The density x^(a-1) (1-x)^(b-1) / B(a, b) is the prefactor over x (1 - x).
        cdf, prefactor = beta_i_rows(self._a[rows], self._b[rows], x, self._norm[rows])
        return cdf, prefactor - np.log(x) - np.log1p(-x)

    def _dlog_pdf(self, rows: np.ndarray, x: np.ndarray):
        y = 1.0 - x
        u, v = (self._a[rows] - 1.0) / x, (self._b[rows] - 1.0) / y
        return u - v, -u / x - v / y, 2.0 * (u / (x * x) - v / (y * y))

    def _log_ratio(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``l(x) - l(y)``, exact where the density is flat."""
        return (_log_power(self._a[rows] - 1.0, x, y, x - y)
                + _log_power(self._b[rows] - 1.0, 1.0 - x, 1.0 - y, y - x))

    @property
    def _edge_shapes(self) -> tuple[np.ndarray, np.ndarray]:
        return self._a, self._b

    @cached_property
    def _mode(self) -> np.ndarray:
        a, b = self._a, self._b
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(a <= 1.0, 0.0, np.where(b <= 1.0, 1.0, (a - 1.0) / (a + b - 2.0)))

    @cached_property
    def _hi(self) -> np.ndarray:
        return np.ones(len(self))

    def _guess(self, rows: np.ndarray, p: float) -> np.ndarray:
        # Numerical Recipes 6.4.  Near 0 the CDF follows x^a / (a B(a, b))
        # and near 1 it follows 1 - (1 - x)^b / (b B(a, b)).  Solved for p,
        # the first law bounds the quantile from below when b >= 1 (above
        # when b < 1), the second from above when a >= 1 (below when a < 1).
        a, b = self._a[rows], self._b[rows]
        # log B(a, b): at the mode of the prefactor its log is the norm alone
        ln_beta = a * np.log(a / (a + b)) + b * np.log(b / (a + b)) - self._norm[rows]
        lower = np.exp(np.minimum(np.log(a * p) + ln_beta, 0.0) / a)  # capped at 1
        upper = -np.expm1(np.minimum(np.log(b * (1.0 - p)) + ln_beta, 0.0) / b)
        z = -_normal_quantiles(p)
        al, h = (z * z - 3.0) / 6.0, 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * np.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        x = np.minimum(np.maximum(a / (a + b * np.exp(np.minimum(2.0 * w, 700.0))), lower),
                       upper)  # a normal-based start, clipped
        if min(a.min(), b.min()) < 1.0:
            both = np.where((lower < a / (a + b)) | (upper <= 0.0), lower, upper)
            one = np.where(a < 1.0, np.maximum(lower, upper), np.minimum(lower, upper))
            x = np.where((a < 1.0) & (b < 1.0), both, np.where((a < 1.0) | (b < 1.0), one, x))
        return x


# Exponential-rate posteriors, a block of rows at once

# Each row's nodes: _RATE_SEGMENTS equal steps in phi = arcsin(sqrt(r)) over
# the window where the row's log density is within _RATE_DROP of its peak.
_RATE_SEGMENTS = 256
_RATE_DROP = 40.0
# The bound on each row's relative error estimate.
RATE_TOLERANCE = 1e-8
# Rows in one block: four node arrays of them fill 1 MiB.  Much of a block's
# cost is numpy dispatch: 1000 table-3 totals took 31, 22 and 21 ms in blocks
# of 63, 127 and 254 rows.  A block peaks at 4.4 node arrays, 1.1 MiB at 127
# rows, and 127 rather than 63 raised rate-table's peak RSS by about 2 %.
RATE_BLOCK_ROWS = (1024 * 1024) // (4 * 8 * (_RATE_SEGMENTS + 1))
_HALF_PI = 0.5 * math.pi


def _smaller_root(pa: float, pb: float, s: np.ndarray) -> np.ndarray:
    """Mode of ``r^pa (1 - r)^pb exp(-s r)`` on [0, 1]: the smaller root of
    ``s r^2 - (pa + pb + s) r + pa``, whose discriminant is written as
    ``(s - pa + pb)^2 + 4 pa pb`` so that it neither cancels nor overflows."""
    return 2.0 * pa / (pa + pb + s + np.hypot(s - pa + pb, 2.0 * math.sqrt(pa * pb)))


def _rate_window(pa: float, pb: float, s: np.ndarray, mode: np.ndarray, cut: np.ndarray):
    """Rates below and above ``mode`` where ``pa log r + pb log(1 - r) - s r``,
    concave in ``log r`` and in ``r``, falls to ``cut``, or 1 where it does
    not above.  Three Newton steps start at the normal approximation's
    drop, in ``log r`` below the mode and in ``r`` above it; by concavity
    every step lands at or beyond the root, so the window holds every rate
    above the cut, and three leave it within 1 % of its width.
    """
    drop = math.sqrt(2.0 * _RATE_DROP)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        odds = mode / (1.0 - mode)
        u = np.log(mode) - drop / np.sqrt(pb * odds / (1.0 - mode) + s * mode)
        r = mode + drop * mode / np.sqrt(pa + pb * odds * odds)
        for _ in range(3):
            e = np.exp(u)
            u -= (pa * u + pb * np.log1p(-e) - s * e - cut) / (pa - pb * e / (1.0 - e) - s * e)
            value = pa * np.log(r) + pb * np.log1p(-r) - s * r - cut
            r = np.where(r < 1.0, r - value / (pa / r - pb / (1.0 - r) - s), 1.0)
        return np.exp(u), np.minimum(r, 1.0)


def _log_abs_zeta_term(p: float) -> tuple[float, float]:
    """Sign and log of ``|zeta(-p)| / (2 pi)^(-p - 1)``, ``p >= 1``, from the
    functional equation ``zeta(-p) = -2 (2 pi)^(-p - 1) sin(pi p / 2)
    Gamma(p + 1) zeta(p + 1)``; ``zeta(p + 1)`` is seven terms and the
    Euler-Maclaurin tail past them, good to 1e-9."""
    x, m = p + 1.0, 8.0
    zeta = (math.fsum(k**-x for k in range(1, 8)) + m ** (1.0 - x) / (x - 1.0)
            + 0.5 * m**-x + x / 12.0 * m ** (-x - 1.0)
            - x * (x + 1.0) * (x + 2.0) / 720.0 * m ** (-x - 3.0)
            + x * (x + 1.0) * (x + 2.0) * (x + 3.0) * (x + 4.0) / 30240.0 * m ** (-x - 5.0))
    sine = math.sin(0.5 * math.pi * p)
    log_size = math.log(2.0 * abs(sine) or _TINY) + math.lgamma(x) + math.log(zeta)
    return -math.copysign(1.0, sine), log_size


def _edge_mass(p: float, log_c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """What the trapezoid rule of step ``h`` misses at an end of its nodes
    where the integrand vanishes as ``c x^p``: ``-zeta(-p) c h^(p + 1)``
    (Navot 1961), with the next term a factor ``h^2`` smaller.  Zero for
    an even ``p``, and ``c h^2 / 12`` for ``p = 1``."""
    sign, log_zeta = _log_abs_zeta_term(p)
    return -sign * np.exp(log_zeta + (p + 1.0) * np.log(h / (2.0 * math.pi)) + log_c)


class RatePosterior:
    """Posteriors of an exponential rate on (0, 1] under a beta prior, one
    row per sample sum ``s`` (a float, or a 1-d array of them).

    Row ``s`` has the log density ``l(r) = (shape - 1) log r + (b - 1)
    log(1 - r) - s r`` up to a constant, with ``shape = a + n >= 1`` and
    ``b >= 1``: concave in ``r``.  It is tabulated on the row's own nodes,
    ``K = 256`` equal steps in ``phi = arcsin(sqrt(r))`` over the window
    where the log density falls by at most 40 from its peak.  In ``phi``
    the density is ``sin(phi)^(2 shape - 1) cos(phi)^(2 b - 1) exp(-s
    sin(phi)^2)``: at a window end short of an edge it has decayed, and at
    an edge the window reaches it is an even power of sin or cos under the
    study's Beta(1.5, 1.5), so the trapezoid rule converges exponentially
    (Trefethen and Weideman 2014).  Any other power ``p`` at a reached
    edge leaves ``-zeta(-p) c h^(p + 1)``, which is added back with its
    next term (Navot 1961).

    - The mean and the variance about it are trapezoid sums.
    - The CDF at the nodes is the cumulative trapezoid rule with the
      Euler-Maclaurin terms ``h^2 / 12 f'`` (``f'`` in closed form) and
      ``h^4 / 720 f'''`` (``f'''`` from differences of ``f'``); between
      nodes it adds the integral of the density's cubic Hermite
      interpolant.  In the segment at an edge whose power ``p`` is not an
      integer (``1 < b < 1.5``, say) it is the integral of ``c x^p (1 + a
      x^2)`` instead, which the interpolant does not follow.  Quantiles
      invert it by Newton steps.
    - The highest-density interval has ends of equal density ``l`` and
      mass ``level``: one two-end Newton iteration over every row.
    - Each row estimates its error from the mass and the variance of the
      rule on K against K/2 nodes, every other node; a row whose estimate
      exceeds ``RATE_TOLERANCE`` (1e-8 relative) raises ``AccuracyError``
      naming it.  Against scipy quadrature, the variance, quantiles and
      HPD ends were within 7e-9 relative for n from 1 to 1e7 and b of 1,
      1.25 and 1.5.

    A row's values come from elementwise operations and sums along the
    row, so they do not depend on the other rows of its block: a block of
    one gives its row's floats bit for bit.  The summaries return an array
    over the rows, or a float when ``s`` is a float.
    """

    __slots__ = ("shape", "b", "s", "error_estimate", "_mode", "_phi0", "_phi1", "_step",
                 "_density", "_slope", "_node_cdf", "_mean", "_variance",
                 "_hpd_cache", "_powers")

    # Edges and flat densities take logs of 0 and divide by 0, and a row
    # whose shapes or total leave the floats turns NaN; the error estimate
    # refuses every row that is not finite.
    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def __init__(self, shape: float, b: float, s):
        self.shape, self.b = shape, b
        self.s = np.array(s, dtype=float)
        self.s.setflags(write=False)
        s = self.s.reshape(-1)
        K = _RATE_SEGMENTS
        # The phi density r^pa (1 - r)^pb exp(-s r) is log-concave in r.
        pa, pb = shape - 0.5, b - 0.5
        top = _smaller_root(pa, pb, s)
        peak = pa * np.log(top) + pb * np.log1p(-top) - s * top
        r_lo, r_hi = _rate_window(pa, pb, s, top, peak - _RATE_DROP)
        phi0, phi1 = np.arcsin(np.sqrt(r_lo)), np.arcsin(np.sqrt(r_hi))
        # A window end within a step of an edge moves onto it.
        h = (phi1 - phi0) / K
        at0, at1 = phi0 < h, _HALF_PI - phi1 < h
        phi0, phi1 = np.where(at0, 0.0, phi0), np.where(at1, _HALF_PI, phi1)
        h = (phi1 - phi0) / K
        phi = phi0[:, None] + h[:, None] * np.arange(K + 1.0)
        phi[:, -1] = phi1
        col = s[:, None]

        sn = np.sin(phi)
        cot = np.cos(phi, out=phi)
        g = np.log(sn)
        g *= 2.0 * pa
        tmp = np.log(cot)
        tmp *= 2.0 * pb
        g += tmp
        r = np.multiply(sn, sn, out=tmp)
        cot /= sn
        g -= np.multiply(r, col, out=sn)
        g -= peak[:, None]
        np.exp(g, out=g)
        # g' = g (2 pa cot - 2 pb tan - 2 s sin cos), with tan = 1 / cot
        # and sin cos = r cot: finite at phi = pi / 2, NaN only at phi = 0.
        dg = np.multiply(r, -2.0 * col, out=sn)
        dg += 2.0 * pa
        dg *= cot
        dg -= np.divide(2.0 * pb, cot, out=cot)
        dg *= g
        dg[:, 0] = np.where(at0, 0.0, dg[:, 0])

        # What the rule misses at an edge it reaches (Navot 1961): near
        # phi = 0 the density is c x^p (1 + a x^2 + ...) in x = phi, with
        # p = 2 pa, c = e^(-peak), a = -(pa / 3 + pb + s); near pi / 2 in
        # x = pi / 2 - phi, with p = 2 pb, c = e^(-s - peak), a = s - pa - pb / 3.
        # Times a weight w0 + w2 x^2 + ..., the rule of step h misses
        # w0 (m0 + a m2) + w2 m2, with m0 = -zeta(-p) c h^(p + 1) and m2 =
        # -zeta(-p - 2) c h^(p + 3).  Per step h and 2 h: (m0 + a m2, m2).
        def edge(at, p, log_c, a):
            if not at.any():
                return [(0.0, 0.0)] * 2
            m0 = np.where(at, _edge_mass(p, log_c, h), 0.0)
            m2 = np.where(at, _edge_mass(p + 2.0, log_c, h), 0.0)
            return [(m0 * 2.0 ** (k * (p + 1.0)) + a * m2 * 2.0 ** (k * (p + 3.0)),
                     m2 * 2.0 ** (k * (p + 3.0))) for k in (0, 1)]

        low = edge(at0, 2.0 * pa, -peak, -(pa / 3.0 + pb + s))
        high = edge(at1, 2.0 * pb, -s - peak, s - pa - pb / 3.0)
        # A power that is not an integer bends the density faster than the
        # node CDF's Euler-Maclaurin terms and its cubic Hermite interpolant
        # follow in the segment at that edge: there the CDF is the integral
        # of c x^p (1 + a x^2) instead.
        self._powers = [(at, K - 1 if top else 0, p, a, log_c)
                        for at, top, p, a, log_c in (
                            (at0, False, 2.0 * pa, -(pa / 3.0 + pb + s), -peak),
                            (at1, True, 2.0 * pb, s - pa - pb / 3.0, -s - peak))
                        if at.any() and p != round(p)]

        def rule(f, stride):
            """Trapezoid sum of the rows of ``f`` over every ``stride``-th node."""
            f = f[:, ::stride]
            return (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1])) * (stride * h)

        # The rules of step h and 2 h: the weight r is x^2 at 0 and
        # 1 - x^2 at 1, and (r - mean)^2 is mean^2 - 2 mean x^2 and
        # (1 - mean)^2 - 2 (1 - mean) x^2.
        mass = [rule(g, k + 1) + low[k][0] + high[k][0] for k in (0, 1)]
        gr = np.multiply(g, r, out=cot)
        means = [(rule(gr, k + 1) + low[k][1] + high[k][0] - high[k][1]) / mass[k]
                 for k in (0, 1)]
        mean = means[0]
        dev = r
        dev -= mean[:, None]
        dev *= dev
        dev *= g
        up = 1.0 - mean
        second = [(rule(dev, k + 1) + mean * (mean * low[k][0] - 2.0 * low[k][1])
                   + up * (up * high[k][0] - 2.0 * high[k][1])) / mass[k] for k in (0, 1)]
        # About mean, the 2 h rule's second moment exceeds its variance by
        # the square of the gap between the two means.
        variance, variance2 = second[0], second[1] - (means[1] - mean) ** 2
        # Past the edge terms every error of the rule is O(h^4) or smaller,
        # so the K-node rule's is at most 1/15 of its gap to the K/2 one.
        self.error_estimate = np.maximum(np.abs(mass[1] / mass[0] - 1.0),
                                         np.abs(variance2 / variance - 1.0)) / 15.0

        # Node CDF: each segment's Hermite integral, h/2 (g_i + g_i+1) +
        # h^2/12 (g'_i - g'_i+1), cumulated; at a reached edge the segment
        # takes the missed mass in place of its h^2/12 g' term.  Differences
        # run over the rows end to end, each first column junk until it is set.
        cdf, flat, dflat, tmp = cot, g.reshape(-1), dg.reshape(-1), r.reshape(-1)
        np.add(flat[:-1], flat[1:], out=cdf.reshape(-1)[1:])
        cdf *= 0.5 * h[:, None]
        np.subtract(dflat[:-1], dflat[1:], out=tmp[1:])
        r *= (h * h / 12.0)[:, None]
        cdf += r
        cdf[:, 1] += low[0][0]  # g' is 0 at an edge at 0
        cdf[:, -1] += high[0][0] + np.where(at1, h * h / 12.0 * dg[:, -1], 0.0)
        cdf[:, 0] = 0.0
        np.cumsum(cdf, axis=1, out=cdf)
        # Euler-Maclaurin's next term, h^4/720 (f'''(x) - f'''(first node)),
        # with h^2 f''' the second difference of f' and none at the ends.
        np.subtract(dflat[2:], dflat[1:-1], out=tmp[1:-1])
        tmp[1:-1] -= dflat[1:-1]
        tmp[1:-1] += dflat[:-2]
        r *= (h * h / 720.0)[:, None]
        r[:, 0] = r[:, -1] = 0.0
        cdf += r
        for at, end, p, a, log_c in self._powers:
            part = np.exp(log_c + (p + 1.0) * np.log(h)) * (1.0 / (p + 1.0) + a * h * h / (p + 3.0))
            if end == 0:
                cdf[at, 1] = part[at]
            else:
                cdf[at, K - 1] = cdf[at, K] - part[at]
        total = cdf[:, -1].copy()
        cdf /= total[:, None]
        # Kept in units of the row's total: h g and h^2 g', the Hermite data
        # of a segment of unit width.
        g *= (h / total)[:, None]
        dg *= (h * h / total)[:, None]

        self._phi0, self._phi1, self._step = phi0, phi1, h
        self._density, self._slope, self._node_cdf = g, dg, cdf
        self._mean, self._variance = mean, variance
        self._mode = _smaller_root(shape - 1.0, b - 1.0, s)  # a flat density's mode is NaN
        for a in (g, dg, cdf, phi0, phi1, h, mean, variance, self._mode, self.error_estimate):
            a.setflags(write=False)
        self._hpd_cache: dict[float, HpdInterval] = {}
        bad = ~(self.error_estimate <= RATE_TOLERANCE)  # NaN fails too
        if bad.any():
            i = int(bad.argmax())
            raise AccuracyError(
                f"{self._row(i)}: error estimate {self.error_estimate[i]:.3e} of its "
                f"{K}-node rule exceeds {RATE_TOLERANCE:g}"
            )

    def _row(self, i: int) -> str:
        return f"RatePosterior(shape={self.shape!r}, b={self.b!r}, s={float(self.s.flat[i])!r})"

    def __repr__(self) -> str:
        s = repr(float(self.s)) if self.s.ndim == 0 else f"<{self.s.size} rows>"
        return f"RatePosterior(shape={self.shape!r}, b={self.b!r}, s={s})"

    def __len__(self) -> int:
        return self.s.size

    def _out(self, values: np.ndarray):
        """``values`` of the rows, or the float of a batch of one built from a float."""
        return float(values[0]) if self.s.ndim == 0 else values

    def _rows(self, x) -> np.ndarray:
        """``x``, a float or one value per row, as one float per row."""
        return np.broadcast_to(np.asarray(x, dtype=float), self.s.shape).reshape(-1)

    def mean(self):
        return self._out(self._mean)

    def variance(self):
        return self._out(self._variance)

    def _log_pdf(self, x: np.ndarray) -> np.ndarray:
        """``l`` at one rate per row, up to each row's constant; a power
        with exponent 0 is 1 at its edge too."""
        l = -self.s.reshape(-1) * x
        if self.shape != 1.0:
            l += (self.shape - 1.0) * np.log(x)
        if self.b != 1.0:
            l += (self.b - 1.0) * np.log1p(-x)
        return l

    def _segments(self, rows: np.ndarray, i: np.ndarray):
        """The CDF on segment ``i`` of each row in ``rows`` as a quartic in
        the fraction ``t`` of the segment: the node CDF ``c0`` plus ``t k1 +
        t^2 k2 + t^3 k3 + t^4 k4``, the integral of the density's cubic
        Hermite interpolant and ``t`` times what the node CDF's h^4 term
        adds to the segment, so that it meets the next node, ``c1``."""
        flat = rows * (_RATE_SEGMENTS + 1) + i
        cdf, g, dg = self._node_cdf, self._density, self._slope
        c0, g0, d0 = cdf.take(flat), g.take(flat), dg.take(flat)
        flat += 1
        c1, g1, d1 = cdf.take(flat), g.take(flat), dg.take(flat)
        gap = c1 - c0 - 0.5 * (g0 + g1) - (d0 - d1) / 12.0
        return (c0, g0 + gap, 0.5 * d0, g1 - g0 - (2.0 * d0 + d1) / 3.0,
                0.5 * (g0 - g1) + 0.25 * (d0 + d1), c1)

    def _within(self, rows: np.ndarray, i: np.ndarray, coef, t: np.ndarray):
        """The CDF at fraction ``t`` of segment ``i`` of each row in
        ``rows``, and its slope in ``t``: the segment's quartic, or, next to
        an edge where the density is ``c x^p (1 + a x^2 + ...)`` with ``p``
        not an integer, the integral of ``x^p (1 + a x^2)`` over the
        distance ``x`` from the edge, scaled to the segment's mass."""
        c0, k1, k2, k3, k4, c1 = coef
        cdf = c0 + t * (k1 + t * (k2 + t * (k3 + t * k4)))
        slope = k1 + t * (2.0 * k2 + t * (3.0 * k3 + t * (4.0 * k4)))
        for at, end, p, a, _ in self._powers:
            on = at[rows] & (i == end)
            if not on.any():
                continue
            h, a, mass = self._step[rows[on]], a[rows[on]], c1[on] - c0[on]
            x = h * (t[on] if end == 0 else 1.0 - t[on])
            whole = h ** (p + 1.0) * (1.0 / (p + 1.0) + a * h * h / (p + 3.0))
            share = x ** (p + 1.0) * (1.0 / (p + 1.0) + a * x * x / (p + 3.0)) / whole
            cdf[on] = c0[on] + mass * share if end == 0 else c1[on] - mass * share
            slope[on] = mass * h * x**p * (1.0 + a * x * x) / whole
        return cdf, slope

    def _cdf_phi(self, rows: np.ndarray, phi: np.ndarray):
        """The CDF at ``phi`` in each row of ``rows`` and its slope in phi."""
        h = self._step[rows]
        x = (phi - self._phi0[rows]) / h
        i = np.minimum(np.maximum(np.floor(x), 0.0), _RATE_SEGMENTS - 1.0).astype(np.intp)
        t = np.minimum(np.maximum(x - i, 0.0), 1.0)
        cdf, slope = self._within(rows, i, self._segments(rows, i), t)
        return cdf, slope / h

    def _cdf_at(self, rows: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The CDF at ``phi`` in each row of ``rows``: 0 before the nodes, 1
        after them."""
        cdf = np.minimum(np.maximum(self._cdf_phi(rows, phi)[0], 0.0), 1.0)
        return np.where(phi <= self._phi0[rows], 0.0, np.where(phi >= self._phi1[rows], 1.0, cdf))

    def _cdf(self, x: np.ndarray) -> np.ndarray:
        """The CDF of each row at its rate in ``x``."""
        phi = np.arcsin(np.sqrt(np.minimum(np.maximum(x, 0.0), 1.0)))
        return self._cdf_at(np.arange(x.size), phi)

    def cdf(self, x):
        x = self._rows(x)
        if np.isnan(x).any():
            raise DomainError("x must not be NaN")
        return self._out(self._cdf(x))

    def interval_mass(self, lo, hi):
        lo, hi = self._rows(lo), self._rows(hi)
        if not np.all(lo <= hi):
            raise DomainError(f"interval must satisfy lo <= hi, got [{lo}, {hi}]")
        return self._out(np.maximum(self._cdf(hi) - self._cdf(lo), 0.0))

    def _start(self, ps):
        """For each ``p`` in ``ps`` and each row, as ``(len(ps), rows)`` arrays:
        the segment whose node CDF brackets ``p``, its quartic, the fraction
        of it where the node CDF's chord reaches ``p``, and ``p``."""
        # The count of inner nodes at or below p; K < 2**15, so 16 bits hold it.
        i = (self._node_cdf <= np.reshape(ps, (-1, 1, 1)))[:, :, 1:-1].sum(axis=2, dtype=np.int16)
        coef = self._segments(np.arange(len(self)), i)
        p = np.repeat(ps, len(self)).reshape(i.shape)
        return i, coef, (p - coef[0]) / (coef[-1] - coef[0]), p

    def _quantile_phi(self, ps) -> np.ndarray:
        """Each row's point in ``phi`` where the CDF reaches each ``p`` in
        ``ps``, of shape ``(len(ps), rows)``: Newton steps in its segment
        from the chord, kept inside it, until a step is below 1e-13 of it
        (that last step applied), or until rounding cycles it back to where
        it was two steps before; a point that has stopped keeps its place."""
        i, coef, t, p = self._start(ps)
        rows = np.broadcast_to(np.arange(len(self)), t.shape)
        live, before = np.ones(t.shape, dtype=bool), np.full(t.shape, np.nan)
        for _ in range(100):
            value, slope = self._within(rows, i, coef, t)
            # A step from a slope that is not positive, far in a tail, is none.
            step = np.where(slope > 0.0, (value - p) / np.where(slope > 0.0, slope, 1.0), 0.0)
            new = np.where(live, np.minimum(np.maximum(t - step, 0.0), 1.0), t)
            live &= ~((np.abs(step) <= 1e-13) | (new == before))
            before, t = t, new
            if not live.any():
                break
        else:
            raise AccuracyError(f"{self._row(int(live.argmax() % len(self)))}: quantile did "
                                f"not converge at p={float(p[live][0])!r}")
        return self._phi0 + (i + t) * self._step

    def quantile(self, alpha: float):
        return self._out(np.sin(self._quantile_phi((open_unit("alpha", alpha),))[0]) ** 2)

    def equal_tails(self, alpha: float):
        """Each row's quantiles at ``alpha`` and ``1 - alpha``, in one loop."""
        alpha = open_unit("alpha", alpha)
        lo, hi = np.sin(self._quantile_phi((alpha, 1.0 - alpha))) ** 2
        return self._out(lo), self._out(hi)

    def hpd(self, level: float) -> HpdInterval:
        """Highest-density interval of each row, found once per level."""
        level = open_unit("level", level)
        box = self._hpd_cache.get(level)
        if box is None:
            box = self._hpd_cache[level] = self._hpd(level)
        return HpdInterval(self._out(box.lo), self._out(box.hi), self._out(box.mass))

    def _newton_step(self, rows: np.ndarray, ends: np.ndarray, level: float) -> np.ndarray:
        """The Newton step in ``phi`` of the HPD ends ``ends[0] < ends[1]``
        of the rows ``rows[0] = rows[1]`` towards equal ``l`` and mass
        ``level``, the gap ``l(lo) - l(hi)`` formed from ``sin lo - sin hi =
        2 cos(u) sin(v)`` and ``cos lo - cos hi = -2 sin(u) sin(v)`` (``u``,
        ``v`` half the ends' sum and difference), as its terms grow with n.
        The Jacobian's determinant ``l'(lo) f(hi) - l'(hi) f(lo)`` is positive
        unless both densities underflow; its steps are then NaN, and halve."""
        cdf, dens = self._cdf_phi(rows, ends)
        sin, cos, s = np.sin(ends), np.cos(ends), self.s.reshape(-1)[rows]
        a1, b1 = 2.0 * (self.shape - 1.0), 2.0 * (self.b - 1.0)
        u, v = 0.5 * (ends[0] + ends[1]), np.sin(0.5 * (ends[0] - ends[1]))
        up = 2.0 * np.cos(u) * v  # sin lo - sin hi
        gap = (_log_power(a1, sin[0], sin[1], up)
               + _log_power(b1, cos[0], cos[1], -2.0 * np.sin(u) * v)
               - s[0] * (up * (sin[0] + sin[1])))
        dl = a1 * (cos / sin) - b1 * (sin / cos) - (2.0 * s) * (sin * cos)
        excess = cdf[1] - cdf[0] - level
        det = dl[0] * dens[1] - dl[1] * dens[0]
        return -(dens[::-1] * gap + dl[::-1] * excess) / det

    @np.errstate(divide="ignore", invalid="ignore")
    def _hpd(self, level: float) -> HpdInterval:
        """Ends ``lo < mode < hi`` of equal log density ``l`` and mass
        ``F(hi) - F(lo) = level``, by Newton steps in ``phi`` in both ends of
        every row at once, from where the node CDF's chords reach the equal
        tails; a row stops when both its steps are below 1e-8 of its
        window, and its last step is applied.  The steps aim the mass 8
        ulps of ``level`` above it, so that the rounding of the two CDF
        values seldom leaves it short.  A step that leaves the row's
        bracket halves the distance to it instead.  An edge where the
        density is positive, rate 0 with ``shape = 1`` or rate 1 with
        ``b = 1``, is an end instead where it is at least as dense as
        ``Q(level)`` or ``Q(1 - level)``: by unimodality that interval is
        then a super-level set.  The ends then move out by an ulp of
        ``phi``, and by doubling pads until the mass reaches ``level``.
        """
        tail = 0.5 * (1.0 - level)
        aim = level + 8.0 * np.spacing(level)
        i, _, t, _ = self._start((tail, 1.0 - tail))
        ends = self._phi0 + (i + t) * self._step
        newton = np.ones(len(self), dtype=bool)
        if self.shape == 1.0:  # l(0) = 0
            q = self._quantile_phi((level,))[0]
            edge = 0.0 >= self._log_pdf(np.sin(q) ** 2)
            ends[0, edge], ends[1, edge] = 0.0, q[edge]
            newton &= ~edge
        if self.b == 1.0:  # l(1) = -s
            q = self._quantile_phi((1.0 - level,))[0]
            edge = newton & (-self.s.reshape(-1) >= self._log_pdf(np.sin(q) ** 2))
            ends[0, edge], ends[1, edge] = q[edge], _HALF_PI
            newton &= ~edge
        rows = np.flatnonzero(newton)
        first, last = self._phi0[rows], self._phi1[rows]
        mode, tol = np.arcsin(np.sqrt(self._mode[rows])), 1e-8 * (last - first)
        # Per end of each moving row, gathered again when some stop: the end,
        # its open bracket, (first, mode) or (mode, after last), outer end, mode, tol.
        at, live = np.stack((rows, rows)), np.arange(rows.size)
        state = np.stack((ends[:, rows], (first, mode), (mode, np.nextafter(last, 2.0)),
                          (first, last), (mode, mode), (tol, tol)))
        x, below, above, outer, m, _ = state
        state[0] = np.where((below < x) & (x < above), x, 0.5 * (outer + m))
        for _ in range(100):
            if live.size == 0:
                break
            old, below, above, outer, m, tol = state
            step = self._newton_step(at, old, aim)
            new = old + step
            # Out of its bracket, an end halves the distance to the end it
            # passed: its outer end if on its side of the mode, else the mode.
            state[0] = np.where((below < new) & (new < above), new,
                                0.5 * (old + np.where((new - m) * (outer - m) > 0.0, outer, m)))
            done = np.all(np.abs(step) <= tol, axis=0)
            if done.any():
                ends[:, rows[live]] = state[0]
                live, at, state = live[~done], at[:, ~done], state[:, :, ~done]
        else:
            raise AccuracyError(f"{self._row(int(rows[live[0]]))}: HPD ends did not reach "
                                f"equal densities at level={level!r}")
        # The rounding of the ends can leave the mass short: they start one
        # ulp of phi out, and the short ones go on out by doubling pads.
        pad = np.spacing(ends)
        ends[0] = np.maximum(ends[0] - pad[0], 0.0)
        ends[1] = np.minimum(ends[1] + pad[1], _HALF_PI)
        both = np.tile(np.arange(len(self)), (2, 1))
        mass = np.diff(self._cdf_at(both, ends), axis=0)[0]  # F(hi) - F(lo)
        short = np.flatnonzero(mass < level)
        while short.size:
            ends[0, short] = np.maximum(ends[0, short] - pad[0, short], 0.0)
            ends[1, short] = np.minimum(ends[1, short] + pad[1, short], _HALF_PI)
            pad[:, short] *= 2.0
            mass[short] = np.diff(self._cdf_at(both[:, short], ends[:, short]), axis=0)[0]
            short = short[mass[short] < level]
        lo, hi = np.sin(ends) ** 2
        for a in (lo, hi, mass):
            a.setflags(write=False)
        return HpdInterval(lo, hi, mass)


Posterior = Union[NormalPosterior, GammaPosterior, BetaPosterior, RatePosterior]


# ---------------------------------------------------------------------------
# Conjugate updating


def check_rate_prior(prior) -> None:
    """Refuse ``prior`` unless it is a beta prior with ``b >= 1``: the rule
    of every rate posterior, checked by :func:`rate_posterior`."""
    if not isinstance(prior, BetaPrior):
        raise ConfigurationError(f"the rate posterior needs a beta prior, got {prior!r}")
    if prior.b < 1.0:
        raise ConfigurationError(
            "rates on (0, 1] with beta prior need b >= 1; the posterior "
            "density is unbounded at 1 otherwise"
        )


def rate_posterior(prior: BetaPrior, n: int, totals) -> RatePosterior:
    """The exponential-rate posteriors of ``n`` observations with sample
    sums ``totals`` (a float, or a 1-d array of rows) under the beta
    ``prior``, rates restricted to (0, 1]."""
    check_rate_prior(prior)
    totals = np.asarray(totals, dtype=float)
    bad = ~(totals > 0.0)  # NaN too
    if bad.any():
        raise DomainError(f"exponential total must be positive, got {float(totals[bad].flat[0])!r}")
    return RatePosterior(prior.a + n, prior.b, totals)


def normal_posterior_variance(sigma2: float, tau2: float, n: float) -> float:
    """Posterior variance of a normal mean after ``n`` draws of variance
    ``sigma2`` under a prior of variance ``tau2``, refused unless a positive
    float (inf, NaN or 0 where ``n * tau2`` overflows)."""
    return positive("posterior variance", sigma2 * tau2 / (n * tau2 + sigma2))


def count_posterior(family: LikelihoodFamily, prior, n: int, totals):
    """The gamma or beta posteriors of ``n`` Poisson or Bernoulli
    observations with ``totals`` (a float, or a 1-d array of rows) under
    a gamma or beta ``prior``.  Anything else raises ``ConfigurationError``."""
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
    raise ConfigurationError(f"no conjugate update for family {family!r} with prior {prior!r}")


def posterior(family: LikelihoodFamily, prior, stat: SufficientStat) -> Posterior:
    """Posterior for ``family`` under ``prior`` given a sufficient statistic.

    Supported pairs: normal/normal, Poisson/gamma, Bernoulli/beta, and
    exponential-rate/beta (rates restricted to (0, 1]; a ``RatePosterior``
    of one row, see :func:`rate_posterior`).  Anything else raises
    ``ConfigurationError``.
    """
    if isinstance(family, NormalKnownVariance) and isinstance(prior, NormalPrior):
        c = family.sigma2 / (stat.n * prior.tau2)
        mean = (stat.s + c * prior.mu0) / (1.0 + c)
        return NormalPosterior(mean, normal_posterior_variance(family.sigma2, prior.tau2, stat.n))

    if isinstance(family, (Poisson, Bernoulli)):
        return count_posterior(family, prior, stat.n, stat.s)

    if isinstance(family, ExponentialRate) and isinstance(prior, BetaPrior):
        return rate_posterior(prior, stat.n, stat.s)

    raise ConfigurationError(
        f"no conjugate update for family {family!r} with prior {prior!r}"
    )
