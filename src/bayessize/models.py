"""Likelihood families, priors, sufficient statistics and posteriors.

Four one-parameter observation models are supported: normal with known
variance, Poisson, Bernoulli, and exponential parameterised by its rate.
The first three pair with their conjugate priors and yield closed-form
posterior families; the exponential-rate model pairs with a beta prior
restricted to rates in (0, 1] and is tabulated on a dense grid.

Simulated data enter only through the sufficient statistic, and each
family's statistic has a one-deviate exact law that numpy's ``Generator``
samples in O(1) at any ``n``: a normal mean, or a Poisson, binomial or
gamma total.  :func:`sample_suffstat` draws it with one generator call.

The gamma and beta posterior CDFs are closed forms, the regularized
incomplete gamma and beta functions of :mod:`bayessize.specfun`, and
their quantiles invert them by a bracketed Newton iteration.  The
exponential-rate posterior's CDF and quantiles are its grid's trapezoid
rule, but its log density is closed form.  Where bounded, all three
densities are unimodal, and each highest-density interval is one Newton
root in both ends: equal closed-form densities and mass ``level`` under
the posterior's own CDF.

Posterior objects are immutable once constructed and safe to share
across threads.  All numeric posterior summaries (quantiles, interval
masses, highest-density regions) resolve to 1e-8 in probability or
better unless documented otherwise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    UnsupportedShapeError,
)
from .specfun import (
    beta_i,
    beta_log_norm,
    gamma_log_norm,
    gamma_p,
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
    "GridPosterior",
    "HpdInterval",
    "GRID_NODES",
    "param_bounds",
    "in_domain",
    "fisher_info",
    "inf_weighted_info",
    "sample_suffstat",
    "suffstat_sampler",
    "posterior",
]

GRID_NODES = 4096
_TINY = float(np.finfo(float).tiny)


def _positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite number, got {x!r}")
    return x


def _finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


# ---------------------------------------------------------------------------
# Likelihood families


@dataclass(frozen=True)
class NormalKnownVariance:
    """Normal observations with known variance ``sigma2``; mean unknown."""

    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "sigma2", _positive("sigma2", self.sigma2))


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
    """Whether ``theta`` lies strictly inside the family's parameter domain."""
    if not isinstance(theta, (int, float)) or not math.isfinite(theta):
        return False
    lo, hi = param_bounds(family)
    return lo < theta < hi


def fisher_info(family: LikelihoodFamily, theta: float) -> float:
    """Per-observation Fisher information at ``theta``."""
    if not in_domain(family, theta):
        raise DomainError(f"theta {theta!r} lies outside the domain of {family!r}")
    if isinstance(family, NormalKnownVariance):
        return 1.0 / family.sigma2
    if isinstance(family, Poisson):
        return 1.0 / theta
    if isinstance(family, Bernoulli):
        return 1.0 / (theta * (1.0 - theta))
    return 1.0 / (theta * theta)


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
    which happens exactly when ``theta1`` lies inside the planning range.
    """
    lo = _finite("range lower end", lo)
    hi = _finite("range upper end", hi)
    if not lo < hi:
        raise DomainError(f"planning range must satisfy lo < hi, got [{lo}, {hi}]")
    if not (in_domain(family, lo) and in_domain(family, hi)):
        raise DomainError(
            f"planning range [{lo}, {hi}] must sit inside the domain of {family!r}"
        )
    if theta1 is not None:
        theta1 = _finite("theta1", theta1)
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
    if not math.isfinite(inf_val) or inf_val <= 0.0:
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
        object.__setattr__(self, "mu0", _finite("mu0", self.mu0))
        object.__setattr__(self, "tau2", _positive("tau2", self.tau2))


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
        object.__setattr__(self, "a", _positive("a", self.a))
        object.__setattr__(self, "b", _positive("b", self.b))


@dataclass(frozen=True)
class BetaPrior:
    """Beta prior with the usual shape pair ``(a, b)``; mean ``a / (a + b)``."""

    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _positive("a", self.a))
        object.__setattr__(self, "b", _positive("b", self.b))


@dataclass(frozen=True)
class SufficientStat:
    """Sample size ``n`` and the statistic ``s`` it produced.

    ``s`` is the sample mean for the normal family and the sample sum for
    the count and waiting-time families.
    """

    n: int
    s: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n <= 0:
            raise DomainError(f"sample size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "s", _finite("s", self.s))


def sample_suffstat(
    family: LikelihoodFamily, theta0: float, n: int, rng
) -> SufficientStat:
    """Draw one sufficient statistic for ``n`` observations at ``theta0``.

    The statistic is one draw from its exact law by one call of the
    numpy generator ``rng.generator``, at the same cost for every ``n``:
    the normal mean ``theta0 + sd * Z``, the Poisson total
    Poisson(``n * theta0``), the Bernoulli total Binomial(``n``,
    ``theta0``) and the exponential sum Gamma(``n``) / ``theta0``.
    """
    return SufficientStat(n, suffstat_sampler(family, theta0, n)(rng))


# numpy's limits: ``Generator.poisson`` refuses a mean above
# ``iinfo(int64).max - 10 sqrt(iinfo(int64).max)`` and ``binomial`` an
# ``n`` that does not fit in an int64.
_POISSON_MAX_MEAN = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)
_BINOMIAL_MAX_N = 2**63 - 1
# The normal, Poisson and exponential draws use ``n`` as a float.
_FLOAT_MAX_N = int(sys.float_info.max)


def suffstat_sampler(
    family: LikelihoodFamily, theta0: float, n: int
) -> Callable[[object], float]:
    """The statistic ``s`` that ``sample_suffstat(family, theta0, n, rng)``
    draws, as a float-valued function of ``rng``, with ``n`` and ``theta0``
    checked once for every draw it makes.  ``SufficientStat(n, s)`` checks
    the draw itself."""
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if not in_domain(family, theta0):
        raise DomainError(f"theta0 {theta0!r} lies outside the domain of {family!r}")
    if n > _FLOAT_MAX_N and not isinstance(family, Bernoulli):
        raise DomainError(f"sample size {n!r} exceeds the largest float {_FLOAT_MAX_N:.17g}")

    if isinstance(family, NormalKnownVariance):
        sd = math.sqrt(family.sigma2 / n)
        return lambda rng: theta0 + sd * rng.generator.standard_normal()
    if isinstance(family, Poisson):
        mean = n * theta0
        if mean > _POISSON_MAX_MEAN:
            raise DomainError(
                f"Poisson mean n * theta0 = {mean!r} exceeds numpy's limit {_POISSON_MAX_MEAN!r}"
            )
        return lambda rng: float(rng.generator.poisson(mean))
    if isinstance(family, Bernoulli):
        if n > _BINOMIAL_MAX_N:
            raise DomainError(
                f"Bernoulli sample size {n!r} exceeds numpy's binomial limit {_BINOMIAL_MAX_N!r}"
            )
        return lambda rng: float(rng.generator.binomial(n, theta0))
    return lambda rng: rng.generator.standard_gamma(n) / theta0


# ---------------------------------------------------------------------------
# Highest-density intervals


@dataclass(frozen=True)
class HpdInterval:
    """A highest-density interval and the posterior mass it captures."""

    lo: float
    hi: float
    mass: float


def _check_prob(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise DomainError(f"probability must lie strictly inside (0, 1), got {alpha!r}")
    return alpha


def _check_level(level: float) -> float:
    level = float(level)
    if not math.isfinite(level) or not 0.0 < level < 1.0:
        raise DomainError(f"credibility level must lie in (0, 1), got {level!r}")
    return level


# ---------------------------------------------------------------------------
# Posterior families


@dataclass(frozen=True)
class NormalPosterior:
    """Normal posterior with the given mean and variance."""

    mean_value: float
    variance_value: float

    def __post_init__(self):
        object.__setattr__(self, "mean_value", _finite("mean", self.mean_value))
        object.__setattr__(
            self, "variance_value", _positive("variance", self.variance_value)
        )

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance_value)

    def mean(self) -> float:
        return self.mean_value

    def variance(self) -> float:
        return self.variance_value

    def quantile(self, alpha: float) -> float:
        return self.mean_value + self.sd * std_normal_quantile(_check_prob(alpha))

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
        level = _check_level(level)
        half = self.sd * std_normal_quantile(0.5 * (1.0 + level))
        return HpdInterval(self.mean_value - half, self.mean_value + half, level)

    def prob_above(self, theta1: float) -> float:
        theta1 = _finite("theta1", theta1)
        return 1.0 - std_normal_cdf((theta1 - self.mean_value) / self.sd)


class _NumericPosterior:
    """Quantiles, interval masses and highest-density intervals computed
    from a scalar ``cdf``.

    The gamma and beta posteriors supply ``_cdf`` for positive ``x``;
    ``_log_pdf_at`` and ``_dlog_pdf_at``, the normalised log density and
    its derivative at a float inside the support; ``_mode``; a starting
    point ``_guess(p)``; ``_hi``, the support's upper edge or a point
    above every representable quantile; and ``_edge_shapes``, the
    exponents ``e`` of the density's power laws ``x^(e - 1)`` at zero and
    ``(1 - x)^(e - 1)`` at one (inf for the gamma's exponential tail),
    below 1 of which the density is unbounded.  ``GridPosterior``
    overrides ``quantile``, which inverts its piecewise quadratic CDF
    directly, and ``_cdf_density``, its trapezoid CDF and density.
    """

    __slots__ = ()
    _lo = 0.0

    def cdf(self, x: float) -> float:
        if math.isnan(x):
            raise DomainError("x must not be NaN")
        return 0.0 if x <= 0.0 else self._cdf(x)

    def quantile(self, alpha: float) -> float:
        """Invert ``cdf`` by Newton steps, bisecting whenever a step leaves
        the bracket the evaluated points have built up.

        The result is within 1e-8 in probability or, where no double comes
        that close (a beta quantile within about 1e-16 of 1 when ``b`` is
        small), a double next to the exact quantile.  Otherwise raises
        ``AccuracyError``.  The last Newton correction, below 1e-12 of the
        point, is applied: the HPD's equal-density ends need it.
        """
        p = _check_prob(alpha)
        lo, hi = 0.0, self._hi
        x = min(max(self._guess(p), 1e-300), hi * (1.0 - 2.0**-52))
        for _ in range(100):
            err = self.cdf(x) - p
            if err == 0.0:
                return x
            if err > 0.0:
                hi = x
            elif err < 0.0:
                lo = x
            # The CDF's slope is the density; capping the exponent sends a
            # step from a vanishing density out of the bracket, not to inf.
            new = x - err * math.exp(min(-self._log_pdf_at(x), 700.0))
            if abs(new - x) <= 1e-12 * x and abs(err) <= 1e-8:
                return new if lo < new < hi else x
            if new == x:  # a step below one ulp: try the neighbouring double
                new = math.nextafter(x, lo if err > 0.0 else hi)
            if not lo < new < hi:
                new = 0.5 * (lo + hi)
                if not lo < new < hi:  # no double lies between lo and hi
                    return x
            x = new
        raise AccuracyError(f"{self!r}: quantile did not reach 1e-8 at p={p!r}")

    def interval_mass(self, lo: float, hi: float) -> float:
        if not lo <= hi:
            raise DomainError(f"interval must satisfy lo <= hi, got [{lo}, {hi}]")
        return max(self.cdf(hi) - self.cdf(lo), 0.0)

    def prob_above(self, theta1: float) -> float:
        return 1.0 - self.cdf(_finite("theta1", theta1))

    @cached_property
    def _hpd_cache(self) -> dict[float, HpdInterval]:
        """Intervals already found, by level (a slot in ``GridPosterior``)."""
        return {}

    def hpd(self, level: float) -> HpdInterval:
        """Highest-density interval: the shortest one of mass ``level``,
        found by ``_hpd`` once per level and then kept."""
        level = _check_level(level)
        cached = self._hpd_cache.get(level)
        if cached is None:
            cached = self._hpd_cache[level] = self._hpd(level)
        return cached

    def _hpd(self, level: float) -> HpdInterval:
        """The interval's ends have equal densities (Hyndman 1996; Chen and
        Shao 1999) and are found by ``_hpd_ends``.  The mass is never below
        ``level``: the ends are widened by ulps until it is reached.  A
        shape below 1 makes the density unbounded at an edge and raises
        ``UnsupportedShapeError``.
        """
        if min(self._edge_shapes) < 1.0:
            raise UnsupportedShapeError(
                "highest-density intervals need a bounded density; "
                f"{self!r} is unbounded at an edge of its support"
            )
        lo, hi = self._hpd_ends(level)
        mass = self.cdf(hi) - self.cdf(lo)
        pad_lo, pad_hi = math.ulp(lo), math.ulp(hi)
        while mass < level:  # the quantiles' rounding can leave it short
            lo, hi = max(lo - pad_lo, self._lo), min(hi + pad_hi, self._hi)
            mass = self.cdf(hi) - self.cdf(lo)
            pad_lo, pad_hi = 2.0 * pad_lo, 2.0 * pad_hi
        return HpdInterval(lo, hi, mass)

    def _hpd_ends(self, level: float) -> tuple[float, float]:
        """Ends ``lo < mode < hi`` of equal log density ``l`` and mass
        ``F(hi) - F(lo) = level``, by Newton steps in both ends at once from
        the equal-tail quantiles.  The Jacobian's determinant
        ``l'(lo) f(hi) - l'(hi) f(lo)`` is positive.  Steps go in ``log(lo)``
        and ``log(_hi - hi)``, where the edges' power laws are linear: an
        end near an edge keeps its digits.  A step that leaves the bracket
        halves the distance to it instead.  The last, below 1e-9 of both
        ends, is applied.  An edge at least as dense as ``Q(level)`` or
        ``Q(1 - level)`` is an end instead, returned as ``_lo`` or ``_hi``;
        its density is taken at ``x0``, ``_lo`` or else the least positive
        double, or at ``top``, the last double below ``_hi``.
        """
        x0, edge, mode = self._lo or _TINY, self._hi, self._mode
        top = math.nextafter(edge, 0.0)
        tail = 0.5 * (1.0 - level)
        lo, hi = self.quantile(tail), min(self.quantile(1.0 - tail), top)
        # Unimodality: an edge that is an end is at least as dense as the
        # other end's equal-tail quantile.
        l_x0, l_top = self._log_pdf_at(x0), self._log_pdf_at(top)
        if l_x0 >= self._log_pdf_at(hi):
            q = self.quantile(level)
            if l_x0 >= self._log_pdf_at(min(q, top)):
                return self._lo, q
        if l_top >= self._log_pdf_at(lo):
            q = self.quantile(1.0 - level)
            if l_top >= self._log_pdf_at(min(q, top)):
                return q, edge
        lo = lo if x0 < lo < mode else 0.5 * (x0 + mode)
        hi = hi if mode < hi <= top else 0.5 * (mode + top)
        for _ in range(100):
            cdf_lo, f_lo = self._cdf_density(lo)
            cdf_hi, f_hi = self._cdf_density(hi)
            g = self._log_pdf_at(lo) - self._log_pdf_at(hi)
            h = cdf_hi - cdf_lo - level
            dl_lo, dl_hi = self._dlog_pdf_at(lo), self._dlog_pdf_at(hi)
            # Positive unless both densities underflow: NaN steps then halve.
            det = (dl_lo * f_hi - dl_hi * f_lo) or math.nan
            step_lo = -(f_hi * g + dl_hi * h) / det
            step_hi = -(f_lo * g + dl_lo * h) / det
            done = abs(step_lo) <= 1e-9 * lo and abs(step_hi) <= 1e-9 * hi
            new_lo = lo * math.exp(min(step_lo / lo, 700.0))
            new_hi = edge - (edge - hi) * math.exp(min(-step_hi / (edge - hi), 700.0))
            if not x0 < new_lo < mode:
                new_lo = 0.5 * (lo + (x0 if new_lo <= x0 else mode))
            if not mode < new_hi <= top:
                new_hi = 0.5 * (hi + (top if new_hi > top else mode))
            if done:
                return new_lo, new_hi
            lo, hi = new_lo, new_hi
        raise AccuracyError(
            f"{self!r}: HPD ends did not reach equal densities at level={level!r}"
        )

    def _cdf_density(self, x: float) -> tuple[float, float]:
        """The CDF at ``x`` and its slope, the density."""
        return self._cdf(x), math.exp(self._log_pdf_at(x))


@dataclass(frozen=True)
class GammaPosterior(_NumericPosterior):
    """Gamma posterior in the shape/rate parameterisation."""

    shape: float
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "shape", _positive("shape", self.shape))
        object.__setattr__(self, "rate", _positive("rate", self.rate))

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    @cached_property
    def _log_norm(self) -> float:
        """Log of the density's normalising constant, rate^shape / Gamma(shape)."""
        return self.shape * math.log(self.rate) + self._cdf_log_norm

    @cached_property
    def _cdf_log_norm(self) -> float:
        """``-log Gamma(shape)``, the normaliser ``gamma_p`` would compute."""
        return gamma_log_norm(self.shape)

    def _log_pdf_at(self, x: float) -> float:
        return self._log_norm - self.rate * x + (self.shape - 1.0) * math.log(x)

    def _dlog_pdf_at(self, x: float) -> float:
        return (self.shape - 1.0) / x - self.rate

    @property
    def _edge_shapes(self) -> tuple[float, float]:
        return self.shape, math.inf

    @property
    def _mode(self) -> float:
        return max(self.shape - 1.0, 0.0) / self.rate

    def _cdf(self, x: float) -> float:
        y = self.rate * x
        return 1.0 if math.isinf(y) else gamma_p(self.shape, y, self._cdf_log_norm)

    @property
    def _hi(self) -> float:
        # Forty standard deviations (plus forty units for small shapes)
        # past the mean, where the upper tail is far below 1e-16.
        k = self.shape
        return (k + 40.0 * math.sqrt(k) + 40.0) / self.rate

    def _guess(self, p: float) -> float:
        # Numerical Recipes 6.2.1: Wilson-Hilferty above shape 1, raised to
        # the power law y^k / Gamma(k + 1) >= P(k, y), a lower bound on the
        # quantile that is sharp in the far lower tail.  Below shape 1, the
        # power law near zero and an exponential tail beyond.
        k = self.shape
        if k > 1.0:
            z = std_normal_quantile(p)
            y = k * max(1.0 - 1.0 / (9.0 * k) + z / (3.0 * math.sqrt(k)), 0.0) ** 3
            y = max(y, math.exp((math.log(p) + math.lgamma(k + 1.0)) / k))
        else:
            t = 1.0 - k * (0.253 + 0.12 * k)
            y = (p / t) ** (1.0 / k) if p < t else 1.0 - math.log1p(-(p - t) / (1.0 - t))
        return y / self.rate


@dataclass(frozen=True)
class BetaPosterior(_NumericPosterior):
    """Beta posterior with shape pair ``(a, b)`` on the unit interval."""

    a: float
    b: float
    _hi = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", _positive("a", self.a))
        object.__setattr__(self, "b", _positive("b", self.b))

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def variance(self) -> float:
        t = self.a + self.b
        return self.a * self.b / (t * t * (t + 1.0))

    @cached_property
    def _log_norm(self) -> float:
        """Log of the density's normalising constant, 1 / B(a, b)."""
        return -(math.lgamma(self.a) + math.lgamma(self.b) - math.lgamma(self.a + self.b))

    @cached_property
    def _cdf_log_norm(self) -> float:
        """``-log B(a, b)`` as ``beta_i`` would compute it, which rounds
        differently from ``_log_norm``."""
        return beta_log_norm(self.a, self.b)

    def _log_pdf_at(self, x: float) -> float:
        return (self._log_norm + (self.a - 1.0) * math.log(x)
                + (self.b - 1.0) * math.log1p(-x))

    def _dlog_pdf_at(self, x: float) -> float:
        return (self.a - 1.0) / x - (self.b - 1.0) / (1.0 - x)

    @property
    def _edge_shapes(self) -> tuple[float, float]:
        return self.a, self.b

    @property
    def _mode(self) -> float:
        a, b = self.a, self.b
        return 0.0 if a <= 1.0 else 1.0 if b <= 1.0 else (a - 1.0) / (a + b - 2.0)

    def _cdf(self, x: float) -> float:
        return 1.0 if x >= 1.0 else beta_i(self.a, self.b, x, self._cdf_log_norm)

    def _guess(self, p: float) -> float:
        # Numerical Recipes 6.4.  Near 0 the CDF follows x^a / (a B(a, b))
        # and near 1 it follows 1 - (1 - x)^b / (b B(a, b)).  Solved for p,
        # the first law bounds the quantile from below when b >= 1 (above
        # when b < 1), the second from above when a >= 1 (below when a < 1).
        a, b = self.a, self.b
        ln_beta = -self._log_norm
        lower = math.exp(min(math.log(a * p) + ln_beta, 0.0) / a)  # capped at 1
        upper = -math.expm1(min(math.log(b * (1.0 - p)) + ln_beta, 0.0) / b)
        if a < 1.0 and b < 1.0:
            return lower if lower < a / (a + b) or upper <= 0.0 else upper
        if a < 1.0 or b < 1.0:
            return max(lower, upper) if a < 1.0 else min(lower, upper)
        z = -std_normal_quantile(p)
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        x = a / (a + b * math.exp(min(2.0 * w, 700.0)))
        return min(max(x, lower), upper)  # a normal-based start, clipped


# The exponential-rate grid, rates k / K for k = 1..K, and its logarithms,
# shared read-only by every rate posterior.
_RATE_NODES = np.arange(1, GRID_NODES + 1, dtype=float) / GRID_NODES
_RATE_NODES.setflags(write=False)
_RATE_STEP = float(_RATE_NODES[1] - _RATE_NODES[0])
with np.errstate(divide="ignore"):
    _LOG_RATE = np.log(_RATE_NODES)
    _LOG1M_RATE = np.log1p(-_RATE_NODES)
_BELOW_ONE = math.nextafter(1.0, 0.0)


@lru_cache(maxsize=4)
def _rate_log_kernel(shape: float, b: float) -> np.ndarray:
    """``(shape - 1) log r + (b - 1) log(1 - r)``, -inf at r = 1 if b > 1."""
    d = (shape - 1.0) * _LOG_RATE
    return d if b == 1.0 else d + (b - 1.0) * _LOG1M_RATE


class GridPosterior(_NumericPosterior):
    """Posterior of an exponential rate on (0, 1] under a beta prior,
    tabulated at the rates k / K, k = 1..K.

    Its log density ``l(r) = (shape - 1) log r - s r + (b - 1) log(1 - r)``,
    with ``shape = a + n`` and ``s`` the sample sum, is concave for
    ``shape > 1`` and ``b >= 1``; ``_log_pdf_at`` is ``l``, not normalised.
    The density is scaled to unit trapezoid mass, the mean and variance are
    trapezoid integrals, and quantiles invert the trapezoid CDF exactly:
    within a segment the density is linear and the CDF quadratic.
    """

    __slots__ = ("shape", "b", "s", "_mode", "density", "_node_cdf", "_hpd_cache")
    nodes, step = _RATE_NODES, _RATE_STEP
    _lo, _hi = _RATE_STEP, 1.0

    def __init__(self, shape: float, b: float, s: float):
        self.shape, self.b, self.s = shape, b, s
        # l'(r) r (1 - r) = (shape - 1) - B r + s r^2 vanishes at the mode,
        # its smaller root, here in the form that does not cancel; with
        # shape <= 1 the density falls from zero.
        big = shape + b - 2.0 + s
        disc = max(big * big - 4.0 * s * (shape - 1.0), 0.0)
        self._mode = 2.0 * (shape - 1.0) / (big + math.sqrt(disc)) if shape > 1.0 else 0.0
        d = _RATE_NODES * -s
        d += _rate_log_kernel(shape, b)
        d -= self._log_pdf_at(min(max(self._mode, _RATE_STEP), _BELOW_ONE))
        np.exp(d, out=d)
        # One cumulative sum of the doubled segments d[i] + d[i + 1] gives the node
        # CDF and, last, the total in units of step / 2, which makes it end at 1.
        node_cdf = np.empty(d.size)
        node_cdf[0] = 0.0
        np.add(d[:-1], d[1:], out=node_cdf[1:])
        np.cumsum(node_cdf[1:], out=node_cdf[1:])
        total = float(node_cdf[-1])
        if not (math.isfinite(total) and total > 0.0):
            raise AccuracyError(f"{self!r}: grid density has non-positive total mass")
        node_cdf /= total
        d *= 2.0 / (total * _RATE_STEP)
        d.setflags(write=False)
        self.density, self._node_cdf = d, node_cdf
        self._hpd_cache: dict[float, HpdInterval] = {}

    def __repr__(self) -> str:
        return f"GridPosterior(shape={self.shape!r}, b={self.b!r}, s={self.s!r})"

    def _trapezoid(self, f: np.ndarray) -> float:
        """Trapezoid integral of ``f`` times the density over the grid."""
        d = self.density
        ends = 0.5 * (d.item(0) * f.item(0) + d.item(-1) * f.item(-1))
        return self.step * (float(d.dot(f)) - ends)

    def mean(self) -> float:
        return self._trapezoid(self.nodes)

    def variance(self) -> float:
        dev = self.nodes - self.mean()
        dev *= dev
        return self._trapezoid(dev)

    def _cdf(self, x: float) -> float:
        return 0.0 if x <= self._lo else 1.0 if x >= self._hi else self._cdf_density(x)[0]

    def _cdf_density(self, x: float) -> tuple[float, float]:
        """The trapezoid CDF inside the nodes and its slope, the density."""
        d = self.density.item
        # Node i is (i + 1) / K exactly, K a power of two, so the segment
        # node(i) <= x < node(i + 1) is floor(x K) - 1, clamped to the grid.
        i = min(max(int(x * GRID_NODES) - 1, 0), GRID_NODES - 2)
        x_i, d_i = (i + 1) * self.step, d(i)
        t = (x - x_i) / self.step
        d_at = d_i + t * (d(i + 1) - d_i)
        partial = 0.5 * (d_i + d_at) * (x - x_i)
        return min(self._node_cdf.item(i) + partial, 1.0), d_at

    def quantile(self, alpha: float) -> float:
        """Leftmost point where the trapezoid CDF reaches ``alpha``."""
        p = _check_prob(alpha)
        d, cdf = self.density.item, self._node_cdf
        j = int(cdf.searchsorted(p)) - 1  # the segment that reaches p
        gain = p - cdf.item(j)
        d_j = d(j)
        slope = (d(j + 1) - d_j) / self.step
        root = math.sqrt(max(d_j * d_j + 2.0 * slope * gain, 0.0))
        # The quadratic's root in the cancellation-free form 2g / (d + sqrt(...)).
        t = 2.0 * gain / max(d_j + root, _TINY)
        return (j + 1) * self.step + min(t, self.step)

    def _log_pdf_at(self, x: float) -> float:
        value = (self.shape - 1.0) * math.log(x) - self.s * x
        return value if self.b == 1.0 else value + (self.b - 1.0) * math.log1p(-x)

    def _dlog_pdf_at(self, x: float) -> float:
        return (self.shape - 1.0) / x - self.s - (self.b - 1.0) / (1.0 - x)

    _edge_shapes = (1.0, 1.0)  # bounded on the nodes; _hpd_ends finds the edges



Posterior = Union[NormalPosterior, GammaPosterior, BetaPosterior, GridPosterior]


# ---------------------------------------------------------------------------
# Conjugate updating


def posterior(family: LikelihoodFamily, prior, stat: SufficientStat) -> Posterior:
    """Posterior for ``family`` under ``prior`` given a sufficient statistic.

    Supported pairs: normal/normal, Poisson/gamma, Bernoulli/beta, and
    exponential-rate/beta (rates restricted to (0, 1], returned on a
    grid).  Anything else raises ``ConfigurationError``.
    """
    if isinstance(family, NormalKnownVariance) and isinstance(prior, NormalPrior):
        c = family.sigma2 / (stat.n * prior.tau2)
        mean = (stat.s + c * prior.mu0) / (1.0 + c)
        var = family.sigma2 * prior.tau2 / (stat.n * prior.tau2 + family.sigma2)
        return NormalPosterior(mean, var)

    if isinstance(family, Poisson) and isinstance(prior, GammaPrior):
        if stat.s < 0.0 or stat.s != math.floor(stat.s):
            raise DomainError(f"Poisson total must be a nonnegative integer, got {stat.s!r}")
        return GammaPosterior(shape=prior.b + stat.s, rate=prior.a + stat.n)

    if isinstance(family, Bernoulli) and isinstance(prior, BetaPrior):
        if stat.s < 0.0 or stat.s > stat.n or stat.s != math.floor(stat.s):
            raise DomainError(
                f"Bernoulli total must be an integer in [0, n], got {stat.s!r}"
            )
        return BetaPosterior(prior.a + stat.s, prior.b + (stat.n - stat.s))

    if isinstance(family, ExponentialRate) and isinstance(prior, BetaPrior):
        if stat.s <= 0.0:
            raise DomainError(f"exponential total must be positive, got {stat.s!r}")
        if prior.b < 1.0:
            raise ConfigurationError(
                "rates on (0, 1] with beta prior need b >= 1; the posterior "
                "density is unbounded at 1 otherwise"
            )
        return GridPosterior(prior.a + stat.n, prior.b, stat.s)

    raise ConfigurationError(
        f"no conjugate update for family {family!r} with prior {prior!r}"
    )
