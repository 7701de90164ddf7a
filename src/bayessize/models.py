"""Likelihood families, priors, sufficient statistics and posteriors.

Four one-parameter observation models are supported: normal with known
variance, Poisson, Bernoulli, and exponential parameterised by its rate.
The first three pair with their conjugate priors and yield closed-form
posterior families; the exponential-rate model pairs with a beta prior
restricted to rates in (0, 1] and is represented on a dense grid.

The gamma and beta posterior CDFs are closed forms, the regularized
incomplete gamma and beta functions of :mod:`bayessize.specfun`; their
quantiles invert them by a bracketed Newton iteration, and their
highest-density intervals are exact: one scalar root puts the ends at
equal densities.  Only the exponential-rate grid searches for its
highest-density interval, among the nodes that the two equal-tail
quantiles bracket, and then slides its ends to equal densities.

Posterior objects are immutable once constructed and safe to share
across threads.  All numeric posterior summaries (quantiles, interval
masses, highest-density regions) resolve to 1e-8 in probability or
better unless documented otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    UnsupportedShapeError,
)
from .randomness import normal_deviate, poisson_deviate
from .specfun import beta_i, gamma_p, std_normal_cdf, std_normal_quantile

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

    Uniform consumption is fixed per family so that seeded runs are
    reproducible: the normal mean uses one deviate (its exact law), the
    Bernoulli and exponential sums use one uniform per observation, and
    the Poisson sum is one deviate of mean ``n * theta0`` (its exact law):
    inversion below a mean of 10, PTRS above.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if not in_domain(family, theta0):
        raise DomainError(f"theta0 {theta0!r} lies outside the domain of {family!r}")

    if isinstance(family, NormalKnownVariance):
        s = theta0 + math.sqrt(family.sigma2 / n) * normal_deviate(rng)
        return SufficientStat(n, s)
    if isinstance(family, Poisson):
        return SufficientStat(n, float(poisson_deviate(rng, n * theta0)))
    if isinstance(family, Bernoulli):
        u = rng.uniforms(n)
        return SufficientStat(n, float(int(np.count_nonzero(u < theta0))))
    u = rng.uniforms(n)
    return SufficientStat(n, float(-np.log1p(-u).sum() / theta0))


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
    """Quantiles and interval masses computed from a scalar ``cdf``.

    The gamma and beta posteriors supply ``_cdf`` for positive ``x``;
    ``_log_pdf_at`` and ``_dlog_pdf_at``, the log density and its
    derivative at a float inside the support; a starting point
    ``_guess(p)``; ``_hi``, a point above every representable quantile;
    and ``_edge_shapes``, the exponents ``e`` of the density's power laws
    ``x^(e - 1)`` at zero and ``(1 - x)^(e - 1)`` at one (inf for the
    gamma's exponential tail), which place the HPD's ends.
    ``GridPosterior`` overrides ``cdf``, ``quantile`` and ``_hpd``: it
    inverts its piecewise quadratic CDF directly and searches its nodes.
    """

    __slots__ = ()

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
            lo, hi = max(lo - pad_lo, 0.0), min(hi + pad_hi, self._hi)
            mass = self.cdf(hi) - self.cdf(lo)
            pad_lo, pad_hi = 2.0 * pad_lo, 2.0 * pad_hi
        return HpdInterval(lo, hi, mass)

    def _hpd_ends(self, level: float) -> tuple[float, float]:
        """Ends ``Q(p)`` and ``Q(p + level)`` of equal log density ``l``.

        The lower end's tail mass ``p`` is the root of
        ``h(p) = l(Q(p)) - l(Q(p + level))`` on ``(0, 1 - level)``.  For a
        log-concave density ``f = exp(l)``, ``h`` increases, with slope
        ``l'(lo) / f(lo) - l'(hi) / f(hi)``.  Newton steps are taken in
        ``s = logit(p / (1 - level))`` from the equal-tail point ``s = 0``;
        there the tails ``p`` and ``1 - level - p`` scale the slope's terms
        to finite size.  A step that leaves the bracket of evaluated points
        bisects it.  Steps stay within ``p >= 1e-300`` and an upper tail of
        at least 2^-50, where ``p + level`` still rounds below 1.  A root
        past either limit puts that end on the support's edge:
        ``[0, Q(level)]`` or ``[Q(1 - level), 1]``.  So does a shape of
        exactly 1 there, where the density falls from zero or rises to one;
        shapes within about 1e-3 of 1 reach the limits.
        """
        rest = 1.0 - level
        lower, upper = self._edge_shapes
        s_min = math.log(1e-300 / rest)
        s_max = math.log(rest) + 50.0 * math.log(2.0)
        s_lo = s_max if upper == 1.0 else -math.inf
        s_hi = s_min if lower == 1.0 else math.inf
        s, last = min(0.0, s_max), None
        for _ in range(100):
            if s_hi <= s_min:
                return 0.0, self.quantile(level)
            if s_lo >= s_max:
                return self.quantile(rest), self._hi
            p = rest / (1.0 + math.exp(-s))
            if p == last:  # a step in s below one ulp of p
                return lo, hi
            last = p
            lo, hi = self.quantile(p), self.quantile(p + level)
            l_lo, l_hi = self._log_pdf_at(lo), self._log_pdf_at(hi)
            h = l_lo - l_hi
            if h <= 0.0:
                s_lo = s
            if h >= 0.0:
                s_hi = s
            # dp/ds = p q / rest, with q = rest - p the upper end's tail
            log_dp = math.log(p) - math.log1p(math.exp(s))
            slope = (self._dlog_pdf_at(lo) * math.exp(min(log_dp - l_lo, 700.0))
                     - self._dlog_pdf_at(hi) * math.exp(min(log_dp - l_hi, 700.0)))
            # Only rounding makes the slope non-positive; NaN then bisects.
            new = s - h / slope if slope > 0.0 else math.nan
            if abs(new - s) <= 1e-10 * (1.0 + abs(s)) or s_lo == s_hi:
                return lo, hi
            new = min(max(new, s_min), s_max)
            if not s_lo < new < s_hi:
                new = 0.5 * (s_lo + s_hi)
                if not s_lo < new < s_hi:  # one side still open: go to its limit
                    new = s_min if s_hi < math.inf else s_max
            s = new
        raise AccuracyError(
            f"{self!r}: HPD ends did not reach equal densities at level={level!r}"
        )


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
        return self.shape * math.log(self.rate) - math.lgamma(self.shape)

    def _log_pdf_at(self, x: float) -> float:
        return self._log_norm - self.rate * x + (self.shape - 1.0) * math.log(x)

    def _dlog_pdf_at(self, x: float) -> float:
        return (self.shape - 1.0) / x - self.rate

    @property
    def _edge_shapes(self) -> tuple[float, float]:
        return self.shape, math.inf

    def _cdf(self, x: float) -> float:
        y = self.rate * x
        return 1.0 if math.isinf(y) else gamma_p(self.shape, y)

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

    def _log_pdf_at(self, x: float) -> float:
        return (self._log_norm + (self.a - 1.0) * math.log(x)
                + (self.b - 1.0) * math.log1p(-x))

    def _dlog_pdf_at(self, x: float) -> float:
        return (self.a - 1.0) / x - (self.b - 1.0) / (1.0 - x)

    @property
    def _edge_shapes(self) -> tuple[float, float]:
        return self.a, self.b

    def _cdf(self, x: float) -> float:
        return 1.0 if x >= 1.0 else beta_i(self.a, self.b, x)

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


class GridPosterior(_NumericPosterior):
    """Posterior represented by densities on a uniform grid of nodes.

    The density is scaled to unit trapezoid mass, and the mean and
    variance are trapezoid integrals.  Quantiles invert the trapezoid CDF
    exactly: within a segment the density is linear and the CDF quadratic.
    """

    __slots__ = ("nodes", "density", "step", "_node_cdf", "_hpd_cache")

    def __init__(self, nodes: np.ndarray, density: np.ndarray, step: float):
        """Build from uniformly spaced ``nodes`` ``step`` apart and finite,
        nonnegative ``density`` values, which are not checked.

        One cumulative sum of the doubled segments ``d[i] + d[i + 1]``
        gives the node CDF and, last, the total mass in units of ``step / 2``;
        dividing by it leaves ``_node_cdf[-1]`` exactly 1."""
        node_cdf = np.zeros(density.size)
        np.add(density[:-1], density[1:], out=node_cdf[1:])
        np.cumsum(node_cdf[1:], out=node_cdf[1:])
        total = float(node_cdf[-1])
        if not (math.isfinite(total) and total > 0.0):
            raise AccuracyError("grid density has non-positive total mass")
        node_cdf /= total

        self.nodes = nodes
        self.nodes.setflags(write=False)
        self.density = density * (2.0 / (total * step))
        self.density.setflags(write=False)
        self.step = step
        self._node_cdf = node_cdf
        self._hpd_cache: dict[float, HpdInterval] = {}

    def _trapezoid(self, f: np.ndarray) -> float:
        """Trapezoid integral of ``f`` times the density over the grid."""
        d = self.density
        ends = 0.5 * (float(d[0]) * float(f[0]) + float(d[-1]) * float(f[-1]))
        return self.step * (float(np.dot(d, f)) - ends)

    def mean(self) -> float:
        return self._trapezoid(self.nodes)

    def variance(self) -> float:
        dev = self.nodes - self.mean()
        dev *= dev
        return self._trapezoid(dev)

    def cdf(self, x: float) -> float:
        nodes, d = self.nodes, self.density
        if math.isnan(x):
            raise DomainError("x must not be NaN")
        if x <= nodes[0]:
            return 0.0
        if x >= nodes[-1]:
            return 1.0
        # The segment nodes[i] <= x < nodes[i + 1]; on a uniform grid the
        # guess is off by at most one.
        i = min(int((x - nodes[0]) / self.step), nodes.size - 2)
        while nodes[i] > x:
            i -= 1
        while nodes[i + 1] <= x:
            i += 1
        x_i, d_i = float(nodes[i]), float(d[i])
        t = (x - x_i) / self.step
        d_at = d_i + t * (float(d[i + 1]) - d_i)
        partial = 0.5 * (d_i + d_at) * (x - x_i)
        return min(float(self._node_cdf[i]) + partial, 1.0)

    def quantile(self, alpha: float) -> float:
        alpha = _check_prob(alpha)
        return self._invert_cdf_at(alpha, int(np.searchsorted(self._node_cdf, alpha)))[0]

    def _invert_cdf_at(self, p: float, j: int) -> tuple[float, float]:
        """Leftmost point where the trapezoid CDF reaches ``p`` in (0, 1],
        and the density there; ``j`` is the first node with CDF >= ``p``."""
        d, cdf = self.density, self._node_cdf
        j -= 1
        gain = p - float(cdf[j])
        d_j = float(d[j])
        slope = (float(d[j + 1]) - d_j) / self.step
        root = math.sqrt(max(d_j * d_j + 2.0 * slope * gain, 0.0))
        t = 2.0 * gain / max(d_j + root, _TINY)
        return float(self.nodes[j]) + min(t, self.step), root

    def _invert_cdf(self, targets: np.ndarray) -> np.ndarray:
        """Leftmost points where the trapezoid CDF reaches each target.

        Within a segment the density is linear and the CDF quadratic; the
        root is taken in the cancellation-free form ``2g / (d + sqrt(...))``.
        """
        d, cdf = self.density, self._node_cdf
        # Targets lie in [0, 1], so only a zero target needs j clipped.
        j = np.maximum(np.searchsorted(cdf, targets, side="left") - 1, 0)
        d_j = d[j]
        gain = targets - cdf[j]
        slope = (d[j + 1] - d_j) / self.step
        root = np.sqrt(np.maximum(d_j * d_j + 2.0 * slope * gain, 0.0))
        # The denominator vanishes only where the gain does (t = 0 then).
        t = 2.0 * gain / np.maximum(d_j + root, _TINY)
        return self.nodes[j] + np.minimum(t, self.step)

    def _density_at(self, v: float, r: int) -> float:
        """``np.interp(v, nodes, density)`` in scalar arithmetic, given the
        number ``r`` of nodes at or below ``v``."""
        x, d = self.nodes, self.density
        if r <= 0:
            return float(d[0])
        if r >= x.size:
            return float(d[-1])
        x_j, d_j = float(x[r - 1]), float(d[r - 1])
        return (float(d[r]) - d_j) / (float(x[r]) - x_j) * (v - x_j) + d_j

    def _equal_density_ends(self, lo: float, hi: float) -> tuple[float, float]:
        """Slide an interval, at equal mass, to where its end densities agree.

        Each end moves within one segment, where the density is linear with
        slope ``rise > 0`` (left) or ``fall < 0`` (right); equal mass gained
        and lost gives ``c^2 = (d_hi^2 rise - d_lo^2 fall) / (rise - fall)``
        for the common density.  The interval is returned unchanged when an
        end would leave its segment (the optimum then is a node or the
        support's edge, where the interval already is) or the ends are not
        on a rising and a falling flank.
        """
        x, d = self.nodes, self.density
        r_lo, r_hi = np.searchsorted(x, (lo, hi), side="right").tolist()
        d_lo, d_hi = self._density_at(lo, r_lo), self._density_at(hi, r_hi)
        if not d_hi > d_lo:  # an end on a node moves in the segment below it
            r_lo -= int(r_lo > 0 and x[r_lo - 1] == lo)
            r_hi -= int(r_hi > 0 and x[r_hi - 1] == hi)
        p = min(max(r_lo - 1, 0), d.size - 2)
        q = min(max(r_hi - 1, 0), d.size - 2)
        rise = float(d[p + 1] - d[p]) / self.step
        fall = float(d[q + 1] - d[q]) / self.step
        if not rise > 0.0 > fall:
            return lo, hi
        c = math.sqrt((d_hi * d_hi * rise - d_lo * d_lo * fall) / (rise - fall))
        new_lo = lo + (c - d_lo) / rise
        new_hi = hi + (c - d_hi) / fall
        if x[p] <= new_lo <= x[p + 1] and x[q] <= new_hi <= x[q + 1]:
            return new_lo, new_hi
        return lo, hi

    def _shortest(self, level: float) -> tuple[float, float]:
        """Shortest interval of mass ``level`` with one end on a node.

        Take ``t = (1 - level) / 2`` and the equal-tail ends ``qa = Q(t)``
        and ``qb = Q(1 - t)``.  Were the optimal lower end below ``qa``,
        then ``qa`` would lie inside the optimum and ``qb`` outside it, or
        both past its upper end, so ``d(qa) >= d(qb)`` for any unimodal
        density at any level.  Hence if ``d(qa) <= d(qb)`` the lower end's
        CDF lies in ``[t, 1 - level]`` and the upper end ``u`` lies past
        ``qb``; the density on ``[qb, u]`` is at least the optimum's end
        density, which is at least ``d(qa)``, and its mass at most ``t``, so
        ``u <= qb + t / d(qa)``.  Otherwise the same holds mirrored.  Only
        the nodes in these ranges, widened by two nodes at each end, are
        tried: as lower ends, the upper end being where the trapezoid CDF
        has gained ``level``, and as upper ends.  The width is quasi-convex in either
        end, so the nodes next to the optimum's ends are among them, and the
        shortest candidate (cf. Chen and Shao 1999) is the one a sweep over
        every node would find, unless the density is flat and any interval
        of mass ``level`` is shortest.
        """
        x, cdf = self.nodes, self._node_cdf
        tail = 0.5 * (1.0 - level)
        # The first nodes whose CDF reaches t, 1 - level, level and 1 - t.
        i_t, i_rest, i_level, i_ut = np.searchsorted(
            cdf, (tail, 1.0 - level, level, 1.0 - tail)
        ).tolist()
        qa, d_a = self._invert_cdf_at(tail, i_t)
        qb, d_b = self._invert_cdf_at(1.0 - tail, i_ut)
        # Node ranges [a0, a1) of the lower ends and [b0, b1) of the upper.
        if d_a <= d_b:
            k = int(np.searchsorted(x, qb + tail / max(d_a, _TINY)))
            a0, a1, b0, b1 = i_t - 2, i_rest + 2, i_ut - 2, k + 2
        else:
            k = int(np.searchsorted(x, qa - tail / max(d_b, _TINY)))
            a0, a1, b0, b1 = k - 2, i_t + 2, i_level - 2, i_ut + 2
        a0, b0, b1 = max(a0, 0), max(b0, 0), min(b1, x.size)
        gained = cdf[a0:a1] + level  # CDF at the upper ends
        gained = gained[gained <= cdf[-1]]
        lost = cdf[b0:b1]
        lost = lost[lost >= level] - level  # CDF at the lower ends
        n, b0 = gained.size, b1 - lost.size
        ends = self._invert_cdf(np.concatenate((gained, lost)))
        widths = np.concatenate((ends[:n] - x[a0 : a0 + n], x[b0:b1] - ends[n:]))
        best = int(np.argmin(widths))
        if best < n:
            return float(x[a0 + best]), float(ends[best])
        return float(ends[best]), float(x[b0 + best - n])

    def _certified(self, lo: float, hi: float, level: float) -> HpdInterval:
        """Slide ``[lo, hi]`` to equal end densities, widen it until its mass
        is at least ``level``, and check that it is a super-level set.  The
        pad that widens it starts at one ulp of the ends, so that the first
        pass already moves them, and doubles each pass."""
        x, d = self.nodes, self.density
        lo, hi = self._equal_density_ends(lo, hi)

        mass = self.cdf(hi) - self.cdf(lo)
        pad = max(math.ulp(lo), math.ulp(hi))
        while mass < level:  # rounding can leave the mass an ulp short
            lo, hi = max(lo - pad, float(x[0])), min(hi + pad, float(x[-1]))
            mass = self.cdf(hi) - self.cdf(lo)
            pad *= 2.0

        r_lo, right = np.searchsorted(x, (lo, hi), side="right").tolist()
        d_lo, d_hi = self._density_at(lo, r_lo), self._density_at(hi, right)
        left = r_lo - int(r_lo > 0 and x[r_lo - 1] == lo)
        outside = max(d[:left].max(initial=0.0), d[right:].max(initial=0.0))
        inside = d[left:right].min(initial=np.inf)
        # A denser node outside or a valley inside; slack for flat stretches.
        if outside > max(d_lo, d_hi) * (1 + 1e-9) or inside < min(d_lo, d_hi) * (1 - 1e-9):
            raise UnsupportedShapeError(
                "posterior density has a disconnected super-level set; "
                "highest-density intervals require a single interval"
            )
        return HpdInterval(lo, hi, mass)

    def _hpd(self, level: float) -> HpdInterval:
        """A shortest-interval search bracketed by the equal-tail quantiles.

        The shortest interval of mass ``level`` with an end on a node (see
        ``_shortest``) is slid to equal end densities (cf. Hyndman 1996), so
        the ends move continuously with the data.  The mass is never below
        ``level`` and exceeds it only by rounding, well under 1e-12.  A
        node outside the interval denser than both ends, or one inside it
        less dense than either, means a disconnected super-level set and
        raises ``UnsupportedShapeError``.
        """
        return self._certified(*self._shortest(level), level)


Posterior = Union[NormalPosterior, GammaPosterior, BetaPosterior, GridPosterior]

# The exponential-rate grid, rates k / K for k = 1..K, and its logarithms,
# shared read-only by every rate posterior.
_RATE_NODES = np.arange(1, GRID_NODES + 1, dtype=float) / GRID_NODES
_RATE_NODES.setflags(write=False)
_RATE_STEP = float(_RATE_NODES[1] - _RATE_NODES[0])
with np.errstate(divide="ignore"):
    _LOG_RATE = np.log(_RATE_NODES)
    _LOG1M_RATE = np.log1p(-_RATE_NODES)


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
        # Only the rate 1 term can be infinite (-inf, when b > 1), and it
        # exponentiates to a zero density.
        d = (prior.a - 1.0 + stat.n) * _LOG_RATE
        d -= _RATE_NODES * stat.s
        if prior.b != 1.0:
            d += (prior.b - 1.0) * _LOG1M_RATE
        d -= d.max()
        return GridPosterior(_RATE_NODES, np.exp(d, out=d), _RATE_STEP)

    raise ConfigurationError(
        f"no conjugate update for family {family!r} with prior {prior!r}"
    )
