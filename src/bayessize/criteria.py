"""Planning criteria, their closed-form sample sizes, and the
information-based approximations to their expected functionals.

Each criterion asks that an averaged posterior summary reach a target
uniformly over a planning range of parameter values.  In the large-n
normal approximation every one of them reduces to a closed form in the
infimum of (weighted) Fisher information over that range, which is what
:func:`min_sample_size` inverts.  The infimum is exact too: the least
value at the range's ends and at the family's stationary point inside
it, if any (:func:`~bayessize.models.inf_weighted_info`).  The
``asymptotic_*`` evaluators expose the same approximations as functions
of ``n`` so callers can compare them with exact or simulated values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .errors import DomainError
from .functionals import (
    CenteredIntervalMass,
    CredibleLength,
    Functional,
    HpdLower,
    HpdUpper,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
)
from .models import HpdInterval, LikelihoodFamily, fisher_info, inf_weighted_info
from .specfun import std_normal_cdf, std_normal_quantile

__all__ = [
    "Apvc",
    "Acc",
    "Alc",
    "EffectSize",
    "Criterion",
    "SampleSizeResult",
    "min_sample_size",
    "criterion_value",
    "asymptotic_expected_variance",
    "asymptotic_centered_mass",
    "asymptotic_credible_length",
    "asymptotic_expected_quantile",
    "asymptotic_tail_mass",
    "asymptotic_hpd",
    "asymptotic_functional",
]

# Ceiling snap: real-valued solutions that are integers up to accumulated
# rounding must not be pushed up a whole step.
_CEIL_SLACK = 1e-9


def _check_range(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"planning range must be finite with lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")
    return alpha


@dataclass(frozen=True)
class Apvc:
    """Average posterior variance criterion: expected variance <= ``eps``."""

    eps: float
    lo: float
    hi: float

    def __post_init__(self):
        eps = float(self.eps)
        if not math.isfinite(eps) or eps <= 0.0:
            raise DomainError(f"eps must be a positive finite number, got {eps!r}")
        lo, hi = _check_range(self.lo, self.hi)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class Acc:
    """Average coverage criterion: the centred interval of ``length``
    carries expected posterior mass at least ``1 - alpha``."""

    length: float
    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        length = float(self.length)
        if not math.isfinite(length) or length <= 0.0:
            raise DomainError(f"length must be a positive finite number, got {length!r}")
        lo, hi = _check_range(self.lo, self.hi)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class Alc:
    """Average length criterion: the central ``1 - alpha`` credible
    interval has expected length at most ``length``."""

    length: float
    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        length = float(self.length)
        if not math.isfinite(length) or length <= 0.0:
            raise DomainError(f"length must be a positive finite number, got {length!r}")
        lo, hi = _check_range(self.lo, self.hi)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


@dataclass(frozen=True)
class EffectSize:
    """Evidence-of-separation criterion: expected posterior mass on the
    far side of ``theta1`` reaches ``1 - alpha``.

    ``theta1`` must lie outside the planning range, otherwise no sample
    size can work (the weighted information infimum vanishes).
    """

    theta1: float
    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        theta1 = float(self.theta1)
        if not math.isfinite(theta1):
            raise DomainError(f"theta1 must be finite, got {theta1!r}")
        lo, hi = _check_range(self.lo, self.hi)
        object.__setattr__(self, "theta1", theta1)
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


Criterion = Union[Apvc, Acc, Alc, EffectSize]


@dataclass(frozen=True)
class SampleSizeResult:
    """Solved sample size: the integer answer, the real-valued solution it
    was ceiled from, and the information infimum that produced it."""

    n_min: int
    n_real: float
    inf_info: float


def _ceil_snap(n_real: float) -> int:
    if not math.isfinite(n_real) or n_real <= 0.0:
        raise DomainError(f"solved sample size is not a positive number: {n_real!r}")
    return max(int(math.ceil(n_real - _CEIL_SLACK)), 1)


def min_sample_size(criterion: Criterion, family: LikelihoodFamily) -> SampleSizeResult:
    """Smallest integer ``n`` meeting ``criterion`` for ``family``.

    The real-valued solution comes from inverting the leading-order
    normal approximation at the least-informative point of the planning
    range; it is kept alongside the ceiled integer so callers can see how
    close the bound is.
    """
    if isinstance(criterion, Apvc):
        info = inf_weighted_info(family, criterion.lo, criterion.hi)
        n_real = 1.0 / (criterion.eps * info)
    elif isinstance(criterion, Acc):
        info = inf_weighted_info(family, criterion.lo, criterion.hi)
        z = std_normal_quantile(1.0 - 0.5 * criterion.alpha)
        n_real = 4.0 * z * z / (criterion.length**2 * info)
    elif isinstance(criterion, Alc):
        info = inf_weighted_info(family, criterion.lo, criterion.hi)
        spread = std_normal_quantile(1.0 - 0.5 * criterion.alpha) - std_normal_quantile(
            0.5 * criterion.alpha
        )
        n_real = spread * spread / (criterion.length**2 * info)
    elif isinstance(criterion, EffectSize):
        info = inf_weighted_info(
            family, criterion.lo, criterion.hi, theta1=criterion.theta1
        )
        z = std_normal_quantile(criterion.alpha)
        n_real = 2.0 * z * z / info
    else:
        raise DomainError(f"unknown criterion {criterion!r}")
    return SampleSizeResult(_ceil_snap(n_real), n_real, info)


def _check_n(n: float) -> float:
    try:
        n = float(n)
    except OverflowError:
        raise DomainError(
            f"sample size {n!r} exceeds the largest float {sys.float_info.max!r}"
        ) from None
    if not math.isfinite(n) or n <= 0.0:
        raise DomainError(f"sample size must be positive, got {n!r}")
    return n


def _scaled_info(family: LikelihoodFamily, theta0: float, n: float) -> float:
    return fisher_info(family, theta0) * _check_n(n)


def asymptotic_expected_variance(
    family: LikelihoodFamily, theta0: float, n: float
) -> float:
    """Leading-order expected posterior variance, ``1 / (n I(theta0))``."""
    return 1.0 / _scaled_info(family, theta0, n)


def asymptotic_centered_mass(
    family: LikelihoodFamily, theta0: float, n: float, length: float
) -> float:
    """Leading-order expected mass of the centred interval of ``length``."""
    if length <= 0.0 or not math.isfinite(length):
        raise DomainError(f"length must be a positive finite number, got {length!r}")
    ni = _scaled_info(family, theta0, n)
    return 2.0 * std_normal_cdf(0.5 * length * math.sqrt(ni)) - 1.0


def asymptotic_credible_length(
    family: LikelihoodFamily, theta0: float, n: float, alpha: float
) -> float:
    """Leading-order expected length of the central ``1 - alpha`` interval."""
    alpha = _check_alpha(alpha)
    ni = _scaled_info(family, theta0, n)
    spread = std_normal_quantile(1.0 - 0.5 * alpha) - std_normal_quantile(0.5 * alpha)
    return spread / math.sqrt(ni)


def asymptotic_expected_quantile(
    family: LikelihoodFamily, theta0: float, n: float, alpha: float
) -> float:
    """Leading-order expected posterior ``alpha`` quantile."""
    alpha = _check_alpha(alpha)
    ni = _scaled_info(family, theta0, n)
    return theta0 + std_normal_quantile(alpha) / math.sqrt(ni)


def asymptotic_tail_mass(
    family: LikelihoodFamily, theta0: float, n: float, theta1: float
) -> float:
    """Leading-order expected posterior mass above ``theta1``."""
    if not math.isfinite(theta1):
        raise DomainError(f"theta1 must be finite, got {theta1!r}")
    ni = _scaled_info(family, theta0, n)
    return 1.0 - std_normal_cdf(math.sqrt(0.5 * ni) * (theta1 - theta0))


def asymptotic_hpd(
    family: LikelihoodFamily, theta0: float, n: float, level: float
) -> HpdInterval:
    """Leading-order highest-density interval, centred at ``theta0``."""
    level = float(level)
    if not math.isfinite(level) or not 0.0 < level < 1.0:
        raise DomainError(f"credibility level must lie in (0, 1), got {level!r}")
    ni = _scaled_info(family, theta0, n)
    half = std_normal_quantile(0.5 * (1.0 + level)) / math.sqrt(ni)
    return HpdInterval(theta0 - half, theta0 + half, level)


def criterion_value(
    criterion: Criterion, family: LikelihoodFamily, theta0: float, n: float
) -> float:
    """The criterion's expected functional under the leading-order
    approximation, evaluated at ``theta0`` and ``n``."""
    if isinstance(criterion, Apvc):
        return asymptotic_expected_variance(family, theta0, n)
    if isinstance(criterion, Acc):
        return asymptotic_centered_mass(family, theta0, n, criterion.length)
    if isinstance(criterion, Alc):
        return asymptotic_credible_length(family, theta0, n, criterion.alpha)
    if isinstance(criterion, EffectSize):
        return asymptotic_tail_mass(family, theta0, n, criterion.theta1)
    raise DomainError(f"unknown criterion {criterion!r}")


def asymptotic_functional(
    functional: Functional, family: LikelihoodFamily, theta0: float, n: float
) -> float:
    """Leading-order expected value of ``functional`` at ``theta0``."""
    if isinstance(functional, PosteriorVariance):
        return asymptotic_expected_variance(family, theta0, n)
    if isinstance(functional, PosteriorQuantile):
        return asymptotic_expected_quantile(family, theta0, n, functional.alpha)
    if isinstance(functional, CredibleLength):
        return asymptotic_credible_length(family, theta0, n, functional.alpha)
    if isinstance(functional, HpdLower):
        return asymptotic_hpd(family, theta0, n, functional.level).lo
    if isinstance(functional, HpdUpper):
        return asymptotic_hpd(family, theta0, n, functional.level).hi
    if isinstance(functional, HpdWidth):
        interval = asymptotic_hpd(family, theta0, n, functional.level)
        return interval.hi - interval.lo
    if isinstance(functional, CenteredIntervalMass):
        return asymptotic_centered_mass(family, theta0, n, functional.length)
    if isinstance(functional, TailMassAbove):
        return asymptotic_tail_mass(family, theta0, n, functional.theta1)
    raise DomainError(f"unknown functional {functional!r}")
