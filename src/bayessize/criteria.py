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
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, check_fields, finite, open_unit, positive
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


def _check_criterion(criterion, **rules) -> None:
    """Check the criterion's own fields by their ``rules``, and its planning
    range ``[lo, hi]``: finite, with ``lo < hi``."""
    check_fields(criterion, **rules, lo=finite, hi=finite)
    if not criterion.lo < criterion.hi:
        raise DomainError(
            f"planning range must satisfy lo < hi, got [{criterion.lo}, {criterion.hi}]"
        )


@dataclass(frozen=True)
class Apvc:
    """Average posterior variance criterion: expected variance <= ``eps``."""

    eps: float
    lo: float
    hi: float

    def __post_init__(self):
        _check_criterion(self, eps=positive)


@dataclass(frozen=True)
class Acc:
    """Average coverage criterion: the centred interval of ``length``
    carries expected posterior mass at least ``1 - alpha``."""

    length: float
    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        _check_criterion(self, length=positive, alpha=open_unit)


@dataclass(frozen=True)
class Alc:
    """Average length criterion: the central ``1 - alpha`` credible
    interval has expected length at most ``length``."""

    length: float
    alpha: float
    lo: float
    hi: float

    def __post_init__(self):
        _check_criterion(self, length=positive, alpha=open_unit)


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
        _check_criterion(self, theta1=finite, alpha=open_unit)


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


def _real_size(criterion: Criterion, info: float) -> float:
    """The real ``n`` at which the leading-order functional meets the
    criterion's target, given the information infimum ``info``."""
    if isinstance(criterion, Apvc):
        return 1.0 / (criterion.eps * info)
    if isinstance(criterion, EffectSize):
        z = std_normal_quantile(criterion.alpha)
        return 2.0 * z * z / info
    if isinstance(criterion, Acc):
        z = std_normal_quantile(1.0 - 0.5 * criterion.alpha)
        return 4.0 * z * z / (criterion.length**2 * info)
    spread = std_normal_quantile(1.0 - 0.5 * criterion.alpha) - std_normal_quantile(
        0.5 * criterion.alpha
    )
    return spread * spread / (criterion.length**2 * info)


def min_sample_size(criterion: Criterion, family: LikelihoodFamily) -> SampleSizeResult:
    """Smallest integer ``n`` meeting ``criterion`` for ``family``.

    The real-valued solution comes from inverting the leading-order
    normal approximation at the least-informative point of the planning
    range; it is kept alongside the ceiled integer so callers can see how
    close the bound is.
    """
    if not isinstance(criterion, (Apvc, Acc, Alc, EffectSize)):
        raise DomainError(f"unknown criterion {criterion!r}")
    theta1 = criterion.theta1 if isinstance(criterion, EffectSize) else None
    info = inf_weighted_info(family, criterion.lo, criterion.hi, theta1=theta1)
    try:
        n_real = _real_size(criterion, info)
    except ZeroDivisionError:  # the denominator underflowed: the size overflows
        n_real = math.inf
    except OverflowError:  # the length's square left the floats
        raise DomainError(
            f"interval length {criterion.length!r} squared exceeds the largest float"
        ) from None
    return SampleSizeResult(_ceil_snap(n_real), n_real, info)


def _scaled_info(family: LikelihoodFamily, theta0: float, n: float) -> float:
    return fisher_info(family, theta0) * positive("sample size", n)


def asymptotic_expected_variance(
    family: LikelihoodFamily, theta0: float, n: float
) -> float:
    """Leading-order expected posterior variance, ``1 / (n I(theta0))``."""
    return 1.0 / _scaled_info(family, theta0, n)


def asymptotic_centered_mass(
    family: LikelihoodFamily, theta0: float, n: float, length: float
) -> float:
    """Leading-order expected mass of the centred interval of ``length``."""
    length = positive("length", length)
    ni = _scaled_info(family, theta0, n)
    return 2.0 * std_normal_cdf(0.5 * length * math.sqrt(ni)) - 1.0


def asymptotic_credible_length(
    family: LikelihoodFamily, theta0: float, n: float, alpha: float
) -> float:
    """Leading-order expected length of the central ``1 - alpha`` interval."""
    alpha = open_unit("alpha", alpha)
    ni = _scaled_info(family, theta0, n)
    spread = std_normal_quantile(1.0 - 0.5 * alpha) - std_normal_quantile(0.5 * alpha)
    return spread / math.sqrt(ni)


def asymptotic_expected_quantile(
    family: LikelihoodFamily, theta0: float, n: float, alpha: float
) -> float:
    """Leading-order expected posterior ``alpha`` quantile."""
    alpha = open_unit("alpha", alpha)
    ni = _scaled_info(family, theta0, n)
    return theta0 + std_normal_quantile(alpha) / math.sqrt(ni)


def asymptotic_tail_mass(
    family: LikelihoodFamily, theta0: float, n: float, theta1: float
) -> float:
    """Leading-order expected posterior mass above ``theta1``."""
    theta1 = finite("theta1", theta1)
    ni = _scaled_info(family, theta0, n)
    return 1.0 - std_normal_cdf(math.sqrt(0.5 * ni) * (theta1 - theta0))


def asymptotic_hpd(
    family: LikelihoodFamily, theta0: float, n: float, level: float
) -> HpdInterval:
    """Leading-order highest-density interval, centred at ``theta0``."""
    level = open_unit("level", level)
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
