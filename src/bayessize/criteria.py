"""Planning criteria, their closed-form sample sizes, and the
information-based approximations to their expected functionals.

Each criterion asks that an averaged posterior summary reach a target
uniformly over a planning range of parameter values.  In the large-n
normal approximation every one of them reduces to a closed form in the
infimum of (weighted) Fisher information over that range, which is what
:func:`min_sample_size` inverts.  The infimum is exact too: the least
value at the range's ends and at the family's stationary point inside
it, if any (:func:`~bayessize.models.inf_weighted_info`).
:func:`asymptotic_functional` gives the same approximation as a function
of ``n``: the functional of the normal posterior N(theta0, 1/(n I(theta0))),
to compare with exact or simulated values.
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
from .models import LikelihoodFamily, fisher_info, inf_weighted_info
from .specfun import std_normal_cdf, std_normal_quantile

__all__ = [
    "Apvc",
    "Acc",
    "Alc",
    "EffectSize",
    "Criterion",
    "SampleSizeResult",
    "min_sample_size",
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


def _spread(alpha: float) -> float:
    """Width of the central ``1 - alpha`` interval of the standard normal."""
    return std_normal_quantile(1.0 - 0.5 * alpha) - std_normal_quantile(0.5 * alpha)


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
    spread = _spread(criterion.alpha)
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


def asymptotic_functional(
    functional: Functional, family: LikelihoodFamily, theta0: float, n: float
) -> float:
    """Leading-order expected value of ``functional`` at ``theta0``: the
    functional of the normal posterior N(theta0, 1 / (n I(theta0)))."""
    ni = fisher_info(family, theta0) * positive("sample size", n)
    if isinstance(functional, PosteriorVariance):
        return 1.0 / ni
    if isinstance(functional, PosteriorQuantile):
        return theta0 + std_normal_quantile(functional.alpha) / math.sqrt(ni)
    if isinstance(functional, CredibleLength):
        return _spread(functional.alpha) / math.sqrt(ni)
    if isinstance(functional, (HpdLower, HpdUpper, HpdWidth)):
        half = std_normal_quantile(0.5 * (1.0 + functional.level)) / math.sqrt(ni)
        lo, hi = theta0 - half, theta0 + half
        if isinstance(functional, HpdWidth):
            return hi - lo
        return lo if isinstance(functional, HpdLower) else hi
    if isinstance(functional, CenteredIntervalMass):
        return 2.0 * std_normal_cdf(0.5 * functional.length * math.sqrt(ni)) - 1.0
    if isinstance(functional, TailMassAbove):
        # Averaging over the posterior mean doubles the variance.
        return 1.0 - std_normal_cdf(math.sqrt(0.5 * ni) * (functional.theta1 - theta0))
    raise DomainError(f"unknown functional {functional!r}")
