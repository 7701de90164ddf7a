"""Scalar summaries of a posterior, as small value objects.

A functional pins down *what* is measured on each realised posterior
(variance, a quantile, an interval length, a highest-density endpoint,
and so on); the simulation and oracle layers average it over repeated
sampling.  Keeping them as frozen dataclasses makes run configurations
hashable and printable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import DomainError, check_fields, finite, open_unit, positive


class _OpenUnit:
    """Checks that the functional's one field lies strictly inside (0, 1)."""

    def __post_init__(self):
        (name,) = self.__dataclass_fields__
        check_fields(self, **{name: open_unit})


@dataclass(frozen=True)
class PosteriorVariance:
    """The posterior variance."""


@dataclass(frozen=True)
class PosteriorQuantile(_OpenUnit):
    """The posterior quantile at probability ``alpha``."""

    alpha: float


@dataclass(frozen=True)
class CredibleLength(_OpenUnit):
    """Length of the central credible interval with tail mass ``alpha``.

    Measures ``quantile(1 - alpha/2) - quantile(alpha/2)``.
    """

    alpha: float


@dataclass(frozen=True)
class HpdLower(_OpenUnit):
    """Lower endpoint of the highest-density interval at ``level``."""

    level: float


@dataclass(frozen=True)
class HpdUpper(_OpenUnit):
    """Upper endpoint of the highest-density interval at ``level``."""

    level: float


@dataclass(frozen=True)
class HpdWidth(_OpenUnit):
    """Width of the highest-density interval at ``level``."""

    level: float


@dataclass(frozen=True)
class CenteredIntervalMass:
    """Posterior mass of the interval of ``length`` centred at the mean."""

    length: float

    def __post_init__(self):
        check_fields(self, length=positive)


@dataclass(frozen=True)
class TailMassAbove:
    """Posterior mass above the fixed point ``theta1``."""

    theta1: float

    def __post_init__(self):
        check_fields(self, theta1=finite)


Functional = Union[
    PosteriorVariance,
    PosteriorQuantile,
    CredibleLength,
    HpdLower,
    HpdUpper,
    HpdWidth,
    CenteredIntervalMass,
    TailMassAbove,
]


def evaluate(functional: Functional, post) -> float:
    """Value of ``functional`` on one realised posterior."""
    if isinstance(functional, PosteriorVariance):
        return post.variance()
    if isinstance(functional, PosteriorQuantile):
        return post.quantile(functional.alpha)
    if isinstance(functional, CredibleLength):
        lo, hi = post.equal_tails(0.5 * functional.alpha)
        return hi - lo
    if isinstance(functional, HpdLower):
        return post.hpd(functional.level).lo
    if isinstance(functional, HpdUpper):
        return post.hpd(functional.level).hi
    if isinstance(functional, HpdWidth):
        interval = post.hpd(functional.level)
        return interval.hi - interval.lo
    if isinstance(functional, CenteredIntervalMass):
        mid = post.mean()
        half = 0.5 * functional.length
        return post.interval_mass(mid - half, mid + half)
    if isinstance(functional, TailMassAbove):
        return 1.0 - post.cdf(functional.theta1)
    raise DomainError(f"unknown functional {functional!r}")
