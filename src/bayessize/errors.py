"""Exception types shared across the package, and the checks of scalar
arguments.

The command line maps these onto exit codes: domain and configuration
problems exit 1, an unsatisfiable criterion exits 2, and accuracy or
shape failures exit 3.

Every module checks a scalar argument by one of four rules, each of
which returns the checked value or raises ``DomainError("{name} must
..., got {value!r}")`` naming the argument and the value as given:

- :func:`finite`: a finite float;
- :func:`positive`: a positive, finite float;
- :func:`open_unit`: a float strictly inside (0, 1);
- :func:`integer`: an ``int``, not a ``bool``, of at least ``least``.

A number too large for a float, such as ``10**400``, is refused by the
three float rules as ``"{name} {value!r} exceeds the largest float
1.7976931348623157e+308"``.  :func:`check_fields` applies them to the
fields of a frozen dataclass, and :func:`positive_rows` applies
:func:`positive` to each element of an array of rows.
"""

from __future__ import annotations

import math
import sys


class BayesSizeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BayesSizeError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigurationError(BayesSizeError, ValueError):
    """A structurally invalid combination of model, prior, or options."""


class CriterionUnsatisfiableError(BayesSizeError):
    """No finite sample size can meet the requested accuracy target.

    Raised when the information infimum over the planning range is zero
    or negative, for example when an effect-size alternative sits inside
    the planning range itself.  ``theta`` records the offending point.
    """

    def __init__(self, message: str, theta: float | None = None):
        super().__init__(message)
        self.theta = theta


class AccuracyError(BayesSizeError):
    """A numerical routine could not certify its required tolerance."""


class UnsupportedShapeError(BayesSizeError):
    """The posterior shape falls outside the supported class.

    Highest-density intervals are defined here for a density bounded at
    one edge of the support at least: a monotone posterior, unbounded at
    one edge, has the interval that ends there, and only a beta posterior
    with both shapes below 1 raises this.
    """


class ReplicateError(BayesSizeError):
    """A Monte Carlo replicate failed; ``index`` identifies which one.

    ``simulate_many`` also gives the ``seed``, ``stream_id``, ``family``,
    ``prior``, drawn ``stat`` (``None`` if the draw failed) and failing
    ``functional`` (``None`` unless one failed), all named in the message.
    ``stream_id`` is the replicate's index in the run's one draw, so
    ``sample_suffstat(family, theta0, n, SeededGenerator(seed, stream_id))``
    redraws ``stat`` at the run's ``theta0`` and ``n``, and
    ``evaluate(functional, posterior(family, prior, stat))`` replays the
    failure.
    """

    def __init__(self, index: int, cause: BaseException, *, seed=None, stream_id=None,
                 family=None, prior=None, stat=None, functional=None):
        details = "" if seed is None else (
            f" [seed {seed}, stream {stream_id}, family {family!r}, prior {prior!r}, "
            f"stat {stat!r}, functional {functional!r}]")
        super().__init__(f"replicate {index} failed: {cause}{details}")
        self.index, self.cause, self.seed, self.stream_id = index, cause, seed, stream_id
        self.family, self.prior, self.stat, self.functional = family, prior, stat, functional


def _float(name: str, value) -> float:
    try:
        return float(value)
    except OverflowError:
        raise DomainError(
            f"{name} {value!r} exceeds the largest float {sys.float_info.max!r}"
        ) from None


def finite(name: str, value) -> float:
    """``value`` as a float, refused unless finite."""
    x = _float(name, value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return x


def positive(name: str, value) -> float:
    """``value`` as a float, refused unless positive and finite."""
    x = _float(name, value)
    if not 0.0 < x < math.inf:  # NaN fails both comparisons
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def open_unit(name: str, value) -> float:
    """``value`` as a float, refused unless strictly inside (0, 1)."""
    x = _float(name, value)
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {value!r}")
    return x


def integer(name: str, value, least: int = 1) -> int:
    """``value``, refused unless an ``int`` (not a ``bool``) of at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_fields(obj, **rules) -> None:
    """Replace each named field of the frozen dataclass ``obj`` by its value
    checked under its rule, e.g. ``check_fields(self, a=positive)``."""
    for name, rule in rules.items():
        object.__setattr__(obj, name, rule(name, getattr(obj, name)))


def positive_rows(name: str, value):
    """``value`` as by :func:`positive` if a float; if an array, as a float
    array whose first element that is not positive and finite is refused
    by name as :func:`positive` refuses it."""
    import numpy as np  # only blocks of rows need it

    if np.ndim(value) == 0:
        return positive(name, value)
    values = np.asarray(value, dtype=float)
    if values.size and not (values.min() > 0.0 and values.max() < math.inf):  # NaN fails too
        positive(name, values[~((values > 0.0) & (values < math.inf))][0].item())
    return values
