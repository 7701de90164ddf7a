"""Exception types shared across the package.

The command line maps these onto exit codes: domain and configuration
problems exit 1, an unsatisfiable criterion exits 2, and accuracy or
shape failures exit 3.
"""

from __future__ import annotations


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

    Highest-density intervals are only defined here for bounded densities:
    a shape below 1 at an edge of the support raises this.
    """


class ReplicateError(BayesSizeError):
    """A Monte Carlo replicate failed; ``index`` identifies which one.

    ``simulate_many`` also gives the ``seed``, ``stream_id``, ``family``,
    ``prior``, drawn ``stat`` (``None`` if the draw failed) and failing
    ``functional`` (``None`` unless one failed), all named in the message;
    ``evaluate(functional, posterior(family, prior, stat))`` replays it.
    """

    def __init__(self, index: int, cause: BaseException, *, seed=None, stream_id=None,
                 family=None, prior=None, stat=None, functional=None):
        details = "" if seed is None else (
            f" [seed {seed}, stream {stream_id}, family {family!r}, prior {prior!r}, "
            f"stat {stat!r}, functional {functional!r}]")
        super().__init__(f"replicate {index} failed: {cause}{details}")
        self.index, self.cause, self.seed, self.stream_id = index, cause, seed, stream_id
        self.family, self.prior, self.stat, self.functional = family, prior, stat, functional
