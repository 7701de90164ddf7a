"""Exact expected posterior functionals for the bundled studies.

For the conjugate normal, Poisson-gamma, and Bernoulli-uniform studies
the average of a posterior summary over repeated sampling collapses to a
closed form.  The exponential-rate study has no closed form; its
expectation is computed by the trapezoid rule in ``z``, a scaled
``log s``, over the Gamma(n, theta0) sampling law of the sufficient
statistic ``s``, with an error estimate from comparing step ``h``
against ``h / 2``, and serves as the oracle the Monte Carlo layer is
tested against.  Each posterior it averages over certifies its own rule
to 1e-8 or raises ``AccuracyError``, so a returned value is certified in
both rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    finite,
    integer,
    open_unit,
    positive,
)
from .functionals import (
    CredibleLength,
    Functional,
    PosteriorQuantile,
    PosteriorVariance,
    CenteredIntervalMass,
    TailMassAbove,
    evaluate,
)
from .models import RATE_BLOCK_ROWS, BetaPrior, rate_posterior
from .specfun import std_normal_cdf, std_normal_quantile

__all__ = [
    "ExactEval",
    "exact_normal",
    "normal_expected_density_at_truth",
    "normal_expected_density_sq_at_truth",
    "normal_tail_mass_convolution",
    "exact_poisson_variance",
    "exact_bernoulli_variance",
    "expbeta_expected",
    "expbeta_expected_many",
    "RATE_PRIOR",
]

# The rate study's prior, Beta(1.5, 1.5): table 3's and the command line's default.
RATE_PRIOR = BetaPrior(1.5, 1.5)

# The rate oracle's trapezoid rule in z = sqrt(n) log(theta0 s / n): points
# where the log weight is within the window of its peak, and the step of
# the finest rule, h / 2 at h = 0.1.  Past 28 a point carries under 1e-12
# of the weight: on table 3, a window of 45 moved no expectation by more
# than 5e-13 relative and cost a third more posteriors.
_LOG_WEIGHT_WINDOW = 28.0
_FINEST_STEP = 0.05


@dataclass(frozen=True)
class ExactEval:
    """An exactly evaluated expectation.

    ``method`` records how the number was obtained ("closed_form" or
    "log_s_trapezoid"); quadrature results carry the relative
    ``error_estimate`` ``|T_h - T_{h/2}| / |T_{h/2}|`` between the
    trapezoid rules of step ``h`` and ``h / 2`` in ``log s``, whose
    step-``h / 2`` value is ``value``.
    """

    value: float
    method: str
    error_estimate: float | None = None


# ---------------------------------------------------------------------------
# Normal observations, normal prior


def _normal_setup(sigma2, mu0, tau2, theta0, n):
    sigma2, tau2 = positive("sigma2", sigma2), positive("tau2", tau2)
    mu0, theta0, n = finite("mu0", mu0), finite("theta0", theta0), positive("n", n)
    shrink = sigma2 / (n * tau2)
    post_var = sigma2 * tau2 / (n * tau2 + sigma2)
    return sigma2, mu0, tau2, theta0, n, shrink, post_var


def exact_normal(
    functional: Functional,
    sigma2: float,
    mu0: float,
    tau2: float,
    theta0: float,
    n: float,
) -> ExactEval:
    """Expected value of ``functional`` for normal data with a normal prior.

    The posterior variance is data-free, so variance, centred-interval
    mass, and credible length average to themselves; the expected
    quantile shifts the expected posterior mean by a z multiple of the
    posterior standard deviation.  The tail-mass form replaces the
    posterior mean's sampling spread by the leading normal term, so it is
    exact only to first order; :func:`normal_tail_mass_convolution` keeps
    the full Gaussian convolution.
    """
    sigma2, mu0, tau2, theta0, n, shrink, post_var = _normal_setup(
        sigma2, mu0, tau2, theta0, n
    )
    post_sd = math.sqrt(post_var)

    if isinstance(functional, PosteriorVariance):
        return ExactEval(post_var, "closed_form")
    if isinstance(functional, PosteriorQuantile):
        mean = (theta0 + shrink * mu0) / (1.0 + shrink)
        z = std_normal_quantile(functional.alpha)
        return ExactEval(mean + post_sd * z, "closed_form")
    if isinstance(functional, CenteredIntervalMass):
        half = 0.5 * functional.length
        return ExactEval(2.0 * std_normal_cdf(half / post_sd) - 1.0, "closed_form")
    if isinstance(functional, CredibleLength):
        spread = std_normal_quantile(1.0 - 0.5 * functional.alpha) - std_normal_quantile(
            0.5 * functional.alpha
        )
        return ExactEval(spread * post_sd, "closed_form")
    if isinstance(functional, TailMassAbove):
        arg = math.sqrt(0.5 * n) * (functional.theta1 - theta0) / math.sqrt(sigma2)
        return ExactEval(1.0 - std_normal_cdf(arg), "closed_form")
    raise ConfigurationError(
        f"no closed form for functional {functional!r} in the normal study"
    )


def _normal_mean_law(sigma2, mu0, tau2, theta0, n):
    """Mean and variance of the posterior mean over repeated sampling."""
    shrink = sigma2 / (n * tau2)
    mean = (theta0 + shrink * mu0) / (1.0 + shrink)
    var = sigma2 / (n * (1.0 + shrink) ** 2)
    return mean, var


def normal_tail_mass_convolution(
    sigma2: float, mu0: float, tau2: float, theta0: float, n: float, theta1: float
) -> float:
    """Expected posterior mass above ``theta1``, via the full convolution.

    Averages ``1 - cdf(theta1)`` over the exact normal sampling law of
    the posterior mean, with no first-order truncation.
    """
    sigma2, mu0, tau2, theta0, n, shrink, post_var = _normal_setup(
        sigma2, mu0, tau2, theta0, n
    )
    theta1 = finite("theta1", theta1)
    mean, var = _normal_mean_law(sigma2, mu0, tau2, theta0, n)
    return 1.0 - std_normal_cdf((theta1 - mean) / math.sqrt(post_var + var))


def normal_expected_density_at_truth(
    sigma2: float, mu0: float, tau2: float, theta0: float, n: float
) -> float:
    """Expected posterior density at the data-generating parameter."""
    sigma2, mu0, tau2, theta0, n, shrink, post_var = _normal_setup(
        sigma2, mu0, tau2, theta0, n
    )
    mean, var = _normal_mean_law(sigma2, mu0, tau2, theta0, n)
    total = post_var + var
    delta = theta0 - mean
    return math.exp(-0.5 * delta * delta / total) / math.sqrt(2.0 * math.pi * total)


def normal_expected_density_sq_at_truth(
    sigma2: float, mu0: float, tau2: float, theta0: float, n: float
) -> float:
    """Expected squared posterior density at the data-generating parameter.

    The squared normal density is itself a scaled normal density with
    half the variance, so the average is again a one-dimensional normal
    evaluation.
    """
    sigma2, mu0, tau2, theta0, n, shrink, post_var = _normal_setup(
        sigma2, mu0, tau2, theta0, n
    )
    mean, var = _normal_mean_law(sigma2, mu0, tau2, theta0, n)
    post_sd = math.sqrt(post_var)
    total = 0.5 * post_var + var
    delta = theta0 - mean
    peak = 1.0 / (2.0 * post_sd * math.sqrt(math.pi))
    return peak * math.exp(-0.5 * delta * delta / total) / math.sqrt(2.0 * math.pi * total)


# ---------------------------------------------------------------------------
# Poisson observations, gamma prior; Bernoulli observations, uniform prior


def exact_poisson_variance(a: float, b: float, theta0: float, n: float) -> ExactEval:
    """Expected posterior variance for Poisson counts under a gamma prior
    with rate ``a`` and shape ``b``: ``(b + n theta0) / (a + n)^2``."""
    a, b = positive("a", a), positive("b", b)
    theta0, n = positive("theta0", theta0), positive("n", n)
    return ExactEval((b + n * theta0) / (a + n) ** 2, "closed_form")


def exact_bernoulli_variance(theta0: float, n: float) -> ExactEval:
    """Expected posterior variance for Bernoulli trials under the uniform
    prior, a rational function of ``n`` and ``theta0``."""
    theta0, n = open_unit("theta0", theta0), positive("n", n)
    numer = n * n * theta0 - n * theta0 - n * (n - 1.0) * theta0 * theta0 + n + 1.0
    return ExactEval(numer / ((n + 2.0) ** 2 * (n + 3.0)), "closed_form")


# ---------------------------------------------------------------------------
# Exponential-rate observations, beta prior: quadrature oracle


def expbeta_expected_many(
    functionals: list[Functional],
    theta0: float,
    n: int,
    prior: BetaPrior = RATE_PRIOR,
) -> list[ExactEval]:
    """Expected functionals for exponential data with a beta rate prior.

    The sufficient statistic ``s`` is Gamma(n, theta0).  Written as
    ``theta0 * s = x = n exp(z / sqrt(n))``, the expectation is an integral
    over the whole line in ``z`` with log weight
    ``n log x - x - lgamma(n) - log(n) / 2``, smooth and decaying on both
    sides, where the trapezoid rule converges exponentially.  The rule
    sits on the multiples of a step ``h`` at which the log weight is
    within 28 of its peak.  The functionals are evaluated at the points of
    step ``h / 2`` on their rate posteriors, built in blocks of
    ``RATE_BLOCK_ROWS`` rows (see :class:`bayessize.models.RatePosterior`),
    sharing one sweep; every other point gives the step-``h`` rule.
    ``T_{h/2}`` is returned with the error estimate
    ``|T_h - T_{h/2}| / |T_{h/2}|``.  ``h`` starts at 0.4 and is halved,
    reusing every point, while an estimate is above 1e-5; past ``h = 0.1``
    (points 0.05 apart) it raises ``AccuracyError``.
    """
    theta0, n = positive("theta0", theta0), integer("n", n)
    if theta0 > 1.0:
        raise DomainError(f"theta0 must lie in (0, 1] for the rate study, got {theta0!r}")
    if not isinstance(prior, BetaPrior):
        raise ConfigurationError(f"the rate study needs a beta prior, got {prior!r}")
    if not functionals:
        raise DomainError("at least one functional is required")

    # Every candidate point z = j * _FINEST_STEP.  Relative to its peak at
    # z = 0 the log weight is sqrt(n) z - n expm1(z / sqrt(n)), at most
    # n + sqrt(n) z and, for z > 0, at most -z^2 / 2: the window lies inside
    # the range below.
    root = math.sqrt(n)
    lo = -(_LOG_WEIGHT_WINDOW + n) / root
    hi = math.sqrt(2.0 * _LOG_WEIGHT_WINDOW)
    j = np.arange(math.floor(lo / _FINEST_STEP), math.ceil(hi / _FINEST_STEP) + 1)
    z = j * _FINEST_STEP
    drop = root * z - n * np.expm1(z / root)
    keep = drop >= -_LOG_WEIGHT_WINDOW
    j, z, drop = j[keep], z[keep], drop[keep]
    peak = n * math.log(n) - n - math.lgamma(n) - 0.5 * math.log(n)
    weight = np.exp(peak + drop)
    s = n * np.exp(z / root) / theta0

    fvals = np.empty((len(functionals), j.size))
    done = np.zeros(j.size, dtype=bool)

    def rule(stride: int) -> np.ndarray:
        on = j % stride == 0
        return stride * _FINEST_STEP * (fvals[:, on] @ weight[on])

    for stride in (4, 2, 1):  # h = 2 * stride * _FINEST_STEP: 0.4, 0.2, 0.1
        todo = np.flatnonzero((j % stride == 0) & ~done)
        for start in range(0, todo.size, RATE_BLOCK_ROWS):
            block = todo[start:start + RATE_BLOCK_ROWS]
            post = rate_posterior(prior, n, s[block])
            for i, functional in enumerate(functionals):
                fvals[i, block] = evaluate(functional, post)
        done[todo] = True
        fine = rule(stride)
        rel = np.abs(rule(2 * stride) - fine) / np.maximum(np.abs(fine), 1e-300)
        if rel.max() <= 1e-5:
            return [
                ExactEval(float(v), "log_s_trapezoid", float(e)) for v, e in zip(fine, rel)
            ]
    worst = int(rel.argmax())
    h = 2 * _FINEST_STEP
    raise AccuracyError(
        f"trapezoid error estimate {rel[worst]:.3e} for {functionals[worst]!r} at "
        f"theta0={theta0!r}, n={n}, prior={prior!r} still exceeds 1e-5 at the "
        f"last step, h={h!r} against h/2={_FINEST_STEP!r}"
    )


def expbeta_expected(
    functional: Functional,
    theta0: float,
    n: int,
    prior: BetaPrior = RATE_PRIOR,
) -> ExactEval:
    """Single-functional version of :func:`expbeta_expected_many`."""
    return expbeta_expected_many([functional], theta0, n, prior)[0]
