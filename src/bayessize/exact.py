"""Exact expected posterior functionals for the bundled studies.

For the conjugate normal, Poisson-gamma, and Bernoulli-uniform studies
the average of a posterior summary over repeated sampling collapses to a
closed form.  The exponential-rate study has no closed form; its
expectation is computed by generalized Gauss-Laguerre quadrature over
the Gamma(n, theta0) sampling law of the sufficient statistic, with an
error estimate from comparing ``q`` against ``2q`` nodes, and serves as
the oracle the Monte Carlo layer is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import AccuracyError, ConfigurationError, DomainError
from .functionals import (
    CredibleLength,
    Functional,
    PosteriorQuantile,
    PosteriorVariance,
    CenteredIntervalMass,
    TailMassAbove,
    evaluate,
)
from .models import BetaPrior, ExponentialRate, SufficientStat, _finite, _positive, posterior
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
]

DEFAULT_ORACLE_NODES = 32
MIN_ORACLE_NODES = 8
MAX_ORACLE_NODES = 256


@dataclass(frozen=True)
class ExactEval:
    """An exactly evaluated expectation.

    ``method`` records how the number was obtained ("closed_form" or
    "suffstat_quadrature"); quadrature results carry the relative
    ``error_estimate`` ``|v_q - v_2q| / |v_2q|`` between the ``q``-point
    and ``2q``-point Gauss-Laguerre rules, whose ``2q``-point value is
    ``value``.
    """

    value: float
    method: str
    error_estimate: float | None = None


# ---------------------------------------------------------------------------
# Normal observations, normal prior


def _normal_setup(sigma2, mu0, tau2, theta0, n):
    sigma2 = _positive("sigma2", sigma2)
    tau2 = _positive("tau2", tau2)
    mu0 = _finite("mu0", mu0)
    theta0 = _finite("theta0", theta0)
    n = _positive("n", n)
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
    theta1 = _finite("theta1", theta1)
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
    a = _positive("a", a)
    b = _positive("b", b)
    theta0 = _positive("theta0", theta0)
    n = _positive("n", n)
    return ExactEval((b + n * theta0) / (a + n) ** 2, "closed_form")


def exact_bernoulli_variance(theta0: float, n: float) -> ExactEval:
    """Expected posterior variance for Bernoulli trials under the uniform
    prior, a rational function of ``n`` and ``theta0``."""
    theta0 = float(theta0)
    if not 0.0 < theta0 < 1.0:
        raise DomainError(f"theta0 must lie strictly inside (0, 1), got {theta0!r}")
    n = _positive("n", n)
    numer = n * n * theta0 - n * theta0 - n * (n - 1.0) * theta0 * theta0 + n + 1.0
    return ExactEval(numer / ((n + 2.0) ** 2 * (n + 3.0)), "closed_form")


# ---------------------------------------------------------------------------
# Exponential-rate observations, beta prior: quadrature oracle


def _check_expbeta_args(theta0: float, n: int, prior: BetaPrior):
    theta0 = float(theta0)
    if not 0.0 < theta0 <= 1.0:
        raise DomainError(f"theta0 must lie in (0, 1] for the rate study, got {theta0!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if not isinstance(prior, BetaPrior):
        raise ConfigurationError(f"the rate study needs a beta prior, got {prior!r}")
    return theta0, n


@lru_cache(maxsize=64)
def _laguerre_rule(q: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and normalised weights of the ``q``-point Gauss rule for the
    weight ``x^alpha exp(-x)``, by Golub-Welsch on the Laguerre Jacobi matrix.

    ``scipy.special.roots_genlaguerre`` scales these weights by
    ``Gamma(alpha + 1)``, which overflows for ``alpha`` above 171.  Rules
    are memoised (a table-3 build asks for each one three times) and
    returned read-only.
    """
    k = np.arange(q, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    jacobi = np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    x, vecs = np.linalg.eigh(jacobi)
    w = vecs[0] ** 2
    w = w / w.sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def expbeta_expected_many(
    functionals: list[Functional],
    theta0: float,
    n: int,
    prior: BetaPrior = BetaPrior(1.5, 1.5),
    *,
    nodes: int = DEFAULT_ORACLE_NODES,
) -> list[ExactEval]:
    """Expected functionals for exponential data with a beta rate prior.

    The sufficient statistic ``s`` is Gamma(n, theta0), so ``theta0 * s``
    has density ``x^(n-1) exp(-x) / Gamma(n)`` and each expectation is a
    generalized Gauss-Laguerre integral with ``alpha = n - 1``.  The
    functionals are evaluated on the grid posterior at the nodes
    ``s = x / theta0`` of the ``q``-point and ``2q``-point rules
    (``q = nodes``, 8 to 256), sharing one sweep, and averaged.  The
    ``2q``-point value is returned with the error estimate
    ``|v_q - v_2q| / |v_2q|``; above 1e-5 it raises ``AccuracyError``.
    """
    theta0, n = _check_expbeta_args(theta0, n, prior)
    if not functionals:
        raise DomainError("at least one functional is required")
    if not isinstance(nodes, Integral) or not MIN_ORACLE_NODES <= nodes <= MAX_ORACLE_NODES:
        raise DomainError(
            f"node budget q must be an integer in [{MIN_ORACLE_NODES}, "
            f"{MAX_ORACLE_NODES}], got {nodes!r}"
        )

    family = ExponentialRate()

    def averages(q: int) -> np.ndarray:
        x, w = _laguerre_rule(q, n - 1.0)
        fvals = np.empty((len(functionals), q))
        for j, s in enumerate(x / theta0):
            post = posterior(family, prior, SufficientStat(n, float(s)))
            for i, functional in enumerate(functionals):
                fvals[i, j] = evaluate(functional, post)
        return fvals @ w

    coarse = averages(nodes)
    fine = averages(2 * nodes)

    out = []
    for functional, v_q, v_2q in zip(functionals, coarse, fine):
        rel = abs(v_q - v_2q) / max(abs(v_2q), 1e-300)
        if rel > 1e-5:
            raise AccuracyError(
                f"Gauss-Laguerre error estimate {rel:.3e} for {functional!r} at "
                f"theta0={theta0!r}, n={n}, prior={prior!r} with q={nodes} "
                "exceeds 1e-5; increase the node budget"
            )
        out.append(ExactEval(float(v_2q), "suffstat_quadrature", float(rel)))
    return out


def expbeta_expected(
    functional: Functional,
    theta0: float,
    n: int,
    prior: BetaPrior = BetaPrior(1.5, 1.5),
    *,
    nodes: int = DEFAULT_ORACLE_NODES,
) -> ExactEval:
    """Single-functional version of :func:`expbeta_expected_many`."""
    return expbeta_expected_many([functional], theta0, n, prior, nodes=nodes)[0]
