"""Leading asymptotic terms for expected posterior quantities.

These evaluators give the first term of large-sample expansions for
centered posterior moments, expected quantiles, the expected posterior
density (and its square) at the data-generating parameter, and the
derivative sequence of expected posterior distribution functions.  They
complement the exact module: the exact values converge to these terms at
specific, testable rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .criteria import asymptotic_functional
from .errors import integer, positive
from .functionals import PosteriorQuantile
from .models import LikelihoodFamily, fisher_info
from .specfun import (
    expect_half_variance,
    hermite_poly,
    normal_abs_moment,
)

__all__ = [
    "ExpansionTerm",
    "expected_posterior_moment",
    "posterior_moment_term",
    "expected_posterior_quantile",
    "expected_density_at_truth",
    "expected_density_sq_at_truth",
    "expected_cdf_derivative_leading",
]

_FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class ExpansionTerm:
    """One leading term: its value, its order in ``n``, and what it is."""

    value: float
    order: str
    description: str


def expected_posterior_moment(
    family: LikelihoodFamily, theta0: float, n: float, order: int
) -> float:
    """Leading term of the expected centered posterior moment of ``order``.

    Equals the standard normal absolute moment of that order scaled by
    ``(n I)^(-order/2)``.  The coefficient is derived for even orders;
    for odd orders the same formula is extrapolated and should be read as
    indicative (see :func:`posterior_moment_term`).
    """
    return posterior_moment_term(family, theta0, n, order).value


def posterior_moment_term(
    family: LikelihoodFamily, theta0: float, n: float, order: int
) -> ExpansionTerm:
    """Same as :func:`expected_posterior_moment`, with the order label and caveats attached."""
    order = integer("order", order)
    info = fisher_info(family, theta0)
    n = positive("sample size", n)
    value = normal_abs_moment(order) / (n * info) ** (0.5 * order)
    note = "leading centered posterior moment"
    if order % 2 == 1:
        note += "; odd order: even-order coefficient formula extrapolated, indicative only"
    return ExpansionTerm(value, f"n^(-{order}/2)", note)


def expected_posterior_quantile(
    family: LikelihoodFamily, theta0: float, n: float, alpha: float
) -> float:
    """Leading term of the expected posterior ``alpha`` quantile."""
    return asymptotic_functional(PosteriorQuantile(alpha), family, theta0, n)


def expected_density_at_truth(
    family: LikelihoodFamily, theta0: float, n: float, dim: int = 1
) -> float:
    """Leading term of the expected posterior density at ``theta0``.

    For a ``dim``-parameter model with information determinant equal to
    the scalar information this is ``(n / (4 pi))^(dim/2) * sqrt(I)``.
    """
    dim = integer("dim", dim)
    info = fisher_info(family, theta0)
    n = positive("sample size", n)
    return (n / _FOUR_PI) ** (0.5 * dim) * math.sqrt(info)


def expected_density_sq_at_truth(
    family: LikelihoodFamily, theta0: float, n: float, dim: int = 1
) -> float:
    """Leading term of the expected squared posterior density at ``theta0``,
    ``n^dim * I / (3^(dim/2) (2 pi)^dim)``."""
    dim = integer("dim", dim)
    info = fisher_info(family, theta0)
    n = positive("sample size", n)
    return n ** dim * info / (3.0 ** (0.5 * dim) * (2.0 * math.pi) ** dim)


def expected_cdf_derivative_leading(
    family: LikelihoodFamily, theta0: float, n: float, order: int
) -> ExpansionTerm:
    """Leading term of the ``order``-th derivative sequence of the expected
    posterior distribution function at ``theta0``.

    The term couples the Hermite-type polynomial of degree ``order - 1``
    (under the signed recursion with the model's information) with the
    half-variance Gaussian average:

    ``n^(order/2) * sqrt(I / (4 pi)) * E[H_{order-1}(V)]``, V ~ N(0, 1/2).

    At order 1 this reproduces the expected-density leading term; at
    order 2 the polynomial is odd and the term vanishes.
    """
    order = integer("order", order)
    info = fisher_info(family, theta0)
    n = positive("sample size", n)
    poly = hermite_poly(order - 1, info)
    value = (
        n ** (0.5 * order)
        * math.sqrt(info / _FOUR_PI)
        * expect_half_variance(poly)
    )
    return ExpansionTerm(
        value,
        f"n^({order}/2)",
        f"leading derivative term of expected posterior CDF, order {order}",
    )
