"""Scalar special functions and the Hermite-type kernels of the expansions.

Everything here is pure and keeps no state: plain floats in and out, or
numpy polynomials for the Hermite kernels.
The rest of the package builds on these primitives, so their accuracy
targets are the tightest in the tree: the normal quantile is good to
about 1e-16 relative, and the regularized incomplete gamma and beta
functions to a few 1e-11 absolute for shapes up to 2e4 (their log-space
prefactors lose about shape * 1e-16).
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

from .errors import AccuracyError, DomainError, finite, integer, open_unit, positive

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "gamma_p",
    "gamma_log_norm",
    "beta_i",
    "beta_log_norm",
    "normal_moment",
    "normal_abs_moment",
    "hermite_poly",
    "expect_half_variance",
    "gaussian_product_expectation",
]

_STD_NORMAL = NormalDist()
_EPS = 2.220446049250313e-16
_TINY = 1e-300  # Lentz's guard against a zero denominator
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SHAPE_LIMIT = 2.0**53  # the least float shape for which shape + 1 == shape


def std_normal_pdf(x: float) -> float:
    """Standard normal density at ``x``."""
    return _STD_NORMAL.pdf(finite("x", x))


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate to machine precision."""
    x = finite("x", x)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def std_normal_quantile(p: float) -> float:
    """Inverse of :func:`std_normal_cdf` on the open interval (0, 1).

    Wichura's AS241 rational approximations (``statistics.NormalDist``),
    accurate to about 1e-16 relative over the whole domain.
    """
    return _STD_NORMAL.inv_cdf(open_unit("p", p))


def _max_terms(shape: float) -> int:
    # Series and continued fractions below need O(sqrt(shape)) terms
    # (Numerical Recipes, 6.2 and 6.4); the cap leaves a wide margin.  From
    # 2^53 on, shape + 1 rounds to shape, so the terms' denominators stop
    # stepping; such a shape is refused before any loop, which at 1e300
    # would run for 4e151 terms.
    if shape >= _SHAPE_LIMIT:
        raise AccuracyError(
            f"shape {shape!r} is 2**53 or more, where shape + 1 rounds to shape; "
            "the incomplete gamma and beta expansions cannot serve it"
        )
    return 200 + int(40.0 * math.sqrt(shape))


def gamma_log_norm(a: float) -> float:
    """``-log Gamma(a)``, the log normaliser :func:`gamma_p` takes."""
    return -math.lgamma(a)


def gamma_p(a: float, x: float, log_norm: float | None = None) -> float:
    """Regularized lower incomplete gamma function ``P(a, x)``, ``a > 0``.

    Below ``x = a + 1`` the power series of ``P`` is summed; above it the
    continued fraction of ``Q = 1 - P`` is evaluated by the modified Lentz
    method (Numerical Recipes, 6.2).  The prefactor ``x^a e^-x / Gamma(a)``
    is formed in log space, from ``log_norm = gamma_log_norm(a)`` when a
    caller holds it.  Raises ``AccuracyError`` if the expansion has not
    converged at its term cap.
    """
    a, x = positive("a", a), finite("x", x)
    if x < 0.0:
        raise DomainError(f"gamma_p needs x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if log_norm is None:
        log_norm = gamma_log_norm(a)
    prefactor = math.exp(a * math.log(x) - x + log_norm)
    limit = _max_terms(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        for k in range(1, limit):
            term *= x / (a + k)
            total += term
            if abs(term) < abs(total) * _EPS:
                return min(total * prefactor, 1.0)
    else:
        b = x + 1.0 - a
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        for i in range(1, limit):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= _EPS:
                return max(1.0 - prefactor * h, 0.0)
    raise AccuracyError(f"incomplete gamma P({a!r}, {x!r}) did not converge in {limit} terms")


def _beta_fraction(a: float, b: float, x: float, limit: int) -> float:
    # Continued fraction of I_x(a, b) by modified Lentz (Numerical Recipes 6.4).
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) >= _TINY else _TINY)
    h = d
    for m in range(1, limit):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) >= _TINY else _TINY)
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise AccuracyError(
        f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge in {limit} terms"
    )


def beta_log_norm(a: float, b: float) -> float:
    """``-log B(a, b)``, the log normaliser :func:`beta_i` takes."""
    return math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)


def beta_i(a: float, b: float, x: float, log_norm: float | None = None) -> float:
    """Regularized incomplete beta function ``I_x(a, b)`` for ``0 <= x <= 1``.

    The continued fraction converges fast below ``x = (a + 1) / (a + b + 2)``;
    above it the symmetry ``I_x(a, b) = 1 - I_{1-x}(b, a)`` is used.  The
    prefactor ``x^a (1 - x)^b / B(a, b)`` is formed in log space, from
    ``log_norm = beta_log_norm(a, b)`` when a caller holds it.  Raises
    ``AccuracyError`` if the fraction has not converged at its term cap.
    """
    a, b, x = positive("a", a), positive("b", b), finite("x", x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"beta_i needs 0 <= x <= 1, got {x!r}")
    if x == 0.0 or x == 1.0:
        return x
    if log_norm is None:
        log_norm = beta_log_norm(a, b)
    prefactor = math.exp(log_norm + a * math.log(x) + b * math.log1p(-x))
    limit = _max_terms(max(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return min(prefactor * _beta_fraction(a, b, x, limit) / a, 1.0)
    return max(1.0 - prefactor * _beta_fraction(b, a, 1.0 - x, limit) / b, 0.0)


def normal_moment(order: int) -> float:
    """Raw moment E[Z^order] of a standard normal variable.

    Odd orders vanish; even order ``2m`` gives the double factorial
    ``(2m - 1)!!``, which is :func:`normal_abs_moment` of that order.
    """
    order = integer("order", order, least=0)
    return 0.0 if order % 2 == 1 else normal_abs_moment(order)


def normal_abs_moment(order: float) -> float:
    """Absolute moment E[|Z|^order] of a standard normal variable.

    Equals ``2^(order/2) * Gamma((order + 1) / 2) / Gamma(1/2)``.  Integer
    orders take the double-factorial recursion, exact in floating point
    for small orders; fractional orders go through the gamma-function
    form.  Above order 301 the moment exceeds the largest float, and the
    order is refused.
    """
    x = finite("order", order)
    if x < 0:
        raise DomainError(f"absolute moment order must be nonnegative, got {order!r}")
    log_moment = 0.5 * x * math.log(2.0) + math.lgamma(0.5 * (x + 1.0)) - math.lgamma(0.5)
    if log_moment > _LOG_FLOAT_MAX:
        raise DomainError(
            f"normal moment of order {order!r} exceeds the largest float {sys.float_info.max!r}"
        )
    if x == int(x):
        k_max = int(x)
        acc = 1.0 if k_max % 2 == 0 else math.sqrt(2.0 / math.pi)
        for k in range(1 + k_max % 2, k_max, 2):
            acc *= k
        return acc
    return math.exp(log_moment)


def hermite_poly(order: int, info: float):
    """Hermite-type polynomial from the signed recursion used in the
    posterior expansion machinery, as a ``numpy.polynomial.Polynomial``.

    The sequence starts at the constant 1 and steps by
    ``H_{i+1}(v) = H_i'(v) - info * v * H_i(v)``, so for ``info = 1`` the
    first few are 1, -v, v^2 - 1, ...  A coefficient that leaves the floats
    raises ``DomainError``.
    """
    import numpy as np
    from numpy.polynomial import Polynomial  # only the expansions need it

    order = integer("order", order, least=0)
    info = positive("info", info)
    minus_iv = Polynomial([0.0, -info])
    h = Polynomial([1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order):
            h = h.deriv() + minus_iv * h
            for c in h.coef.tolist():
                finite("polynomial coefficient", c)
    return h


def expect_half_variance(poly) -> float:
    """E[p(V)] for V normal with mean zero and variance one half.

    Each monomial picks up the usual moment scaled by ``2^(-k/2)``.
    """
    return sum(
        c * normal_moment(k) / math.pow(2.0, 0.5 * k)
        for k, c in enumerate(poly.coef.tolist())
    )


def gaussian_product_expectation(poly) -> float:
    """Integral of ``p(v) * pdf(v)^2`` over the real line.

    The squared standard normal density integrates like a normal with
    variance one half scaled by ``(4 pi)^(-1/2)``, which turns the
    integral into :func:`expect_half_variance` times that constant.
    """
    return expect_half_variance(poly) / math.sqrt(4.0 * math.pi)
