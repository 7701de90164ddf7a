"""Special functions and the Hermite-type kernels of the expansions.

Everything here is pure and keeps no state.  The normal functions take
and return floats; the normal quantile is good to about 1e-16 relative.
The regularized incomplete gamma and beta functions take a float or a
1-d array of rows and return the same: each sums one positive-term
series per row, with a prefactor formed about its peak (DiDonato and
Morris 1986, 1992), so its error grows only like ``sqrt(shape) * 1e-16``;
against mpmath it was within 4e-12 absolute for shapes from 0.05 to 1e9.
The Hermite kernels are numpy polynomials.
"""

from __future__ import annotations

import math
import sys
from statistics import NormalDist

from .errors import AccuracyError, DomainError, finite, integer, open_unit, positive, positive_rows

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "gamma_p",
    "gamma_p_rows",
    "gamma_log_norm",
    "beta_i",
    "beta_i_rows",
    "beta_log_norm",
    "normal_moment",
    "normal_abs_moment",
    "hermite_poly",
    "expect_half_variance",
    "gaussian_product_expectation",
]

_STD_NORMAL = NormalDist()
_EPS = 2.220446049250313e-16
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SHAPE_LIMIT = 2.0**53  # the least float shape for which shape + 1 == shape
# Stirling's series of lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2) in 1 / z
# (Abramowitz and Stegun 6.1.41): from z = 10 the first term left out is below 4e-17.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_SERIES_DROP = 37.0  # a series stops where its terms fall below e^-37 of the largest
_LOG_NEGLIGIBLE = -55.0 * math.log(2.0)  # a tail below 2^-55 leaves 1 - tail == 1.0
# Elements in one array of a series, below the 128 KiB above which malloc
# maps fresh pages for every array, and rows summed side by side.
_SERIES_CELLS, _SERIES_ROWS = 16_000, 512


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


def _max_terms(shape):
    # The series need O(sqrt(shape)) terms past their peak; the cap leaves a
    # wide margin.  From 2^53 on, shape + 1 rounds to shape and the terms'
    # denominators stop stepping, so such a shape is refused before any sum.
    import numpy as np

    if shape.max() >= _SHAPE_LIMIT:
        raise AccuracyError(
            f"shape {float(shape.max())!r} is 2**53 or more, where shape + 1 rounds to "
            "shape; the incomplete gamma and beta expansions cannot serve it"
        )
    return 200.0 + np.floor(40.0 * np.sqrt(shape))


def _stirling_error(z):
    """``lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)`` per row: its
    series from 10 up, ``math.lgamma`` below."""
    import numpy as np

    w2, out = np.maximum(z, 10.0) ** -2, 0.0
    for c in reversed(_STIRLING):
        out = out * w2 + c
    out = out * np.sqrt(w2)
    small = np.flatnonzero(z < 10.0)
    if small.size:
        zs = z[small]
        out[small] = (np.array([math.lgamma(v) for v in zs.tolist()])
                      - ((zs - 0.5) * np.log(zs) - zs + 0.5 * math.log(2.0 * math.pi)))
    return out


def _checked(name: str, x, hi: float, *shapes):
    """``shapes`` and ``x`` as 1-d float arrays of one length, and whether
    all were floats; a shape is refused unless positive and finite and
    below 2**53, and ``x`` unless inside ``[0, hi]``."""
    import numpy as np

    values = [positive_rows(k, v) for k, v in zip("ab", shapes)]
    xs = np.asarray(finite("x", x) if np.ndim(x) == 0 else x, dtype=float)
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= hi):  # NaN fails too
        value = finite("x", xs[~((xs >= 0.0) & (xs <= hi))][0].item())
        raise DomainError(f"{name} needs {'0 <= x <= 1' if hi == 1.0 else 'x >= 0'}, "
                          f"got {value!r}")
    rows = np.broadcast_arrays(*(np.asarray(v, dtype=float).reshape(-1) for v in (*values, xs)))
    _max_terms(np.maximum(*rows[:-1]) if len(shapes) > 1 else rows[0])  # refuses 2**53
    return rows, all(np.ndim(v) == 0 for v in (*values, xs))


def _series(a, x, g, w, limit, negligible, describe):
    """Per row, the sum of ``t_0 = 1``, ``t_k = t_{k-1} r_k`` with ``r_k = x
    (g + k) / (a + k)`` (``x / (a + k)`` where ``g`` is None), ``r_k - 1 =
    (e - k w) / (a + k)``; and the rows whose sum was not needed.

    The ratios fall below 1 past ``K = max(0, floor(e / w))``, the largest
    term, and ``log r <= r - 1``, so ``m`` terms past it the term is at
    most ``exp(w (m d - m (m + 1) / 2) / (a + K + m))`` of the largest, ``d
    = e / w - K``: a quadratic's root takes that to ``e^-37``.  A row that
    needs ``limit`` terms or more is not summed where ``negligible(rows)``,
    the other tail, is below 2^-55.  The terms are a cumulative product
    and the sum a cumulative sum, read at the row's own last index and
    carried across chunks of columns, so a row does not depend on its
    block.  A row whose terms pass the largest float, far on the side
    where the function is 1, is not needed where ``negligible(rows)``.
    Any other row whose sum is not finite, or whose last term is not below
    2^-52 of its sum, raises ``AccuracyError`` as ``describe``.
    """
    import numpy as np

    ew = x - a if g is None else (x * g - a) / w  # e / w
    top = np.floor(np.maximum(ew, 0.0))
    drop = _SERIES_DROP / w
    half = 2.0 * (ew - top) + (2.0 * drop - 1.0)
    cap = (a + top) * (8.0 * drop)
    count = top + np.ceil(0.5 * cap / np.maximum(np.sqrt(half * half + cap) - half, _EPS)) + 1.0
    count = np.minimum(count, limit)
    done = np.zeros(a.size, dtype=bool)
    capped = np.flatnonzero(count >= limit)
    if capped.size:
        done[capped] = negligible(capped)
        count[done] = 1.0
    total, last = np.empty(a.size), np.empty(a.size)
    for start in range(0, a.size, _SERIES_ROWS):
        rows, k = slice(start, start + _SERIES_ROWS), 0.0  # a slice until some rows finish
        n = count[rows]  # terms each row has left
        while True:
            width = int(min(max(_SERIES_CELLS // n.size, 1), n.max()))
            ks = np.arange(k, k + width)
            terms = a[rows, None] + ks
            if g is None:
                np.divide(x[rows, None], terms, out=terms)
            else:
                terms = np.divide((g[rows, None] + ks) * x[rows, None], terms, out=terms)
            with np.errstate(over="ignore"):  # a sum past the floats is replaced or refused below
                if k:
                    terms[:, 0] *= last[rows]
                else:
                    terms[:, 0] = 1.0
                np.cumprod(terms, axis=1, out=terms)
                at = np.minimum(n, width).astype(np.intp) + np.arange(0, n.size * width, width) - 1
                last[rows] = terms.take(at)
                if k:
                    terms[:, 0] += total[rows]
                np.cumsum(terms, axis=1, out=terms)
            total[rows] = terms.take(at)
            more = n > width
            if not more.any():
                break
            rows = np.flatnonzero(more) + start if k == 0.0 else rows[more]
            n, k = n[more] - width, k + width
    over = np.flatnonzero(~(total < math.inf))
    if over.size:
        done[over] = negligible(over)
        total[over[done[over]]] = 1.0
    bad = ~((last <= _EPS * total) & (total < math.inf))
    if bad.any() and (bad := bad & ~done).any():
        i = int(bad.argmax())
        raise AccuracyError(f"{describe(i)} did not converge in {int(count[i])} terms" if
                            total[i] < math.inf else f"{describe(i)} summed past the largest float")
    return total, done


def _log1p_less(t, far):
    """``log1p(t) - t`` per row, taking ``far(rows)``, the log of ``1 + t``
    formed without ``t``, below ``t = -1/2``.  Its error, about ``|t| *
    1e-16``, is ``sqrt(a) * 1e-16`` in ``a (log1p(t) - t)`` near the peak."""
    import numpy as np

    out = np.log1p(np.maximum(t, -0.5))
    rows = np.flatnonzero(t < -0.5)
    if rows.size:
        with np.errstate(divide="ignore"):
            out[rows] = far(rows)
    return out - t


def gamma_log_norm(a):
    """``-log(2 pi a) / 2`` less Stirling's error of ``Gamma(a + 1)``, per
    row: the part of :func:`gamma_p_rows`' prefactor set by ``a`` alone."""
    import numpy as np

    return -0.5 * np.log(2.0 * math.pi * a) - _stirling_error(a)


def gamma_p(a, x):
    """Regularized lower incomplete gamma function ``P(a, x)``, ``a > 0``,
    ``x >= 0``, per row of ``a`` and ``x`` (floats, or 1-d arrays)."""
    (a, x), scalar = _checked("gamma_p", x, sys.float_info.max, a)
    out = gamma_p_rows(a, x, gamma_log_norm(a))[0]
    return float(out[0]) if scalar else out


def gamma_p_rows(a, x, log_norm):
    """:func:`gamma_p` of rows already checked, 1-d float arrays of one
    length, with ``log_norm = gamma_log_norm(a)``; and the log of its
    prefactor ``x^a e^-x / Gamma(a + 1)``.  The sum is ``prefactor * sum_k
    x^k / (a + 1)_k``, the prefactor formed about its peak at ``x = a`` as
    ``a (log1p(t) - t) + log_norm`` with ``t = (x - a) / a``.  A row whose
    series would reach its term cap or pass the largest float is 1 where
    ``Q(a, x) <= prefactor * a / (x - max(a - 1, 0))`` is below 2^-55, and
    else raises ``AccuracyError`` naming it.
    """
    import numpy as np

    log_prefactor = a * _log1p_less((x - a) / a, lambda r: np.log(x[r] / a[r])) + log_norm

    def negligible(r):  # Q(a, x) <= prefactor * a / (x - max(a - 1, 0)) past x = a
        gap = np.maximum(x[r] - a[r] + np.minimum(a[r], 1.0), _EPS)
        return (x[r] > a[r]) & (log_prefactor[r] + np.log(a[r] / gap) < _LOG_NEGLIGIBLE)

    total, done = _series(a, x, None, 1.0, _max_terms(a), negligible,
                          lambda i: f"incomplete gamma P({float(a[i])!r}, {float(x[i])!r})")
    return np.where(done, 1.0, np.minimum(np.exp(log_prefactor) * total, 1.0)), log_prefactor


def beta_log_norm(a, b):
    """``log(a b / (2 pi (a + b))) / 2`` plus the Stirling errors of
    ``Gamma(a + b) / (Gamma(a) Gamma(b))``, per row: the part of
    :func:`beta_i_rows`' prefactor set by ``a`` and ``b`` alone."""
    import numpy as np

    both, first, second = np.split(_stirling_error(np.concatenate((a + b, a, b))), 3)
    return 0.5 * np.log(a * b / (2.0 * math.pi * (a + b))) + (both - first - second)


def beta_i(a, b, x):
    """Regularized incomplete beta function ``I_x(a, b)``, ``0 <= x <= 1``,
    per row of ``a``, ``b`` and ``x`` (floats, or 1-d arrays)."""
    (a, b, x), scalar = _checked("beta_i", x, 1.0, a, b)
    out = beta_i_rows(a, b, x, beta_log_norm(a, b))[0]
    return float(out[0]) if scalar else out


def beta_i_rows(a, b, x, log_norm):
    """:func:`beta_i` of rows already checked, 1-d float arrays of one
    length, with ``log_norm = beta_log_norm(a, b)``; and the log of its
    prefactor ``x^a (1 - x)^b / B(a, b)``.  The sum is ``prefactor / a *
    2F1(a + b, 1; a + 1; x)`` where ``x <= 1/2``, and ``1 - I_{1-x}(b, a)``
    above, except below the mean up to ``x = 3/4``, where the direct series
    keeps a small ``I`` to its last digits.  The prefactor is formed about
    its peak at ``x = a / (a + b)``: on the side where ``z = x <= 1/2``
    (else ``z = 1 - x`` and the shapes ``p``, ``q`` swapped, so ``1 - x``
    keeps its digits), with ``d = (p + q) z - p``, ``u = d / p`` and ``v =
    -d / q``, it is ``p (log1p(u) - u) + q (log1p(v) - v) + log_norm``.  A
    row whose series would reach its term cap or pass the largest float is
    1 on its side where the other tail, a series of ratios below ``rho <
    1``, is at most ``prefactor / (b (1 - rho))`` and that is below
    2^-55, and else raises ``AccuracyError`` naming it.
    """
    import numpy as np

    half = x > 0.5
    p, q, z = np.where(half, b, a), np.where(half, a, b), np.where(half, 1.0 - x, x)
    d = (p + q) * z - p
    v = -d / q  # above -1/2 where z <= 1/2
    log_prefactor = p * _log1p_less(d / p, lambda r: np.log(z[r]) + np.log1p(q[r] / p[r])) + q * (
        np.log1p(v) - v) + log_norm
    flip = half & ~((x * (a + b) < a) & (x <= 0.75))
    p, q, z = np.where(flip, b, a), np.where(flip, a, b), np.where(flip, 1.0 - x, x)
    w = 1.0 - z

    def negligible(r):  # the other tail, of ratios below rho, past the side's mean
        rho = np.minimum(np.maximum(w[r] * (p[r] + q[r]) / (q[r] + 1.0), w[r]), 1.0 - _EPS)
        return ((rho < 1.0 - _EPS) & (z[r] * (p[r] + q[r] - 1.0) > p[r])
                & (log_prefactor[r] - np.log(q[r]) - np.log1p(-rho) < _LOG_NEGLIGIBLE))

    total, done = _series(p, z, p + q - 1.0, w, _max_terms(np.maximum(a, b)), negligible,
                          lambda i: (f"incomplete beta I_{float(x[i])!r}"
                                     f"({float(a[i])!r}, {float(b[i])!r})"))
    side = np.where(done, 1.0, np.minimum(np.exp(log_prefactor) / p * total, 1.0))
    return np.where(flip, 1.0 - side, side), log_prefactor


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
