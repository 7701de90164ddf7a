"""Scalar special functions and the Hermite-type kernels.

Reference values were computed with mpmath at 40 significant digits and
frozen here; property tests re-derive them live where that is cheap.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial

import bayessize.specfun as specfun
from bayessize.errors import AccuracyError, DomainError
from bayessize.expansions import expected_cdf_derivative_leading
from bayessize.models import Poisson
from bayessize.specfun import (
    beta_i,
    expect_half_variance,
    gamma_p,
    gaussian_product_expectation,
    hermite_poly,
    normal_abs_moment,
    normal_moment,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

# (x, Phi(x)) frozen from mpmath.ncdf
CDF_ORACLE = [
    (-4.0, 0.000031671241833119921254),
    (-1.5, 0.066807201268858066004),
    (-0.3, 0.38208857781104736269),
    (0.0, 0.5),
    (0.7, 0.75803634777692698525),
    (2.33, 0.99009692444083574791),
    (5.2, 0.99999990035573683067),
]

# (p, Phi^-1(p)) frozen from mpmath root solves of ncdf
# the upper-tail point gets a looser band: cdf residuals near 1 carry
# absolute float error ~1e-16, which the polish turns into ~5e-12 in x
QUANTILE_ORACLE = [
    (0.975, 1.9599639845400542355, 1e-12),
    (0.05, -1.6448536269514727149, 1e-12),
    (0.5, 0.0, 1e-12),
    (0.00001, -4.2648907939228246285, 1e-12),
    (0.999999, 4.7534243088228989482, 1e-10),
]


@pytest.mark.parametrize("x, expected", CDF_ORACLE)
def test_cdf_matches_high_precision_oracle(x, expected):
    assert std_normal_cdf(x) == pytest.approx(expected, abs=1e-13)


def test_cdf_symmetry():
    for x in (0.1, 0.9, 2.7, 6.0):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_pdf_basics():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)
    assert std_normal_pdf(1.3) == std_normal_pdf(-1.3)
    assert std_normal_pdf(40.0) == 0.0


@pytest.mark.parametrize("p, expected, tol", QUANTILE_ORACLE)
def test_quantile_matches_high_precision_oracle(p, expected, tol):
    assert std_normal_quantile(p) == pytest.approx(expected, abs=tol)


def test_quantile_rejects_endpoints():
    for p in (0.0, 1.0, -0.2, 1.5, math.nan):
        with pytest.raises(DomainError):
            std_normal_quantile(p)


def test_cdf_quantile_inversion_grid():
    # 1,000-point probability grid; round trip must stay within 1e-9
    ps = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    worst = max(abs(std_normal_cdf(std_normal_quantile(p)) - p) for p in ps)
    assert worst <= 1e-9


@pytest.mark.parametrize(
    "a, x", [(0.05, 1e-20), (0.5, 0.1), (0.5, 7.0), (3.0, 2.5), (3.0, 4.5), (4012.0, 3950.0)]
)
def test_gamma_p_matches_mpmath(a, x):
    expected = float(mpmath.gammainc(a, 0, x, regularized=True))
    assert gamma_p(a, x) == pytest.approx(expected, rel=1e-10, abs=1e-15)


@pytest.mark.parametrize(
    "a, b, x",
    [(0.5, 0.5, 1e-12), (0.5, 0.5, 0.999), (0.3, 5.0, 0.01), (7.0, 3.0, 0.4),
     (7.0, 3.0, 0.9), (401.0, 210.0, 0.655)],
)
def test_beta_i_matches_mpmath(a, b, x):
    expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
    assert beta_i(a, b, x) == pytest.approx(expected, rel=1e-10, abs=1e-15)


def test_incomplete_functions_edges_and_domain():
    assert gamma_p(2.0, 0.0) == 0.0
    assert gamma_p(1.0, 2.0) == pytest.approx(-math.expm1(-2.0), rel=1e-14)
    assert beta_i(2.0, 3.0, 0.0) == 0.0 and beta_i(2.0, 3.0, 1.0) == 1.0
    assert beta_i(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-14)
    for args in [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(DomainError):
            gamma_p(*args)
    for args in [(0.0, 1.0, 0.5), (1.0, 1.0, 1.5), (1.0, 1.0, math.nan)]:
        with pytest.raises(DomainError):
            beta_i(*args)


def test_incomplete_functions_raise_at_their_term_cap(monkeypatch):
    monkeypatch.setattr(specfun, "_max_terms", lambda shape: 3)
    for call in (lambda: gamma_p(50.0, 45.0), lambda: gamma_p(50.0, 55.0),
                 lambda: beta_i(50.0, 40.0, 0.5), lambda: beta_i(50.0, 40.0, 0.6)):
        with pytest.raises(AccuracyError, match="did not converge"):
            call()


def test_incomplete_functions_converge_at_large_shapes():
    # A block of rows: near x = a the series need about 9 sqrt(a) terms,
    # 1.6e5 at a = 3e8, summed in chunks.  The prefactor, formed about its
    # peak, keeps its digits: P(a, a) = 1/2 + 1/(3 sqrt(2 pi a)) + O(a^-3/2)
    # (Temme), and I_{1/2}(a, a) = 1/2 by symmetry.
    a = np.array([3e8, 3e8 + 1.0])
    expected = 0.5 + 1.0 / (3.0 * np.sqrt(2.0 * math.pi * a))
    assert gamma_p(a, a) == pytest.approx(expected, abs=1e-12)
    assert beta_i(np.array([5e8, 4e8]), np.array([5e8, 5e8]), np.array([0.5, 4.0 / 9.0])) == (
        pytest.approx([0.5, 0.5], abs=1e-4))
    assert beta_i(5e8, 5e8, 0.5) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("a, b, x", [(10.0, 1e4, 0.1), (1e4, 10.0, 0.76)])
def test_beta_i_where_its_terms_pass_the_largest_float(a, b, x):
    # Far on the side where I is 1 (0 once flipped), the series' terms pass
    # 1e308 before the term cap; the other tail is negligible there.
    from scipy import special

    from bayessize.blocks import BetaPosterior

    expected = float(special.betainc(a, b, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert beta_i(a, b, x) == expected
        assert BetaPosterior(a, b).cdf(x) == expected
        rows = beta_i(np.array([a, 7.0]), np.array([b, 3.0]), np.array([x, 0.4]))
    assert rows[0] == expected
    assert rows[1] == pytest.approx(float(special.betainc(7.0, 3.0, 0.4)), rel=1e-10)


def test_a_sum_past_the_largest_float_is_refused_where_the_other_tail_counts(monkeypatch):
    monkeypatch.setattr(specfun, "_LOG_NEGLIGIBLE", -math.inf)
    with pytest.raises(AccuracyError,
                       match=r"incomplete beta I_0\.1\(10\.0, 10000\.0\) summed past the largest"):
        beta_i(10.0, 1e4, 0.1)


@pytest.mark.parametrize("a", [1e4, 1e6])
def test_gamma_p_far_past_a_large_shape_stays_finite(a):
    # Here the term cap comes before the terms pass the largest float.
    from scipy import special

    x = a + 39.0 * math.sqrt(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value = gamma_p(a, x)
    assert value == pytest.approx(float(special.gammainc(a, x)), abs=1e-15)


def test_incomplete_functions_refuse_a_shape_of_2_to_the_53_before_any_loop():
    # There shape + 1 rounds to shape; at 1e300 the sum would run 4e151 terms.
    for call in (lambda: gamma_p(np.array([2.0, 2.0**53]), np.array([1.0, 2.0**53])),
                 lambda: gamma_p(1e300, 1.0),
                 lambda: beta_i(np.array([0.5]), np.array([1e300]), np.array([0.3])),
                 lambda: beta_i(1e300, 1e300, 0.5)):
        with pytest.raises(AccuracyError, match=r"2\*\*53 or more"):
            call()


def _double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def test_normal_moment_even_orders_are_double_factorials():
    for r in range(2, 13, 2):
        assert normal_moment(r) == pytest.approx(_double_factorial(r - 1), rel=1e-12)


def test_normal_moment_odd_orders_vanish():
    for r in (1, 3, 5, 7):
        assert normal_moment(r) == 0.0
    assert normal_moment(0) == 1.0


def test_abs_moment_examples():
    assert normal_abs_moment(2) == pytest.approx(1.0, rel=1e-12)
    assert normal_abs_moment(4) == pytest.approx(3.0, rel=1e-12)
    assert normal_abs_moment(6) == pytest.approx(15.0, rel=1e-12)


def test_abs_moment_equals_even_moment_up_to_order_twelve():
    for r in range(2, 13, 2):
        assert normal_abs_moment(r) == normal_moment(r)


def test_abs_moment_odd_orders_against_gamma_form():
    # 2^{r/2} Gamma((r+1)/2) / Gamma(1/2), frozen from mpmath
    expected = {1: 0.79788456080286535588, 3: 1.5957691216057307118, 5: 6.383076486422922847}
    for r, val in expected.items():
        assert normal_abs_moment(r) == pytest.approx(val, rel=1e-12)


def test_abs_moment_generalizes_beyond_integer_orders():
    # documented extension: any nonnegative order through the gamma form
    assert normal_abs_moment(0) == pytest.approx(1.0, rel=1e-14)
    assert normal_abs_moment(1.5) == pytest.approx(0.86003998732451953538, rel=1e-12)
    with pytest.raises(DomainError):
        normal_abs_moment(-1)


# ---------------------------------------------------------------------------
# Hermite family for the derivative identity d^i/dv^i phi_I(v) = H_i(v) phi_I(v)

def test_hermite_low_orders():
    assert hermite_poly(0, 1.0).coef.tolist() == [1.0]
    assert hermite_poly(1, 1.0).coef.tolist() == [0.0, -1.0]
    assert hermite_poly(2, 1.0).coef.tolist() == [-1.0, 0.0, 1.0]
    # H_1 scales linearly with the information value
    assert hermite_poly(1, 2.5).coef.tolist() == [0.0, -2.5]


def test_hermite_refuses_a_coefficient_past_the_floats():
    # info^2 = 1e400 leaves the floats at the second step; a Poisson mean of
    # 1e-200 has information 1e200, so its third derivative term does too.
    # At info = 1e154 the derivative's 2 * info^2 overflows first.  None may
    # return inf or NaN coefficients or raise a warning.
    for call in (lambda: hermite_poly(3, 1e200), lambda: hermite_poly(3, 1e154),
                 lambda: expected_cdf_derivative_leading(Poisson(), 1e-200, 10, 3)):
        with pytest.raises(DomainError, match="^polynomial coefficient must be finite, got inf$"):
            call()


@pytest.mark.parametrize("info", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_hermite_matches_gaussian_derivatives(info, order):
    """The i-th v-derivative of phi(sqrt(info) v) equals H_i(v) phi(sqrt(info) v)."""
    root = math.sqrt(info)

    def f(v):
        return mpmath.npdf(root * v)

    h = hermite_poly(order, info)
    grid = np.linspace(-2.5, 2.5, 100)
    vals = np.array([h(v) * std_normal_pdf(root * v) for v in grid])
    refs = np.array([float(mpmath.diff(f, v, order)) for v in grid])
    scale = np.max(np.abs(refs))
    assert np.max(np.abs(vals - refs)) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# Gaussian expectations of polynomials

def test_expect_half_variance_examples():
    assert expect_half_variance(Polynomial([1.0])) == pytest.approx(1.0, rel=1e-12)
    assert expect_half_variance(Polynomial([0.0, 0.0, 1.0])) == pytest.approx(0.5, rel=1e-12)
    assert expect_half_variance(Polynomial([-1.0, 0.0, 1.0])) == pytest.approx(-0.5, rel=1e-12)


def test_gaussian_product_expectation_examples():
    assert gaussian_product_expectation(Polynomial([1.0])) == pytest.approx(
        1.0 / math.sqrt(4.0 * math.pi), rel=1e-12
    )
    assert gaussian_product_expectation(Polynomial([0.0, 1.0])) == 0.0
    assert gaussian_product_expectation(Polynomial([0.0, 0.0, 1.0])) == pytest.approx(
        0.1410474, abs=1e-7
    )


def test_gaussian_product_expectation_against_quadrature():
    """Integral of Q(v) phi(v)^2 over the line, 20 random polynomials of degree <= 6."""
    rng = np.random.default_rng(91046)
    grid = np.linspace(-10.0, 10.0, 100_000)
    phi_sq = np.exp(-grid * grid) / (2.0 * math.pi)
    for _ in range(20):
        degree = int(rng.integers(0, 7))
        coeffs = rng.uniform(-2.0, 2.0, size=degree + 1)
        q = Polynomial(coeffs)
        vals = np.polyval(coeffs[::-1], grid)
        ref = np.trapezoid(vals * phi_sq, grid)
        assert gaussian_product_expectation(q) == pytest.approx(ref, abs=1e-8)
