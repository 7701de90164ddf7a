"""Leading-term evaluators and their convergence against exact values.

Frozen reference numbers were computed with mpmath at 30 digits.  The
convergence tests lean on the exact module's closed forms, which were
themselves pinned against independent quadrature.
"""

import math

import pytest

from bayessize.criteria import asymptotic_functional
from bayessize.errors import DomainError
from bayessize.exact import (
    exact_normal,
    normal_expected_density_at_truth,
    normal_expected_density_sq_at_truth,
)
from bayessize.expansions import (
    ExpansionTerm,
    expected_cdf_derivative_leading,
    expected_density_at_truth,
    expected_density_sq_at_truth,
    expected_posterior_moment,
    expected_posterior_quantile,
    posterior_moment_term,
)
from bayessize.functionals import PosteriorQuantile, PosteriorVariance
from bayessize.models import ExponentialRate, NormalKnownVariance, Poisson

NORMAL_CONFIGS = [
    (0.5, 0.25, 0.2, 0.3),
    (5.0, 3.5, 2.5, 3.0),
    (25.0, 20.0, 18.0, 15.0),
]


# ---------------------------------------------------------------------------
# centered posterior moments


def test_second_moment_equals_variance_evaluator_exactly():
    cases = [
        (NormalKnownVariance(0.2), 0.5, 100),
        (NormalKnownVariance(2.5), 5.0, 30),
        (Poisson(), 1.6, 37),
        (ExponentialRate(), 0.75, 30),
    ]
    for fam, theta0, n in cases:
        assert expected_posterior_moment(fam, theta0, n, 2) == (
            asymptotic_functional(PosteriorVariance(), fam, theta0, n)
        )


def test_second_moment_examples():
    assert expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 100, 2) == (
        pytest.approx(0.0020, rel=1e-12)
    )
    val = expected_posterior_moment(ExponentialRate(), 0.75, 30, 2)
    assert val == pytest.approx(0.01875, rel=1e-12)
    assert val == pytest.approx(0.0187, abs=1e-4)


def test_fourth_moment_example():
    # coefficient 3 at unit information
    val = expected_posterior_moment(NormalKnownVariance(1.0), 0.0, 100, 4)
    assert val == pytest.approx(3e-4, rel=1e-12)


def test_moment_term_records_order_and_parity():
    term = posterior_moment_term(NormalKnownVariance(0.2), 0.5, 10, 3)
    assert isinstance(term, ExpansionTerm)
    assert term.order == "n^(-3/2)"
    assert "indicative" in term.description
    even = posterior_moment_term(NormalKnownVariance(0.2), 0.5, 10, 2)
    assert "indicative" not in even.description
    assert even.value == expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 10, 2)


def test_moment_approaches_exact_normal_moment():
    # n^(r/2) times the gap to the conjugate posterior's central moment
    # stays bounded and shrinks
    fam = NormalKnownVariance(0.2)
    for order, coeff in ((2, 1.0), (4, 3.0)):
        scaled = []
        for n in (100, 1_000, 10_000):
            post_var = 0.2 * 0.3 / (n * 0.3 + 0.2)
            exact_moment = coeff * post_var ** (order / 2)
            approx_moment = expected_posterior_moment(fam, 0.5, n, order)
            scaled.append(n ** (order / 2) * abs(approx_moment - exact_moment))
        assert scaled[0] > scaled[1] > scaled[2]
        assert scaled[0] < 2e-3


# ---------------------------------------------------------------------------
# expected posterior quantile


def test_median_is_the_truth_exactly():
    assert expected_posterior_quantile(NormalKnownVariance(0.2), 0.5, 30, 0.5) == 0.5
    assert expected_posterior_quantile(Poisson(), 1.6, 10, 0.5) == 1.6


def test_quantile_examples():
    val = expected_posterior_quantile(NormalKnownVariance(0.2), 0.5, 100, 0.05)
    assert val == pytest.approx(0.42643990954198854, rel=1e-12)
    assert val == pytest.approx(0.4264, abs=1e-4)
    val = expected_posterior_quantile(NormalKnownVariance(18.0), 25.0, 10, 0.05)
    assert val == pytest.approx(22.793197286259656, rel=1e-12)
    assert val == pytest.approx(22.7932, abs=5e-4)


def test_quantile_delegates_to_criterion_evaluator():
    fam = NormalKnownVariance(2.5)
    assert expected_posterior_quantile(fam, 5.0, 30, 0.05) == (
        asymptotic_functional(PosteriorQuantile(0.05), fam, 5.0, 30)
    )


def test_quantile_gap_scales_like_one_over_n():
    # n * (leading term - exact) tends to a finite constant driven by the
    # prior pull (mu0 - theta0) sigma^2 / tau^2; the root-n scaled gap
    # therefore dies out.  At n=100 the raw gap is only below 2e-3 for the
    # first configuration; it grows with the prior's displacement.
    for theta0, mu0, sigma2, tau2 in NORMAL_CONFIGS:
        fam = NormalKnownVariance(sigma2)
        limit = abs(mu0 - theta0) * sigma2 / tau2
        scaled, rootn = [], []
        for n in (100, 1_000, 10_000):
            approx = expected_posterior_quantile(fam, theta0, n, 0.05)
            exact = exact_normal(
                PosteriorQuantile(0.05), sigma2, mu0, tau2, theta0, n
            ).value
            scaled.append(n * (approx - exact))
            rootn.append(math.sqrt(n) * abs(approx - exact))
        assert all(0.0 < s <= 1.1 * limit for s in scaled)
        assert scaled[-1] == pytest.approx(limit, rel=0.02)
        assert rootn[0] > rootn[1] > rootn[2]


def test_quantile_gap_is_small_at_n100_for_tight_prior():
    approx = expected_posterior_quantile(NormalKnownVariance(0.2), 0.5, 100, 0.05)
    exact = exact_normal(PosteriorQuantile(0.05), 0.2, 0.25, 0.3, 0.5, 100).value
    assert abs(approx - exact) < 0.002


# ---------------------------------------------------------------------------
# expected density at the truth and its square


def test_density_formula_value():
    val = expected_density_at_truth(NormalKnownVariance(0.2), 0.5, 100)
    assert val == pytest.approx(math.sqrt(500.0 / (4.0 * math.pi)), rel=1e-14)
    assert val == pytest.approx(6.3078, abs=1e-4)


def test_density_scales_with_root_n_and_root_info():
    fam = NormalKnownVariance(0.2)
    assert expected_density_at_truth(fam, 0.5, 400) == pytest.approx(
        2.0 * expected_density_at_truth(fam, 0.5, 100), rel=1e-15
    )
    quadrupled = NormalKnownVariance(0.05)  # information 20 instead of 5
    assert expected_density_at_truth(quadrupled, 0.5, 100) == pytest.approx(
        2.0 * expected_density_at_truth(fam, 0.5, 100), rel=1e-15
    )


def test_density_sq_formula_value():
    val = expected_density_sq_at_truth(NormalKnownVariance(0.2), 0.5, 100)
    assert val == pytest.approx(500.0 / (math.sqrt(3.0) * 2.0 * math.pi), rel=1e-14)
    assert val == pytest.approx(45.944, abs=1e-3)


def test_density_sq_is_linear_in_n():
    fam = NormalKnownVariance(0.2)
    assert expected_density_sq_at_truth(fam, 0.5, 200) == pytest.approx(
        2.0 * expected_density_sq_at_truth(fam, 0.5, 100), rel=1e-15
    )


def test_density_sq_two_dimensional_formula():
    val = expected_density_sq_at_truth(NormalKnownVariance(1.0), 0.0, 1, dim=2)
    assert val == pytest.approx(1.0 / (3.0 * 4.0 * math.pi**2), rel=1e-14)


def test_density_leading_terms_converge_to_convolution_oracle():
    # ratio oracle / leading term approaches one from above at 1/n speed
    theta0, mu0, sigma2, tau2 = NORMAL_CONFIGS[0]
    fam = NormalKnownVariance(sigma2)
    for oracle_fn, term_fn in (
        (normal_expected_density_at_truth, expected_density_at_truth),
        (normal_expected_density_sq_at_truth, expected_density_sq_at_truth),
    ):
        gaps = []
        for n in (100, 1_000, 10_000):
            ratio = oracle_fn(sigma2, mu0, tau2, theta0, n) / term_fn(fam, theta0, n)
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] <= 0.02
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-3


# ---------------------------------------------------------------------------
# derivative sequence of the expected posterior CDF


def test_first_derivative_term_is_the_density():
    fam = NormalKnownVariance(0.2)
    term = expected_cdf_derivative_leading(fam, 0.5, 100, 1)
    assert term.value == pytest.approx(
        expected_density_at_truth(fam, 0.5, 100), rel=1e-14
    )
    assert term.order == "n^(1/2)"


def test_second_derivative_term_vanishes():
    # the degree-one polynomial is odd, so its half-variance average is zero
    for fam, theta0 in ((NormalKnownVariance(0.2), 0.5), (Poisson(), 1.6)):
        assert expected_cdf_derivative_leading(fam, theta0, 50, 2).value == 0.0


def test_third_derivative_term_at_unit_information():
    term = expected_cdf_derivative_leading(NormalKnownVariance(1.0), 0.0, 1, 3)
    assert term.value == pytest.approx(-0.5 / math.sqrt(4.0 * math.pi), rel=1e-14)
    assert term.value == pytest.approx(-0.14105, abs=1e-5)


def test_derivative_term_reports_its_order():
    term = expected_cdf_derivative_leading(NormalKnownVariance(0.2), 0.5, 100, 4)
    assert term.order == "n^(4/2)"
    assert "order 4" in term.description


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "call",
    [
        lambda: expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 100, 0),
        lambda: expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 100, -2),
        lambda: expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 100, 1.5),
        lambda: expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 100, True),
        lambda: expected_posterior_moment(NormalKnownVariance(0.2), 0.5, 0, 2),
        lambda: expected_posterior_moment(Poisson(), -1.0, 100, 2),
        lambda: expected_posterior_quantile(NormalKnownVariance(0.2), 0.5, 100, 0.0),
        lambda: expected_density_at_truth(NormalKnownVariance(0.2), 0.5, 100, dim=0),
        lambda: expected_density_sq_at_truth(NormalKnownVariance(0.2), 0.5, -1.0),
        lambda: expected_cdf_derivative_leading(NormalKnownVariance(0.2), 0.5, 100, 0),
    ],
)
def test_expansion_arguments_are_validated(call):
    with pytest.raises(DomainError):
        call()
