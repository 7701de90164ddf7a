"""Likelihood families, priors, posteriors, and information infima.

scipy.stats serves as the independent oracle for distribution math; the
package itself never imports it for these paths.
"""

import dataclasses
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, optimize, special, stats

import bayessize.blocks as blocks
import bayessize.specfun as specfun
from bayessize.errors import (
    AccuracyError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    UnsupportedShapeError,
)
from bayessize.functionals import (
    CenteredIntervalMass,
    CredibleLength,
    HpdLower,
    HpdUpper,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
    evaluate,
)
from bayessize.blocks import BetaPosterior, GammaPosterior, RatePosterior
from bayessize.models import (
    GRID_NODES,
    Bernoulli,
    BetaPrior,
    ExponentialRate,
    GammaPrior,
    NormalKnownVariance,
    NormalPosterior,
    NormalPrior,
    Poisson,
    SufficientStat,
    block_posterior,
    fisher_info,
    in_domain,
    inf_weighted_info,
    param_bounds,
    posterior,
    sample_suffstat,
    suffstat_sampler,
)
from bayessize.randomness import SeededGenerator
from bayessize.specfun import beta_i, gamma_p


# ---------------------------------------------------------------------------
# information

def test_fisher_info_examples():
    assert fisher_info(NormalKnownVariance(0.2), 123.0) == pytest.approx(5.0)
    assert fisher_info(Bernoulli(), 0.5) == pytest.approx(4.0)
    assert fisher_info(ExponentialRate(), 0.5) == pytest.approx(4.0)
    assert fisher_info(Poisson(), 0.25) == pytest.approx(4.0)


def test_fisher_info_rejects_out_of_domain():
    with pytest.raises(DomainError):
        fisher_info(Bernoulli(), 0.0)
    with pytest.raises(DomainError):
        fisher_info(Poisson(), -1.0)
    with pytest.raises(DomainError):
        fisher_info(ExponentialRate(), 0.0)
    with pytest.raises(DomainError):
        fisher_info(NormalKnownVariance(1.0), math.inf)


def test_fisher_info_positive_on_random_domain_points():
    rng = np.random.default_rng(7)
    families = [NormalKnownVariance(0.37), Poisson(), Bernoulli(), ExponentialRate()]
    for fam in families:
        lo, hi = param_bounds(fam)
        lo = max(lo, -50.0) + 1e-6
        hi = min(hi, 50.0) - 1e-6
        for theta in rng.uniform(lo, hi, size=50):
            assert fisher_info(fam, float(theta)) > 0.0
            assert in_domain(fam, float(theta))


def test_inf_info_constant_family():
    assert inf_weighted_info(NormalKnownVariance(0.2), 0.1, 0.9) == pytest.approx(5.0, rel=1e-12)


def test_inf_info_bernoulli_interior_minimum():
    # 1/(theta (1 - theta)) bottoms out at theta = 1/2
    assert inf_weighted_info(Bernoulli(), 0.4, 0.6) == pytest.approx(4.0, rel=1e-9)


def test_inf_info_weighted_endpoint_minimum():
    val = inf_weighted_info(NormalKnownVariance(0.2), 0.4, 0.6, theta1=0.3)
    assert val == pytest.approx(0.05, rel=1e-7)


def test_inf_info_weighted_rejects_alternative_inside_range():
    with pytest.raises(CriterionUnsatisfiableError) as err:
        inf_weighted_info(NormalKnownVariance(0.2), 0.4, 0.6, theta1=0.5)
    assert err.value.theta == 0.5


def test_inf_info_range_validation():
    with pytest.raises(DomainError):
        inf_weighted_info(Bernoulli(), 0.6, 0.4)
    with pytest.raises(DomainError):
        inf_weighted_info(Bernoulli(), 0.5, 1.2)
    with pytest.raises(DomainError):
        inf_weighted_info(Poisson(), -0.5, 1.0)


def test_inf_info_monotone_families_take_endpoint():
    # decreasing info: infimum at the right end
    assert inf_weighted_info(Poisson(), 0.5, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert inf_weighted_info(ExponentialRate(), 0.25, 0.75) == pytest.approx(1.0 / 0.5625, rel=1e-12)


@pytest.mark.parametrize(
    "family, lo, hi, theta1, expected",
    [
        (Bernoulli(), 0.3, 0.7, None, 4.0),  # 1/(t (1 - t)) at t = 1/2
        (Poisson(), 0.5, 2.0, -1.0, 4.0),  # (theta1 - t)^2 / t at t = -theta1
        (Bernoulli(), 0.6, 0.9, 1.5, 3.0),  # at t = theta1 / (2 theta1 - 1)
    ],
)
def test_inf_info_interior_stationary_points(family, lo, hi, theta1, expected):
    assert inf_weighted_info(family, lo, hi, theta1) == pytest.approx(expected, rel=1e-14)


def _reference_infimum(family, lo, hi, theta1):
    """Least target value on a dense grid, refined around the best node."""
    def target(t):
        t = np.asarray(t, dtype=float)
        if isinstance(family, NormalKnownVariance):
            info = np.full_like(t, 1.0 / family.sigma2)
        elif isinstance(family, Poisson):
            info = 1.0 / t
        elif isinstance(family, Bernoulli):
            info = 1.0 / (t * (1.0 - t))
        else:
            info = 1.0 / (t * t)
        return info if theta1 is None else info * (theta1 - t) ** 2

    grid = np.linspace(lo, hi, 20_001)
    vals = target(grid)
    best = int(np.argmin(vals))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    refined = optimize.minimize_scalar(
        lambda t: float(target(t)), bounds=(a, b), method="bounded", options={"xatol": 1e-14}
    )
    return min(float(vals[best]), float(refined.fun))


@st.composite
def _info_cases(draw):
    family = draw(st.sampled_from(
        [NormalKnownVariance(0.37), Poisson(), Bernoulli(), ExponentialRate()]
    ))
    if isinstance(family, Bernoulli):
        ends = st.floats(0.01, 0.99)
    elif isinstance(family, NormalKnownVariance):
        ends = st.floats(-5.0, 5.0)
    else:
        ends = st.floats(0.01, 10.0)
    lo, hi = sorted((draw(ends), draw(ends)))
    assume(hi - lo > 1e-3)
    # theta1 below the range reaches Poisson and Bernoulli values below 0,
    # and above it Bernoulli values above 1.
    side = draw(st.sampled_from([None, "below", "above"]))
    theta1 = None
    if side == "below":
        theta1 = lo - draw(st.floats(1e-3, 10.0))
    elif side == "above":
        theta1 = hi + draw(st.floats(1e-3, 10.0))
    return family, lo, hi, theta1


@example(case=(Bernoulli(), 0.1, 0.4, -0.5))  # at t = theta1 / (2 theta1 - 1) = 1/4
@settings(max_examples=300, deadline=None)
@given(case=_info_cases())
def test_inf_info_matches_a_refined_grid_search(case):
    family, lo, hi, theta1 = case
    got = inf_weighted_info(family, lo, hi, theta1)
    assert got == pytest.approx(_reference_infimum(family, lo, hi, theta1), rel=1e-12)


# ---------------------------------------------------------------------------
# priors and statistics

def test_prior_validation():
    with pytest.raises(DomainError):
        NormalPrior(0.0, -1.0)
    with pytest.raises(DomainError):
        GammaPrior(0.0, 1.0)
    with pytest.raises(DomainError):
        BetaPrior(1.0, 0.0)


def test_suffstat_validation():
    with pytest.raises(DomainError):
        SufficientStat(0, 1.0)
    with pytest.raises(DomainError):
        SufficientStat(-3, 1.0)
    with pytest.raises(DomainError):
        SufficientStat(10, math.nan)
    assert SufficientStat(10, 5.0).s == 5.0


def test_sample_suffstat_bernoulli_near_degenerate():
    stat = sample_suffstat(Bernoulli(), 1.0 - 1e-15, 10, SeededGenerator(1234))
    assert stat.s == 10.0


def test_sample_suffstat_exponential_lln_band():
    theta0, n = 0.5, 10_000
    stat = sample_suffstat(ExponentialRate(), theta0, n, SeededGenerator(42))
    assert abs(stat.s / n - 1.0 / theta0) <= 3.0 * (1.0 / theta0) / math.sqrt(n)


def test_sample_suffstat_poisson_clt_band():
    theta0, n = 1.6, 10_000
    stat = sample_suffstat(Poisson(), theta0, n, SeededGenerator(43))
    assert stat.s == int(stat.s)
    assert abs(stat.s / n - theta0) <= 3.0 * math.sqrt(theta0 / n)


def test_sample_suffstat_poisson_total_is_one_deviate():
    # n draws at theta0 sum to one draw at n theta0, in O(1) at any mean
    stat = sample_suffstat(Poisson(), 0.75, 8, SeededGenerator(5, stream_id=1))
    assert stat.s == np.random.default_rng(5).poisson(6.0, 2)[1]
    big = sample_suffstat(Poisson(), 800.0, 5, SeededGenerator(6))
    assert big.n == 5 and big.s == int(big.s)
    assert abs(big.s - 4000.0) <= 5.0 * math.sqrt(4000.0)


def test_sample_suffstat_normal_is_single_scaled_deviate():
    # the normal sample mean is drawn in one step from its exact law
    fam = NormalKnownVariance(0.8)
    stat = sample_suffstat(fam, 2.0, 25, SeededGenerator(99, stream_id=3))
    z = np.random.default_rng(99).standard_normal(4)[3]
    assert stat.s == 2.0 + math.sqrt(0.8 / 25) * z


def test_sample_suffstat_rejects_bad_inputs():
    with pytest.raises(DomainError):
        sample_suffstat(Bernoulli(), 1.5, 10, SeededGenerator(1))
    with pytest.raises(DomainError):
        sample_suffstat(Poisson(), 1.0, 0, SeededGenerator(1))


def test_sample_suffstat_names_numpys_limits():
    # Checked before any draw, so nothing of the size of n is allocated.
    limit = (2**63 - 1) - 10.0 * math.sqrt(2**63 - 1)
    assert limit == float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)
    with pytest.raises(DomainError, match="exceeds numpy's limit") as err:
        suffstat_sampler(Poisson(), 2.0 * limit, 1)
    assert repr(2.0 * limit) in str(err.value) and repr(limit) in str(err.value)
    with pytest.raises(DomainError, match=str(2**63)):
        suffstat_sampler(Bernoulli(), 0.5, 2**63)
    # At the limits numpy draws, in O(1).
    assert sample_suffstat(Poisson(), limit, 1, SeededGenerator(1)).s > 0.5 * limit
    assert sample_suffstat(Bernoulli(), 0.5, 2**63 - 1, SeededGenerator(1)).s > 2.0**61


@pytest.mark.parametrize("family", [NormalKnownVariance(0.2), Poisson(), ExponentialRate()])
def test_sample_suffstat_names_the_float_limit_of_n(family):
    # These draws use n as a float; a larger n is refused before any draw,
    # where float(n) would raise OverflowError.
    limit = int(sys.float_info.max)
    with pytest.raises(DomainError, match=r"exceeds the largest float 1\.7976931348623157e\+308"):
        suffstat_sampler(family, 0.5, limit + 1)
    with pytest.raises(DomainError, match=str(10**400)):
        suffstat_sampler(family, 0.5, 10**400)
    if isinstance(family, NormalKnownVariance):  # at the limit the draw is a float
        assert math.isfinite(sample_suffstat(family, 0.5, limit, SeededGenerator(1)).s)


# ---------------------------------------------------------------------------
# posterior construction

def test_normal_update_example():
    post = posterior(
        NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), SufficientStat(100, 0.5)
    )
    assert isinstance(post, NormalPosterior)
    assert post.mean() == pytest.approx(0.498344, abs=1e-6)
    assert post.variance() == pytest.approx(0.0019868, abs=1e-6)


def test_poisson_update_example():
    post = posterior(Poisson(), GammaPrior(2.5, 3.5), SufficientStat(10, 5.0))
    assert post == GammaPosterior(shape=8.5, rate=12.5)
    assert post.mean() == pytest.approx(8.5 / 12.5, rel=1e-12)


def test_bernoulli_update_example():
    post = posterior(Bernoulli(), BetaPrior(1.0, 1.0), SufficientStat(100, 50.0))
    assert post == BetaPosterior(51.0, 51.0)


def test_bernoulli_update_accepts_degenerate_totals():
    assert posterior(Bernoulli(), BetaPrior(2.0, 3.0), SufficientStat(5, 0.0)) == BetaPosterior(2.0, 8.0)
    assert posterior(Bernoulli(), BetaPrior(2.0, 3.0), SufficientStat(5, 5.0)) == BetaPosterior(7.0, 3.0)


def test_exponential_update_returns_grid():
    # a batch of one row, on its own nodes in (0, 1]
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(25, 50.0))
    assert isinstance(post, RatePosterior) and len(post) == 1
    nodes = _nodes(post)
    assert nodes.shape == (1, 257)
    assert 0.0 < nodes[0, 0] and nodes[0, -1] <= 1.0
    assert np.all(np.diff(nodes[0]) > 0.0)


def test_posterior_rejects_unsupported_pairs():
    with pytest.raises(ConfigurationError):
        posterior(NormalKnownVariance(1.0), GammaPrior(1.0, 1.0), SufficientStat(5, 1.0))
    with pytest.raises(ConfigurationError):
        posterior(Poisson(), BetaPrior(1.0, 1.0), SufficientStat(5, 1.0))


def test_posterior_rejects_bad_statistics():
    with pytest.raises(DomainError):
        posterior(Poisson(), GammaPrior(1.0, 1.0), SufficientStat(5, 2.5))
    with pytest.raises(DomainError):
        posterior(Bernoulli(), BetaPrior(1.0, 1.0), SufficientStat(5, 6.0))
    with pytest.raises(DomainError):
        posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(5, 0.0))


def test_exponential_update_rejects_unbounded_prior_edge():
    with pytest.raises(ConfigurationError):
        posterior(ExponentialRate(), BetaPrior(1.5, 0.5), SufficientStat(5, 3.0))


# ---------------------------------------------------------------------------
# closed-form posterior summaries

def test_normal_posterior_summaries():
    post = NormalPosterior(0.5, 0.002)
    assert post.mean() == 0.5
    assert post.variance() == 0.002
    assert post.quantile(0.5) == pytest.approx(0.5, abs=1e-12)
    assert 1.0 - post.cdf(0.5) == pytest.approx(0.5, abs=1e-12)


def test_normal_posterior_quantile_example():
    post = NormalPosterior(0.498344, 0.0019868)
    assert post.quantile(0.05) == pytest.approx(0.425023, abs=1e-4)


def test_normal_posterior_interval_mass():
    post = NormalPosterior(0.5, 0.01875)
    assert post.interval_mass(0.475, 0.525) == pytest.approx(0.14486, abs=2e-4)
    assert post.interval_mass(-math.inf, math.inf) == 1.0
    assert post.interval_mass(0.3, 0.3) == 0.0
    # A standardised end past the floats is an infinite one, in cdf too.
    narrow = NormalPosterior(0.25, 1e-300)
    assert narrow.interval_mass(-1e200, 1e200) == 1.0
    assert (narrow.cdf(-1e200), narrow.cdf(1e200)) == (0.0, 1.0)


def test_normal_posterior_hpd_is_symmetric_quantile_pair():
    box = NormalPosterior(0.0, 1.0).hpd(0.95)
    assert box.lo == pytest.approx(-1.9599639845400538, abs=1e-9)
    assert box.hi == pytest.approx(1.9599639845400538, abs=1e-9)
    assert box.mass == pytest.approx(0.95, abs=1e-12)


def test_normal_posterior_rejects_bad_variance():
    with pytest.raises(DomainError):
        NormalPosterior(0.0, 0.0)


def test_gamma_posterior_benchmark_object():
    # parameter order is (shape, rate): mean = shape/rate
    post = GammaPosterior(12.5, 8.5)
    assert post.mean() == pytest.approx(1.470588, abs=1e-6)
    assert post.variance() == pytest.approx(0.173010, abs=1e-6)
    above = 1.0 - post.cdf(post.mean())
    assert 0.45 < above < 0.5
    ref = 1.0 - stats.gamma.cdf(post.mean(), a=12.5, scale=1.0 / 8.5)
    assert above == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize(
    "shape, rate",
    [(0.9, 2.0), (3.0, 0.5), (40.0, 12.0), (0.5, 4.0), (0.05, 1.0), (4012.0, 210.0)],
)
def test_gamma_posterior_matches_scipy(shape, rate):
    post = GammaPosterior(shape, rate)
    dist = stats.gamma(a=shape, scale=1.0 / rate)
    assert post.mean() == pytest.approx(dist.mean(), rel=1e-12)
    assert post.variance() == pytest.approx(dist.var(), rel=1e-12)
    for p in (1e-30, 0.05, 0.5, 0.9):
        assert post.quantile(p) == pytest.approx(dist.ppf(p), rel=1e-7)
    for x in dist.ppf([1e-6, 0.2, 0.5, 0.8, 1.0 - 1e-6]):
        assert post.cdf(x) == pytest.approx(dist.cdf(x), abs=1e-10)
        assert post.cdf(x) == pytest.approx(special.gammainc(shape, rate * x), abs=1e-10)


def test_beta_posterior_quantile_against_incomplete_beta():
    post = BetaPosterior(51.0, 51.0)
    assert post.quantile(0.975) == pytest.approx(stats.beta.ppf(0.975, 51, 51), abs=1e-6)
    assert post.quantile(0.5) == pytest.approx(0.5, abs=1e-9)
    assert post.mean() == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [(1.0, 4.0), (2.5, 1.0), (7.0, 3.0), (0.5, 0.5), (0.5, 10.5), (0.3, 5.0),
     (12.0, 0.2), (4012.0, 2100.0)],
)
def test_beta_posterior_matches_scipy(a, b):
    post = BetaPosterior(a, b)
    dist = stats.beta(a, b)
    assert post.variance() == pytest.approx(dist.var(), rel=1e-12)
    for p in (1e-30, 0.1, 0.5, 0.95):
        assert post.quantile(p) == pytest.approx(dist.ppf(p), rel=1e-7)
    for x in dist.ppf([1e-6, 0.2, 0.5, 0.8, 1.0 - 1e-6]):
        assert post.cdf(x) == pytest.approx(dist.cdf(x), abs=1e-10)
        assert post.cdf(x) == pytest.approx(special.betainc(a, b, x), abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(GammaPosterior, st.floats(0.05, 2e4), st.floats(0.01, 100.0)),
        st.builds(BetaPosterior, st.floats(0.05, 2e4), st.floats(0.05, 2e4)),
    ),
    st.floats(1e-9, 1.0 - 1e-9),
)
def test_posterior_cdf_is_the_special_function_bit_for_bit(post, p):
    # The posterior hands its cached normaliser to gamma_p and beta_i; it
    # must be the one they compute themselves, to the last bit.
    x = post.quantile(p)
    if isinstance(post, GammaPosterior):
        assert post.cdf(x) == gamma_p(post.shape, post.rate * x)
    else:
        assert post.cdf(x) == beta_i(post.a, post.b, x)


def test_posterior_cdf_computes_no_normaliser_in_specfun(monkeypatch):
    # A timing-free guard: every CDF evaluation hands gamma_p or beta_i the
    # posterior's cached normaliser, so they never compute one themselves.
    calls = []
    for name in ("gamma_log_norm", "beta_log_norm"):
        real = getattr(specfun, name)
        def counting(*args, real=real):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(specfun, name, counting)
    for post in (GammaPosterior(12.5, 8.5), BetaPosterior(30.5, 20.5), BetaPosterior(0.5, 3.5)):
        for p in (1e-6, 0.05, 0.5, 0.95):
            post.quantile(p)
        post.interval_mass(post.quantile(0.1), post.quantile(0.9))
        if min(post._edge_shapes) >= 1.0:
            post.hpd(0.9)
    assert calls == []
    assert gamma_p(2.0, 1.0) > 0.0 and calls == [(2.0,)]  # the counter sees a bare call


_SHAPES = st.floats(0.05, 1e4)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.builds(GammaPosterior, _SHAPES, st.floats(0.01, 100.0)),
        st.builds(BetaPosterior, _SHAPES, _SHAPES),
    ),
    st.floats(1e-6, 1.0 - 1e-6),
)
# Shapes far below the drawn range, whose starting guesses once overflowed.
@example(BetaPosterior(1e-4, 1e-3), 0.5)
@example(BetaPosterior(1e-3, 1e-4), 0.9)
@example(BetaPosterior(1e-3, 5.0), 0.5)
def test_quantile_inverts_cdf_for_small_and_large_shapes(post, p):
    q = post.quantile(p)
    if abs(post.cdf(q) - p) > 1e-8:
        # Only allowed where no double is closer: q's neighbours straddle p.
        assert post.cdf(math.nextafter(q, -math.inf)) <= p <= post.cdf(math.nextafter(q, math.inf))


_PRIOR_SHAPES = st.floats(0.01, 1e3)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([Poisson(), Bernoulli()]), _PRIOR_SHAPES, _PRIOR_SHAPES,
    st.integers(1, 10_000), st.floats(0.0, 1.0),
)
@example(Poisson(), 0.01, 0.02, 1, 0.0)
@example(Bernoulli(), 0.01, 0.02, 1, 1.0)
def test_conjugate_posterior_moments_match_scipy(family, a, b, n, fraction):
    # Random priors, shapes below 1 included, and a total that may leave the
    # posterior's shape below 1 (s = 0 or s = n).
    if isinstance(family, Poisson):
        s = float(math.floor(fraction * 3 * n))
        post = posterior(family, GammaPrior(a, b), SufficientStat(n, s))
        dist = stats.gamma(b + s, scale=1.0 / (a + n))
    else:
        s = float(math.floor(fraction * n))
        post = posterior(family, BetaPrior(a, b), SufficientStat(n, s))
        dist = stats.beta(a + s, b + n - s)
    assert post.mean() == pytest.approx(dist.mean(), rel=1e-12)
    assert post.variance() == pytest.approx(dist.var(), rel=1e-12)


def test_quantile_failure_names_the_posterior(monkeypatch):
    post = GammaPosterior(2.0, 1.0)
    monkeypatch.setattr(GammaPosterior, "_cdf_parts", lambda self, rows, x: (x * math.nan, x))
    with pytest.raises(AccuracyError, match=r"GammaPosterior\(shape=2\.0.*p=0\.3"):
        post.quantile(0.3)


# ---------------------------------------------------------------------------
# rate posterior: each row on its own nodes in phi = arcsin(sqrt(r))

def _beta_grid(a, b):
    # With s = 0 the rate posterior is Beta(a, b).
    return RatePosterior(a, b, 0.0)


def _row_log_density(post, r):
    """The row's closed-form log density at rates r, up to a constant; a
    power with exponent 0 is 1 at its edge too."""
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        value = -float(post.s) * r
        if post.shape != 1.0:
            value = value + (post.shape - 1.0) * np.log(r)
        if post.b != 1.0:
            value = value + (post.b - 1.0) * np.log1p(-r)
    return value


@pytest.mark.parametrize("a, b", [(1.5, 1.5), (3.0, 3.0), (51.0, 51.0)])
def test_grid_posterior_reproduces_beta_oracle(a, b):
    # The rows' nodes reach both edges: the oracle is the whole beta law.
    grid = _beta_grid(a, b)
    dist = stats.beta(a, b)
    assert grid.mean() == pytest.approx(dist.mean(), rel=1e-12)
    assert grid.variance() == pytest.approx(dist.var(), rel=1e-9)
    for p in (0.025, 0.5, 0.975):
        assert grid.quantile(p) == pytest.approx(dist.ppf(p), rel=1e-9)


@pytest.mark.parametrize("n, s", [(100, 400.0), (10, 30.0), (1000, 2000.0)])
def test_grid_quantile_inverts_the_trapezoid_cdf(n, s):
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, s))
    for p in (1e-6, 0.025, 0.05, 0.5, 0.975, 1.0 - 1e-6):
        assert post.cdf(post.quantile(p)) == pytest.approx(p, abs=1e-12)


def _phi_nodes(grid):
    # each row's nodes in phi, equal steps from _phi0 that end on _phi1
    k = grid._node_cdf.shape[1] - 1
    phi = grid._phi0[:, None] + grid._step[:, None] * np.arange(k + 1.0)
    phi[:, -1] = grid._phi1
    return phi


def _nodes(grid):
    # the rates at each row's nodes
    return np.sin(_phi_nodes(grid)) ** 2


def _cdf_by_search(grid, v):
    # RatePosterior.cdf with a binary search for the segment among the
    # row's nodes in phi
    phi0, h, k = grid._phi0[0], grid._step[0], grid._node_cdf.shape[1] - 1
    nodes = _phi_nodes(grid)[0]
    phi = math.asin(math.sqrt(min(max(v, 0.0), 1.0)))
    if phi <= nodes[0]:
        return 0.0
    if phi >= nodes[-1]:
        return 1.0
    i = min(int(np.searchsorted(nodes, phi, side="right")) - 1, k - 1)
    coef = grid._segments(np.array([0]), np.array([i]))
    t = np.array([min(max((phi - phi0) / h - i, 0.0), 1.0)])
    return min(max(float(grid._within(np.array([0]), np.array([i]), coef, t)[0][0]), 0.0), 1.0)


@pytest.mark.parametrize(
    "grid",
    [posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(30, 60.0)),
     _beta_grid(3.0, 8.0), RatePosterior(2.0, 1.0, 700.0)],
)
def test_grid_scalar_lookups_match_numpy(grid):
    # cdf() indexes the segment directly from phi and must agree with a
    # binary search over the nodes; on a node either neighbour's quartic
    # gives the node CDF, to a few ulps.  Inside the nodes its slope is the
    # closed-form density.
    x = _nodes(grid)[0]
    on = x[[0, 1, 2, 100, -2, -1]]
    points = np.concatenate((
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        np.random.default_rng(7).uniform(x[0], x[-1], 300), [x[0] - 1.0, x[-1] + 1.0],
    ))
    for v in points.tolist():
        assert grid.cdf(v) == pytest.approx(_cdf_by_search(grid, v), abs=2e-15)
    assert grid.cdf(x[-1]) == 1.0 and grid.cdf(x[0]) == 0.0
    # the cubic Hermite density is good to O(h^4): 1e-6 between the 1 %
    # quantiles of these rows
    inside = np.random.default_rng(8).uniform(grid.quantile(0.01), grid.quantile(0.99), 50)
    rows = np.zeros(inside.size, dtype=np.intp)
    phi = np.arcsin(np.sqrt(inside))
    density = grid._cdf_phi(rows, phi)[1] / np.sin(2.0 * phi)  # d/dr = d/dphi / sin(2 phi)
    closed = np.exp(_row_log_density(grid, inside))
    ratio = density / closed
    assert np.ptp(ratio) <= 1e-6 * ratio.mean()
    with pytest.raises(DomainError):
        grid.cdf(math.nan)


def _trapezoid_weights(grid):
    # the stored h g / total at each node, times the trapezoid rule's weights
    w = grid._density[0].copy()
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def test_grid_posterior_weights_sum_to_one():
    weights = _trapezoid_weights(_beta_grid(3.0, 3.0))
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(weights >= 0.0)


def test_grid_posterior_symmetric_hpd_matches_equal_tails():
    grid = _beta_grid(3.0, 3.0)
    box = grid.hpd(0.95)
    assert box.lo == pytest.approx(grid.quantile(0.025), rel=1e-12)
    assert box.hi == pytest.approx(grid.quantile(0.975), rel=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
def test_grid_hpd_mass_band(level):
    for n, s in ((25, 50.0), (100, 210.0)):
        post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, s))
        box = post.hpd(level)
        assert level <= box.mass <= level + 1e-12
        assert box.lo <= box.hi


# The rate cells of the benchmark's table-3 workload.
_BENCH_RATE_CELLS = ((0.25, 10), (0.25, 100), (0.5, 30), (0.75, 10), (0.75, 50))


def _bench_rows(theta0, n):
    # 200 replicates of the cell, in one block as simulate_many builds them
    fam, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    totals = [sample_suffstat(fam, theta0, n, SeededGenerator(2006, stream_id=j)).s
              for j in range(200)]
    return block_posterior(fam, prior, n, np.array(totals))


@pytest.mark.parametrize("theta0, n", _BENCH_RATE_CELLS)
def test_grid_hpd_pad_starts_at_one_ulp(monkeypatch, theta0, n):
    # The mass of the ends costs one CDF call over both ends, and each pad
    # pass one more; starting at one ulp of the ends, at most two passes
    # reach the level.
    calls = []
    cdf_at = RatePosterior._cdf_at

    def counted(self, rows, phi):
        calls.append(rows.size)
        return cdf_at(self, rows, phi)

    post = _bench_rows(theta0, n)
    monkeypatch.setattr(RatePosterior, "_cdf_at", counted)
    box = post.hpd(0.95)
    assert np.all((0.0 <= box.mass - 0.95) & (box.mass - 0.95 <= 1e-14))
    assert calls[0] == 2 * len(post)  # the count reaches both ends of every row
    assert len(calls) <= 1 + 2


def test_grid_hpd_no_wider_than_equal_tails():
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(25, 50.0))
    box = post.hpd(0.95)
    et = post.quantile(0.975) - post.quantile(0.025)
    assert box.hi - box.lo <= et * (1.0 + 1e-12)


def _rate_grid(theta0, n, u, b=1.5):
    # s at probability u of its Gamma(n, theta0) sampling law
    s = float(stats.gamma.ppf(u, n) / theta0)
    return posterior(ExponentialRate(), BetaPrior(1.5, b), SufficientStat(n, s))


def _gamma_grid(shape, rate):
    # With b = 1 the rate posterior is Gamma(shape, rate) cut at 1.
    return RatePosterior(shape, 1.0, rate)


_RATE_GRIDS = st.builds(
    _rate_grid, st.floats(0.05, 1.0), st.integers(1, 200), st.floats(0.001, 0.999)
)
_GRIDS = st.one_of(
    _RATE_GRIDS,
    st.builds(_beta_grid, st.floats(1.0, 60.0), st.floats(1.0, 60.0)),
    st.builds(_gamma_grid, st.floats(1.0, 60.0), st.floats(0.1, 50.0)),
)


def _reference_log_density(shape, b, s):
    """The closed-form mode of r^(shape-1) (1-r)^(b-1) exp(-s r) on [0, 1]
    and its log density less the mode's, about the mode so that no term
    grows with n."""
    if b == 1.0:
        mode = min((shape - 1.0) / s, 1.0) if s > 0.0 else 1.0
    else:  # the smaller root of s r^2 - (shape + b - 2 + s) r + shape - 1
        pa, pb = shape - 1.0, b - 1.0
        mode = 2.0 * pa / (pa + pb + s + math.hypot(s - pa + pb, 2.0 * math.sqrt(pa * pb)))
    # a centre at the mode, or next to it inside (0, 1)
    centre = min(max(mode, 1e-300), 1.0 - 2.0**-40)

    def log_k(r):
        value = -s * (r - centre)
        if shape != 1.0:
            d = (r - centre) / centre
            value += (shape - 1.0) * (math.log1p(d) if d > -0.5 else math.log(r / centre))
        if b != 1.0:
            value += (b - 1.0) * (math.log1p(-r) - math.log1p(-centre))
        return value

    return mode, log_k


def _moments_by_quad(post):
    # the closed-form density's mass, mean and variance on (0, 1)
    mode, log_k = _reference_log_density(post.shape, post.b, float(post.s))
    f = lambda r: math.exp(log_k(r)) if 0.0 < r < 1.0 else 0.0  # noqa: E731
    # a breakpoint next to an end would leave quad a sliver it cannot resolve
    points = [mode] if 1e-6 < mode < 1.0 - 1e-6 else None

    def q(g):
        return integrate.quad(g, 0.0, 1.0, points=points, limit=400, epsabs=0.0,
                              epsrel=1e-12)[0]

    z = q(f)
    mean = q(lambda r: r * f(r)) / z
    return mean, q(lambda r: (r - mean) ** 2 * f(r)) / z


@settings(max_examples=80, deadline=None)
@given(grid=_GRIDS)
@example(grid=_beta_grid(1.5, 1.0000000000000002))  # its mode is 4e-16 below 1
def test_grid_normalisation_is_exact_at_the_ends(grid):
    # One cumulative sum gives the node CDF and the total it is divided by;
    # the mean and variance are those of the closed-form density.
    cdf = grid._node_cdf[0]
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)
    mean, variance = _moments_by_quad(grid)
    assert grid.mean() == pytest.approx(mean, rel=1e-9)
    assert grid.variance() == pytest.approx(variance, rel=1e-8)


@settings(max_examples=80, deadline=None)
@given(grid=_RATE_GRIDS, level=st.floats(0.05, 0.99))
def test_grid_hpd_properties(grid, level):
    box = grid.hpd(level)
    assert level <= box.mass <= level + 1e-12
    tail = 0.5 * (1.0 - level)
    equal_tail = grid.quantile(1.0 - tail) - grid.quantile(tail)
    assert box.hi - box.lo <= equal_tail * (1.0 + 1e-12)
    if 0.0 < box.lo and box.hi < 1.0:
        ends = _row_log_density(grid, np.array([box.lo, box.hi]))
        assert abs(ends[0] - ends[1]) <= 1e-8


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2])
def test_grid_hpd_at_the_support_edge(n, level):
    # n = 1 with a large s piles the rate posterior near rate 0; a gamma of
    # shape 1 falls from its maximum at rate 0, where its interval starts.
    exponential = _gamma_grid(1.0, 5.0)
    for grid in (_rate_grid(0.05, n, 0.999), _rate_grid(1.0, n, 0.001), exponential):
        box = grid.hpd(level)
        assert level <= box.mass <= level + 1e-12
    assert exponential.hpd(level).lo == _nodes(exponential)[0, 0] == 0.0


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
def test_grid_hpd_on_a_flat_density_has_the_level_mass(level):
    # Beta(1, 1): every interval of mass `level` is a highest-density one,
    # and its width is `level` of the nodes' span, the unit interval.
    grid = _beta_grid(1.0, 1.0)
    box = grid.hpd(level)
    assert level <= box.mass <= level + 1e-12
    span = _nodes(grid)[0, -1] - _nodes(grid)[0, 0]
    assert span == 1.0
    assert box.hi - box.lo == pytest.approx(level * span, abs=1e-12)


@pytest.mark.parametrize("level", [0.05, 0.5, 0.95, 0.999])
@pytest.mark.parametrize(
    "grid",
    [_rate_grid(0.25, 10, 0.5), _rate_grid(1.0, 3, 0.9), _beta_grid(1.0, 40.0),
     _beta_grid(30.0, 2.0), _gamma_grid(1.0, 5.0), _gamma_grid(40.0, 2.0)],
)
def test_grid_hpd_no_wider_than_any_node_anchored_interval(grid, level):
    # hpd() never looks at the nodes; still, no interval with an end on a
    # node and mass `level` may be shorter
    x, cdf = _nodes(grid)[0], grid._node_cdf[0]
    starts, ends = cdf + level <= cdf[-1], cdf >= level
    reach = np.vectorize(lambda p: x[0] if p <= 0.0 else x[-1] if p >= 1.0 else grid.quantile(p))
    widths = np.r_[reach(cdf[starts] + level) - x[starts],
                   x[ends] - reach(cdf[ends] - level)]
    box = grid.hpd(level)
    assert box.hi - box.lo <= widths.min() * (1.0 + 1e-12)


def test_grid_hpd_ends_move_continuously_with_the_data():
    # An end snapped to a node would jump by a whole step as s moves; the
    # rate-study oracle integrates these ends over s.
    fam, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    boxes = [
        posterior(fam, prior, SufficientStat(30, float(s))).hpd(0.95)
        for s in np.linspace(60.0, 60.01, 41)
    ]
    ends = np.array([(box.lo, box.hi) for box in boxes])
    steps = np.diff(ends, axis=0)
    assert np.abs(steps).max() <= 1e-5
    # smooth in s: the steps of equal width in s agree to their second difference
    assert np.abs(np.diff(steps, axis=0)).max() <= 1e-9


def test_rate_posterior_grid_matches_a_tabulated_log_density():
    # Beta(1.5 + n, 1.5) times the exponential likelihood's exp(-s r), times
    # dr / dphi = sin(2 phi) on the row's nodes in phi
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(30, 60.0))
    r = _nodes(post)[0]
    assert r[0] > 0.0 and r[-1] <= 1.0 and np.all(np.diff(r) > 0.0)
    phi = np.arcsin(np.sqrt(r))
    assert np.ptp(np.diff(phi)) <= 1e-9 * post._step[0]
    r, phi = r[:-1], phi[:-1]  # the last node may be rate 1, where the density is 0
    tabulated = stats.beta.logpdf(r, 31.5, 1.5) - 60.0 * r + np.log(np.sin(2.0 * phi))
    offset = np.log(post._density[0, :-1]) - tabulated
    assert np.ptp(offset) <= 1e-12 * np.abs(tabulated).max()
    # The closed form the HPD's ends use is the same log density.
    closed = post._log_pdf(r)
    offset = stats.beta.logpdf(r, 31.5, 1.5) - 60.0 * r - closed
    assert np.ptp(offset) <= 1e-12 * np.abs(closed).max()


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("s", [10.0, 20.4, 21.0])
def test_rate_hpd_reaches_one_when_b_is_one(s, level):
    # With b = 1 the density at rate 1 is positive.  At s = 10 and 20.4 the
    # mode (shape - 1) / s is at or past 1; at s = 21 it is 0.976, yet the
    # density at 1 still beats that at Q(1 - level).
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.0), SufficientStat(20, s))
    box = post.hpd(level)
    assert box.hi == 1.0
    assert box.lo == pytest.approx(post.quantile(1.0 - level), abs=1e-15)
    assert box.lo <= post.quantile(1.0 - level)
    assert level <= box.mass <= level + 1e-12
    assert _row_log_density(post, box.lo) <= _row_log_density(post, 1.0)


def test_rate_hpd_with_b_one_and_an_interior_mode_stays_below_one():
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.0), SufficientStat(20, 60.0))
    box = post.hpd(0.95)
    assert box.hi < 1.0
    assert abs(_row_log_density(post, box.lo) - _row_log_density(post, box.hi)) <= 1e-12


@pytest.mark.parametrize("level", [0.05, 0.5, 0.95, 0.99])
@pytest.mark.parametrize("s", [1e4, 1e5])
def test_rate_hpd_lower_end_on_the_first_node(s, level):
    # n = 1 and a large s put the mode, 1.5 / s, below 1/4096, the first
    # node of the fixed grid these posteriors replaced, which pinned the
    # interval's lower end there.  The row's own nodes resolve it: the ends
    # are the quadrature reference's.
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(1, s))
    assert post._mode[0] < 1.0 / GRID_NODES
    box = post.hpd(level)
    lo, hi = _reference_rate_hpd(post.shape, post.b, float(post.s), level)
    assert 0.0 < box.lo < post._mode[0] < box.hi
    assert box.lo == pytest.approx(lo, rel=1e-8)
    assert box.hi == pytest.approx(hi, rel=1e-8)
    assert level <= box.mass <= level + 1e-12


def test_rate_hpd_failure_names_the_posterior(monkeypatch):
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(30, 60.0))
    cdf_phi = RatePosterior._cdf_phi
    monkeypatch.setattr(RatePosterior, "_cdf_phi",
                        lambda self, rows, phi: (cdf_phi(self, rows, phi)[0], phi * math.nan))
    with pytest.raises(AccuracyError,
                       match=r"RatePosterior\(shape=31\.5, b=1\.5, s=60\.0\).*level=0\.95"):
        post.hpd(0.95)


def _reference_rate_hpd(shape, b, s, level):
    """HPD of the continuous density r^(shape-1) exp(-s r) (1-r)^(b-1) on
    (0, 1], from scipy alone: masses by quad, and the cut log density by
    brentq, with each end a brentq root, about the closed-form mode."""
    mode, log_k = _reference_log_density(shape, b, s)
    top = 1.0 - 2.0**-53
    sd = 1.0 / math.sqrt((shape - 1.0) / mode**2 + (b - 1.0) / (1.0 - mode) ** 2)

    def f(r):
        return math.exp(log_k(r)) if 0.0 < r < 1.0 else 0.0

    def mass(lo, hi):  # lo <= mode <= hi; each side's density is monotone
        return sum(integrate.quad(f, x0, x1, epsabs=0.0, epsrel=1e-11, limit=200)[0]
                   for x0, x1 in ((lo, mode), (mode, hi)))

    total = mass(max(mode - 50.0 * sd, 0.0), min(mode + 50.0 * sd, 1.0))

    def ends(cut):
        return (optimize.brentq(lambda r: log_k(r) - cut, 1e-300, mode, xtol=1e-300, rtol=1e-15),
                optimize.brentq(lambda r: log_k(r) - cut, mode, top, xtol=1e-300, rtol=1e-15))

    floor = max(-60.0, log_k(1e-300), log_k(top)) + 1e-9
    cut = optimize.brentq(lambda c: mass(*ends(c)) / total - level, floor, -1e-6,
                          xtol=1e-14)
    return ends(cut)


@settings(max_examples=40, deadline=None)
@given(theta0=st.floats(0.05, 1.0), n=st.integers(1, 1000), u=st.floats(0.001, 0.999),
       level=st.floats(0.5, 0.99))
@example(theta0=0.05, n=1, u=0.999, level=0.99)  # the largest gap measured
@example(theta0=1.0, n=30, u=0.5, level=0.99)
def test_rate_hpd_matches_a_quadrature_reference(theta0, n, u, level):
    post = _rate_grid(theta0, n, u)
    box = post.hpd(level)
    lo, hi = _reference_rate_hpd(post.shape, post.b, float(post.s), level)
    # The fixed grid's ends were within half a node spacing, 1.2e-4; the
    # row's own nodes put them within 1e-8 of the reference's width.
    assert abs(box.lo - lo) <= 1e-8 * (hi - lo)
    assert abs(box.hi - hi) <= 1e-8 * (hi - lo)
    assert level <= box.mass <= level + 1e-12
    tail = 0.5 * (1.0 - level)
    equal_tail = post.quantile(1.0 - tail) - post.quantile(tail)
    assert box.hi - box.lo <= equal_tail * (1.0 + 1e-9)
    # An end snapped to a node would jump by up to a node spacing.
    nearby = posterior(ExponentialRate(), BetaPrior(1.5, 1.5),
                       SufficientStat(n, float(post.s) * (1.0 + 1e-9))).hpd(level)
    assert abs(nearby.lo - box.lo) <= 1e-7 * (hi - lo)
    assert abs(nearby.hi - box.hi) <= 1e-7 * (hi - lo)


@pytest.mark.parametrize("theta0, n", _BENCH_RATE_CELLS)
def test_rate_hpd_takes_at_most_8_newton_steps(monkeypatch, theta0, n):
    # A timing-free guard on the cost of the rate HPD: each Newton step
    # takes the residuals of the rows it moves once, and nothing else does.
    # Measured on these cells: 4.0 to 5.0 steps on average, 6 at most.
    post = _bench_rows(theta0, n)
    steps = np.zeros(len(post), dtype=int)
    newton_step = RatePosterior._newton_step

    def counted(self, rows, ends, level):
        steps[rows] += 1
        return newton_step(self, rows, ends, level)

    monkeypatch.setattr(RatePosterior, "_newton_step", counted)
    post.hpd(0.95)
    assert steps.max() <= 8
    assert steps.mean() <= 6.0


def _mpmath_rate_hpd(shape, b, s, level):
    """HPD of r^(shape-1) (1-r)^(b-1) exp(-s r) at 30 digits: ends of equal
    log density about the mode, the cut found by secant steps on the mass,
    each mass by mpmath quadrature."""
    with mpmath.workdps(30):
        shape, b, s, level = (mpmath.mpf(v) for v in (shape, b, s, level))

        def l(r):
            return (shape - 1) * mpmath.log(r) + (b - 1) * mpmath.log1p(-r) - s * r

        mode = mpmath.findroot(lambda r: (shape - 1) / r - (b - 1) / (1 - r) - s,
                               (shape - 1) / (s + b - 1))
        sd = 1 / mpmath.sqrt((shape - 1) / mode**2 + (b - 1) / (1 - mode) ** 2)
        top = l(mode)

        def f(r):
            return mpmath.exp(l(r) - top)

        total = mpmath.quad(f, [mode + k * sd for k in (-40, -5, -1, 0, 1, 5, 40)])

        def ends(cut):
            w = sd * mpmath.sqrt(-2 * cut)
            return [mpmath.findroot(lambda r: l(r) - top - cut, mode + side * w)
                    for side in (-1, 1)]

        def excess(cut):
            lo, hi = ends(cut)
            return mpmath.quad(f, [lo, mode, hi]) / total - level

        z = mpmath.sqrt(2) * mpmath.erfinv(level)  # the normal approximation's cut
        cut = mpmath.findroot(excess, (-z * z / 2, -z * z / 2 * 1.001), solver="secant")
        return [float(end) for end in ends(cut)]


def test_rate_hpd_at_a_small_level_past_half_a_million_observations():
    # Here l(lo) - l(hi) cancels between terms of about 1e6; formed from
    # them, its rounding held the Newton steps at +-3.15e-11 against a
    # tolerance of 3.03e-11, and the HPD raised AccuracyError.  Formed from
    # the ends' differences it converges, its ends centred on the
    # reference's to 1e-8 of the width.  The width itself is 4e-8 short of the reference's:
    # the node CDF's interpolated density is 4e-8 high inside this segment.
    post = posterior(ExponentialRate(), BetaPrior(0.01, 17.58), SufficientStat(524289, 9217326.5))
    box = post.hpd(0.001)
    assert 0.001 <= box.mass <= 0.001 + 1e-12
    lo, hi = _mpmath_rate_hpd(post.shape, post.b, float(post.s), 0.001)
    assert abs((box.lo + box.hi) / 2.0 - (lo + hi) / 2.0) <= 1e-8 * (hi - lo)
    assert box.hi - box.lo == pytest.approx(hi - lo, rel=1e-7)
    assert evaluate(HpdWidth(0.001), post) == box.hi - box.lo


def _counting(monkeypatch, *names):
    """Count the calls of the ``RatePosterior`` methods ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(RatePosterior, name)

        def counted(self, *args, method=method, name=name):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(RatePosterior, name, counted)
    return calls


@pytest.mark.parametrize("rows", [1, 7, blocks.RATE_BLOCK_ROWS])
@pytest.mark.parametrize("alpha", [0.001, 0.025, 0.3])
def test_rate_equal_tails_are_both_quantiles_from_one_start(monkeypatch, rows, alpha):
    # A timing-free guard: both ends of every row come from one chord start
    # and one Newton loop, and each is its quantile's float.
    post = block_posterior(ExponentialRate(), BetaPrior(1.5, 1.5), 30,
                           _bench_rows(0.5, 30).s[:rows])
    quantiles = [post.quantile(alpha), post.quantile(1.0 - alpha)]
    calls = _counting(monkeypatch, "_start")
    ends = post.equal_tails(alpha)
    assert calls["_start"] == 1
    for end, quantile in zip(ends, quantiles):
        assert [x.hex() for x in end] == [x.hex() for x in quantile]


@pytest.mark.parametrize("theta0, n", _BENCH_RATE_CELLS)
def test_rate_hpd_of_a_full_block_starts_once_and_evaluates_once_a_step(monkeypatch, theta0, n):
    # A timing-free guard on the HPD's numpy work: one chord start for both
    # ends, one CDF evaluation per Newton step and one for both ends' mass.
    # Measured on these cells at 127 rows: 4 to 6 steps and no pad pass.
    post = block_posterior(ExponentialRate(), BetaPrior(1.5, 1.5), n,
                           _bench_rows(theta0, n).s[:blocks.RATE_BLOCK_ROWS])
    calls = _counting(monkeypatch, "_start", "_newton_step", "_cdf_phi", "_segments")
    post.hpd(0.95)
    assert calls["_start"] == 1
    assert calls["_newton_step"] <= 6
    assert calls["_cdf_phi"] == calls["_newton_step"] + 1
    assert calls["_segments"] == calls["_cdf_phi"] + 1


def test_a_full_rate_block_with_the_table_3_functionals_stays_within_1_5_mebibytes():
    # A block's node arrays are RATE_BLOCK_ROWS x 257 doubles, 255 KiB at
    # 127 rows; it keeps three and holds four at once while it is built.
    # Measured: 1.09 MiB on this cell.
    import tracemalloc

    s = _bench_rows(0.5, 30).s[:blocks.RATE_BLOCK_ROWS]
    tracemalloc.start()
    try:
        post = block_posterior(ExponentialRate(), BetaPrior(1.5, 1.5), 30, s)
        for functional in (PosteriorVariance(), CredibleLength(0.05), HpdLower(0.95),
                           HpdUpper(0.95), HpdWidth(0.95)):
            evaluate(functional, post)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 1024 * 1024


def _reference_rate(shape, b, s):
    """Variance and quantile function of the density r^(shape-1)
    (1-r)^(b-1) exp(-s r) on (0, 1) by scipy quadrature about its mode."""
    mode, log_k = _reference_log_density(shape, b, s)
    curv = (shape - 1.0) / mode**2 + ((b - 1.0) / (1.0 - mode) ** 2 if mode < 1.0 else 0.0)
    sd = 1.0 / math.sqrt(curv) if curv > 0.0 else 1.0
    lo, hi = max(mode - 60.0 * sd, 0.0), min(mode + 60.0 * sd, 1.0)
    marks = [x for x in (mode - 3.0 * sd, mode - sd, mode, mode + sd, mode + 3.0 * sd)
             if lo < x < hi]

    def f(r):
        return math.exp(log_k(r)) if 0.0 < r < 1.0 else 0.0

    def q(g, a=lo, c=hi):
        inner = [x for x in marks if a < x < c] or None
        return integrate.quad(g, a, c, points=inner, limit=400, epsabs=0.0, epsrel=1e-12)[0]

    z = q(f)
    mean = q(lambda r: r * f(r)) / z
    variance = q(lambda r: (r - mean) ** 2 * f(r)) / z

    def quantile(p):
        return optimize.brentq(lambda x: q(f, lo, x) / z - p, lo, hi, xtol=1e-300, rtol=1e-15)

    return variance, quantile


@settings(max_examples=30, deadline=None)
@given(theta0=st.floats(0.05, 1.0), log_n=st.floats(0.0, math.log(1e7)),
       u=st.floats(0.001, 0.999), b=st.sampled_from([1.0, 1.5]),
       level=st.floats(0.5, 0.99))
@example(theta0=1.0, log_n=math.log(1e7), u=0.5, b=1.0, level=0.95)
@example(theta0=0.05, log_n=0.0, u=0.999, b=1.5, level=0.95)
@example(theta0=0.25, log_n=math.log(1e6), u=0.5, b=1.5, level=0.95)
def test_rate_posterior_matches_quadrature_at_every_n(theta0, log_n, u, b, level):
    # The documented bound, 1e-8 relative, against scipy quadrature of the
    # closed-form density for the variance, the equal-tail ends and the
    # HPD ends; 3e-9 was the largest error measured.
    n = max(int(round(math.exp(log_n))), 1)
    post = _rate_grid(theta0, n, u, b)
    variance, quantile = _reference_rate(post.shape, post.b, float(post.s))
    assert post.variance() == pytest.approx(variance, rel=1e-8)
    tail = 0.5 * (1.0 - level)
    for p in (tail, 1.0 - tail):
        assert post.quantile(p) == pytest.approx(quantile(p), rel=1e-8)
    box = post.hpd(level)
    if box.hi < 1.0:
        lo, hi = _reference_rate_hpd(post.shape, post.b, float(post.s), level)
    else:  # b = 1 and rate 1 at least as dense as Q(1 - level)
        lo, hi = quantile(1.0 - level), 1.0
    assert abs(box.lo - lo) <= 1e-8 * (hi - lo)
    assert abs(box.hi - hi) <= 1e-8 * (hi - lo)


def test_rate_quantile_stops_where_rounding_cycles():
    # Here an ulp of the CDF moves the point by more than 1e-13 of its
    # segment, and the Newton steps alternated between two doubles until
    # the quantile raised AccuracyError.  A point back where it was two
    # steps before stops there, on the reference's quantile.
    post = RatePosterior(17.5, 1.5, 13.412238085102096)
    _, quantile = _reference_rate(post.shape, post.b, float(post.s))
    assert post.quantile(0.995) == pytest.approx(quantile(0.995), rel=1e-8)
    assert post.equal_tails(0.005)[1] == post.quantile(0.995)


def _edge_reference_cdf(shape, b, s):
    """The CDF of r^(shape-1) (1-r)^(b-1) exp(-s r) on (0, 1) for b = 1 + 1/q,
    q an integer, by scipy quadrature in u with r = 1 - u^q, where the
    density's fractional power at rate 1 becomes smooth."""
    q = round(1.0 / (b - 1.0))
    mode, log_k = _reference_log_density(shape, b, s)
    u_mode = (1.0 - mode) ** (1.0 / q)

    def g(u):  # the rate density at 1 - u^q, times q u^(q - 1)
        r = 1.0 - u**q
        return math.exp(log_k(r)) * q * u ** (q - 1) if 0.0 < r < 1.0 else 0.0

    marks = [x * u_mode for x in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0) if x * u_mode < 1.0]

    def tail(u, scale=0.0):  # the mass between rate 1 - u^q and rate 1
        inner = [x for x in marks if x < u] or None
        return integrate.quad(g, 0.0, u, points=inner, epsabs=1e-13 * scale, epsrel=1e-11,
                              limit=200)[0]

    total = tail(1.0)
    return lambda x: 1.0 - tail((1.0 - x) ** (1.0 / q), total) / total


@pytest.mark.parametrize("b, theta0, n, fr", [(1.1, 1.0, 1000, 0.7), (1.25, 1.0, 10**5, 0.7),
                                              (1.2, 0.9, 3, 1.0), (1.1, 1.0, 10, 1.3)])
def test_rate_cdf_at_an_edge_with_a_fractional_power(b, theta0, n, fr):
    # With 1 < b < 1.5 the density at rate 1 falls as a fractional power,
    # (pi/2 - phi)^(2b - 1), which the rows' nodes reach: the rule adds the
    # edge's terms back, and the segment at the edge takes the power's shape.
    # Without that shape the CDF there was off by up to 7e-7.
    post = RatePosterior(1.5 + n, b, fr * n / theta0)
    cdf = _edge_reference_cdf(post.shape, post.b, float(post.s))
    nodes = _nodes(post)[0]
    near = np.concatenate((nodes[-6:-1], np.linspace(nodes[-3], nodes[-1], 11)[1:-1]))
    for x in near.tolist() + [post.quantile(0.5)]:
        assert post.cdf(x) == pytest.approx(cdf(x), abs=3e-8)
    box = post.hpd(0.95)
    assert cdf(box.hi) - cdf(box.lo) == pytest.approx(0.95, abs=1e-9)


@pytest.mark.parametrize("theta0, n, b", [(0.25, 10, 1.5), (0.75, 3, 1.0), (1.0, 30, 1.0),
                                          (0.5, 1, 1.5), (1.0, 1000, 1.25)])
def test_rate_rows_do_not_depend_on_their_block(theta0, n, b):
    # Blocks of 1, 7 and 128 rows in two orders give the same floats, and a
    # batch of one built by posterior() its row's.
    prior = BetaPrior(1.5, b)
    totals = np.random.default_rng(3).standard_gamma(n, 150) / theta0
    functionals = [PosteriorVariance(), CredibleLength(0.05), HpdLower(0.95), HpdUpper(0.95),
                   HpdWidth(0.95), CenteredIntervalMass(0.1), TailMassAbove(0.5)]
    runs = []
    for block in (1, 7, 128):
        for order in (np.arange(totals.size), np.arange(totals.size)[::-1]):
            values = np.empty((len(functionals), totals.size))
            for start in range(0, totals.size, block):
                rows = order[start:start + block]
                post = block_posterior(ExponentialRate(), prior, n, totals[rows])
                for i, functional in enumerate(functionals):
                    values[i, rows] = evaluate(functional, post)
            runs.append([[float.hex(v) for v in row] for row in values.tolist()])
    assert all(run == runs[0] for run in runs)
    for k in (0, 77, 149):
        post = posterior(ExponentialRate(), prior, SufficientStat(n, float(totals[k])))
        assert [float.hex(evaluate(f, post)) for f in functionals] == [r[k] for r in runs[0]]


@pytest.mark.parametrize("family, prior, theta0, n", [
    (Poisson(), GammaPrior(2.5, 3.5), 1.5, 40),
    (Poisson(), GammaPrior(1.0, 0.5), 0.05, 30),  # zero counts: a pole at 0
    (Poisson(), GammaPrior(1.0, 1.0), 20.0, 100_000),
    (Bernoulli(), BetaPrior(1.0, 1.0), 0.3, 60),
    (Bernoulli(), BetaPrior(0.5, 0.5), 0.02, 40),  # Jeffreys, zero counts
    (Bernoulli(), BetaPrior(0.5, 0.5), 0.999, 2000),  # full counts, a pole at 1
])
def test_conjugate_rows_do_not_depend_on_their_block(family, prior, theta0, n):
    # Blocks of 1, 7 and 128 rows in two orders give the same floats, and a
    # posterior built by posterior() from a float its row's.
    draw = suffstat_sampler(family, theta0, n)(np.random.default_rng(3), 300)
    totals = np.array(list(dict.fromkeys(draw.tolist())), dtype=float)
    functionals = [PosteriorVariance(), PosteriorQuantile(0.05), CredibleLength(0.05),
                   HpdLower(0.95), HpdUpper(0.95), HpdWidth(0.9),
                   CenteredIntervalMass(0.1 * theta0), TailMassAbove(theta0)]
    runs = []
    for block in (1, 7, 128):
        for order in (np.arange(totals.size), np.arange(totals.size)[::-1]):
            values = np.empty((len(functionals), totals.size))
            for start in range(0, totals.size, block):
                rows = order[start:start + block]
                post = block_posterior(family, prior, n, totals[rows])
                for i, functional in enumerate(functionals):
                    values[i, rows] = evaluate(functional, post)
            runs.append([[float.hex(v) for v in row] for row in values.tolist()])
    assert all(run == runs[0] for run in runs)
    for k in (0, totals.size // 2, totals.size - 1):
        post = posterior(family, prior, SufficientStat(n, float(totals[k])))
        assert [float.hex(evaluate(f, post)) for f in functionals] == [r[k] for r in runs[0]]


def _scipy_hpd(law, level, poles):
    """The HPD ends from scipy alone: an end on a pole's edge or an edge
    denser than the other end, or ends at tail masses ``u`` and ``u +
    level`` of equal log density."""
    gap = lambda u: law.logpdf(law.ppf(u)) - law.logpdf(law.ppf(u + level))  # noqa: E731
    if poles == "low" or gap(1e-12) >= 0.0:
        return 0.0, law.ppf(level)
    if poles == "high" or gap(1.0 - level - 1e-12) <= 0.0:  # denser than any double below 1
        return law.ppf(1.0 - level), 1.0
    u = optimize.brentq(gap, 1e-12, 1.0 - level - 1e-12, xtol=1e-300, rtol=1e-15, maxiter=500)
    return law.ppf(u), law.ppf(u + level)


# Shapes from 1/2, a Jeffreys prior's zero count, to a billion.
_WIDE_SHAPES = st.one_of(st.just(0.5), st.builds(lambda m, e: m * 10.0**e,
                                                  st.floats(1.0, 10.0), st.integers(0, 8)))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["gamma", "beta"]), a=_WIDE_SHAPES, b=_WIDE_SHAPES,
       p=st.floats(1e-3, 1.0 - 1e-3), level=st.floats(0.05, 0.99))
@example(kind="beta", a=0.5, b=1e6 + 0.5, p=0.5, level=0.95)
@example(kind="gamma", a=0.5, b=4.0, p=0.975, level=0.95)
@example(kind="gamma", a=1e9, b=1e9, p=0.025, level=0.5)
@example(kind="beta", a=1e9, b=1e9, p=1e-3, level=0.99)
def test_conjugate_posteriors_match_scipy_from_half_to_a_billion(kind, a, b, p, level):
    # The CDF, the quantile and the HPD's mass agree with scipy within 1e-8
    # in probability.
    # Probabilities stay within [1e-3, 1 - 1e-3]: at a = 1e9 scipy's own
    # gammainc is 2e-6 from mpmath at the 1e-6 quantile, and this module is
    # not.
    if kind == "gamma":
        post, law = GammaPosterior(a, b), stats.gamma(a, scale=1.0 / b)
        poles = "low" if a <= 1.0 else None
    else:
        assume(max(a, b) > 1.0)  # unbounded at both edges, or flat: no one HPD
        post, law = BetaPosterior(a, b), stats.beta(a, b)
        poles = "low" if a <= 1.0 else "high" if b <= 1.0 else None
    q = post.quantile(p)
    if abs(law.cdf(q) - p) > 1e-8:  # only where no double is closer: q's neighbours straddle p
        assert law.cdf(math.nextafter(q, -math.inf)) <= p <= law.cdf(math.nextafter(q, math.inf))
    for x in law.ppf([1e-3, 0.3, 0.7, 1.0 - 1e-3]):
        assert post.cdf(x) == pytest.approx(law.cdf(x), abs=1e-8)
    # The ends hold their mass to 1e-8 under scipy, or to the ends' own
    # resolution, 1e-9 of each, where the density makes that more.  scipy's
    # log density
    # carries about (a + b) * 1e-16 of rounding (1e-12 at a = 1e3, b = 1e7,
    # where mpmath confirms this module's ends), which moves its own
    # equal-density ends by up to a few 1e-8 relative.
    box, ends = post.hpd(level), _scipy_hpd(law, level, poles)
    slack = sum(law.pdf(end) * 1e-9 * end for end in (box.lo, box.hi) if 0.0 < end < 1.0)
    assert level - 1e-8 <= law.cdf(box.hi) - law.cdf(box.lo) <= level + 1e-8 + slack
    assert box.lo == pytest.approx(ends[0], rel=1e-7, abs=1e-8 * ends[1])
    assert box.hi == pytest.approx(ends[1], rel=1e-7)


def test_one_block_quantile_at_a_shape_of_a_billion_stays_in_two_megabytes():
    import tracemalloc

    post = GammaPosterior(1e9 + np.arange(8.0), 1.0)
    tracemalloc.start()
    try:
        post.quantile(0.975)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_rate_posterior_refuses_a_row_past_its_error_bound(monkeypatch):
    # A row whose K-against-K/2 estimate misses the bound names itself.
    monkeypatch.setattr(blocks, "RATE_TOLERANCE", 0.0)
    with pytest.raises(AccuracyError,
                       match=r"RatePosterior\(shape=11\.5, b=1\.0, s=7\.5\): error estimate"):
        block_posterior(ExponentialRate(), BetaPrior(1.5, 1.0), 10, np.array([7.5, 9.0]))


def test_gamma_hpd_is_exact():
    box = GammaPosterior(8.5, 12.5).hpd(0.9)
    assert 0.9 <= box.mass <= 0.9 + 1e-12
    # right-skewed density: upper tail keeps more mass than the lower
    dist = stats.gamma(a=8.5, scale=1.0 / 12.5)
    assert 1.0 - dist.cdf(box.hi) > dist.cdf(box.lo)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95])
@pytest.mark.parametrize(
    "post",
    [GammaPosterior(0.5, 3.0), GammaPosterior(0.7, 1.0), BetaPosterior(0.5, 5.5),
     BetaPosterior(5.5, 0.5), BetaPosterior(0.5, 1.0), BetaPosterior(0.8, 2.0)],
)
def test_hpd_of_a_monotone_density_ends_at_its_pole(post, level):
    # A shape below 1 at one edge makes the density unbounded there and
    # monotone, so the shortest interval of mass `level` ends at that edge.
    box, dist = post.hpd(level), _law(post)
    if isinstance(post, BetaPosterior) and post.b < 1.0:
        assert box.hi == 1.0
        assert box.lo == pytest.approx(dist.ppf(1.0 - level), rel=1e-14)
    else:
        assert box.lo == 0.0
        assert box.hi == pytest.approx(dist.ppf(level), rel=1e-14)
    assert level <= box.mass <= level + 1e-12
    assert dist.cdf(box.hi) - dist.cdf(box.lo) == pytest.approx(level, abs=1e-12)


def test_hpd_rejects_unbounded_densities():
    # Unbounded at both edges: U-shaped, with no interval of highest density.
    with pytest.raises(UnsupportedShapeError, match="both edges"):
        BetaPosterior(0.5, 0.5).hpd(0.9)
    with pytest.raises(UnsupportedShapeError):
        BetaPosterior(0.8, 0.9).hpd(0.5)


def _law(post):
    if isinstance(post, BetaPosterior):
        return stats.beta(post.a, post.b)
    return stats.gamma(post.shape, scale=1.0 / post.rate)


def _shortest_width(law, level):
    # minimised over the lower end's tail mass p, with both edges tried too
    def width(p):
        return law.ppf(p + level) - law.ppf(p)

    best = optimize.minimize_scalar(
        width, bounds=(0.0, 1.0 - level), method="bounded", options={"xatol": 1e-14}
    )
    return min(best.fun, width(0.0), width(1.0 - level))


# (posterior, level) pairs at and near the shapes where an end sits on an edge
_EDGE_EXAMPLES = (
    (GammaPosterior(1.0, 2.0), 0.95),  # falls from zero
    (BetaPosterior(1.0, 5.0), 0.9),
    (BetaPosterior(5.0, 1.0), 0.9),  # rises to one
    (BetaPosterior(1.0, 1.0), 0.5),  # flat
    (GammaPosterior(1.0 + 1e-9, 2.0), 0.9),  # lower tail mass far below 1e-300
    (BetaPosterior(1.0 + 1e-9, 30.0), 0.99),
    (BetaPosterior(30.0, 1.0 + 1e-9), 0.5),  # upper tail mass below 2^-50
    (GammaPosterior(1.001, 2.0), 0.99),
    (BetaPosterior(1.001, 30.0), 0.9),
    (BetaPosterior(30.0, 1.001), 0.95),
    (BetaPosterior(5.0, 1.1), 0.9),  # upper end 1 - 1.2e-9
    (GammaPosterior(1e4, 3.0), 0.05),
    (BetaPosterior(1e4, 1e4), 0.5),
)


def _with_edge_examples(test):
    for post, level in _EDGE_EXAMPLES:
        test = example(post=post, level=level)(test)
    return test


@_with_edge_examples
@settings(max_examples=60, deadline=None)
@given(
    post=st.one_of(
        st.builds(BetaPosterior, st.floats(1.0, 2000.0), st.floats(1.0, 2000.0)),
        st.builds(GammaPosterior, st.floats(1.0, 2e4), st.floats(0.01, 100.0)),
    ),
    level=st.floats(0.05, 0.99),
)
# The upper end 1 - 1.9e-12: stepped in log(1 - hi), it keeps its digits.
@example(post=BetaPosterior(30.0, 1.03), level=0.5)
def test_exact_hpd_is_the_shortest_interval(post, level):
    box = post.hpd(level)
    law = _law(post)
    assert type(box.lo) is float and type(box.hi) is float
    # The closed-form CDFs are good to a few 1e-11, which scipy's mass sees.
    assert level <= box.mass <= level + 1e-8
    assert level - 1e-10 <= law.cdf(box.hi) - law.cdf(box.lo) <= level + 1e-8
    # Each end is a quantile, resolved to 1e-12 relative; where the width
    # is small against the ends (large shapes, low levels) or the log
    # density steep (an end near a shape-near-1 edge), that resolution
    # adds to the 1e-9 the width and the end log densities are held to.
    res_lo, res_hi = 1e-12 * box.lo, 1e-12 * box.hi
    shortest = _shortest_width(law, level)
    width, tol = box.hi - box.lo, 1e-9 * shortest + res_lo + res_hi
    assert abs(width - shortest) <= tol
    tail = 0.5 * (1.0 - level)
    assert width <= law.ppf(1.0 - tail) - law.ppf(tail) + tol
    if box.lo > 0.0 and box.hi < post._hi[0]:
        slope = np.abs(post._dlog_pdf(np.zeros(2, dtype=int), np.array([box.lo, box.hi]))[0])
        slack = slope[0] * res_lo + slope[1] * res_hi
        assert abs(law.logpdf(box.lo) - law.logpdf(box.hi)) <= 1e-9 + slack


def test_exact_hpd_takes_at_most_20_root_iterations(monkeypatch):
    # The equal-tail quantiles start the root, and an end on an edge takes
    # one more quantile; each Newton step in both ends takes one l' pair
    # (the quantiles' own Halley steps take l' too, and are not counted).
    quantiles, slopes, solving = [], [], []
    for cls in (GammaPosterior, BetaPosterior):
        quantile, dlog_pdf = cls._quantile, cls._dlog_pdf

        def counted_quantile(self, rows, p, quantile=quantile):
            quantiles.append(p)
            solving.append(p)
            try:
                return quantile(self, rows, p)
            finally:
                solving.pop()

        def counted_slope(self, rows, x, dlog_pdf=dlog_pdf):
            if not solving:
                slopes.append(x)
            return dlog_pdf(self, rows, x)

        monkeypatch.setattr(cls, "_quantile", counted_quantile)
        monkeypatch.setattr(cls, "_dlog_pdf", counted_slope)
    rng = np.random.default_rng(2006)
    # Fresh copies: a posterior keeps the intervals it has already found.
    posts = [dataclasses.replace(post) for post, _ in _EDGE_EXAMPLES]
    posts += [BetaPosterior(*rng.uniform(1.0, 2000.0, 2)) for _ in range(10)]
    posts += [BetaPosterior(*(1.0 + 10.0 ** rng.uniform(-12.0, 3.0, 2))) for _ in range(10)]
    posts += [GammaPosterior(1.0 + 10.0 ** rng.uniform(-12.0, 4.3), 2.0) for _ in range(10)]
    for post in posts:
        for level in (0.05, 0.5, 0.9, 0.95, 0.99):
            quantiles.clear()
            slopes.clear()
            post.hpd(level)
            assert len(quantiles) <= 3, (post, level)
            assert len(slopes) <= 2 * 10, (post, level)


def test_hpd_functionals_share_one_root_per_posterior(monkeypatch):
    calls = []
    for cls in (BetaPosterior, GammaPosterior, RatePosterior):
        def counted(self, level, hpd=cls._hpd):
            calls.append(self)
            return hpd(self, level)

        monkeypatch.setattr(cls, "_hpd", counted)
    beta, gamma = BetaPosterior(3.0, 8.0), GammaPosterior(3.0, 2.0)
    rate = block_posterior(ExponentialRate(), BetaPrior(1.5, 1.5), 30, np.array([50.0, 70.0]))
    for post in (beta, gamma, rate):
        for level in (0.95, 0.5):
            lo, hi, width = (evaluate(f(level), post) for f in (HpdLower, HpdUpper, HpdWidth))
            assert np.all(width == hi - lo)
    assert calls == [beta, beta, gamma, gamma, rate, rate]


# One cell of each block family, and its distinct totals in order of first draw.
_BLOCK_CELLS = [(Poisson(), GammaPrior(2.5, 3.5), 1.5, 40),
                (Bernoulli(), BetaPrior(1.0, 1.0), 0.3, 60),
                (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 30)]


def _block_totals(family, theta0, n):
    draw = suffstat_sampler(family, theta0, n)(np.random.default_rng(29), 200)
    return np.array(list(dict.fromkeys(draw.tolist())), dtype=float)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("family, prior, theta0, n", _BLOCK_CELLS)
def test_every_block_family_shares_one_row_api(family, prior, theta0, n, rows):
    totals = _block_totals(family, theta0, n)[:rows]
    single = block_posterior(family, prior, n, float(totals[0]))
    block = block_posterior(family, prior, n, totals)
    x = theta0 * np.linspace(0.7, 1.3, rows)
    for post, lo, hi in ((single, 0.8 * theta0, 1.1 * theta0), (block, 0.8 * x, 1.1 * x),
                         (block, 0.8 * theta0, 1.1 * theta0), (block, x, x)):
        kind = float if post is single else np.ndarray
        box = post.hpd(0.9)
        for value in (post.cdf(hi), post.quantile(0.1), *post.equal_tails(0.1),
                      box.lo, box.hi, box.mass, post.interval_mass(lo, hi)):
            assert type(value) is kind
            assert np.shape(value) == (() if kind is float else (rows,))
        # interval_mass is the clipped difference of two CDF values, bit for bit
        expected = np.maximum(np.subtract(post.cdf(hi), post.cdf(lo)), 0.0)
        assert [v.hex() for v in np.atleast_1d(post.interval_mass(lo, hi)).tolist()] == (
            [v.hex() for v in np.atleast_1d(expected).tolist()])
        with pytest.raises(DomainError, match="NaN"):
            post.cdf(math.nan)


@pytest.mark.parametrize("family, prior, theta0, n", _BLOCK_CELLS)
def test_a_block_refuses_x_of_another_row_count_by_name(family, prior, theta0, n):
    post = block_posterior(family, prior, n, _block_totals(family, theta0, n)[:2])
    for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), [[0.1, 0.2]]):
        with pytest.raises(DomainError, match=r"^x must be a float or of shape \(2,\)"):
            post.cdf(bad)
        with pytest.raises(DomainError, match=r"^lo must be a float or of shape \(2,\)"):
            post.interval_mass(bad, theta0)
    single = block_posterior(family, prior, n, 1.0)
    with pytest.raises(DomainError, match=r"of shape \(1,\), one value per row, got shape \(2,\)"):
        single.cdf(np.zeros(2))


@pytest.mark.parametrize("level", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("b", [0.5, 0.8, 1.0])
def test_hpd_on_two_peaks_is_certified_or_unsupported(b, level):
    # The rate root needs one peak.  A prior's b below 1 adds a second one,
    # a pole at rate 1 beyond the interior mode, and the update refuses it;
    # with b = 1 the returned interval is the super-level set of its ends'
    # density: the ends' log densities, here 30.5 log r - 60 r, agree, no
    # node outside is denser than either end, none inside less dense than both.
    fam, prior, stat = ExponentialRate(), BetaPrior(1.5, b), SufficientStat(30, 60.0)
    r = np.linspace(0.01, 1.0 - 1e-9, 200_001)
    slope = 30.5 / r - 60.0 - (b - 1.0) / (1.0 - r)
    falls_to_rise = np.flatnonzero((slope[:-1] < 0.0) & (slope[1:] >= 0.0))
    if b < 1.0:
        assert slope[0] > 0.0 and falls_to_rise.size == 1  # a mode, a valley, a pole
        with pytest.raises(ConfigurationError):
            posterior(fam, prior, stat)
        return
    assert slope[0] > 0.0 and falls_to_rise.size == 0
    grid = posterior(fam, prior, stat)
    box = grid.hpd(level)
    assert level <= box.mass <= level + 1e-12
    log_density = 30.5 * np.log([box.lo, box.hi]) - 60.0 * np.array([box.lo, box.hi])
    assert abs(log_density[0] - log_density[1]) <= 1e-9
    x = np.linspace(1e-6, 1.0 - 1e-9, 200_001)
    d = 30.5 * np.log(x) - 60.0 * x
    inside = (x >= box.lo) & (x <= box.hi)
    assert inside.any() and np.all(d[inside] >= log_density.min() - 1e-9)
    assert np.all(d[~inside] <= log_density.max() + 1e-9)


def test_grid_arrays_are_read_only():
    # the rows' sums, windows, node tables and moments are shared, never
    # written
    grid = _beta_grid(3.0, 3.0)
    batch = block_posterior(ExponentialRate(), BetaPrior(1.5, 1.5), 30,
                            np.array([50.0, 60.0, 70.0]))
    kept = (grid._phi0, grid._phi1, grid._step, grid._mode, grid.error_estimate,
            batch.mean(), batch.variance())
    for array in (grid.s, grid._density, grid._slope, grid._node_cdf, *kept):
        with pytest.raises(ValueError):
            array[...] = 0.5


def test_exp_beta_average_hpd_tracks_truth():
    """Replicate-averaged 95% boxes concentrate near the data-generating rate."""
    theta0, n, m = 0.5, 100, 400
    fam, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    lows, highs = [], []
    for j in range(m):
        stat = sample_suffstat(fam, theta0, n, SeededGenerator(20060301, stream_id=j))
        box = posterior(fam, prior, stat).hpd(0.95)
        lows.append(box.lo)
        highs.append(box.hi)
    avg_lo, avg_hi = float(np.mean(lows)), float(np.mean(highs))
    assert 0.39 < avg_lo < 0.42
    assert 0.59 < avg_hi < 0.62
    assert 0.19 < avg_hi - avg_lo < 0.205


# ---------------------------------------------------------------------------
# cross-type identities

def _random_posteriors(count):
    rng = np.random.default_rng(314159)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 0:
            out.append(NormalPosterior(rng.uniform(-5, 5), rng.uniform(0.01, 4.0)))
        elif kind == 1:
            out.append(GammaPosterior(rng.uniform(0.8, 60.0), rng.uniform(0.2, 20.0)))
        elif kind == 2:
            out.append(BetaPosterior(rng.uniform(1.0, 40.0), rng.uniform(1.0, 40.0)))
        else:
            n = int(rng.integers(5, 120))
            s = rng.uniform(0.8, 2.5) * n
            out.append(
                posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, float(s)))
            )
    return out


def test_quantile_cdf_roundtrip_on_random_posteriors():
    posteriors = _random_posteriors(50)
    rng = np.random.default_rng(2718)
    for post in posteriors:
        for p in rng.uniform(0.001, 0.999, size=3):
            p = float(p)
            assert post.cdf(post.quantile(p)) == pytest.approx(p, abs=1e-6)


def test_lower_tail_mass_is_the_quantile_level():
    cases = [
        (NormalPosterior(1.2, 0.5), -math.inf),
        (GammaPosterior(8.5, 12.5), 0.0),
        (BetaPosterior(51.0, 51.0), 0.0),
        (posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(25, 50.0)), 0.0),
    ]
    for post, bottom in cases:
        for alpha in (0.05, 0.5, 0.9):
            q = post.quantile(alpha)
            assert post.interval_mass(bottom, q) == pytest.approx(alpha, abs=1e-6)


def test_prob_above_below_support_is_one():
    assert 1.0 - GammaPosterior(3.0, 1.0).cdf(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - BetaPosterior(2.0, 2.0).cdf(-0.5) == pytest.approx(1.0, abs=1e-12)


# NormalPosterior needs a cdf spelling for the roundtrip test above
def test_normal_posterior_has_cdf():
    post = NormalPosterior(0.0, 1.0)
    assert post.cdf(0.0) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# conjugacy sanity over random draws

def _between(x, a, b):
    lo, hi = min(a, b), max(a, b)
    return lo - 1e-12 <= x <= hi + 1e-12


def test_posterior_mean_sits_between_prior_mean_and_data_point():
    rng = np.random.default_rng(60902)
    for trial in range(100):
        pick = trial % 4
        n = int(rng.integers(3, 200))
        if pick == 0:
            fam = NormalKnownVariance(float(rng.uniform(0.05, 4.0)))
            prior = NormalPrior(float(rng.uniform(-3, 3)), float(rng.uniform(0.05, 4.0)))
            xbar = float(rng.uniform(-3, 3))
            post = posterior(fam, prior, SufficientStat(n, xbar))
            assert _between(post.mean(), prior.mu0, xbar)
        elif pick == 1:
            prior = GammaPrior(float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0)))
            s = float(rng.integers(0, 4 * n))
            post = posterior(Poisson(), prior, SufficientStat(n, s))
            assert _between(post.mean(), prior.b / prior.a, s / n)
        elif pick == 2:
            prior = BetaPrior(float(rng.uniform(0.5, 8.0)), float(rng.uniform(0.5, 8.0)))
            s = float(rng.integers(0, n + 1))
            post = posterior(Bernoulli(), prior, SufficientStat(n, s))
            assert _between(post.mean(), prior.a / (prior.a + prior.b), s / n)
        else:
            prior = BetaPrior(float(rng.uniform(1.0, 5.0)), float(rng.uniform(1.0, 5.0)))
            theta0 = float(rng.uniform(0.2, 0.9))
            stat = sample_suffstat(
                ExponentialRate(), theta0, n, SeededGenerator(555, stream_id=trial)
            )
            post = posterior(ExponentialRate(), prior, stat)
            # The bounded-rate update is not conjugate, so its mean can land
            # slightly outside the prior-mean/MLE hull; one posterior sd of
            # slack covers the overshoot.
            slack = math.sqrt(post.variance())
            pm, mle = prior.a / (prior.a + prior.b), stat.n / stat.s
            assert min(pm, mle) - slack <= post.mean() <= max(pm, mle) + slack


def test_posterior_variance_vanishes_with_sample_size():
    sizes = (100, 1_000, 10_000)

    def variances(make_stat, fam, prior):
        out = [posterior(fam, prior, make_stat(n)).variance() for n in sizes]
        assert out[0] > out[1] > out[2]
        assert out[2] < 0.05 * out[0]

    variances(lambda n: SufficientStat(n, 0.7), NormalKnownVariance(0.5), NormalPrior(0.0, 1.0))
    variances(lambda n: SufficientStat(n, float(round(0.8 * n))), Poisson(), GammaPrior(2.0, 3.0))
    variances(lambda n: SufficientStat(n, float(round(0.3 * n))), Bernoulli(), BetaPrior(2.0, 2.0))
    variances(
        lambda n: SufficientStat(n, n / 0.5), ExponentialRate(), BetaPrior(1.5, 1.5)
    )


# ---------------------------------------------------------------------------
# Sweep: every conjugate posterior gives a finite value or a named refusal

_SHAPES = st.floats(0.01, 30.0)
_PROBABILITIES = st.floats(0.001, 0.999)
_FUNCTIONALS = st.one_of(
    st.just(PosteriorVariance()),
    st.builds(PosteriorQuantile, _PROBABILITIES),
    st.builds(CredibleLength, _PROBABILITIES),
    st.builds(HpdLower, _PROBABILITIES),
    st.builds(HpdUpper, _PROBABILITIES),
    st.builds(HpdWidth, _PROBABILITIES),
    st.builds(CenteredIntervalMass, st.floats(1e-3, 30.0)),
    st.builds(TailMassAbove, st.floats(-30.0, 30.0)),
)


@st.composite
def _conjugate_cases(draw):
    """A family, its conjugate prior and a statistic of n from 1 to 1e7
    observations: an integer total of 0, n or between for the counts, a
    positive sum (or 0) for the rates, and a sample mean for the normal."""
    n = draw(st.integers(1, 10) | st.integers(1, 10**7))
    kind = draw(st.sampled_from(("normal", "poisson", "bernoulli", "exp")))
    a, b = draw(_SHAPES), draw(_SHAPES)
    if kind == "normal":
        family, prior = NormalKnownVariance(a), NormalPrior(draw(st.floats(-30.0, 30.0)), b)
        s = draw(st.floats(-30.0, 30.0))
    elif kind == "poisson":
        family, prior = Poisson(), GammaPrior(a, b)
        s = draw(st.sampled_from((0, n)) | st.integers(0, 30 * n))
    elif kind == "bernoulli":
        family, prior = Bernoulli(), BetaPrior(a, b)
        s = draw(st.sampled_from((0, n)) | st.integers(0, n))
    else:
        family, prior = ExponentialRate(), BetaPrior(a, b)
        s = draw(st.sampled_from((0.0, float(n))) | st.floats(0.03, 30.0).map(lambda r: n * r))
    return family, prior, SufficientStat(n, float(s)), draw(_FUNCTIONALS)


# A rate prior refused by rule (b < 1), a rate posterior at n = 1e7, a rate
# HPD at level 0.001 whose Newton does not converge (refused), shapes of 0.01
# at a zero count, and a zero Poisson count at n = 1e7.
@example((ExponentialRate(), BetaPrior(1.5, 0.5), SufficientStat(10, 5.0), PosteriorVariance()))
@example((ExponentialRate(), BetaPrior(0.01, 1.0), SufficientStat(10**7, 3e8), HpdWidth(0.95)))
@example((ExponentialRate(), BetaPrior(0.01, 17.58), SufficientStat(524289, 9217326.5),
          HpdWidth(0.001)))
@example((Bernoulli(), BetaPrior(0.01, 0.01), SufficientStat(1, 0.0), HpdLower(0.999)))
@example((Poisson(), GammaPrior(30.0, 0.01), SufficientStat(10**7, 0.0), HpdUpper(0.5)))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_conjugate_cases())
def test_every_conjugate_case_gives_a_finite_value_or_a_named_refusal(case):
    family, prior, stat, functional = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = evaluate(functional, posterior(family, prior, stat))
        except (UnsupportedShapeError, AccuracyError):
            return
        except (DomainError, ConfigurationError):
            # only the rate posterior's rules refuse: a positive sum and b >= 1
            assert isinstance(family, ExponentialRate) and (stat.s == 0.0 or prior.b < 1.0), case
            return
    assert math.isfinite(value), case
