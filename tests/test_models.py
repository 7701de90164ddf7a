"""Likelihood families, priors, posteriors, and information infima.

scipy.stats serves as the independent oracle for distribution math; the
package itself never imports it for these paths.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import optimize, special, stats

from bayessize.errors import (
    AccuracyError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    UnsupportedShapeError,
)
from bayessize.functionals import HpdLower, HpdUpper, HpdWidth, evaluate
from bayessize.models import (
    GRID_NODES,
    Bernoulli,
    BetaPosterior,
    BetaPrior,
    ExponentialRate,
    GammaPosterior,
    GammaPrior,
    GridPosterior,
    NormalKnownVariance,
    NormalPosterior,
    NormalPrior,
    Poisson,
    SufficientStat,
    fisher_info,
    in_domain,
    inf_weighted_info,
    param_bounds,
    posterior,
    sample_suffstat,
)
from bayessize.randomness import SeededGenerator, normal_deviate, poisson_deviate


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
    assert stat.s == poisson_deviate(SeededGenerator(5, stream_id=1), 6.0)
    big = sample_suffstat(Poisson(), 800.0, 5, SeededGenerator(6))
    assert big.n == 5 and big.s == int(big.s)
    assert abs(big.s - 4000.0) <= 5.0 * math.sqrt(4000.0)


def test_sample_suffstat_normal_is_single_scaled_deviate():
    # the normal sample mean is drawn in one step from its exact law
    fam = NormalKnownVariance(0.8)
    stat = sample_suffstat(fam, 2.0, 25, SeededGenerator(99, stream_id=3))
    z = normal_deviate(SeededGenerator(99, stream_id=3))
    assert stat.s == 2.0 + math.sqrt(0.8 / 25) * z


def test_sample_suffstat_rejects_bad_inputs():
    with pytest.raises(DomainError):
        sample_suffstat(Bernoulli(), 1.5, 10, SeededGenerator(1))
    with pytest.raises(DomainError):
        sample_suffstat(Poisson(), 1.0, 0, SeededGenerator(1))


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
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(25, 50.0))
    assert isinstance(post, GridPosterior)
    assert post.nodes.size == GRID_NODES
    assert post.nodes[-1] == 1.0
    assert post.nodes[0] > 0.0


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
    assert post.prob_above(0.5) == pytest.approx(0.5, abs=1e-12)


def test_normal_posterior_quantile_example():
    post = NormalPosterior(0.498344, 0.0019868)
    assert post.quantile(0.05) == pytest.approx(0.425023, abs=1e-4)


def test_normal_posterior_interval_mass():
    post = NormalPosterior(0.5, 0.01875)
    assert post.interval_mass(0.475, 0.525) == pytest.approx(0.14486, abs=2e-4)
    assert post.interval_mass(-math.inf, math.inf) == 1.0
    assert post.interval_mass(0.3, 0.3) == 0.0


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
    above = post.prob_above(post.mean())
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


def test_quantile_failure_names_the_posterior(monkeypatch):
    post = GammaPosterior(2.0, 1.0)
    monkeypatch.setattr(GammaPosterior, "_cdf", lambda self, x: math.nan)
    with pytest.raises(AccuracyError, match=r"GammaPosterior\(shape=2\.0.*p=0\.3"):
        post.quantile(0.3)


# ---------------------------------------------------------------------------
# grid posterior

def _grid(log_density, lo, hi, nodes=GRID_NODES):
    # an unnormalised log density tabulated on uniform nodes
    x = np.linspace(lo, hi, nodes)
    with np.errstate(divide="ignore"):
        ld = log_density(x)
    return GridPosterior(x, np.exp(ld - ld[np.isfinite(ld)].max()), float(x[1] - x[0]))


def _beta_grid(a, b, nodes=GRID_NODES):
    return _grid(lambda x: stats.beta.logpdf(x, a, b), 0.0, 1.0, nodes)


@pytest.mark.parametrize("a, b", [(1.5, 1.5), (3.0, 3.0), (51.0, 51.0)])
def test_grid_posterior_reproduces_beta_oracle(a, b):
    grid = _beta_grid(a, b)
    dist = stats.beta(a, b)
    assert grid.mean() == pytest.approx(dist.mean(), abs=1e-5)
    assert grid.variance() == pytest.approx(dist.var(), abs=1e-5)
    for p in (0.025, 0.5, 0.975):
        assert grid.quantile(p) == pytest.approx(dist.ppf(p), abs=1e-5)


@pytest.mark.parametrize("n, s", [(100, 400.0), (10, 30.0), (1000, 2000.0)])
def test_grid_quantile_inverts_the_trapezoid_cdf(n, s):
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, s))
    for p in (1e-6, 0.025, 0.05, 0.5, 0.975, 1.0 - 1e-6):
        assert post.cdf(post.quantile(p)) == pytest.approx(p, abs=1e-12)


def _cdf_by_search(grid, v):
    # GridPosterior.cdf as written with a binary search for the segment
    x, d = grid.nodes, grid.density
    if v <= x[0]:
        return 0.0
    if v >= x[-1]:
        return 1.0
    i = int(np.searchsorted(x, v, side="right")) - 1
    t = (v - x[i]) / grid.step
    d_at = d[i] + t * (d[i + 1] - d[i])
    return min(float(grid._node_cdf[i] + 0.5 * (d[i] + d_at) * (v - x[i])), 1.0)


@pytest.mark.parametrize(
    "grid",
    [posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(30, 60.0)),
     _beta_grid(3.0, 8.0), _beta_grid(2.0, 2.0, nodes=777)],
)
def test_grid_scalar_lookups_match_numpy(grid):
    # cdf() guesses the segment from the spacing, _density_at replaces
    # np.interp; both must agree with the binary search bit for bit.
    x, d = grid.nodes, grid.density
    on = x[[0, 1, 2, 100, -2, -1]]
    points = np.concatenate((
        on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
        np.random.default_rng(7).uniform(x[0], x[-1], 300), [x[0] - 1.0, x[-1] + 1.0],
    ))
    for v in points.tolist():
        assert grid.cdf(v) == _cdf_by_search(grid, v)
        assert grid._density_at(v, int(np.searchsorted(x, v, side="right"))) == np.interp(v, x, d)
    with pytest.raises(DomainError):
        grid.cdf(math.nan)


def _trapezoid_weights(grid):
    # density times the trapezoid rule's weight at each node
    w = np.full(grid.nodes.size, grid.step)
    w[0] = w[-1] = 0.5 * grid.step
    return w * grid.density


def test_grid_posterior_weights_sum_to_one():
    weights = _trapezoid_weights(_beta_grid(3.0, 3.0))
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.all(weights >= 0.0)


def test_grid_posterior_symmetric_hpd_matches_equal_tails():
    grid = _beta_grid(3.0, 3.0)
    box = grid.hpd(0.95)
    assert box.lo == pytest.approx(grid.quantile(0.025), abs=grid.step)
    assert box.hi == pytest.approx(grid.quantile(0.975), abs=grid.step)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
def test_grid_hpd_mass_band(level):
    for n, s in ((25, 50.0), (100, 210.0)):
        post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, s))
        box = post.hpd(level)
        assert level <= box.mass <= level + 1e-12
        assert box.lo <= box.hi


# The rate cells of the benchmark's table-3 workload.
_BENCH_RATE_CELLS = ((0.25, 10), (0.25, 100), (0.5, 30), (0.75, 10), (0.75, 50))


@pytest.mark.parametrize("theta0, n", _BENCH_RATE_CELLS)
def test_grid_hpd_pad_starts_at_one_ulp(monkeypatch, theta0, n):
    # Each pad pass costs two cdf calls after the first two; starting at
    # one ulp of the ends, at most two passes reach the level.
    calls = []
    cdf = GridPosterior.cdf

    def counted(self, x):
        calls.append(x)
        return cdf(self, x)

    monkeypatch.setattr(GridPosterior, "cdf", counted)
    fam, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    for j in range(200):
        stat = sample_suffstat(fam, theta0, n, SeededGenerator(2006, stream_id=j))
        post = posterior(fam, prior, stat)
        calls.clear()
        box = post.hpd(0.95)
        assert 0.0 <= box.mass - 0.95 <= 1e-14
        assert len(calls) <= 2 + 2 * 2


def test_grid_hpd_no_wider_than_equal_tails():
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(25, 50.0))
    box = post.hpd(0.95)
    et = post.quantile(0.975) - post.quantile(0.025)
    assert box.hi - box.lo <= et + 2.0 * post.step


def _rate_grid(theta0, n, u):
    # s at probability u of its Gamma(n, theta0) sampling law
    s = float(stats.gamma.ppf(u, n) / theta0)
    return posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(n, s))


def _gamma_grid(shape, rate):
    hi = stats.gamma.ppf(1.0 - 1e-9, shape, scale=1.0 / rate)
    return _grid(lambda x: stats.gamma.logpdf(x, shape, scale=1.0 / rate), 0.0, hi)


_HPD_GRIDS = st.one_of(
    st.builds(_rate_grid, st.floats(0.05, 1.0), st.integers(1, 200), st.floats(0.001, 0.999)),
    st.builds(_beta_grid, st.floats(1.0, 60.0), st.floats(1.0, 60.0)),
    st.builds(_gamma_grid, st.floats(1.0, 60.0), st.floats(0.1, 50.0)),
)


@settings(max_examples=80, deadline=None)
@given(grid=_HPD_GRIDS)
def test_grid_normalisation_is_exact_at_the_ends(grid):
    # One cumulative sum gives the node CDF and the total it is divided by.
    cdf = grid._node_cdf
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)
    w = _trapezoid_weights(grid).tolist()
    x = grid.nodes.tolist()
    mean = math.fsum(wi * xi for wi, xi in zip(w, x))
    variance = math.fsum(wi * (xi - mean) ** 2 for wi, xi in zip(w, x))
    assert grid.mean() == pytest.approx(mean, rel=1e-13)
    assert grid.variance() == pytest.approx(variance, rel=1e-13)


@settings(max_examples=80, deadline=None)
@given(grid=_HPD_GRIDS, level=st.floats(0.05, 0.99))
def test_grid_hpd_properties(grid, level):
    box = grid.hpd(level)
    assert level <= box.mass <= level + 1e-12
    tail = 0.5 * (1.0 - level)
    equal_tail = grid.quantile(1.0 - tail) - grid.quantile(tail)
    assert box.hi - box.lo <= equal_tail + 2.0 * grid.step
    if box.lo > grid.nodes[0] and box.hi < grid.nodes[-1]:
        d_lo, d_hi = np.interp([box.lo, box.hi], grid.nodes, grid.density)
        assert abs(d_lo - d_hi) <= np.abs(np.diff(grid.density)).max()


def _whole_grid_hpd(grid, level):
    """hpd() by the search the equal-tail bracket replaced: every node next
    to a density of at least (1 - level) / span is tried as either end."""
    x, d, cdf = grid.nodes, grid.density, grid._node_cdf
    dense = d >= (1.0 - level) / (x[-1] - x[0])
    near = dense.copy()
    near[1:] |= dense[:-1]
    near[:-1] |= dense[1:]
    starts = near & (cdf + level <= cdf[-1])
    ends = near & (cdf >= level)
    lows = np.concatenate((x[starts], grid._invert_cdf(cdf[ends] - level)))
    highs = np.concatenate((grid._invert_cdf(cdf[starts] + level), x[ends]))
    best = int(np.argmin(highs - lows))
    return grid._certified(float(lows[best]), float(highs[best]), level)


def _hpd_or_error(hpd, grid, level):
    try:
        return hpd(grid, level)
    except UnsupportedShapeError as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(grid=_HPD_GRIDS, level=st.sampled_from([0.5, 0.9, 0.95, 0.99]))
@example(grid=_gamma_grid(1.0, 5.0), level=0.95)  # decreasing from the support's edge
@example(grid=_rate_grid(1.0, 1, 0.5), level=0.9)
@example(grid=_rate_grid(0.05, 1, 0.999), level=0.5)
@example(grid=_beta_grid(40.0, 1.0), level=0.99)  # increasing to the support's edge
def test_grid_hpd_matches_the_whole_grid_sweep(grid, level):
    # The bracket tries fewer nodes but must pick the very same candidate.
    # On a flat density (beta shapes within about 1e-7 of 1) every interval
    # of mass `level` is an HPD and rounding breaks the tie differently.
    inner = grid.density[1:-1]
    assume(inner.max() - inner.min() > 1e-6 * inner.max())
    box = _hpd_or_error(GridPosterior.hpd, grid, level)
    assert box == _hpd_or_error(_whole_grid_hpd, grid, level)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
def test_grid_hpd_on_a_flat_density_has_the_level_mass(level):
    # Beta(1, 1): every interval of mass `level` is a highest-density one.
    box = _beta_grid(1.0, 1.0).hpd(level)
    assert level <= box.mass <= level + 1e-12
    assert box.hi - box.lo == pytest.approx(level, abs=1e-12)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("n", [1, 2])
def test_grid_hpd_at_the_support_edge(n, level):
    # n = 1 with a large s piles the rate posterior onto the first nodes;
    # a gamma of shape 1 has its largest density at x = 0.
    exponential = _gamma_grid(1.0, 5.0)
    for grid in (_rate_grid(0.05, n, 0.999), _rate_grid(1.0, n, 0.001), exponential):
        box = grid.hpd(level)
        assert box == _whole_grid_hpd(grid, level)
        assert level <= box.mass <= level + 1e-12
    assert exponential.hpd(level).lo == 0.0


@pytest.mark.parametrize("level", [0.05, 0.5, 0.95, 0.999])
@pytest.mark.parametrize(
    "grid",
    [_rate_grid(0.25, 10, 0.5), _rate_grid(1.0, 3, 0.9), _beta_grid(1.0, 40.0),
     _beta_grid(30.0, 2.0), _gamma_grid(1.0, 5.0), _gamma_grid(40.0, 2.0)],
)
def test_grid_hpd_no_wider_than_any_node_anchored_interval(grid, level):
    # hpd() tries only the nodes inside the equal-tail bracket; no
    # interval with an end on any node and mass `level` may be shorter
    x, cdf = grid.nodes, grid._node_cdf
    starts, ends = cdf + level <= cdf[-1], cdf >= level
    widths = np.r_[grid._invert_cdf(cdf[starts] + level) - x[starts],
                   x[ends] - grid._invert_cdf(cdf[ends] - level)]
    box = grid.hpd(level)
    assert box.hi - box.lo <= widths.min() * (1.0 + 1e-12)


def test_grid_hpd_ends_move_continuously_with_the_data():
    # An end snapped to a node would jump by a whole step (2.4e-4) as s
    # moves; the rate-study oracle integrates these ends over s.
    fam, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    boxes = [
        posterior(fam, prior, SufficientStat(30, float(s))).hpd(0.95)
        for s in np.linspace(60.0, 60.01, 41)
    ]
    ends = np.array([(box.lo, box.hi) for box in boxes])
    assert np.abs(np.diff(ends, axis=0)).max() <= 1e-5


def test_rate_posterior_grid_matches_a_tabulated_log_density():
    # Beta(1.5 + n, 1.5) times the exponential likelihood's exp(-s r)
    post = posterior(ExponentialRate(), BetaPrior(1.5, 1.5), SufficientStat(30, 60.0))
    tabulated = _grid(lambda r: stats.beta.logpdf(r, 31.5, 1.5) - 60.0 * r,
                      1.0 / GRID_NODES, 1.0)
    assert tabulated.step == pytest.approx(post.step, rel=1e-12)
    np.testing.assert_allclose(tabulated.density, post.density, rtol=1e-12)
    assert tabulated.hpd(0.95).lo == pytest.approx(post.hpd(0.95).lo, rel=1e-12)


def test_gamma_hpd_is_exact():
    box = GammaPosterior(8.5, 12.5).hpd(0.9)
    assert 0.9 <= box.mass <= 0.9 + 1e-12
    # right-skewed density: upper tail keeps more mass than the lower
    dist = stats.gamma(a=8.5, scale=1.0 / 12.5)
    assert 1.0 - dist.cdf(box.hi) > dist.cdf(box.lo)


def test_hpd_rejects_unbounded_densities():
    with pytest.raises(UnsupportedShapeError):
        GammaPosterior(0.7, 1.0).hpd(0.9)
    with pytest.raises(UnsupportedShapeError):
        BetaPosterior(0.8, 2.0).hpd(0.9)


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
    if box.lo > 0.0 and box.hi < post._hi:
        slack = abs(post._dlog_pdf_at(box.lo)) * res_lo + abs(post._dlog_pdf_at(box.hi)) * res_hi
        assert abs(law.logpdf(box.lo) - law.logpdf(box.hi)) <= 1e-9 + slack


def test_exact_hpd_takes_at_most_20_root_iterations(monkeypatch):
    # Each root iteration solves two quantiles; an end on an edge takes one more.
    calls = []
    quantile = GammaPosterior.quantile

    def counted(self, alpha):
        calls.append(alpha)
        return quantile(self, alpha)

    monkeypatch.setattr(GammaPosterior, "quantile", counted)
    monkeypatch.setattr(BetaPosterior, "quantile", counted)
    rng = np.random.default_rng(2006)
    # Fresh copies: a posterior keeps the intervals it has already found.
    posts = [dataclasses.replace(post) for post, _ in _EDGE_EXAMPLES]
    posts += [BetaPosterior(*rng.uniform(1.0, 2000.0, 2)) for _ in range(10)]
    posts += [BetaPosterior(*(1.0 + 10.0 ** rng.uniform(-12.0, 3.0, 2))) for _ in range(10)]
    posts += [GammaPosterior(1.0 + 10.0 ** rng.uniform(-12.0, 4.3), 2.0) for _ in range(10)]
    for post in posts:
        for level in (0.05, 0.5, 0.9, 0.95, 0.99):
            calls.clear()
            post.hpd(level)
            assert len(calls) <= 2 * 20 + 1, (post, level)


def test_hpd_functionals_share_one_root_per_posterior(monkeypatch):
    calls = []
    hpd_ends = BetaPosterior._hpd_ends

    def counted(self, level):
        calls.append(self)
        return hpd_ends(self, level)

    monkeypatch.setattr(BetaPosterior, "_hpd_ends", counted)
    monkeypatch.setattr(GammaPosterior, "_hpd_ends", counted)
    beta, gamma = BetaPosterior(3.0, 8.0), GammaPosterior(3.0, 2.0)
    for post in (beta, gamma):
        lo, hi, width = (evaluate(f(0.95), post) for f in (HpdLower, HpdUpper, HpdWidth))
        assert width == hi - lo
    assert calls == [beta, gamma]


def _bimodal_grid(weight=1.0):
    def log_density(x):
        return np.log(weight * np.exp(-0.5 * ((x - 0.2) / 0.05) ** 2)
                      + np.exp(-0.5 * ((x - 0.8) / 0.05) ** 2))

    return _grid(log_density, 0.0, 1.0, 512)


def test_hpd_rejects_disconnected_superlevel_sets():
    # the other peak lies outside the shortest interval
    with pytest.raises(UnsupportedShapeError):
        _bimodal_grid().hpd(0.5)


@pytest.mark.parametrize("level", [0.9, 0.95])
def test_hpd_rejects_a_valley_inside_the_interval(level):
    # the shortest interval spans both peaks and the valley between them
    with pytest.raises(UnsupportedShapeError):
        _bimodal_grid().hpd(level)


@pytest.mark.parametrize("level", [0.05, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("weight", [0.5, 0.8, 1.0])
def test_hpd_on_two_peaks_is_certified_or_unsupported(weight, level):
    # The bracket's argument needs one peak.  With two, hpd() returns the
    # sweep's interval where the super-level set is one interval about the
    # taller peak, and raises UnsupportedShapeError where it is not; never
    # an error of the bracket itself.
    grid = _bimodal_grid(weight)
    result = _hpd_or_error(GridPosterior.hpd, grid, level)
    assert result == _hpd_or_error(_whole_grid_hpd, grid, level)
    if weight == 1.0:
        assert result is UnsupportedShapeError


def test_grid_arrays_are_read_only():
    grid = _beta_grid(3.0, 3.0, nodes=64)
    with pytest.raises(ValueError):
        grid.nodes[0] = 0.5


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
    assert GammaPosterior(3.0, 1.0).prob_above(-1.0) == pytest.approx(1.0, abs=1e-12)
    assert BetaPosterior(2.0, 2.0).prob_above(-0.5) == pytest.approx(1.0, abs=1e-12)


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
