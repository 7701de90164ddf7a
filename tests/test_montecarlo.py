"""Seeded simulation of expected posterior functionals.

The deviate transforms are pinned down with stub uniform streams; the
estimator is validated against the closed-form and quadrature oracles
from the exact module.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from bayessize import montecarlo
from bayessize.errors import DomainError, ReplicateError
from bayessize.exact import exact_normal, expbeta_expected, expbeta_expected_many
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
from bayessize.models import (
    Bernoulli,
    BetaPrior,
    ExponentialRate,
    GammaPrior,
    NormalKnownVariance,
    NormalPrior,
    Poisson,
    SufficientStat,
    posterior,
    sample_suffstat,
)
from bayessize.montecarlo import MonteCarloEstimate, simulate_g, simulate_many
from bayessize.randomness import (
    SeededGenerator,
    _poisson_log_pmf,
    normal_deviate,
    poisson_deviate,
)
from bayessize.tables import _RATE_FUNCTIONALS


class StubStream:
    """Hands out a fixed list of uniforms, in order."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)


# ---------------------------------------------------------------------------
# deviate transforms


def test_normal_deviate_is_a_fixed_two_uniform_transform():
    # u2 = 0 lands on the cosine axis: the draw is the radius itself
    assert normal_deviate(StubStream([0.5, 0.0])) == math.sqrt(2.0 * math.log(2.0))
    # u2 = 1/4 turns the angle to pi/2 where the cosine vanishes
    assert abs(normal_deviate(StubStream([0.5, 0.25]))) < 1e-15


def test_poisson_deviate_chops_down_the_cdf():
    # for mean 1 the mass at zero is e^-1 ~ 0.368
    assert poisson_deviate(StubStream([0.3]), 1.0) == 0
    assert poisson_deviate(StubStream([0.5]), 1.0) == 1
    assert poisson_deviate(StubStream([0.95]), 1.0) == 3


def test_poisson_deviate_switches_to_ptrs_at_mean_ten():
    # below 10: one uniform, inverted
    assert poisson_deviate(StubStream([0.5]), 9.99) == 10
    # from 10: uniform pairs (u, v); u = 1/2 and v = 1 - 0.9 lie in the
    # squeeze, which returns floor(mean + 0.43) without the pmf
    assert poisson_deviate(StubStream([0.5, 0.9]), 10.0) == 10
    # u = 0 puts the pair on the hat's edge, where it is rejected before
    # dividing by zero; the next pair is used
    stream = StubStream([0.0, 0.5, 0.5, 0.9])
    assert poisson_deviate(stream, 1e3) == 1000
    assert stream.values == []


@pytest.mark.parametrize("index,mean", enumerate([10.0, 37.5, 1e3, 1e6]))
def test_ptrs_draws_follow_the_poisson_law(index, mean):
    draws = 20_000
    rng = SeededGenerator(20060301, stream_id=index)
    x = np.array([poisson_deviate(rng, mean) for _ in range(draws)], dtype=float)
    # Mean and variance within 4 s.e.; for Poisson the fourth central
    # moment is mean (1 + 3 mean), so var(s^2) ~ (mean + 2 mean^2) / draws.
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(mean / draws)
    assert abs(x.var(ddof=1) - mean) <= 4.0 * math.sqrt((mean + 2.0 * mean**2) / draws)
    # Binned chi-square over about 20 bins of equal probability.
    law = stats.poisson(mean)
    cuts = np.unique(law.ppf(np.linspace(0.0, 1.0, 21)[1:-1]))
    observed = np.bincount(np.searchsorted(cuts, x, side="left"), minlength=cuts.size + 1)
    expected = draws * np.diff(np.concatenate(([0.0], law.cdf(cuts), [1.0])))
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, cuts.size) > 1e-3


@pytest.mark.parametrize("mean", [10.0, 37.5, 1e3, 1e6, 1e9, 1e12])
def test_poisson_log_pmf_matches_mpmath(mean):
    # scipy's logpmf is the direct form, whose error grows with the mean
    with mpmath.workdps(40):
        m = mpmath.mpf(mean)
        for z in np.linspace(-8.0, 8.0, 33):
            k = max(int(mean + z * math.sqrt(mean)), 0)
            exact = float(k * mpmath.log(m) - m - mpmath.loggamma(k + 1))
            assert abs(_poisson_log_pmf(k, mean) - exact) <= 1e-12 + 1e-15 * abs(k - mean)


def test_deviates_reject_bad_parameters():
    good = StubStream([0.5, 0.5, 0.5, 0.5, 0.5])
    for mean in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            poisson_deviate(good, mean)


def test_normal_deviates_have_standard_moments():
    rng = SeededGenerator(777)
    draws = np.array([normal_deviate(rng) for _ in range(100_000)])
    assert abs(draws.mean()) < 4.0 / math.sqrt(100_000)
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


# ---------------------------------------------------------------------------
# seeded streams


def test_equal_keys_give_equal_streams():
    a = SeededGenerator(42, stream_id=7)
    b = SeededGenerator(42, stream_id=7)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_distinct_stream_ids_differ():
    a = SeededGenerator(42, stream_id=0)
    b = SeededGenerator(42, stream_id=1)
    assert a.uniform() != b.uniform()


def test_block_draws_match_scalar_draws():
    a = SeededGenerator(9, stream_id=2)
    b = SeededGenerator(9, stream_id=2)
    assert list(a.uniforms(6)) == [b.uniform() for _ in range(6)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_streams_are_numpys_default_rng_of_the_key_pair(seed):
    # The determinism contract: a stream is default_rng([seed, stream_id]),
    # on both sides of 2^32.
    for stream_id in (0, 1, 2**32 - 1, 2**32):
        ours = SeededGenerator(seed, stream_id=stream_id).uniforms(8)
        reference = np.random.default_rng([seed, stream_id]).random(8)
        assert ours.tobytes() == reference.tobytes(), (seed, stream_id)


# Seeds of one and two 32-bit words, dense around the boundary at 2^32.
_SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**32 - 8, 2**32 + 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**64 - 1]),
)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, m=st.integers(2, 40))
@example(seed=2**64 - 1, m=1000)
@example(seed=0, m=1000)
def test_batch_streams_are_default_rng_draw_for_draw(seed, m):
    # The batch seeding is numpy's SeedSequence hash run over all stream ids
    # at once: each stream must be default_rng([seed, j]), state and draws.
    count = 0
    for j, stream in enumerate(SeededGenerator.streams(seed, m)):
        reference = np.random.default_rng([seed, j])
        assert (stream.seed, stream.stream_id) == (seed, j)
        assert stream._rng.bit_generator.state == reference.bit_generator.state, (seed, j)
        assert stream.uniforms(3).tobytes() == reference.random(3).tobytes(), (seed, j)
        assert stream.uniform() == float(reference.random())
        count += 1
    assert count == m


def test_batch_streams_check_their_keys():
    assert list(SeededGenerator.streams(5, 0)) == []
    for seed, m in [(-1, 2), (2**64, 2), (1.0, 2), (True, 2), (5, -1), (5, 2.0), (5, True)]:
        with pytest.raises(DomainError):
            SeededGenerator.streams(seed, m)


def test_simulate_many_builds_no_seed_sequence_per_replicate(monkeypatch):
    # A timing-free guard: a run seeds all its streams from one batch of
    # seed words, so it never calls default_rng, whose SeedSequence costs
    # more than the rest of a conjugate replicate.
    args = (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, [PosteriorVariance(), HpdWidth(0.9)])
    expected = _replay(*args, seed=3)
    calls = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
    SeededGenerator(3, stream_id=7)
    assert calls == [([3, 7],)]  # the counter sees a stream built alone
    calls.clear()
    assert simulate_many(*args, seed=3) == expected
    assert calls == []


def test_generator_rejects_bad_keys():
    for seed, stream in [(-1, 0), (2**64, 0), (1.0, 0), (True, 0), (5, -1), (5, 2.0)]:
        with pytest.raises(DomainError):
            SeededGenerator(seed, stream_id=stream)
    with pytest.raises(DomainError):
        SeededGenerator(5).uniforms(-1)


# ---------------------------------------------------------------------------
# estimator vs oracles


def test_normal_variance_estimate_hits_the_closed_form():
    # the normal posterior variance ignores the data, so every replicate
    # returns the same number and the standard error collapses to zero
    est = simulate_g(
        NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 100, 4000,
        PosteriorVariance(), seed=20060301,
    )
    exact = exact_normal(PosteriorVariance(), 0.2, 0.25, 0.3, 0.5, 100).value
    assert est.std_err == 0.0
    assert est.mean == exact
    assert est.replicates == 4000 and est.seed == 20060301


def test_rate_study_estimate_agrees_with_quadrature_oracle():
    # the benchmark table quotes 0.0034 for this cell from its own small
    # simulation; the deterministic oracle is the ground truth here
    oracle = expbeta_expected(PosteriorVariance(), 0.5, 100).value
    est = simulate_g(
        ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 100, 2000,
        PosteriorVariance(), seed=20060301,
    )
    assert est.std_err > 0.0
    assert abs(est.mean - oracle) <= 3.0 * est.std_err


# Rate cells drawn once from a fixed seed: theta0 uniform on [0.05, 1] and
# n log-uniform on [1, 1000].
_RNG = np.random.default_rng(2006)
_RANDOM_RATE_CELLS = [
    (round(float(theta0), 4), int(math.exp(log_n)))
    for theta0, log_n in zip(_RNG.uniform(0.05, 1.0, 8), _RNG.uniform(0.0, math.log(1000.0), 8))
]


@pytest.mark.parametrize("theta0, n", _RANDOM_RATE_CELLS)
def test_rate_study_functionals_agree_with_the_oracle_at_random_cells(theta0, n):
    # All five functionals of table 3's rate rows.  Small n and small
    # theta0 need more Gauss-Laguerre nodes than the default 32 to meet the
    # oracle's 1e-5 error estimate.
    functionals = [functional for _, functional in _RATE_FUNCTIONALS]
    family, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    estimates = simulate_many(family, prior, theta0, n, 200, functionals, seed=20060301)
    oracles = expbeta_expected_many(functionals, theta0, n, prior, nodes=128)
    for functional, est, oracle in zip(functionals, estimates, oracles):
        assert est.std_err > 0.0
        assert abs(est.mean - oracle.value) <= 5.0 * est.std_err, (functional, est, oracle)


def test_estimates_track_closed_form_across_seeds():
    # statistical meta-test: at 3.5 standard errors, essentially every
    # fixed-seed run must cover the exact value
    exact = exact_normal(PosteriorQuantile(0.05), 0.2, 0.25, 0.3, 0.5, 30).value
    hits = 0
    for i in range(100):
        est = simulate_g(
            NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 200,
            PosteriorQuantile(0.05), seed=1000 + i,
        )
        hits += abs(est.mean - exact) <= 3.5 * est.std_err
    assert hits >= 99


def test_standard_error_shrinks_like_root_m():
    kwargs = dict(seed=5)
    small = simulate_g(
        NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 1000,
        PosteriorQuantile(0.05), **kwargs,
    )
    large = simulate_g(
        NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 4000,
        PosteriorQuantile(0.05), **kwargs,
    )
    assert 0.4 <= large.std_err / small.std_err <= 0.6


# ---------------------------------------------------------------------------
# determinism and scheduling


@pytest.mark.parametrize(
    "family,prior,theta0",
    [
        (NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5),
        (Poisson(), GammaPrior(2.5, 3.5), 0.5),
        (Bernoulli(), BetaPrior(1.0, 1.0), 0.5),
        (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5),
    ],
)
def test_repeated_runs_are_identical(family, prior, theta0):
    first = simulate_g(family, prior, theta0, 1, 2, PosteriorVariance(), seed=31)
    second = simulate_g(family, prior, theta0, 1, 2, PosteriorVariance(), seed=31)
    assert first == second


def test_batch_run_matches_single_functional_runs():
    functionals = [PosteriorVariance(), PosteriorQuantile(0.05), CredibleLength(0.05)]
    batch = simulate_many(
        Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, functionals, seed=8
    )
    for functional, joint in zip(functionals, batch):
        alone = simulate_g(Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, functional, seed=8)
        assert joint == alone


def _replay(family, prior, theta0, n, m, functionals, seed):
    """``simulate_many`` without shared evaluations: every replicate in full."""
    values = np.empty((len(functionals), m))
    for j in range(m):
        stat = sample_suffstat(family, theta0, n, SeededGenerator(seed, stream_id=j))
        post = posterior(family, prior, stat)
        for i, functional in enumerate(functionals):
            values[i, j] = evaluate(functional, post)
    return [
        MonteCarloEstimate(float(row.mean()), float(row.std(ddof=1) / math.sqrt(m)), m, seed)
        for row in values
    ]


def _totals(family, theta0, n, m, seed):
    return [sample_suffstat(family, theta0, n, SeededGenerator(seed, stream_id=j)).s
            for j in range(m)]


_CONJUGATE_FUNCTIONALS = [
    PosteriorVariance(), PosteriorQuantile(0.05), CredibleLength(0.05), HpdLower(0.9),
    HpdUpper(0.9), HpdWidth(0.95), CenteredIntervalMass(0.2), TailMassAbove(0.5),
]


@pytest.mark.parametrize(
    "family,prior,theta0,n,m,functionals",
    [
        (NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 60,
         [PosteriorVariance(), PosteriorQuantile(0.05), CredibleLength(0.05), HpdWidth(0.95),
          CenteredIntervalMass(0.2), TailMassAbove(0.5)]),
        (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 120, _CONJUGATE_FUNCTIONALS),
        (Poisson(), GammaPrior(1.0, 2.0), 3.0, 200, 60, _CONJUGATE_FUNCTIONALS),
        (Bernoulli(), BetaPrior(1.5, 1.5), 0.3, 30, 120, _CONJUGATE_FUNCTIONALS),
        (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 50, 40,
         [functional for _, functional in _RATE_FUNCTIONALS]),
    ],
)
def test_simulate_many_equals_a_per_replicate_replay(family, prior, theta0, n, m, functionals):
    # Bit for bit: a shared evaluation must give what evaluating the
    # replicate afresh gives.
    if isinstance(family, (Poisson, Bernoulli)):
        assert len(set(_totals(family, theta0, n, m, 4))) < m  # some totals repeat
    estimates = simulate_many(family, prior, theta0, n, m, functionals, seed=4)
    assert estimates == _replay(family, prior, theta0, n, m, functionals, seed=4)


@pytest.mark.parametrize(
    "family,prior,theta0,n,m",
    [
        (Bernoulli(), BetaPrior(1.0, 1.0), 0.3, 30, 500),
        (Poisson(), GammaPrior(2.5, 3.5), 0.5, 40, 500),
        (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 20, 200),
    ],
)
def test_posterior_is_built_once_per_distinct_total(monkeypatch, family, prior, theta0, n, m):
    # A timing-free guard: count totals have few distinct values, and each
    # is turned into a posterior once; exponential totals never repeat.
    calls = []

    def counting_posterior(family, prior, stat):
        calls.append(stat.s)
        return posterior(family, prior, stat)

    monkeypatch.setattr(montecarlo, "posterior", counting_posterior)
    simulate_many(family, prior, theta0, n, m, [PosteriorVariance(), HpdWidth(0.9)], seed=12)
    distinct = len(set(_totals(family, theta0, n, m, 12)))
    if isinstance(family, ExponentialRate):
        assert len(calls) == m
    else:
        assert len(calls) == distinct < m // 10
    assert len(set(calls)) == len(calls)


def test_different_seeds_differ():
    args = (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, PosteriorQuantile(0.05))
    assert simulate_g(*args, seed=1) != simulate_g(*args, seed=2)


# ---------------------------------------------------------------------------
# failure reporting


def test_replicate_failure_carries_index_and_cause():
    # a tiny rate makes every count zero; the resulting gamma posterior
    # has shape below one, whose density has no interior mode to cut
    with pytest.raises(ReplicateError) as err:
        simulate_g(
            Poisson(), GammaPrior(1.0, 0.5), 1e-12, 3, 5, HpdWidth(0.95), seed=1
        )
    assert err.value.index == 0
    assert err.value.cause is not None


def test_replicate_failure_replays_from_its_record():
    family, prior = Poisson(), GammaPrior(1.0, 0.5)
    functionals = [PosteriorVariance(), HpdWidth(0.95)]
    with pytest.raises(ReplicateError) as err:
        simulate_many(family, prior, 1e-12, 3, 5, functionals, seed=11)
    exc = err.value
    assert (exc.seed, exc.stream_id, exc.index) == (11, 0, 0)
    assert (exc.family, exc.prior, exc.functional) == (family, prior, HpdWidth(0.95))
    assert exc.stat == SufficientStat(3, 0.0)
    for field in ("seed 11", "stream 0", repr(family), repr(prior), repr(exc.stat),
                  repr(exc.functional)):
        assert field in str(exc)
    with pytest.raises(type(exc.cause)) as again:
        evaluate(exc.functional, posterior(exc.family, exc.prior, exc.stat))
    assert str(again.value) == str(exc.cause)


def test_replicate_failure_after_shared_evaluations_names_the_first_failure():
    # Totals 0 and 5 give a beta posterior unbounded at an edge, which has
    # no HPD interval.  Replicates 0-19 draw totals in 1..4, so most of them
    # reuse an earlier evaluation; replicate 20 is the first to draw 0.
    family, prior = Bernoulli(), BetaPrior(0.5, 0.5)
    totals = _totals(family, 0.5, 5, 21, 7)
    assert set(totals[:20]) <= {1.0, 2.0, 3.0, 4.0} and totals[20] == 0.0
    with pytest.raises(ReplicateError) as err:
        simulate_many(family, prior, 0.5, 5, 200, [PosteriorVariance(), HpdWidth(0.95)], seed=7)
    exc = err.value
    assert (exc.index, exc.stream_id, exc.seed) == (20, 20, 7)
    assert exc.stat == SufficientStat(5, 0.0)
    assert exc.functional == HpdWidth(0.95)


def test_replicate_failure_in_the_draw_has_no_stat():
    with pytest.raises(ReplicateError) as err:
        simulate_g(Poisson(), GammaPrior(1.0, 0.5), -1.0, 3, 5, PosteriorVariance(), seed=2)
    assert err.value.stat is None and err.value.functional is None
    assert "stat None" in str(err.value)


def test_unsupported_pair_fails_on_first_replicate():
    with pytest.raises(ReplicateError) as err:
        simulate_g(Poisson(), BetaPrior(2.0, 2.0), 0.5, 5, 4, PosteriorVariance(), seed=3)
    assert err.value.index == 0
    assert err.value.stat is not None and err.value.functional is None


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=2.0),
        dict(m=1),
        dict(m=True),
        dict(seed=-1),
        dict(seed=2**64),
    ],
)
def test_simulation_rejects_bad_counts(kwargs):
    args = dict(n=10, m=4, seed=0)
    args.update(kwargs)
    with pytest.raises(DomainError):
        simulate_g(
            NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5,
            args["n"], args["m"], PosteriorVariance(),
            seed=args["seed"],
        )


def test_simulate_many_requires_functionals():
    with pytest.raises(DomainError):
        simulate_many(
            NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 10, 4, [], seed=0
        )


def test_estimate_is_a_plain_record():
    est = MonteCarloEstimate(1.0, 0.1, 100, 7)
    assert (est.mean, est.std_err, est.replicates, est.seed) == (1.0, 0.1, 100, 7)
