"""Seeded simulation of expected posterior functionals.

Each sufficient statistic is checked against its exact law; the
estimator is validated against the closed-form and quadrature oracles
from the exact module.
"""

import math
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from bayessize import montecarlo
from bayessize.errors import DomainError, ReplicateError, UnsupportedShapeError
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
    RATE_BLOCK_ROWS,
    Bernoulli,
    BetaPrior,
    ExponentialRate,
    GammaPosterior,
    GammaPrior,
    NormalKnownVariance,
    NormalPrior,
    Poisson,
    SufficientStat,
    count_posterior,
    posterior,
    rate_posterior,
    sample_suffstat,
    suffstat_sampler,
)
from bayessize.montecarlo import MonteCarloEstimate, simulate_g, simulate_many
from bayessize.randomness import _CHUNK, SeededGenerator, run_generator
from bayessize.tables import _RATE_FUNCTIONALS


# ---------------------------------------------------------------------------
# sufficient statistics


def _law(family, theta0, n):
    """The exact scipy law of the statistic ``sample_suffstat`` draws."""
    if isinstance(family, NormalKnownVariance):
        return stats.norm(theta0, math.sqrt(family.sigma2 / n))
    if isinstance(family, Poisson):
        return stats.poisson(n * theta0)
    if isinstance(family, Bernoulli):
        return stats.binom(n, theta0)
    return stats.gamma(n, scale=1.0 / theta0)


# theta0 near each end of its domain, n = 1 and n = 1e7, and numpy's
# algorithm switches between: Poisson means either side of 10, binomial
# n * min(p, 1 - p) either side of 30 and gamma shapes either side of 1.
_LAW_CELLS = [
    (NormalKnownVariance(0.2), 0.5, 1),
    (NormalKnownVariance(0.2), -3.0, 10**7),
    (Poisson(), 1e-3, 1),
    (Poisson(), 2.5, 4),
    (Poisson(), 0.5, 75),
    (Poisson(), 100.0, 10),
    (Poisson(), 0.999, 10**7),
    (Bernoulli(), 1e-3, 1),
    (Bernoulli(), 0.999, 1),
    (Bernoulli(), 0.3, 30),
    (Bernoulli(), 1e-3, 10**7),
    (Bernoulli(), 0.999, 10**7),
    (ExponentialRate(), 1e-3, 1),
    (ExponentialRate(), 0.5, 100),
    (ExponentialRate(), 0.999, 10**7),
]


@pytest.mark.parametrize(
    "family,theta0,n", _LAW_CELLS, ids=[f"{type(f).__name__}-{t:g}-{n:g}" for f, t, n in _LAW_CELLS]
)
def test_statistics_follow_their_exact_law(family, theta0, n):
    draws = 20_000
    x = suffstat_sampler(family, theta0, n)(np.random.default_rng(20060301), draws)
    law = _law(family, theta0, n)
    mean, var, kurtosis = (float(v) for v in law.stats(moments="mvk"))
    # Mean and variance within 4 s.e.; var(s^2) ~ (mu4 - var^2) / draws,
    # with mu4 = (kurtosis + 3) var^2.
    assert abs(x.mean() - mean) <= 4.0 * math.sqrt(var / draws)
    assert abs(x.var(ddof=1) - var) <= 4.0 * var * math.sqrt((kurtosis + 2.0) / draws)
    # Binned chi-square over bins of about 5 % probability.  An integer law
    # is cut halfway between values at its quantiles from both tails, so an
    # atom at either end of its support gets a bin of its own.
    q = np.linspace(0.0, 1.0, 21)[1:-1]
    cuts = law.ppf(q)
    if hasattr(law, "pmf"):
        cuts = np.concatenate((cuts + 0.5, law.isf(q) - 0.5))
    cuts = np.unique(cuts[(law.cdf(cuts) > 0.0) & (law.cdf(cuts) < 1.0)])
    observed = np.bincount(np.searchsorted(cuts, x, side="left"), minlength=cuts.size + 1)
    expected = draws * np.diff(np.concatenate(([0.0], law.cdf(cuts), [1.0])))
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert stats.chi2.sf(chi2, cuts.size) > 1e-3


@pytest.mark.parametrize(
    "family", [NormalKnownVariance(0.2), Poisson(), Bernoulli(), ExponentialRate()],
    ids=lambda family: type(family).__name__,
)
def test_one_draw_at_large_n_allocates_nothing_large(family):
    # A statistic is one deviate at any n: no array of n observations.
    draw = suffstat_sampler(family, 0.5, 10**7)
    generator = np.random.default_rng(1)
    tracemalloc.start()
    try:
        draw(generator, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# First five totals per family of a run at seed 20060301.
_CANARY_CELLS = [
    (NormalKnownVariance(0.2), 0.5, 30,
     [0.5362504663000855, 0.4254810909815008, 0.5141934240303072, 0.6263791738136314,
      0.5473654018162718]),
    (Poisson(), 0.5, 100, [54, 57, 51, 50, 48]),
    (Bernoulli(), 0.3, 200, [52, 68, 68, 56, 48]),
    (ExponentialRate(), 0.5, 100,
     [208.33009529239416, 202.82438301708262, 211.14188354592156, 235.64105367361637,
      208.34455953112027]),
]


@pytest.mark.parametrize(
    "family,theta0,n,totals", _CANARY_CELLS, ids=[type(cell[0]).__name__ for cell in _CANARY_CELLS]
)
def test_stream_canary_pins_the_first_totals(family, theta0, n, totals):
    drawn = suffstat_sampler(family, theta0, n)(run_generator(20060301), 5).tolist()
    assert drawn == totals, (
        f"numpy {np.__version__} changed a sampler of {family!r}: every seeded Monte Carlo "
        f"output moves with it.  Drew {drawn!r}, pinned {totals!r}."
    )


def test_deviates_reject_bad_parameters():
    for theta0 in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            suffstat_sampler(Poisson(), theta0, 4)


# ---------------------------------------------------------------------------
# seeded streams


# numpy's algorithm switches: Poisson means either side of 10 (inversion,
# then PTRS), binomial n * min(p, 1 - p) either side of 30 (inversion, then
# BTPE) and gamma shape 1 (an exponential) and above (Marsaglia-Tsang).
_PREFIX_CELLS = [
    (NormalKnownVariance(0.2), 0.5, 30),
    (Poisson(), 0.5, 19),
    (Poisson(), 0.5, 21),
    (Poisson(), 1e6, 10**6),
    (Bernoulli(), 0.29, 100),
    (Bernoulli(), 0.31, 100),
    (Bernoulli(), 0.71, 100),
    (Bernoulli(), 0.5, 2**40),
    (ExponentialRate(), 0.5, 1),
    (ExponentialRate(), 0.5, 2),
    (ExponentialRate(), 0.5, 10**7),
]


@pytest.mark.parametrize(
    "family,theta0,n", _PREFIX_CELLS,
    ids=[f"{type(f).__name__}-{t:g}-{n:g}" for f, t, n in _PREFIX_CELLS],
)
def test_a_run_draw_is_a_prefix_of_every_longer_draw(family, theta0, n):
    # The replay contract: element j of a run's draw of m is the last element
    # of a draw of j + 1, and draws in chunks give what one call gives.
    draw = suffstat_sampler(family, theta0, n)
    m = 2 * _CHUNK + 5
    run = draw(np.random.default_rng(17), m)
    for j in (0, 1, 2, 9, _CHUNK - 1, _CHUNK, _CHUNK + 1, m - 1):
        assert draw(np.random.default_rng(17), j + 1)[-1] == run[j], j
        assert sample_suffstat(family, theta0, n, SeededGenerator(17, j)).s == float(run[j]), j
    generator = np.random.default_rng(17)
    chunks = [draw(generator, size) for size in (1, 2, 30, _CHUNK, m - _CHUNK - 33)]
    assert np.concatenate(chunks).tobytes() == run.tobytes()


def _uniforms(generator, size):
    return generator.random(size)


def test_equal_keys_give_equal_streams():
    a = SeededGenerator(42, stream_id=7)
    b = SeededGenerator(42, stream_id=7)
    assert a.replay(_uniforms) == b.replay(_uniforms)


def test_distinct_stream_ids_differ():
    a = SeededGenerator(42, stream_id=0)
    b = SeededGenerator(42, stream_id=1)
    assert a.replay(_uniforms) != b.replay(_uniforms)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_streams_are_numpys_default_rng_of_the_key_pair(seed):
    # The determinism contract: the key pair (seed, stream_id) is element
    # stream_id of a draw on default_rng(seed), on both sides of 2^32 and
    # of a replay chunk.
    reference = np.random.default_rng(seed).random(2 * _CHUNK + 2)
    for stream_id in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
        ours = SeededGenerator(seed, stream_id=stream_id).replay(_uniforms)
        assert ours == reference[stream_id], (seed, stream_id)


# Seeds of one and two 32-bit words, dense around the boundary at 2^32.
_SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(2**32 - 8, 2**32 + 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 7, 2**64 - 1]),
)


@settings(max_examples=150, deadline=None)
@given(seed=_SEEDS, m=st.integers(2, 40), start=st.integers(0, 40))
@example(seed=2**64 - 1, m=1000, start=0)
@example(seed=0, m=1000, start=990)
def test_batch_streams_are_default_rng_draw_for_draw(seed, m, start):
    # A run's one draw on default_rng(seed) and the replay of each of its
    # keys give the same statistics, draw for draw.
    start = min(start, m - 1)
    family, theta0, n = Poisson(), 0.75, 10
    batch = suffstat_sampler(family, theta0, n)(run_generator(seed), m)
    for j in range(start, m):
        assert sample_suffstat(family, theta0, n, SeededGenerator(seed, j)).s == batch[j], (seed, j)


class _CountingGenerator:
    """A numpy generator that records the name of every method called on it."""

    def __init__(self, generator, calls):
        self.generator, self.calls = generator, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.generator, name)


def test_simulate_many_builds_no_seed_sequence_per_replicate(monkeypatch):
    # A timing-free guard: a run builds one generator and makes one sampler
    # call, whatever m is, and a Bernoulli run's 11 possible totals fork
    # nothing at any m.
    runs = [
        (Bernoulli(), BetaPrior(1.0, 1.0), 0.3, 10, 2000, "binomial"),
        (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, "poisson"),
        (NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 200, "standard_normal"),
        (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 20, 200, "standard_gamma"),
    ]
    expected = [simulate_many(*run[:5], [PosteriorVariance()], seed=3) for run in runs]
    seeds, calls, forks = [], [], []
    real, fork = np.random.default_rng, os.fork
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda *a: seeds.append(a) or _CountingGenerator(real(*a), calls))
    monkeypatch.setattr(os, "fork", lambda: forks.append(0) or fork())
    for run, estimates in zip(runs, expected):
        for log in (seeds, calls, forks):
            log.clear()
        assert simulate_many(*run[:5], [PosteriorVariance()], seed=3) == estimates
        _assert_no_children()
        assert (seeds, calls) == ([(3,)], [run[5]]), run
        if isinstance(run[0], Bernoulli):
            assert forks == []


def test_generator_rejects_bad_keys():
    for seed, stream in [(-1, 0), (2**64, 0), (1.0, 0), (True, 0), (5, -1), (5, 2.0)]:
        with pytest.raises(DomainError):
            SeededGenerator(seed, stream_id=stream)


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
    # All five functionals of table 3's rate rows.
    functionals = [functional for _, functional in _RATE_FUNCTIONALS]
    family, prior = ExponentialRate(), BetaPrior(1.5, 1.5)
    estimates = simulate_many(family, prior, theta0, n, 200, functionals, seed=20060301)
    oracles = expbeta_expected_many(functionals, theta0, n, prior)
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


# Every family; the exponential case evaluates the five table-3 functionals.
_REPLAY_CASES = [
    (NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, 60,
     [PosteriorVariance(), PosteriorQuantile(0.05), CredibleLength(0.05), HpdWidth(0.95),
      CenteredIntervalMass(0.2), TailMassAbove(0.5)]),
    (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 120, _CONJUGATE_FUNCTIONALS),
    (Poisson(), GammaPrior(1.0, 2.0), 3.0, 200, 60, _CONJUGATE_FUNCTIONALS),
    (Bernoulli(), BetaPrior(1.5, 1.5), 0.3, 30, 120, _CONJUGATE_FUNCTIONALS),
    (ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 50, 40,
     [functional for _, functional in _RATE_FUNCTIONALS]),
    # Jeffreys priors: zero and full counts give posteriors with a pole,
    # whose HPD ends at that edge; and Poisson shapes near 1.5e5.
    (Bernoulli(), BetaPrior(0.5, 0.5), 0.5, 5, 120, [HpdWidth(0.95), CredibleLength(0.05)]),
    (Poisson(), GammaPrior(1.0, 0.5), 0.1, 10, 120, [HpdWidth(0.9), PosteriorQuantile(0.05)]),
    (Poisson(), GammaPrior(2.5, 3.5), 1.5, 100_000, 60, [HpdWidth(0.95), TailMassAbove(1.5)]),
]


@pytest.mark.parametrize("family,prior,theta0,n,m,functionals", _REPLAY_CASES)
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
    # is one row of one block of gamma or beta posteriors; exponential
    # totals never repeat, and each is one row of one block of rate
    # posteriors.  No total builds a statistic or a posterior of its own.
    calls, stats = [], []

    def counting_posterior(family, prior, stat):
        calls.append(stat.s)
        return posterior(family, prior, stat)

    def counting_rows(prior, n, totals):
        calls.extend(totals.tolist())
        return rate_posterior(prior, n, totals)

    def counting_counts(family, prior, n, totals):
        calls.extend(totals.tolist())
        return count_posterior(family, prior, n, totals)

    def counting_stat(n, s):
        stats.append(s)
        return SufficientStat(n, s)

    monkeypatch.setattr(montecarlo, "posterior", counting_posterior)
    monkeypatch.setattr(montecarlo, "rate_posterior", counting_rows)
    monkeypatch.setattr(montecarlo, "count_posterior", counting_counts)
    monkeypatch.setattr(montecarlo, "SufficientStat", counting_stat)
    simulate_many(family, prior, theta0, n, m, [PosteriorVariance(), HpdWidth(0.9)], seed=12)
    distinct = len(set(_totals(family, theta0, n, m, 12)))
    assert stats == []
    if isinstance(family, ExponentialRate):
        assert len(calls) == m
    else:
        assert len(calls) == distinct < m // 10
    assert len(set(calls)) == len(calls)


def test_a_serial_table_3_cell_builds_one_rate_block_per_rate_block_rows_totals(monkeypatch):
    # A timing-free guard on the blocks' fixed cost, which does not grow
    # with their rows: a table-3 cell at m = 1000 in one process builds at
    # most ceil(1000 / RATE_BLOCK_ROWS) blocks of rate posteriors.
    sizes = []

    def counting_rows(prior, n, totals):
        sizes.append(totals.size)
        return rate_posterior(prior, n, totals)

    monkeypatch.setattr(montecarlo, "rate_posterior", counting_rows)
    monkeypatch.setattr(montecarlo, "_MIN_PER_PROCESS", 10**9)
    simulate_many(ExponentialRate(), BetaPrior(1.5, 1.5), 0.5, 30, 1000,
                  [functional for _, functional in _RATE_FUNCTIONALS], seed=20060301)
    assert RATE_BLOCK_ROWS >= 120
    assert sum(sizes) == 1000
    assert len(sizes) <= math.ceil(1000 / RATE_BLOCK_ROWS)


def test_different_seeds_differ():
    args = (Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 50, PosteriorQuantile(0.05))
    assert simulate_g(*args, seed=1) != simulate_g(*args, seed=2)


# ---------------------------------------------------------------------------
# replicate ranges split across forked processes


def _split_into(monkeypatch, processes):
    """Make ``simulate_many`` split any run of at least ``processes``
    replicates over ``processes`` processes, Poisson and Bernoulli totals in
    blocks of 4, and count its forks."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(montecarlo, "_MIN_PER_PROCESS", 1)
    monkeypatch.setattr(montecarlo, "_COUNT_BLOCK_ROWS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(processes) or fork())
    return forks


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("family,prior,theta0,n,m,functionals", _REPLAY_CASES)
def test_split_runs_equal_the_serial_run_bit_for_bit(
    monkeypatch, processes, family, prior, theta0, n, m, functionals
):
    serial = simulate_many(family, prior, theta0, n, m, functionals, seed=4)
    forks = _split_into(monkeypatch, processes)
    split = simulate_many(family, prior, theta0, n, m, functionals, seed=4)
    _assert_no_children()
    assert len(forks) == processes - 1
    # repr tells apart every float that differs in a bit, -0.0 from 0.0 among them
    assert repr(split) == repr(serial) == repr(_replay(family, prior, theta0, n, m, functionals, 4))


def _refuse_hpd_at_a_pole(monkeypatch):
    """Make ``simulate_many`` fail where HPD functionals once refused: on a
    posterior with a shape below 1, unbounded at an edge.  The patch is in
    place before any fork, so every child inherits it."""

    def evaluate_or_refuse(functional, post):
        shapes = getattr(post, "_edge_shapes", None)
        if isinstance(functional, HpdWidth) and shapes and np.any(np.minimum(*shapes) < 1.0):
            raise UnsupportedShapeError(f"{post!r} is unbounded at an edge of its support")
        return evaluate(functional, post)

    monkeypatch.setattr(montecarlo, "evaluate", evaluate_or_refuse)


def _serial_failure(*args, **kwargs):
    with pytest.raises(ReplicateError) as err:
        simulate_many(*args, **kwargs)
    return err.value


def _same_failure(a, b):
    assert (a.index, a.seed, a.stream_id, a.family, a.prior, a.stat, a.functional) == (
        b.index, b.seed, b.stream_id, b.family, b.prior, b.stat, b.functional)
    assert str(a) == str(b)


def test_first_failure_in_a_child_range_raises_the_serial_error(monkeypatch):
    # Totals 0 and 5 under Beta(0.5, 0.5) give a posterior with a pole, whose
    # HPD is refused here.  They are drawn after the other four totals, so
    # the first of them falls in a child's slice of the six distinct totals,
    # and the parent's slice holds none.
    _refuse_hpd_at_a_pole(monkeypatch)
    family, prior, m = Bernoulli(), BetaPrior(0.5, 0.5), 400
    totals = _totals(family, 0.5, 5, m, 7)
    distinct = list(dict.fromkeys(totals))  # in order of first draw
    first = next(j for j, total in enumerate(totals) if total in (0.0, 5.0))
    assert len(distinct) == 6 and distinct.index(totals[first]) >= 6 // 3
    args = (family, prior, 0.5, 5, m, [PosteriorVariance(), HpdWidth(0.95)])
    serial = _serial_failure(*args, seed=7)
    assert serial.index == first
    forks = _split_into(monkeypatch, 3)
    _same_failure(_serial_failure(*args, seed=7), serial)
    assert len(forks) == 2
    _assert_no_children()


def test_failure_in_the_parent_range_kills_and_reaps_every_child(monkeypatch):
    # Every replicate fails: the parent raises at replicate 0 and kills its
    # children, which would otherwise stall for a minute each.

    def refuse_every_hpd(functional, post):
        if isinstance(functional, HpdWidth):
            raise UnsupportedShapeError(f"{post!r}: refused")
        return evaluate(functional, post)

    monkeypatch.setattr(montecarlo, "evaluate", refuse_every_hpd)
    args = (Poisson(), GammaPrior(1.0, 0.5), 2.0, 3, 30, [PosteriorVariance(), HpdWidth(0.95)])
    serial = _serial_failure(*args, seed=11)
    parent = os.getpid()

    def stalling_posterior(family, prior, stat):
        if os.getpid() != parent:
            time.sleep(60)
        return posterior(family, prior, stat)

    monkeypatch.setattr(montecarlo, "posterior", stalling_posterior)
    forks = _split_into(monkeypatch, 3)
    start = time.monotonic()
    _same_failure(_serial_failure(*args, seed=11), serial)
    assert time.monotonic() - start < 30
    assert serial.index == 0 and len(forks) == 2
    _assert_no_children()


def test_bad_theta0_fails_as_replicate_0_before_any_fork(monkeypatch):
    args = (Poisson(), GammaPrior(1.0, 0.5), -1.0, 3, 30, [PosteriorVariance()])
    serial = _serial_failure(*args, seed=2)
    forks = _split_into(monkeypatch, 3)
    _same_failure(_serial_failure(*args, seed=2), serial)
    assert forks == []


@pytest.mark.parametrize("leave", [lambda: os._exit(5),
                                   lambda: os.kill(os.getpid(), signal.SIGKILL)])
def test_a_child_that_exits_nonzero_has_its_range_redone(monkeypatch, leave):
    family, prior, theta0, n, m, functionals = _REPLAY_CASES[4]  # the exponential rate
    serial = simulate_many(family, prior, theta0, n, m, functionals, seed=5)
    parent, built = os.getpid(), []

    def dying_rows(prior, n, totals):
        if os.getpid() != parent:
            leave()
        built.extend(totals.tolist())
        return rate_posterior(prior, n, totals)

    monkeypatch.setattr(montecarlo, "rate_posterior", dying_rows)
    forks = _split_into(monkeypatch, 3)
    split = simulate_many(family, prior, theta0, n, m, functionals, seed=5)
    _assert_no_children()
    assert len(forks) == 2
    assert len(built) == m  # exponential totals never repeat: every range ran here
    assert repr(split) == repr(serial)


def test_a_range_that_cannot_be_forked_is_run_in_process(monkeypatch):
    family, prior, theta0, n, m, functionals = _REPLAY_CASES[1]
    serial = simulate_many(family, prior, theta0, n, m, functionals, seed=6)
    _split_into(monkeypatch, 3)

    def no_fork():
        raise BlockingIOError("Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert repr(simulate_many(family, prior, theta0, n, m, functionals, seed=6)) == repr(serial)
    _assert_no_children()


@pytest.mark.parametrize(
    "cpus,m,forks",
    [(2, 1000, 1), (8, 1000, 1), (2, 999, 0), (2, 500, 0), (1, 1000, 0), (8, 1500, 2)],
)
def test_fork_count_follows_cpus_and_replicates(monkeypatch, cpus, m, forks):
    # A timing-free guard: one process per usable CPU, each with at least
    # 500 replicates.
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", lambda: calls.append(m) or fork())
    simulate_many(NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, m,
                  [PosteriorVariance()], seed=9)
    _assert_no_children()
    assert len(calls) == forks


def test_a_run_of_1000_forks_once_on_this_machine(monkeypatch):
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(0) or fork())
    for m in (500, 1000):
        simulate_many(NormalKnownVariance(0.2), NormalPrior(0.25, 0.3), 0.5, 30, m,
                      [PosteriorVariance()], seed=9)
    _assert_no_children()
    splits = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2
    assert len(calls) == (1 if splits else 0)


def test_runs_off_linux_stay_in_process(monkeypatch):
    forks = _split_into(monkeypatch, 3)
    monkeypatch.setattr(sys, "platform", "darwin")
    simulate_many(Poisson(), GammaPrior(2.5, 3.5), 0.5, 20, 30, [PosteriorVariance()], seed=1)
    assert forks == []


# ---------------------------------------------------------------------------
# failure reporting


def test_replicate_failure_carries_index_and_cause(monkeypatch):
    # a tiny rate makes every count zero; the resulting gamma posterior
    # has shape below one, whose HPD is refused here
    _refuse_hpd_at_a_pole(monkeypatch)
    with pytest.raises(ReplicateError) as err:
        simulate_g(
            Poisson(), GammaPrior(1.0, 0.5), 1e-12, 3, 5, HpdWidth(0.95), seed=1
        )
    assert err.value.index == 0
    assert err.value.cause is not None


def test_replicate_failure_replays_from_its_record(monkeypatch):
    _refuse_hpd_at_a_pole(monkeypatch)
    family, prior = Poisson(), GammaPrior(1.0, 0.5)
    functionals = [PosteriorVariance(), HpdWidth(0.95)]
    with pytest.raises(ReplicateError) as err:
        simulate_many(family, prior, 1e-12, 3, 5, functionals, seed=11)
    exc = err.value
    assert (exc.seed, exc.stream_id, exc.index) == (11, 0, 0)
    assert (exc.family, exc.prior, exc.functional) == (family, prior, HpdWidth(0.95))
    assert exc.stat == SufficientStat(3, 0.0)
    assert sample_suffstat(family, 1e-12, 3, SeededGenerator(exc.seed, exc.stream_id)) == exc.stat
    for field in ("seed 11", "stream 0", repr(family), repr(prior), repr(exc.stat),
                  repr(exc.functional)):
        assert field in str(exc)
    with pytest.raises(type(exc.cause)) as again:  # through the run's own evaluate
        montecarlo.evaluate(exc.functional, posterior(exc.family, exc.prior, exc.stat))
    assert str(again.value) == str(exc.cause)


def test_replicate_failure_replays_its_stat_from_its_seed_and_stream_id(monkeypatch):
    # Totals 0 and 13 give a posterior with a pole, whose HPD is refused
    # here; at this seed the first of them is drawn past the first replay
    # chunk.
    _refuse_hpd_at_a_pole(monkeypatch)
    family = Bernoulli()
    with pytest.raises(ReplicateError) as err:
        simulate_many(family, BetaPrior(0.5, 0.5), 0.5, 13, 5000, [HpdWidth(0.95)], seed=4)
    exc = err.value
    assert exc.stream_id == exc.index > _CHUNK
    assert exc.stat.s in (0.0, 13.0)
    assert sample_suffstat(family, 0.5, 13, SeededGenerator(exc.seed, exc.stream_id)) == exc.stat


def test_replicate_failure_after_shared_evaluations_names_the_first_failure(monkeypatch):
    # Totals 0 and 5 give a beta posterior unbounded at an edge, whose HPD
    # is refused here; totals in 1..4 evaluate, and repeat.
    _refuse_hpd_at_a_pole(monkeypatch)
    family, prior = Bernoulli(), BetaPrior(0.5, 0.5)
    totals = _totals(family, 0.5, 5, 200, 7)
    first = next(j for j, total in enumerate(totals) if total in (0.0, 5.0))
    assert len(set(totals[:first])) < first  # an earlier replicate reused an evaluation
    with pytest.raises(ReplicateError) as err:
        simulate_many(family, prior, 0.5, 5, 200, [PosteriorVariance(), HpdWidth(0.95)], seed=7)
    exc = err.value
    assert (exc.index, exc.stream_id, exc.seed) == (first, first, 7)
    assert exc.stat == SufficientStat(5, totals[first])
    assert exc.functional == HpdWidth(0.95)


def test_a_failing_rate_row_names_the_first_replicate_that_drew_it(monkeypatch):
    # Rate totals are evaluated a block of rows at a time; the HPD is refused
    # here for totals above 86, so the first block holding one fails and
    # is redone one posterior at a time, and the first replicate to draw
    # such a total raises with its statistic, in a split run too.
    def refuse_large_totals(functional, post):
        if isinstance(functional, HpdWidth) and np.any(post.s > 86.0):
            raise UnsupportedShapeError(f"{post!r}: refused")
        return evaluate(functional, post)

    monkeypatch.setattr(montecarlo, "evaluate", refuse_large_totals)
    family, prior, m = ExponentialRate(), BetaPrior(1.5, 1.5), 600
    totals = _totals(family, 0.5, 30, m, 9)
    first = next(j for j, total in enumerate(totals) if total > 86.0)
    assert first > RATE_BLOCK_ROWS  # past the first block
    args = (family, prior, 0.5, 30, m, [PosteriorVariance(), HpdWidth(0.95)])
    serial = _serial_failure(*args, seed=9)
    assert (serial.index, serial.stream_id) == (first, first)
    assert serial.stat == SufficientStat(30, totals[first])
    assert serial.functional == HpdWidth(0.95)
    assert f"s={totals[first]!r}" in str(serial)
    _split_into(monkeypatch, 3)
    _same_failure(_serial_failure(*args, seed=9), serial)
    _assert_no_children()


def test_hpd_of_posteriors_with_a_pole_is_estimated():
    # At a tiny rate every count is zero, and every posterior Gamma(0.5, 4):
    # unbounded at 0, with HPD [0, Q(0.95)].
    est = simulate_g(Poisson(), GammaPrior(1.0, 0.5), 1e-12, 3, 5, HpdWidth(0.95), seed=1)
    assert est.mean == pytest.approx(GammaPosterior(0.5, 4.0).quantile(0.95), rel=1e-14)
    assert est.std_err == 0.0
    # Totals 0 and 5 give Beta(0.5, 5.5) and Beta(5.5, 0.5) among the rest.
    args = (Bernoulli(), BetaPrior(0.5, 0.5), 0.5, 5, 200, [PosteriorVariance(), HpdWidth(0.95)])
    assert {0.0, 5.0} <= set(_totals(Bernoulli(), 0.5, 5, 200, 7))
    assert repr(simulate_many(*args, seed=7)) == repr(_replay(*args, 7))


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
