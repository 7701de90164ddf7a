"""Sample-size solvers and the leading-order functional evaluators.

Frozen reference numbers were computed with mpmath at 30 digits from the
closed forms (z quantiles via erfinv), independently of the library code.
"""

import math

import numpy as np
import pytest

from bayessize.criteria import (
    _CEIL_SLACK,
    Acc,
    Alc,
    Apvc,
    EffectSize,
    asymptotic_functional,
    min_sample_size,
)
from bayessize.errors import CriterionUnsatisfiableError, DomainError
from bayessize.exact import exact_normal
from bayessize.expansions import expected_posterior_quantile
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
    ExponentialRate,
    NormalKnownVariance,
    NormalPosterior,
    Poisson,
    fisher_info,
)
from bayessize.specfun import std_normal_cdf, std_normal_quantile

Z975 = 1.9599639845400542355


# ---------------------------------------------------------------------------
# solver examples with frozen solutions


def test_apvc_size_example():
    res = min_sample_size(Apvc(eps=0.002, lo=0.1, hi=0.9), NormalKnownVariance(0.2))
    assert res.n_min == 100
    assert res.n_real == pytest.approx(100.0, rel=1e-12)
    assert res.inf_info == pytest.approx(5.0, rel=1e-12)


def test_apvc_size_example_agrees_with_conjugate_benchmark():
    # For normal data with a normal prior (tau0^2 = 0.3) the averaged
    # posterior variance has a closed form; the first n where it drops to
    # 0.002 is also 100, so the approximate solver lands on the same integer.
    var = lambda n: exact_normal(PosteriorVariance(), 0.2, 0.25, 0.3, 0.5, n).value
    assert var(99) > 0.002
    assert var(100) <= 0.002


def test_acc_size_example():
    res = min_sample_size(
        Acc(length=0.05, alpha=0.05, lo=0.1, hi=0.9), NormalKnownVariance(0.2)
    )
    assert res.n_real == pytest.approx(1229.2668226221203, rel=1e-12)
    assert res.n_min == 1230


def test_alc_size_example():
    res = min_sample_size(
        Alc(length=0.1, alpha=0.05, lo=0.1, hi=0.9), NormalKnownVariance(0.2)
    )
    assert res.n_real == pytest.approx(307.31670565553008, rel=1e-12)
    assert res.n_min == 308


def test_effect_size_example():
    res = min_sample_size(
        EffectSize(theta1=0.3, alpha=0.05, lo=0.4, hi=0.6), NormalKnownVariance(0.2)
    )
    assert res.inf_info == pytest.approx(0.05, rel=1e-7)
    assert res.n_real == pytest.approx(108.22173816381658, rel=1e-6)
    assert res.n_min == 109


def test_acc_bernoulli_size():
    # information 1/(theta(1-theta)) dips to 4 at the middle of the range
    res = min_sample_size(
        Acc(length=0.1, alpha=0.05, lo=0.4, hi=0.6), Bernoulli()
    )
    assert res.inf_info == pytest.approx(4.0, rel=1e-9)
    assert res.n_real == pytest.approx(384.1458820694126, rel=1e-9)
    assert res.n_min == 385


def test_exact_integer_solution_is_not_pushed_up():
    # eps chosen so n_real = 1/(eps * 5) is exactly 200
    res = min_sample_size(Apvc(eps=0.001, lo=0.0, hi=1.0), NormalKnownVariance(0.2))
    assert res.n_real == pytest.approx(200.0, rel=1e-12)
    assert res.n_min == 200


def test_effect_size_alternative_inside_range_is_unsatisfiable():
    with pytest.raises(CriterionUnsatisfiableError) as err:
        min_sample_size(
            EffectSize(theta1=0.5, alpha=0.05, lo=0.4, hi=0.6),
            NormalKnownVariance(0.2),
        )
    assert err.value.theta == 0.5


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Apvc(eps=0.0, lo=0.1, hi=0.9),
        lambda: Apvc(eps=-0.1, lo=0.1, hi=0.9),
        lambda: Apvc(eps=math.nan, lo=0.1, hi=0.9),
        lambda: Apvc(eps=0.01, lo=0.9, hi=0.1),
        lambda: Apvc(eps=0.01, lo=0.5, hi=0.5),
        lambda: Acc(length=-1.0, alpha=0.05, lo=0.1, hi=0.9),
        lambda: Acc(length=0.1, alpha=0.0, lo=0.1, hi=0.9),
        lambda: Acc(length=0.1, alpha=1.0, lo=0.1, hi=0.9),
        lambda: Alc(length=math.inf, alpha=0.05, lo=0.1, hi=0.9),
        lambda: EffectSize(theta1=math.nan, alpha=0.05, lo=0.1, hi=0.9),
        lambda: EffectSize(theta1=0.3, alpha=2.0, lo=0.1, hi=0.9),
    ],
)
def test_criterion_constructors_reject_bad_fields(bad):
    with pytest.raises(DomainError):
        bad()


@pytest.mark.parametrize("kind", [Acc, Alc])
def test_a_length_whose_square_leaves_the_floats_is_refused_by_name(kind):
    # Up to a length of about 1.3e154 the size is a tiny real and n_min is
    # 1; past it length**2 raises, and the length is named.
    res = min_sample_size(kind(length=1e150, alpha=0.05, lo=0.1, hi=0.5), Bernoulli())
    assert res.n_min == 1 and 0.0 < res.n_real < 1e-298
    with pytest.raises(DomainError, match=r"^interval length 1e\+308 squared exceeds the largest float$"):
        min_sample_size(kind(length=1e308, alpha=0.05, lo=0.1, hi=0.5), Bernoulli())


def test_min_sample_size_rejects_unknown_criterion():
    with pytest.raises(DomainError):
        min_sample_size("not a criterion", NormalKnownVariance(0.2))


def test_range_outside_family_domain_rejected():
    with pytest.raises(DomainError):
        min_sample_size(Apvc(eps=0.01, lo=-0.5, hi=0.5), Poisson())


# ---------------------------------------------------------------------------
# leading-order evaluator examples


def test_expected_variance_example():
    val = asymptotic_functional(PosteriorVariance(), NormalKnownVariance(0.2), 0.5, 100)
    assert val == pytest.approx(0.0020, rel=1e-12)


def test_centered_mass_example():
    val = asymptotic_functional(CenteredIntervalMass(0.05), NormalKnownVariance(0.2), 0.5, 10)
    assert val == pytest.approx(0.14031620480133382, rel=1e-12)
    assert val == pytest.approx(0.1403, abs=1e-4)


def test_expected_quantile_example():
    val = asymptotic_functional(PosteriorQuantile(0.05), NormalKnownVariance(2.5), 5.0, 30)
    assert val == pytest.approx(4.5251716578510175, rel=1e-12)
    assert val == pytest.approx(4.5252, abs=1e-4)


def test_credible_length_example():
    val = asymptotic_functional(CredibleLength(0.05), ExponentialRate(), 0.25, 50)
    assert val == pytest.approx(0.13859038243496779, rel=1e-12)
    assert val == pytest.approx(0.1386, abs=1e-4)


def test_tail_mass_at_the_null_is_half():
    assert asymptotic_functional(TailMassAbove(0.5), NormalKnownVariance(0.2), 0.5, 25) == 0.5


def test_expected_variance_scales_inversely_with_n():
    fam = Poisson()
    v10 = asymptotic_functional(PosteriorVariance(), fam, 1.6, 10)
    v40 = asymptotic_functional(PosteriorVariance(), fam, 1.6, 40)
    assert v10 == pytest.approx(4.0 * v40, rel=1e-12)


def test_hpd_interval_is_symmetric_with_frozen_half_width():
    fam = NormalKnownVariance(0.2)
    lo = asymptotic_functional(HpdLower(0.95), fam, 0.5, 100)
    hi = asymptotic_functional(HpdUpper(0.95), fam, 0.5, 100)
    half = 0.087652254057658163
    assert lo == pytest.approx(0.5 - half, rel=1e-12)
    assert hi == pytest.approx(0.5 + half, rel=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: asymptotic_functional(PosteriorVariance(), NormalKnownVariance(0.2), 0.5, 0),
        lambda: asymptotic_functional(PosteriorVariance(), NormalKnownVariance(0.2), 0.5, -3),
        lambda: asymptotic_functional(PosteriorVariance(), Poisson(), -1.0, 10),
        # a functional's own field is refused by its constructor, before this call
        lambda: asymptotic_functional(object(), NormalKnownVariance(0.2), 0.5, 10),
        lambda: asymptotic_functional(HpdWidth(0.95), Bernoulli(), 1.0, 10),
        lambda: asymptotic_functional(CredibleLength(0.05), ExponentialRate(), 0.0, 10),
        lambda: asymptotic_functional(TailMassAbove(0.3), Poisson(), 0.5, math.nan),
        lambda: expected_posterior_quantile(NormalKnownVariance(0.2), 0.5, 10, 0.0),
    ],
)
def test_evaluators_reject_bad_arguments(call):
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# the leading order is the functional of the limiting normal


# Every family setting of the grid, with the thetas it is evaluated at.
_LIMIT_GRID = [
    (NormalKnownVariance(0.2), (-3.0, 0.0, 0.5, 1.6, 1e3)),
    (NormalKnownVariance(18.0), (-3.0, 0.0, 0.5, 5.0, 1e3)),
    (Poisson(), (0.01, 0.5, 2.0, 30.0)),
    (Bernoulli(), (0.001, 0.2, 0.5, 0.9)),
    (ExponentialRate(), (0.01, 0.25, 0.75, 1.0)),
]


def test_leading_order_is_the_functional_of_the_limiting_normal():
    # To leading order the expected functional is that functional of
    # N(theta0, 1/(n I)); the tail mass also averages over the posterior
    # mean's own N(theta0, 1/(n I)), which doubles the variance.
    for fam, thetas in _LIMIT_GRID:
        for theta0 in thetas:
            for n in (1, 3, 10, 100, 10**4, 10**6):
                ni = fisher_info(fam, theta0) * n
                sd = 1.0 / math.sqrt(ni)
                limit = NormalPosterior(theta0, 1.0 / ni)
                place = 1e-14 * (abs(theta0) + sd)
                mass = 1e-14 * (1.0 + abs(theta0) / sd)
                cases = [(PosteriorVariance(), 1e-14 / ni)]
                cases += [(PosteriorQuantile(a), place) for a in (0.01, 0.05, 0.5, 0.9)]
                cases += [(CredibleLength(a), place) for a in (0.05, 0.2)]
                cases += [(kind(level), place) for kind in (HpdLower, HpdUpper, HpdWidth)
                          for level in (0.5, 0.95)]
                cases += [(CenteredIntervalMass(k * sd), mass) for k in (0.1, 1.0, 5.0)]
                for functional, tol in cases:
                    got = asymptotic_functional(functional, fam, theta0, n)
                    want = evaluate(functional, limit)
                    assert abs(got - want) <= tol, (fam, theta0, n, functional, got, want)
                doubled = NormalPosterior(theta0, 2.0 / ni)
                for k in (-2.0, 0.0, 0.3, 3.0):
                    theta1 = theta0 + k * sd
                    got = asymptotic_functional(TailMassAbove(theta1), fam, theta0, n)
                    want = 1.0 - doubled.cdf(theta1)
                    assert abs(got - want) <= mass, (fam, theta0, n, theta1, got, want)


# ---------------------------------------------------------------------------
# minimality over random configurations

N_RANDOM = 40


def _random_family_and_range(rng):
    pick = int(rng.integers(0, 4))
    if pick == 0:
        fam = NormalKnownVariance(float(rng.uniform(0.05, 4.0)))
        lo = float(rng.uniform(-3.0, 2.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
    elif pick == 1:
        fam = Poisson()
        lo = float(rng.uniform(0.1, 3.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
    elif pick == 2:
        fam = Bernoulli()
        lo = float(rng.uniform(0.05, 0.6))
        hi = lo + float(rng.uniform(0.05, 0.3))
    else:
        fam = ExponentialRate()
        lo = float(rng.uniform(0.1, 3.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
    return fam, lo, hi


def _random_criterion(kind, rng):
    fam, lo, hi = _random_family_and_range(rng)
    if kind == "apvc":
        return Apvc(float(rng.uniform(1e-4, 0.2)), lo, hi), fam
    if kind == "acc":
        return Acc(
            float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.01, 0.3)), lo, hi
        ), fam
    if kind == "alc":
        return Alc(
            float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.01, 0.3)), lo, hi
        ), fam
    if isinstance(fam, NormalKnownVariance):
        theta1 = lo - float(rng.uniform(0.05, 0.5))
    else:
        theta1 = lo * float(rng.uniform(0.2, 0.8))
    return EffectSize(theta1, float(rng.uniform(0.01, 0.3)), lo, hi), fam


def _satisfied(criterion, inf_info, n):
    """Re-evaluate the defining inequality from its forward closed form.

    ``_ceil_snap`` counts a size within ``_CEIL_SLACK`` below the real
    solution as meeting the criterion, so the slack is given in ``n`` too.
    """
    n = n + _CEIL_SLACK
    if isinstance(criterion, Apvc):
        return 1.0 / (n * inf_info) <= criterion.eps
    if isinstance(criterion, Acc):
        mass = 2.0 * std_normal_cdf(0.5 * criterion.length * math.sqrt(n * inf_info)) - 1.0
        return mass >= 1.0 - criterion.alpha
    if isinstance(criterion, Alc):
        spread = std_normal_quantile(1.0 - 0.5 * criterion.alpha) - std_normal_quantile(
            0.5 * criterion.alpha
        )
        return spread / math.sqrt(n * inf_info) <= criterion.length
    mass = std_normal_cdf(math.sqrt(0.5 * n * inf_info))
    return mass >= 1.0 - criterion.alpha


# Fixed per kind, so every run draws the same configurations.
_RANDOM_CONFIG_SEEDS = {"apvc": 1, "acc": 2, "alc": 3, "es": 4}


@pytest.mark.parametrize("kind", ["apvc", "acc", "alc", "es"])
def test_solved_size_is_minimal_on_random_configs(kind):
    rng = np.random.default_rng(_RANDOM_CONFIG_SEEDS[kind])
    for _ in range(N_RANDOM):
        criterion, fam = _random_criterion(kind, rng)
        res = min_sample_size(criterion, fam)
        assert res.n_min >= 1
        assert res.n_min == math.ceil(res.n_real - _CEIL_SLACK)
        assert _satisfied(criterion, res.inf_info, res.n_min)
        if res.n_min > 1:
            assert not _satisfied(criterion, res.inf_info, res.n_min - 1)


@pytest.mark.parametrize(
    "n_real,n_min",
    [(12041.000043, 12042), (12041.000000002, 12042), (12041.0000000005, 12041), (12041.0, 12041)],
)
def test_solved_size_snaps_only_within_the_ceiling_slack(n_real, n_min):
    # At n = 12041 the ACC coverage of the first case is 4e-10 short, less
    # than a slack of 1e-9 in coverage would forgive; the solver's slack is
    # 1e-9 in n, and the minimality check above uses the same.
    z = std_normal_quantile(0.975)
    criterion = Acc(2.0 * z / math.sqrt(n_real), 0.05, 0.0, 1.0)
    res = min_sample_size(criterion, NormalKnownVariance(1.0))
    assert res.n_min == n_min
    assert _satisfied(criterion, res.inf_info, n_min)
    assert not _satisfied(criterion, res.inf_info, n_min - 1)


# ---------------------------------------------------------------------------
# monotonicity over parameter grids


def test_apvc_size_grows_as_eps_shrinks():
    fam = Bernoulli()
    sizes = [
        min_sample_size(Apvc(eps, 0.3, 0.45), fam).n_min
        for eps in np.geomspace(0.2, 1e-4, 20)
    ]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]


def test_acc_size_grows_as_length_shrinks():
    fam = Poisson()
    sizes = [
        min_sample_size(Acc(length, 0.05, 0.5, 2.0), fam).n_min
        for length in np.geomspace(1.0, 0.01, 20)
    ]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]


def test_alc_size_grows_as_length_shrinks():
    fam = NormalKnownVariance(0.2)
    sizes = [
        min_sample_size(Alc(length, 0.05, 0.1, 0.9), fam).n_min
        for length in np.geomspace(1.0, 0.01, 20)
    ]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] > sizes[0]


def test_acc_and_es_sizes_grow_as_alpha_shrinks():
    acc_sizes = [
        min_sample_size(Acc(0.2, alpha, 0.1, 0.9), NormalKnownVariance(0.2)).n_min
        for alpha in np.geomspace(0.3, 0.001, 20)
    ]
    es_sizes = [
        min_sample_size(EffectSize(0.5, alpha, 1.0, 2.0), ExponentialRate()).n_min
        for alpha in np.geomspace(0.3, 0.001, 20)
    ]
    for sizes in (acc_sizes, es_sizes):
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] > sizes[0]


# ---------------------------------------------------------------------------
# consistency: the evaluator at the solved n meets the target at the
# least-informative point of the range


def test_apvc_target_met_at_solved_size():
    # Poisson information 1/theta decreases, so the infimum sits at hi
    criterion = Apvc(0.01, 0.5, 2.0)
    res = min_sample_size(criterion, Poisson())
    variance = asymptotic_functional(PosteriorVariance(), Poisson(), 2.0, res.n_min)
    assert variance <= criterion.eps + 1e-12


def test_acc_target_met_at_solved_size():
    criterion = Acc(0.1, 0.05, 0.3, 0.4)
    res = min_sample_size(criterion, Bernoulli())
    # Bernoulli information decreases toward theta = 1/2, so hi is worst here
    coverage = asymptotic_functional(CenteredIntervalMass(0.1), Bernoulli(), 0.4, res.n_min)
    assert coverage >= 1.0 - criterion.alpha - 1e-12


def test_alc_target_met_at_solved_size():
    criterion = Alc(0.2, 0.05, 0.25, 0.75)
    res = min_sample_size(criterion, ExponentialRate())
    length = asymptotic_functional(CredibleLength(0.05), ExponentialRate(), 0.75, res.n_min)
    assert length <= criterion.length + 1e-12


def test_effect_size_target_met_at_solved_size():
    criterion = EffectSize(0.3, 0.05, 0.4, 0.6)
    res = min_sample_size(criterion, NormalKnownVariance(0.2))
    # weighted information grows with distance from theta1, so lo is worst
    fam, tail = NormalKnownVariance(0.2), TailMassAbove(0.3)
    mass = asymptotic_functional(tail, fam, 0.4, res.n_min)
    assert mass >= 1.0 - criterion.alpha - 1e-9
    below = asymptotic_functional(tail, fam, 0.4, res.n_min - 1)
    assert below < 1.0 - criterion.alpha


# ---------------------------------------------------------------------------
# limits


def test_coverage_and_separation_approach_one_monotonically():
    ns = (10, 100, 1_000, 10_000)
    acc = [
        asymptotic_functional(CenteredIntervalMass(0.05), NormalKnownVariance(0.2), 0.5, n)
        for n in ns
    ]
    es = [asymptotic_functional(TailMassAbove(0.3), NormalKnownVariance(25.0), 0.5, n)
          for n in ns]
    for seq in (acc, es):
        assert all(b > a for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 1.0
    assert 1.0 - acc[-1] < 1e-7
    assert 1.0 - es[-1] < 0.005
