"""Refusals of scalar arguments: the four rules of ``bayessize.errors``.

Every public constructor and checked argument refuses NaN and infinities,
and its rule's own bad values, with a ``DomainError`` that names the
argument and the value as given.
"""

import ast
import math
import re
from pathlib import Path

import pytest

import bayessize
from bayessize.criteria import (
    Acc,
    Alc,
    Apvc,
    EffectSize,
    asymptotic_functional,
)
from bayessize.errors import DomainError
from bayessize.exact import (
    exact_bernoulli_variance,
    exact_normal,
    exact_poisson_variance,
    expbeta_expected,
    normal_tail_mass_convolution,
)
from bayessize.expansions import expected_posterior_moment, expected_posterior_quantile
from bayessize.functionals import (
    CenteredIntervalMass,
    CredibleLength,
    HpdLower,
    HpdUpper,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
)
from bayessize.blocks import BetaPosterior, GammaPosterior
from bayessize.models import (
    BetaPrior,
    GammaPrior,
    NormalKnownVariance,
    NormalPosterior,
    NormalPrior,
    Poisson,
    SufficientStat,
    fisher_info,
    suffstat_sampler,
)
from bayessize.montecarlo import simulate_many
from bayessize.randomness import SeededGenerator
from bayessize.specfun import hermite_poly, normal_abs_moment, normal_moment, std_normal_pdf

_FINITE = (math.nan, math.inf, -math.inf)
_POSITIVE = _FINITE + (0.0, -2.5)
_OPEN_UNIT = _FINITE + (0.0, 1.0)
_COUNT = _FINITE + (True, 2.0, 0)  # an integer of at least 1
_ORDER = _FINITE + (True, 2.0, -1)  # an integer of at least 0

# (what is called, the name its message starts with, the bad values)
_REFUSALS = [
    (lambda v: NormalKnownVariance(v), "sigma2", _POSITIVE),
    (lambda v: NormalPrior(v, 1.0), "mu0", _FINITE),
    (lambda v: NormalPrior(0.0, v), "tau2", _POSITIVE),
    (lambda v: GammaPrior(v, 1.0), "a", _POSITIVE),
    (lambda v: GammaPrior(1.0, v), "b", _POSITIVE),
    (lambda v: BetaPrior(v, 1.0), "a", _POSITIVE),
    (lambda v: BetaPrior(1.0, v), "b", _POSITIVE),
    (lambda v: SufficientStat(v, 1.0), "n", _COUNT),
    (lambda v: SufficientStat(5, v), "s", _FINITE),
    (lambda v: NormalPosterior(v, 1.0), "mean_value", _FINITE),
    (lambda v: NormalPosterior(0.0, v), "variance_value", _POSITIVE),
    (lambda v: GammaPosterior(v, 1.0), "shape", _POSITIVE),
    (lambda v: GammaPosterior(1.0, v), "rate", _POSITIVE),
    (lambda v: BetaPosterior(v, 1.0), "a", _POSITIVE),
    (lambda v: BetaPosterior(1.0, v), "b", _POSITIVE),
    (lambda v: GammaPosterior(2.0, 3.0).quantile(v), "alpha", _OPEN_UNIT),
    (lambda v: BetaPosterior(2.0, 3.0).hpd(v), "level", _OPEN_UNIT),
    (lambda v: std_normal_pdf(v), "x", _FINITE),
    (lambda v: Apvc(v, 0.2, 0.8), "eps", _POSITIVE),
    (lambda v: Apvc(0.01, v, 0.8), "lo", _FINITE),
    (lambda v: Apvc(0.01, 0.2, v), "hi", _FINITE),
    (lambda v: Acc(v, 0.05, 0.2, 0.8), "length", _POSITIVE),
    (lambda v: Acc(0.1, v, 0.2, 0.8), "alpha", _OPEN_UNIT),
    (lambda v: Alc(v, 0.05, 0.2, 0.8), "length", _POSITIVE),
    (lambda v: Alc(0.1, v, 0.2, 0.8), "alpha", _OPEN_UNIT),
    (lambda v: EffectSize(v, 0.05, 0.2, 0.8), "theta1", _FINITE),
    (lambda v: EffectSize(0.9, v, 0.2, 0.8), "alpha", _OPEN_UNIT),
    (lambda v: PosteriorQuantile(v), "alpha", _OPEN_UNIT),
    (lambda v: CredibleLength(v), "alpha", _OPEN_UNIT),
    (lambda v: HpdLower(v), "level", _OPEN_UNIT),
    (lambda v: HpdUpper(v), "level", _OPEN_UNIT),
    (lambda v: HpdWidth(v), "level", _OPEN_UNIT),
    (lambda v: CenteredIntervalMass(v), "length", _POSITIVE),
    (lambda v: TailMassAbove(v), "theta1", _FINITE),
    # theta0 is checked against the family's domain by fisher_info(family, theta)
    (lambda v: asymptotic_functional(PosteriorVariance(), Poisson(), v, 10), "theta", _POSITIVE),
    (lambda v: asymptotic_functional(PosteriorVariance(), Poisson(), 0.5, v), "sample size",
     _POSITIVE),
    # A functional's own field is refused by its constructor (above), also on
    # the way into the leading-order evaluator; then four checks of their own.
    (lambda v: asymptotic_functional(CenteredIntervalMass(v), Poisson(), 0.5, 10), "length",
     _POSITIVE),
    (lambda v: expected_posterior_quantile(Poisson(), 0.5, 10, v), "alpha", _OPEN_UNIT),
    (lambda v: NormalPosterior(0.0, 1.0).quantile(v), "alpha", _OPEN_UNIT),
    (lambda v: normal_tail_mass_convolution(1.0, 0.0, 1.0, 0.0, 10, v), "theta1", _FINITE),
    (lambda v: NormalPosterior(0.0, 1.0).hpd(v), "level", _OPEN_UNIT),
    (lambda v: exact_normal(PosteriorVariance(), v, 0.0, 1.0, 0.0, 10), "sigma2", _POSITIVE),
    (lambda v: exact_normal(PosteriorVariance(), 1.0, v, 1.0, 0.0, 10), "mu0", _FINITE),
    (lambda v: exact_normal(PosteriorVariance(), 1.0, 0.0, v, 0.0, 10), "tau2", _POSITIVE),
    (lambda v: exact_normal(PosteriorVariance(), 1.0, 0.0, 1.0, v, 10), "theta0", _FINITE),
    (lambda v: exact_normal(PosteriorVariance(), 1.0, 0.0, 1.0, 0.0, v), "n", _POSITIVE),
    (lambda v: exact_poisson_variance(v, 3.5, 0.5, 10), "a", _POSITIVE),
    (lambda v: exact_poisson_variance(2.5, v, 0.5, 10), "b", _POSITIVE),
    (lambda v: exact_poisson_variance(2.5, 3.5, v, 10), "theta0", _POSITIVE),
    (lambda v: exact_poisson_variance(2.5, 3.5, 0.5, v), "n", _POSITIVE),
    (lambda v: exact_bernoulli_variance(v, 10), "theta0", _OPEN_UNIT),
    (lambda v: exact_bernoulli_variance(0.5, v), "n", _POSITIVE),
    (lambda v: expbeta_expected(PosteriorVariance(), v, 10), "theta0", _POSITIVE),
    (lambda v: expbeta_expected(PosteriorVariance(), 0.5, v), "n", _COUNT),
    (lambda v: simulate_many(Poisson(), GammaPrior(1.0, 1.0), 0.5, v, 10,
                             [PosteriorVariance()], seed=1), "n", _COUNT),
    (lambda v: simulate_many(Poisson(), GammaPrior(1.0, 1.0), 0.5, 10, v,
                             [PosteriorVariance()], seed=1), "m", _COUNT + (1,)),
    (lambda v: SeededGenerator(1, v), "stream_id", _FINITE + (True, 2.0, -1)),
    (lambda v: normal_moment(v), "order", _ORDER),
    (lambda v: hermite_poly(v, 1.0), "order", _ORDER),
    (lambda v: normal_abs_moment(v), "order", _FINITE),
]


@pytest.mark.parametrize(
    "call,name,values",
    [pytest.param(*case, id=f"{k}-{case[1]}") for k, case in enumerate(_REFUSALS)],
)
def test_every_checked_argument_names_itself_and_its_value(call, name, values):
    for bad in values:
        with pytest.raises(DomainError) as err:
            call(bad)
        message = str(err.value)
        assert message.startswith(f"{name} ") and repr(bad) in message, (bad, message)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SufficientStat(10, 10**400),
        lambda: GammaPrior(10**400, 1.0),
        lambda: BetaPrior(1.0, 10**400),
        lambda: exact_poisson_variance(2.5, 3.5, 0.5, 10**400),
        lambda: exact_normal(PosteriorVariance(), 1.0, 0.0, 1.0, 0.0, 10**400),
        lambda: asymptotic_functional(PosteriorVariance(), Poisson(), 0.5, 10**400),
        lambda: Apvc(0.01, 0.2, 10**400),
        lambda: TailMassAbove(-(10**400)),
        # theta checked against the family's domain
        lambda: fisher_info(Poisson(), 10**400),
        lambda: asymptotic_functional(PosteriorVariance(), Poisson(), 10**400, 10),
        lambda: suffstat_sampler(Poisson(), 10**400, 3),
    ],
)
def test_an_integer_too_large_for_a_float_is_refused_by_name(call):
    # float() raises OverflowError on these; the checks name the limit instead.
    limit = r"10{400} exceeds the largest float 1\.7976931348623157e\+308"
    with pytest.raises(DomainError, match=limit):
        call()


@pytest.mark.parametrize(
    "call,order",
    [
        (lambda: normal_abs_moment(1e300), "1e+300"),
        (lambda: normal_abs_moment(400.5), "400.5"),
        (lambda: normal_abs_moment(400), "400"),
        (lambda: normal_abs_moment(302), "302"),
        (lambda: normal_moment(302), "302"),
        (lambda: expected_posterior_moment(NormalKnownVariance(1.0), 0.0, 10, 400), "400"),
    ],
)
def test_a_normal_moment_too_large_for_a_float_is_refused_by_order(call, order):
    # The refusal comes before the double-factorial loop, which at order 1e300
    # would not end; order 301 is the largest whose moment a float holds.
    limit = re.escape(f"order {order} exceeds the largest float 1.7976931348623157e+308")
    with pytest.raises(DomainError, match=limit):
        call()
    assert math.isfinite(normal_abs_moment(301))


def test_no_module_imports_a_private_name_from_a_sibling():
    # What modules share goes through public names; a private one stays home.
    found = []
    for path in sorted(Path(bayessize.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bayessize"
            ):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
