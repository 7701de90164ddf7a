"""Sample size planning for Bayesian posterior accuracy criteria.

The package answers three related questions for one-parameter models:
how many observations guarantee a posterior accuracy target on average
(:mod:`bayessize.criteria`), what the exact expected posterior summaries
are for the bundled conjugate studies (:mod:`bayessize.exact`), and how
simulated estimates behave next to both (:mod:`bayessize.montecarlo`).
Leading-order expansion terms live in :mod:`bayessize.expansions`, the
underlying scalar kernels in :mod:`bayessize.specfun`, the model layer
in :mod:`bayessize.models`, and the gamma, beta and rate posteriors, as
blocks of rows, in :mod:`bayessize.blocks`.  ``bayessize table 1|2|3``
on the command line rebuilds the bundled benchmark tables.

numpy is loaded on the first array work (a simulation, the rate oracle
or a block posterior), not by importing the package, so sizing and
closed-form evaluation run without it.
"""

from .criteria import (
    Acc,
    Alc,
    Apvc,
    EffectSize,
    SampleSizeResult,
    min_sample_size,
)
from .errors import (
    AccuracyError,
    BayesSizeError,
    ConfigurationError,
    CriterionUnsatisfiableError,
    DomainError,
    ReplicateError,
    UnsupportedShapeError,
)
from .functionals import (
    CenteredIntervalMass,
    CredibleLength,
    HpdLower,
    HpdUpper,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
)
from .models import (
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
from .montecarlo import MonteCarloEstimate, SeededGenerator, simulate_g, simulate_many

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Acc",
    "Alc",
    "Apvc",
    "EffectSize",
    "SampleSizeResult",
    "min_sample_size",
    "AccuracyError",
    "BayesSizeError",
    "ConfigurationError",
    "CriterionUnsatisfiableError",
    "DomainError",
    "ReplicateError",
    "UnsupportedShapeError",
    "CenteredIntervalMass",
    "CredibleLength",
    "HpdLower",
    "HpdUpper",
    "HpdWidth",
    "PosteriorQuantile",
    "PosteriorVariance",
    "TailMassAbove",
    "Bernoulli",
    "BetaPrior",
    "ExponentialRate",
    "GammaPrior",
    "NormalKnownVariance",
    "NormalPrior",
    "Poisson",
    "SufficientStat",
    "posterior",
    "sample_suffstat",
    "MonteCarloEstimate",
    "SeededGenerator",
    "simulate_g",
    "simulate_many",
]
