"""Command-line front end.

Four subcommands: ``size`` solves for the minimal sample size, ``eval``
compares the leading-order value with the exact one at a given n,
``simulate`` runs the seeded Monte Carlo harness, and ``table`` rebuilds
one of the bundled benchmark tables.  Results go to stdout (or ``--out``);
diagnostics go to stderr.  Exit codes: 0 success, 1 usage or domain
error, 2 criterion unsatisfiable, 3 numerical-accuracy failure.

``main`` parses a call with its command's own parser; the top-level
parser serves help and mistakes, so each keeps its usage (``_parse``).
It merges the flags with the config file and the defaults (``_merge``),
then ``_resolve`` checks every input the subcommand uses and builds its
objects once, before any work; each ``_cmd_*`` only computes and formats.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .criteria import (
    Acc,
    Alc,
    Apvc,
    EffectSize,
    asymptotic_functional,
    min_sample_size,
)
from .errors import (
    AccuracyError,
    BayesSizeError,
    CriterionUnsatisfiableError,
    DomainError,
    ReplicateError,
    UnsupportedShapeError,
    integer,
)
from .exact import (
    RATE_PRIOR,
    check_rate_study,
    exact_bernoulli_variance,
    exact_normal,
    exact_poisson_variance,
    expbeta_expected,
)
from .functionals import (
    CenteredIntervalMass,
    CredibleLength,
    Functional,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
)
from .models import (
    Bernoulli,
    BetaPrior,
    ExponentialRate,
    GammaPrior,
    LikelihoodFamily,
    NormalKnownVariance,
    NormalPrior,
    Poisson,
    normal_posterior_variance,
    suffstat_sampler,
)
from .montecarlo import simulate_g
from .randomness import check_seed
from .tables import (
    DEFAULT_ALPHA,
    DEFAULT_REPLICATES,
    DEFAULT_SEED,
    TableRow,
    build_table,
    render_csv,
    render_text,
)

__all__ = ["main"]


class _UsageError(Exception):
    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(message, self.format_usage())


# Every option, once: the flag ``--key`` takes these add_argument keywords,
# and a config-file ``key = value`` gets the same type and choices.
_OPTIONS: dict[str, dict] = {
    "model": {"choices": ("normal", "poisson", "bernoulli", "exp")},
    **{key: {"type": float}
       for key in ("sigma2", "mu0", "tau2", "a", "b", "eps", "len", "alpha", "theta1", "theta0")},
    "criterion": {"choices": ("apvc", "acc", "alc", "alc-quantile", "es")},
    "range": {"metavar": "LO:HI"},
    **{key: {"type": int} for key in ("n", "m", "seed")},
    "format": {"choices": ("text", "csv")},
    "out": {},
    "fresh-seed": {"action": "store_const", "const": True},
}
# What an option holds when neither a flag nor the config file gives it; any
# other option holds None.
_DEFAULTS = {
    "alpha": DEFAULT_ALPHA, "m": DEFAULT_REPLICATES, "seed": DEFAULT_SEED,
    "format": "text", "fresh_seed": False,
}
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _add_options(sub: argparse.ArgumentParser):
    for key, spec in _OPTIONS.items():
        sub.add_argument(f"--{key}", **spec)
    sub.add_argument("--config", default=None)


@functools.cache  # built on first use, then shared: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="bayessize", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    parser.commands = subs.choices  # name -> the command's parser, for _parse
    for name in ("size", "eval", "simulate"):
        _add_options(subs.add_parser(name))
    table = subs.add_parser("table")
    table.add_argument("which", type=int)
    _add_options(table)
    return parser


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, raw: str):
    spec = _OPTIONS.get(key)
    if spec is None:
        raise _UsageError(f"unknown config key {key!r}")
    if spec.get("action") == "store_const":
        if raw.lower() not in _BOOLEANS:
            raise _UsageError(f"config value for {key!r}: not a boolean: {raw!r}")
        return _BOOLEANS[raw.lower()]
    try:
        value = spec.get("type", str)(raw)
    except ValueError as exc:
        raise _UsageError(f"config value for {key!r}: {exc}")
    if "choices" in spec and value not in spec["choices"]:
        raise _UsageError(
            f"config value for {key!r}: {raw!r} is not one of {', '.join(spec['choices'])}"
        )
    return value


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Fill ``args`` in place: a flag wins over a config-file value, which
    wins over ``_DEFAULTS``."""
    config = _parse_config_file(args.config) if args.config else {}
    for key, raw in config.items():
        value, dest = _coerce(key, raw), key.replace("-", "_")  # argparse's dest for --key
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    for dest, value in _DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    if args.fresh_seed:
        import secrets  # hmac and hashlib, loaded only for a fresh seed

        args.seed = secrets.randbits(63)
    return args


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"missing required flag --{flag}")
    return value


def _family(settings: argparse.Namespace) -> LikelihoodFamily:
    model = _require(settings.model, "model")
    if model == "normal":
        return NormalKnownVariance(_require(settings.sigma2, "sigma2"))
    return {"poisson": Poisson, "bernoulli": Bernoulli, "exp": ExponentialRate}[model]()


def _prior(settings: argparse.Namespace):
    """Prior for the chosen model, with the study defaults filled in."""
    model = settings.model
    if model == "normal":
        return NormalPrior(_require(settings.mu0, "mu0"), _require(settings.tau2, "tau2"))
    if model == "poisson":
        return GammaPrior(_require(settings.a, "a"), _require(settings.b, "b"))
    default = RATE_PRIOR if model == "exp" else BetaPrior(1.0, 1.0)
    a, b = settings.a, settings.b
    return BetaPrior(default.a if a is None else a, default.b if b is None else b)


def _parse_range(raw: str | None) -> tuple[float, float]:
    raw = _require(raw, "range")
    lo_text, sep, hi_text = raw.partition(":")
    if not sep:
        raise _UsageError(f"--range expects LO:HI, got {raw!r}")
    try:
        return float(lo_text), float(hi_text)
    except ValueError:
        raise _UsageError(f"--range expects numeric LO:HI, got {raw!r}") from None


def _criterion_object(settings: argparse.Namespace):
    name = _require(settings.criterion, "criterion")
    lo, hi = _parse_range(settings.range)
    if name == "apvc":
        return Apvc(_require(settings.eps, "eps"), lo, hi)
    if name == "acc":
        return Acc(_require(settings.len, "len"), settings.alpha, lo, hi)
    if name == "alc":
        return Alc(_require(settings.len, "len"), settings.alpha, lo, hi)
    if name == "es":
        return EffectSize(_require(settings.theta1, "theta1"), settings.alpha, lo, hi)
    raise _UsageError(f"criterion {name!r} has no sample-size form")


def _functional_object(settings: argparse.Namespace) -> Functional:
    name = _require(settings.criterion, "criterion")
    if name == "apvc":
        return PosteriorVariance()
    if name == "acc":
        return CenteredIntervalMass(_require(settings.len, "len"))
    if name == "alc":
        return CredibleLength(settings.alpha)
    if name == "alc-quantile":
        return PosteriorQuantile(settings.alpha)
    return TailMassAbove(_require(settings.theta1, "theta1"))


def _exact(settings: argparse.Namespace):
    """The exact value of the expected functional as a function of no
    arguments, or None where there is none to print."""
    model, functional, prior = settings.model, settings.goal, settings.prior
    cell = (settings.theta0, settings.n)
    if model == "normal":
        return functools.partial(exact_normal, functional, settings.sigma2, prior.mu0,
                                 prior.tau2, *cell)
    if model == "exp":  # a simulated rate cell is printed without its quadrature oracle
        return None if settings.command == "simulate" else functools.partial(
            expbeta_expected, functional, *cell, prior)
    # The Poisson and Bernoulli closed forms are posterior variances only,
    # the latter under the uniform prior.
    if not isinstance(functional, PosteriorVariance):
        return None
    if model == "poisson":
        return functools.partial(exact_poisson_variance, prior.a, prior.b, *cell)
    if prior == BetaPrior(1.0, 1.0):
        return functools.partial(exact_bernoulli_variance, *cell)
    return None


def _resolve(settings: argparse.Namespace) -> argparse.Namespace:
    """Check every input the command uses and build, once, what it computes
    with, as attributes of ``settings``: the ``goal`` (the criterion for
    ``size``, else the functional) and the ``family``; for ``eval`` and
    ``simulate`` also the leading-order ``g_star``, whose evaluation checks
    ``theta0`` against the family's domain and ``n`` against the largest
    float, the ``prior`` and ``exact`` (see :func:`_exact`); for
    ``simulate`` also numpy's sampler limits, ``m`` and the seed.
    ``table`` leaves its index, ``m`` and seed to ``build_table``."""
    command = settings.command
    if command == "table":
        return settings
    settings.goal = (_criterion_object if command == "size" else _functional_object)(settings)
    family = settings.family = _family(settings)
    if command == "size":
        if settings.format == "csv":
            raise DomainError("a sample size has no csv row; --format csv serves eval, "
                              "simulate and table, use text output for size")
        return settings
    theta0 = _require(settings.theta0, "theta0")
    n = integer("--n", _require(settings.n, "n"))
    settings.g_star = asymptotic_functional(settings.goal, family, theta0, n)
    settings.prior = _prior(settings)
    if settings.model == "exp":
        check_rate_study(theta0, settings.prior)
    elif settings.model == "normal":
        normal_posterior_variance(family.sigma2, settings.prior.tau2, n)
    if command == "simulate":
        suffstat_sampler(family, theta0, n)
        integer("--m", settings.m, 2)
        check_seed("--seed", settings.seed)
    settings.exact = _exact(settings)
    if command == "eval" and settings.format == "csv" and settings.exact is None:
        raise DomainError("no exact value for this model and functional; a csv row "
                          "needs one next to g_star, use text output instead")
    return settings


def _csv_row(settings: argparse.Namespace, estimate=None) -> str:
    """The CSV of an ``eval`` cell, or of a ``simulate`` one with its ``estimate``."""
    prior = settings.prior
    params = (f"sigma2={settings.sigma2!r};mu0={prior.mu0!r};tau2={prior.tau2!r}"
              if settings.model == "normal" else f"a={prior.a!r};b={prior.b!r}")
    g_hat, g_hat_se = (None, None) if estimate is None else (estimate.mean, estimate.std_err)
    g_exact = None if settings.exact is None else settings.exact().value
    return render_csv([TableRow(settings.criterion, settings.model, "", params,
                                settings.theta0, settings.n, g_hat, g_hat_se, g_exact,
                                settings.g_star)])


def _cmd_size(settings: argparse.Namespace) -> str:
    result = min_sample_size(settings.goal, settings.family)
    return f"n_min={result.n_min}\nn_real={result.n_real!r}\ninf_info={result.inf_info!r}\n"


def _cmd_eval(settings: argparse.Namespace) -> str:
    if settings.format == "csv":
        return _csv_row(settings)
    star = settings.g_star
    if settings.exact is None:
        return f"g_star={star!r}\n"
    exact = settings.exact().value
    return f"g_exact={exact!r}\ng_star={star!r}\ndiff={exact - star!r}\n"


def _cmd_simulate(settings: argparse.Namespace) -> str:
    estimate = simulate_g(settings.family, settings.prior, settings.theta0, settings.n,
                          settings.m, settings.goal, settings.seed)
    if settings.format == "csv":
        return _csv_row(settings, estimate)
    return (f"mean={estimate.mean!r}\nstd_err={estimate.std_err!r}\n"
            f"m={estimate.replicates}\nseed={estimate.seed}\n")


def _cmd_table(settings: argparse.Namespace) -> str:
    rows = build_table(settings.which, m=settings.m, seed=settings.seed)
    if settings.format == "csv":
        return render_csv(rows)
    return render_text(rows)


_COMMANDS = {
    "size": _cmd_size,
    "eval": _cmd_eval,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, by the command's own parser
    alone when ``argv`` starts with a command word and leaves nothing over."""
    parser = _build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        settings, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return settings
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a negative LO ("--range -0.55:-0.26") as a flag; the
    # "--range=LO:HI" form parses either sign.  A following option is left
    # alone, so a missing value is still reported as one.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--range" and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
    try:
        settings = _resolve(_merge(_parse(argv)))
        text = _COMMANDS[settings.command](settings)
    except _UsageError as exc:
        if exc.usage:
            sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CriterionUnsatisfiableError as exc:
        sys.stderr.write(f"error: criterion unsatisfiable: {exc}\n")
        return 2
    except (AccuracyError, UnsupportedShapeError, ReplicateError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BayesSizeError as exc:  # domain and configuration errors among them
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _emit(text, settings.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
