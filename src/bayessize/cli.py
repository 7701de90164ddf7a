"""Command-line front end.

Four subcommands: ``size`` solves for the minimal sample size, ``eval``
compares the leading-order value with the exact one at a given n,
``simulate`` runs the seeded Monte Carlo harness, and ``table`` rebuilds
one of the bundled benchmark tables.  Results go to stdout (or ``--out``);
diagnostics go to stderr.  Exit codes: 0 success, 1 usage or domain
error, 2 criterion unsatisfiable, 3 numerical-accuracy failure.
"""

from __future__ import annotations

import argparse
import functools
import secrets
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
    fisher_info,
)
from .montecarlo import simulate_g
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
    if model == "poisson":
        return Poisson()
    if model == "bernoulli":
        return Bernoulli()
    return ExponentialRate()


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


def _exact_value(settings: argparse.Namespace, functional: Functional, theta0: float, n: int):
    """Closed-form or oracle expectation where one exists, else None."""
    model = settings.model
    prior = _prior(settings)  # checked even where no exact value follows
    if model in ("poisson", "bernoulli") and not isinstance(functional, PosteriorVariance):
        return None  # their closed forms are posterior variances only
    if model == "normal":
        return exact_normal(functional, settings.sigma2, prior.mu0, prior.tau2, theta0, n)
    if model == "poisson":
        return exact_poisson_variance(prior.a, prior.b, theta0, n)
    if model == "exp":
        return expbeta_expected(functional, theta0, n, prior)
    if prior.a == 1.0 and prior.b == 1.0:
        return exact_bernoulli_variance(theta0, n)
    return None


def _cmd_size(settings: argparse.Namespace) -> str:
    result = min_sample_size(_criterion_object(settings), _family(settings))
    return (
        f"n_min={result.n_min}\n"
        f"n_real={result.n_real!r}\n"
        f"inf_info={result.inf_info!r}\n"
    )


def _params_text(settings: argparse.Namespace) -> str:
    model = settings.model
    if model == "normal":
        return f"sigma2={settings.sigma2!r};mu0={settings.mu0!r};tau2={settings.tau2!r}"
    prior = _prior(settings)
    return f"a={prior.a!r};b={prior.b!r}"


def _cmd_eval(settings: argparse.Namespace) -> str:
    functional = _functional_object(settings)
    family = _family(settings)
    theta0 = _require(settings.theta0, "theta0")
    n = integer("--n", _require(settings.n, "n"))
    star = asymptotic_functional(functional, family, theta0, n)
    exact = _exact_value(settings, functional, theta0, n)
    if settings.format == "csv":
        if exact is None:
            raise DomainError(
                "no exact value for this model and functional; a csv row "
                "needs one next to g_star, use text output instead"
            )
        row = TableRow(
            settings.criterion, settings.model, "", _params_text(settings),
            theta0, n, None, None, exact.value, star,
        )
        return render_csv([row])
    lines = []
    if exact is not None:
        lines.append(f"g_exact={exact.value!r}")
    lines.append(f"g_star={star!r}")
    if exact is not None:
        lines.append(f"diff={exact.value - star!r}")
    return "\n".join(lines) + "\n"


def _cmd_simulate(settings: argparse.Namespace) -> str:
    functional = _functional_object(settings)
    family = _family(settings)
    prior = _prior(settings)
    theta0 = _require(settings.theta0, "theta0")
    fisher_info(family, theta0)  # refuses a theta0 outside the domain as eval does
    n = _require(settings.n, "n")
    estimate = simulate_g(
        family, prior, theta0, n, settings.m, functional, settings.seed
    )
    if settings.format == "csv":
        star = asymptotic_functional(functional, family, theta0, n)
        # a simulated rate cell is printed without its quadrature oracle
        exact = None if settings.model == "exp" else _exact_value(settings, functional, theta0, n)
        row = TableRow(
            settings.criterion, settings.model, "", _params_text(settings), theta0, n,
            estimate.mean, estimate.std_err,
            None if exact is None else exact.value, star,
        )
        return render_csv([row])
    return (
        f"mean={estimate.mean!r}\n"
        f"std_err={estimate.std_err!r}\n"
        f"m={estimate.replicates}\n"
        f"seed={estimate.seed}\n"
    )


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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads a negative LO ("--range -0.55:-0.26") as a flag; the
    # "--range=LO:HI" form parses either sign.  A following option is left
    # alone, so a missing value is still reported as one.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--range" and not argv[i + 1].startswith("--"):
            argv[i : i + 2] = [f"--range={argv[i + 1]}"]
    try:
        settings = _merge(parser.parse_args(argv))
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
