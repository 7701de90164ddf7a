"""Builders and renderers for the three bundled benchmark tables.

Table 1 compares exact and leading-order expected functionals for three
normal studies; table 2 does the same for the expected posterior
variance in Poisson-gamma and Bernoulli-uniform studies; table 3 runs
the seeded simulation harness for the exponential-rate study next to its
quadrature oracle and the leading-order values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .criteria import asymptotic_functional
from .errors import DomainError
from .exact import (
    RATE_PRIOR,
    exact_bernoulli_variance,
    exact_normal,
    exact_poisson_variance,
    expbeta_expected_many,
)
from .functionals import (
    CenteredIntervalMass,
    CredibleLength,
    Functional,
    HpdLower,
    HpdUpper,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
)
from .models import Bernoulli, ExponentialRate, NormalKnownVariance, Poisson
from .montecarlo import simulate_many

__all__ = [
    "TableRow",
    "NORMAL_STUDY",
    "POISSON_STUDY",
    "BERNOULLI_STUDY",
    "RATE_STUDY",
    "TABLE_NS",
    "DEFAULT_ALPHA",
    "DEFAULT_LEVEL",
    "DEFAULT_SEED",
    "DEFAULT_REPLICATES",
    "CSV_HEADER",
    "build_table",
    "render_csv",
    "render_text",
]

# Study definitions: three parameter rows per table, four sample sizes.
NORMAL_STUDY = (
    ("eta1", 0.5, 0.25, 0.20, 0.30),
    ("eta2", 5.0, 3.50, 2.50, 3.00),
    ("eta3", 25.0, 20.0, 18.0, 15.0),
)  # (label, theta0, mu0, sigma2, tau2)
POISSON_STUDY = (
    ("eta1", 0.5, 2.5, 3.5),
    ("eta2", 1.6, 8.0, 7.5),
    ("eta3", 1.5, 10.0, 12.0),
)  # (label, theta0, a, b)
BERNOULLI_STUDY = (("eta1", 0.20), ("eta2", 0.50), ("eta3", 0.75))
RATE_STUDY = (0.25, 0.50, 0.75)
TABLE_NS = (10, 30, 50, 100)

DEFAULT_ALPHA = 0.05
DEFAULT_LEVEL = 0.95
DEFAULT_SEED = 20060301
DEFAULT_REPLICATES = 1000

CSV_HEADER = "criterion,model,params,theta0,n,g_hat,g_hat_se,g_exact,g_star"


@dataclass(frozen=True)
class TableRow:
    """One table cell family: a criterion evaluated for one study at one n.

    At least one of ``g_hat`` (simulated) and ``g_exact`` (closed form or
    quadrature oracle) accompanies the leading-order ``g_star``.
    """

    criterion: str
    model: str
    label: str
    params: str
    theta0: float
    n: int
    g_hat: float | None
    g_hat_se: float | None
    g_exact: float | None
    g_star: float

    def __post_init__(self):
        if self.g_hat is None and self.g_exact is None:
            raise DomainError("a table row needs g_hat or g_exact next to g_star")


def _normal_rows() -> list[TableRow]:
    rows = []
    for label, theta0, mu0, sigma2, tau2 in NORMAL_STUDY:
        family = NormalKnownVariance(sigma2)
        params = f"sigma2={sigma2!r};mu0={mu0!r};tau2={tau2!r}"
        for n in TABLE_NS:
            per_criterion: list[tuple[str, Functional]] = [
                ("apvc", PosteriorVariance()),
                ("alc-quantile", PosteriorQuantile(DEFAULT_ALPHA)),
                ("acc", CenteredIntervalMass(theta0 / 10.0)),
            ]
            for name, functional in per_criterion:
                exact = exact_normal(functional, sigma2, mu0, tau2, theta0, n)
                star = asymptotic_functional(functional, family, theta0, n)
                rows.append(
                    TableRow(name, "normal", label, params, theta0, n, None, None,
                             exact.value, star)
                )
    return rows


def _conjugate_rows() -> list[TableRow]:
    rows = []
    for label, theta0, a, b in POISSON_STUDY:
        family = Poisson()
        params = f"a={a!r};b={b!r}"
        for n in TABLE_NS:
            exact = exact_poisson_variance(a, b, theta0, n)
            star = asymptotic_functional(PosteriorVariance(), family, theta0, n)
            rows.append(
                TableRow("apvc", "poisson", label, params, theta0, n, None, None,
                         exact.value, star)
            )
    for label, theta0 in BERNOULLI_STUDY:
        family = Bernoulli()
        params = "a=1;b=1"
        for n in TABLE_NS:
            exact = exact_bernoulli_variance(theta0, n)
            star = asymptotic_functional(PosteriorVariance(), family, theta0, n)
            rows.append(
                TableRow("apvc", "bernoulli", label, params, theta0, n, None, None,
                         exact.value, star)
            )
    return rows


_RATE_FUNCTIONALS: tuple[tuple[str, Functional], ...] = (
    ("apvc", PosteriorVariance()),
    ("alc", CredibleLength(DEFAULT_ALPHA)),
    ("hpd-lo", HpdLower(DEFAULT_LEVEL)),
    ("hpd-hi", HpdUpper(DEFAULT_LEVEL)),
    ("hpd-width", HpdWidth(DEFAULT_LEVEL)),
)


def _rate_rows(m: int, seed: int) -> list[TableRow]:
    family = ExponentialRate()
    prior = RATE_PRIOR
    params = f"a={prior.a!r};b={prior.b!r}"
    names = [name for name, _ in _RATE_FUNCTIONALS]
    functionals = [functional for _, functional in _RATE_FUNCTIONALS]
    rows = []
    for theta0 in RATE_STUDY:
        for n in TABLE_NS:
            estimates = simulate_many(family, prior, theta0, n, m, functionals, seed)
            oracles = expbeta_expected_many(functionals, theta0, n, prior)
            for name, functional, est, oracle in zip(
                names, functionals, estimates, oracles
            ):
                star = asymptotic_functional(functional, family, theta0, n)
                rows.append(
                    TableRow(name, "exp", f"theta0={theta0!r}", params, theta0, n,
                             est.mean, est.std_err, oracle.value, star)
                )
    return rows


def build_table(
    which: int,
    *,
    m: int = DEFAULT_REPLICATES,
    seed: int = DEFAULT_SEED,
) -> list[TableRow]:
    """Rows of benchmark table 1, 2, or 3.

    Tables 1 and 2 are deterministic; table 3 additionally runs the
    seeded simulation harness with ``m`` replicates.
    """
    if which == 1:
        return _normal_rows()
    if which == 2:
        return _conjugate_rows()
    if which == 3:
        return _rate_rows(m, seed)
    raise DomainError(f"unknown table index {which!r}; expected 1, 2, or 3")


def _csv_cell(x: float | None) -> str:
    return "" if x is None else repr(x)


def render_csv(rows: list[TableRow]) -> str:
    """CSV with the pinned schema; floats use repr so parsing restores
    the exact values."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.criterion,
                    r.model,
                    r.params,
                    repr(r.theta0),
                    str(r.n),
                    _csv_cell(r.g_hat),
                    _csv_cell(r.g_hat_se),
                    _csv_cell(r.g_exact),
                    _csv_cell(r.g_star),
                )
            )
        )
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[TableRow]:
    """Inverse of :func:`render_csv`, for round-trip checks and reuse."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 9:
            raise DomainError(f"malformed CSV row: {line!r}")
        criterion, model, params, theta0, n, g_hat, g_se, g_exact, g_star = parts
        rows.append(
            TableRow(
                criterion,
                model,
                "",
                params,
                float(theta0),
                int(n),
                float(g_hat) if g_hat else None,
                float(g_se) if g_se else None,
                float(g_exact) if g_exact else None,
                float(g_star),
            )
        )
    return rows


def _paired(cell_left: float, cell_right: float) -> str:
    return f"{cell_left:.4f} ({cell_right:.4f})"


def _render_text_12(rows: list[TableRow]) -> str:
    criteria = []
    for r in rows:
        if r.criterion not in criteria:
            criteria.append(r.criterion)
    by_key: dict[tuple[str, str, int], dict[str, TableRow]] = {}
    order: list[tuple[str, str, int]] = []
    for r in rows:
        key = (r.model, r.label, r.n)
        if key not in by_key:
            by_key[key] = {}
            order.append(key)
        by_key[key][r.criterion] = r

    width = 20
    header = f"{'model':<10} {'study':<6} {'n':>4}  " + "  ".join(
        f"{name:<{width}}" for name in criteria
    )
    lines = [header.rstrip()]
    for key in order:
        model, label, n = key
        cells = []
        for name in criteria:
            r = by_key[key].get(name)
            cells.append("" if r is None else _paired(r.g_exact, r.g_star))
        line = f"{model:<10} {label:<6} {n:>4}  " + "  ".join(
            f"{cell:<{width}}" for cell in cells
        )
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def _render_text_3(rows: list[TableRow]) -> str:
    header = (
        f"{'theta0':<8} {'n':>4} {'criterion':<10} {'g_hat (g_star)':<20} "
        f"{'std_err':<10} {'oracle':<8}"
    )
    lines = [header.rstrip()]
    for r in rows:
        lines.append(
            f"{r.theta0:<8.2f} {r.n:>4} {r.criterion:<10} "
            f"{_paired(r.g_hat, r.g_star):<20} {r.g_hat_se:<10.5f} {r.g_exact:<8.4f}".rstrip()
        )
    return "\n".join(lines) + "\n"


def render_text(rows: list[TableRow]) -> str:
    """Aligned text with the reference layout: ``exact (leading-order)``
    cells for the deterministic tables, simulated cells plus oracle for
    the rate study."""
    if rows and rows[0].g_hat is not None:
        return _render_text_3(rows)
    return _render_text_12(rows)
