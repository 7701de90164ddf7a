"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Claims 1-3 diff the deterministic benchmark tables against the printed
reference cells, claim 4 scores the seeded simulation column, and the
rest pin the asymptotic laws, the solvers, the numerical kernels, and
byte-level determinism.

Claim 4 currently fails and is left failing on purpose: the seeded run
agrees with the independent quadrature oracle in every cell (worst gap
under two standard errors), but the reference's own simulated column
sits 10-40% above both for most cells with theta0 = 0.25 and for every
posterior-variance cell.  Hiding that disagreement behind a looser
tolerance would defeat the point of the gate; the failure message
carries the full per-cell diff instead.
"""

import dataclasses
import math
import time

import mpmath
import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.stats import beta as beta_dist

from bayessize.cli import main
from bayessize.criteria import Acc, Alc, Apvc, EffectSize, asymptotic_functional, min_sample_size
from bayessize.exact import (
    exact_normal,
    expbeta_expected,
    normal_expected_density_at_truth,
    normal_expected_density_sq_at_truth,
)
from bayessize.expansions import (
    expected_density_at_truth,
    expected_density_sq_at_truth,
    expected_posterior_quantile,
)
from bayessize.functionals import (
    CredibleLength,
    HpdWidth,
    PosteriorQuantile,
    PosteriorVariance,
)
from bayessize.models import (
    Bernoulli,
    BetaPosterior,
    BetaPrior,
    ExponentialRate,
    NormalKnownVariance,
    Poisson,
)
from bayessize.specfun import (
    gaussian_product_expectation,
    hermite_poly,
    normal_abs_moment,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from bayessize.tables import NORMAL_STUDY, build_table, render_csv
from reference_tables import TABLE1, TABLE2, TABLE3, printed_match


def test_criterion_1_normal_table_reproduces_printed_cells():
    start = time.perf_counter()
    rows = build_table(1)
    elapsed = time.perf_counter() - start
    by = {(r.criterion, r.theta0, r.n): r for r in rows}
    misses = []
    for (theta0, n), cells in TABLE1.items():
        for criterion, (exact, star) in cells.items():
            row = by[(criterion, theta0, n)]
            if not printed_match(row.g_exact, exact):
                misses.append(
                    f"{criterion} theta0={theta0} n={n}: exact {row.g_exact:.5f} vs {exact}"
                )
            if not printed_match(row.g_star, star):
                misses.append(
                    f"{criterion} theta0={theta0} n={n}: leading {row.g_star:.5f} vs {star}"
                )
    assert not misses, "\n".join(misses)
    assert elapsed < 1.0


def test_criterion_2_conjugate_table_reproduces_printed_cells():
    start = time.perf_counter()
    rows = build_table(2)
    elapsed = time.perf_counter() - start
    by = {(r.model, r.theta0, r.n): r for r in rows}
    misses = []
    for (model, theta0, n), (exact, star) in TABLE2.items():
        row = by[(model, theta0, n)]
        if not printed_match(row.g_exact, exact):
            misses.append(f"{model} theta0={theta0} n={n}: exact {row.g_exact:.5f} vs {exact}")
        if not printed_match(row.g_star, star):
            misses.append(f"{model} theta0={theta0} n={n}: leading {row.g_star:.5f} vs {star}")
    assert not misses, "\n".join(misses)
    assert elapsed < 1.0


def test_criterion_3_rate_table_leading_order_column():
    # Interval cells compare by width: the reference centers its printed
    # intervals differently, so endpoints are not commensurable, and the
    # printed width itself carries up to one unit of endpoint rounding.
    start = time.perf_counter()
    fam = ExponentialRate()
    misses = []
    for (theta0, n), cells in TABLE3.items():
        lo, hi = cells["hpd_asym"]
        checks = (
            ("apvc", asymptotic_functional(PosteriorVariance(), fam, theta0, n), cells["var"][1]),
            ("alc", asymptotic_functional(CredibleLength(0.05), fam, theta0, n), cells["alc"][1]),
            ("hpd width", asymptotic_functional(HpdWidth(0.95), fam, theta0, n), hi - lo),
        )
        for name, got, printed in checks:
            if not printed_match(got, printed):
                misses.append(f"{name} theta0={theta0} n={n}: {got:.5f} vs {printed:.4f}")
    elapsed = time.perf_counter() - start
    assert not misses, "\n".join(misses)
    assert elapsed < 1.0


def test_criterion_4_rate_table_simulated_column():
    start = time.perf_counter()
    rows = build_table(3)  # m=1000 replicates under the default seed
    elapsed = time.perf_counter() - start
    by = {(r.criterion, r.theta0, r.n): r for r in rows}

    # First clause: the seeded mean must sit within 3.5 combined standard
    # errors of the quadrature oracle for every cell and functional.  The
    # oracle itself is good to 1e-5 relative, negligible next to the
    # Monte Carlo error, so the band is 3.5 times the simulation se.
    oracle_misses = []
    for (criterion, theta0, n), r in sorted(by.items()):
        gap = abs(r.g_hat - r.g_exact)
        if gap > 3.5 * r.g_hat_se:
            oracle_misses.append(
                f"{criterion:9s} theta0={theta0:.2f} n={n:3d}: simulated {r.g_hat:.5f}"
                f" vs oracle {r.g_exact:.5f}, gap {gap / r.g_hat_se:.2f} se"
            )

    # Second clause: agreement with the printed reference cells for
    # n >= 30 within max(10%, 3.5 se); the n=10 rows are reported but not
    # scored.  Interval endpoints enter through their width only.
    reference_misses, informational = [], []
    for (theta0, n), cells in sorted(TABLE3.items()):
        emp_lo, emp_hi = cells["hpd_emp"]
        scored = (
            ("apvc", cells["var"][0]),
            ("alc", cells["alc"][0]),
            ("hpd-width", emp_hi - emp_lo),
        )
        for criterion, printed in scored:
            r = by[(criterion, theta0, n)]
            tol = max(0.10 * printed, 3.5 * r.g_hat_se)
            gap = abs(r.g_hat - printed)
            if gap <= tol:
                continue
            line = (
                f"{criterion:9s} theta0={theta0:.2f} n={n:3d}: simulated {r.g_hat:.4f},"
                f" printed {printed:.4f}, gap {gap:.4f} > allowed {tol:.4f}"
            )
            (informational if n == 10 else reference_misses).append(line)

    assert elapsed < 120.0
    lines = [
        f"vs quadrature oracle, 3.5 combined se: {60 - len(oracle_misses)}/60 cells agree",
        *oracle_misses,
        "vs printed reference, n >= 30, max(10%, 3.5 se), intervals by width: "
        f"{27 - len(reference_misses)}/27 cells agree",
        *reference_misses,
    ]
    if informational:
        lines.append("n=10 cells outside the same band, informational only:")
        lines.extend(informational)
    assert not oracle_misses and not reference_misses, "\n".join(lines)


def test_criterion_5_oracle_variance_approaches_first_order_limit():
    # n times the expected posterior variance tends to theta0^2, the
    # reciprocal information of the rate family.
    for theta0 in (0.25, 0.5, 0.75):
        val = expbeta_expected(PosteriorVariance(), theta0, 10_000, BetaPrior(1.5, 1.5))
        assert 10_000 * val.value == pytest.approx(theta0**2, rel=0.02)


def test_criterion_6_expansion_gap_laws():
    for _, theta0, mu0, sigma2, tau2 in NORMAL_STUDY:
        fam = NormalKnownVariance(sigma2)

        # root-n scaled gap between the expanded and exact expected
        # quantile stays bounded (the raw gap decays like 1/n)
        gaps = []
        for n in (100, 1_000, 10_000):
            approx = expected_posterior_quantile(fam, theta0, n, 0.05)
            exact = exact_normal(PosteriorQuantile(0.05), sigma2, mu0, tau2, theta0, n).value
            gaps.append(math.sqrt(n) * abs(approx - exact))
        assert all(math.isfinite(g) for g in gaps)
        assert max(gaps) < 1.0
        assert gaps[0] > gaps[1] > gaps[2]

        # expected density at the truth and its square: the convolution
        # oracle over the leading term approaches one monotonically
        for oracle_fn, term_fn in (
            (normal_expected_density_at_truth, expected_density_at_truth),
            (normal_expected_density_sq_at_truth, expected_density_sq_at_truth),
        ):
            ratios = [
                oracle_fn(sigma2, mu0, tau2, theta0, n) / term_fn(fam, theta0, n)
                for n in (100, 1_000, 10_000)
            ]
            assert 0.98 <= ratios[0] <= 1.02
            deltas = [abs(r - 1.0) for r in ratios]
            assert deltas[0] > deltas[1] > deltas[2]


# ---------------------------------------------------------------------------
# solver claim


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
        return Acc(float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.01, 0.3)), lo, hi), fam
    if kind == "alc":
        return Alc(float(rng.uniform(0.02, 1.0)), float(rng.uniform(0.01, 0.3)), lo, hi), fam
    if isinstance(fam, NormalKnownVariance):
        theta1 = lo - float(rng.uniform(0.05, 0.5))
    else:
        theta1 = lo * float(rng.uniform(0.2, 0.8))
    return EffectSize(theta1, float(rng.uniform(0.01, 0.3)), lo, hi), fam


def _satisfied(criterion, inf_info, n):
    """The defining inequality, re-evaluated from its forward closed form."""
    if isinstance(criterion, Apvc):
        return 1.0 / (n * inf_info) <= criterion.eps * (1.0 + 1e-9)
    if isinstance(criterion, Acc):
        mass = 2.0 * std_normal_cdf(0.5 * criterion.length * math.sqrt(n * inf_info)) - 1.0
        return mass >= 1.0 - criterion.alpha - 1e-9
    if isinstance(criterion, Alc):
        spread = std_normal_quantile(1.0 - 0.5 * criterion.alpha) - std_normal_quantile(
            0.5 * criterion.alpha
        )
        return spread / math.sqrt(n * inf_info) <= criterion.length * (1.0 + 1e-9)
    mass = std_normal_cdf(math.sqrt(0.5 * n * inf_info))
    return mass >= 1.0 - criterion.alpha - 1e-9


_SWEEPS = {
    "apvc": (("eps", np.geomspace(1e-4, 0.2, 20)),),
    "acc": (("length", np.geomspace(0.02, 1.0, 20)), ("alpha", np.linspace(0.01, 0.3, 20))),
    "alc": (("length", np.geomspace(0.02, 1.0, 20)), ("alpha", np.linspace(0.01, 0.3, 20))),
    "es": (("alpha", np.linspace(0.01, 0.3, 20)),),
}


def test_criterion_7_solver_minimality_and_monotonicity():
    for kind, seed in (("apvc", 1101), ("acc", 1102), ("alc", 1103), ("es", 1104)):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            criterion, fam = _random_criterion(kind, rng)
            res = min_sample_size(criterion, fam)
            assert res.n_min == math.ceil(res.n_real - 1e-9)
            assert _satisfied(criterion, res.inf_info, res.n_min), (criterion, fam)
            if res.n_min > 1:
                assert not _satisfied(criterion, res.inf_info, res.n_min - 1), (criterion, fam)

        # loosening any scalar must never push the solved size up
        for _ in range(10):
            criterion, fam = _random_criterion(kind, rng)
            for field, grid in _SWEEPS[kind]:
                sizes = [
                    min_sample_size(
                        dataclasses.replace(criterion, **{field: float(v)}), fam
                    ).n_min
                    for v in grid
                ]
                assert all(b <= a for a, b in zip(sizes, sizes[1:])), (criterion, fam, field)
                assert sizes[-1] < sizes[0] or sizes[0] == 1


def test_criterion_8_numerical_kernel_suite():
    # distribution function inversion in both directions
    probs = np.concatenate(
        [[1e-10, 1e-6], np.linspace(0.001, 0.999, 499), [1.0 - 1e-6, 1.0 - 1e-10]]
    )
    for p in probs:
        assert abs(std_normal_cdf(std_normal_quantile(float(p))) - p) <= 1e-9
    # the x round trip is capped at 5: beyond that the double nearest to
    # cdf(x) no longer carries 1e-9 worth of upper-tail information
    for x in np.linspace(-6.0, 5.0, 221):
        assert abs(std_normal_quantile(std_normal_cdf(float(x))) - x) <= 1e-9

    # even absolute moments are the odd double factorials
    for r in range(2, 13, 2):
        assert normal_abs_moment(r) == float(math.prod(range(r - 1, 0, -2)))

    # derivative identity: the r-th derivative of phi(sqrt(I) v) equals
    # H_r(v) phi(sqrt(I) v) for the signed recursion used here
    for info in (0.5, 2.0):
        root = math.sqrt(info)
        for order in (2, 3, 4):
            h = hermite_poly(order, info)
            for v in np.linspace(-2.0, 2.0, 9):
                got = h(float(v)) * std_normal_pdf(root * float(v))
                ref = float(mpmath.diff(lambda t: mpmath.npdf(root * t), float(v), order))
                assert got == pytest.approx(ref, abs=1e-5 * max(1.0, abs(ref)))

    # polynomial averages against the squared-density weight
    rng = np.random.default_rng(20060301)
    grid = np.linspace(-10.0, 10.0, 100_001)
    weight = np.exp(-grid * grid) / (2.0 * math.pi)
    for _ in range(10):
        coeffs = rng.uniform(-2.0, 2.0, size=int(rng.integers(0, 7)) + 1)
        ref = float(np.trapezoid(np.polyval(coeffs[::-1], grid) * weight, grid))
        assert gaussian_product_expectation(Polynomial(coeffs)) == pytest.approx(
            ref, abs=1e-8
        )

    # cumulative-table posterior against the closed-form beta law
    for a, b in ((1.5, 1.5), (2.0, 6.0), (7.5, 2.5), (3.25, 4.75)):
        post = BetaPosterior(a, b)
        oracle = beta_dist(a, b)
        for x in np.linspace(0.02, 0.98, 25):
            assert abs(post.cdf(float(x)) - oracle.cdf(x)) <= 1e-5
        for p in (0.025, 0.25, 0.5, 0.75, 0.975):
            assert abs(post.quantile(p) - oracle.ppf(p)) <= 1e-5


def test_criterion_9_repeat_invocations_are_byte_identical(capsys):
    argv = ["simulate", "--model", "exp", "--criterion", "apvc",
            "--theta0", "0.5", "--n", "20", "--m", "60"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    table_argv = ["table", "2", "--format", "csv"]
    assert main(table_argv) == 0
    table_first = capsys.readouterr().out
    assert main(table_argv) == 0
    assert capsys.readouterr().out == table_first

    one = render_csv(build_table(3, m=24, seed=20060301))
    two = render_csv(build_table(3, m=24, seed=20060301))
    assert one == two
