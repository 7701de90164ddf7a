"""Command-line interface, exercised in process through ``main(argv)``.

Covers the four subcommands, the exit-code contract (0 ok, 1 usage or
domain, 2 unsatisfiable criterion, 3 numerical failure), stream
separation, config-file merging, CSV round-trips, and the printed-table
golden cells from ``reference_tables``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bayessize.cli as cli
from bayessize.cli import main
from bayessize.errors import AccuracyError, ReplicateError
from bayessize.exact import exact_normal, expbeta_expected
from bayessize.functionals import CredibleLength, PosteriorVariance
from bayessize.models import BetaPrior
from bayessize.tables import CSV_HEADER, build_table, parse_csv, render_csv
from reference_tables import TABLE1, TABLE2, printed_match

DEFAULT_SEED = 20060301


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test oracle only; importing it would double the CLI's start-up.
    # numpy imports numpy.random lazily and only a simulation needs it, so
    # sizing and closed-form runs never pay for loading it.  A simulation
    # split across processes forks them itself and loads no process pool.
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import os, sys, bayessize.cli, bayessize.montecarlo as mc\n"
        "print([m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')])\n"
        "mc._MIN_PER_PROCESS, forks, fork = 2, [], os.fork\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "os.fork = lambda: forks.append(0) or fork()\n"
        "code = bayessize.cli.main(['simulate', '--model', 'exp', '--criterion', 'apvc',"
        " '--theta0', '0.5', '--n', '5', '--m', '4', '--out', os.devnull])\n"
        "print(code, len(forks), [m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines() == ["[]", "0 1 []"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out):
    """Parse the key=value lines the text renderers emit."""
    pairs = {}
    for line in out.strip().splitlines():
        key, _, raw = line.partition("=")
        pairs[key] = raw
    return pairs


def one_row(rows, criterion, theta0, n):
    hits = [r for r in rows if r.criterion == criterion and r.theta0 == theta0 and r.n == n]
    assert len(hits) == 1
    return hits[0]


# ---------------------------------------------------------------------------
# size


def test_size_normal_apvc(capsys):
    code, out, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
         "--eps", "0.002", "--range", "0.1:0.9"],
        capsys,
    )
    assert code == 0
    assert err == ""
    pairs = kv(out)
    assert pairs["n_min"] == "100"
    assert float(pairs["n_real"]) == pytest.approx(100.0, rel=1e-12)
    assert float(pairs["inf_info"]) == pytest.approx(5.0, rel=1e-12)


def test_size_bernoulli_acc(capsys):
    code, out, _ = run(
        ["size", "--model", "bernoulli", "--criterion", "acc", "--len", "0.1",
         "--alpha", "0.05", "--range", "0.4:0.6"],
        capsys,
    )
    assert code == 0
    assert kv(out)["n_min"] == "385"


def test_size_reads_config_file(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(
        "# planning study\n"
        "\n"
        "model = normal\n"
        "sigma2 = 0.2\n"
        "criterion = apvc\n"
        "eps = 0.002\n"
        "range = 0.1:0.9\n",
        encoding="utf-8",
    )
    code, out, err = run(["size", "--config", str(path)], capsys)
    assert code == 0 and err == ""
    assert kv(out)["n_min"] == "100"


def test_size_flags_override_config(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(
        "model = normal\nsigma2 = 0.2\ncriterion = apvc\neps = 0.002\nrange = 0.1:0.9\n",
        encoding="utf-8",
    )
    code, out, _ = run(["size", "--config", str(path), "--eps", "0.0005"], capsys)
    assert code == 0
    assert kv(out)["n_min"] == "400"


def _option_values(key):
    """Two (config text, parsed value) pairs option ``key`` accepts; the
    second is also given as a flag."""
    spec = cli._OPTIONS[key]
    if "choices" in spec:
        return [(choice, choice) for choice in spec["choices"][:2]]
    if spec.get("action") == "store_const":
        return [("no", False), ("", True)]  # the flag takes no value
    return [(raw, spec.get("type", str)(raw)) for raw in ("3", "5")]


def _merged(tmp_path, config, flags=()):
    path = tmp_path / "study.cfg"
    path.write_text(config, encoding="utf-8")
    argv = ["size", "--config", str(path), *flags]
    return cli._merge(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_every_option_is_read_from_the_config_file(tmp_path, key):
    (raw, value), _ = _option_values(key)
    assert getattr(_merged(tmp_path, f"{key} = {raw}\n"), key.replace("-", "_")) == value


@pytest.mark.parametrize("key", list(cli._OPTIONS))
def test_every_flag_wins_over_the_config_file(tmp_path, key):
    (raw, _), (flag_raw, flag_value) = _option_values(key)
    flags = [f"--{key}", flag_raw] if flag_raw else [f"--{key}"]
    merged = _merged(tmp_path, f"{key} = {raw}\n", flags)
    assert getattr(merged, key.replace("-", "_")) == flag_value


def test_options_given_nowhere_hold_the_defaults_or_none(tmp_path):
    merged = vars(_merged(tmp_path, "# no options\n"))
    defaults = {"alpha": 0.05, "m": 1000, "seed": DEFAULT_SEED, "format": "text",
                "fresh_seed": False}
    for key in cli._OPTIONS:
        dest = key.replace("-", "_")
        assert merged[dest] == defaults.get(dest), key


@pytest.mark.parametrize(
    "content, fragment",
    [
        ("sigma2 0.2\n", "key = value"),
        ("bogus = 1\n", "unknown config key"),
        ("eps = abc\n", "config value"),
        ("fresh-seed = maybe\n", "config value"),
        # config values get the flags' choices
        ("model = gaussian\ncriterion = apvc\neps = 0.002\nrange = 0.1:0.9\n",
         "config value for 'model'"),
        ("criterion = apvcc\n", "config value for 'criterion'"),
        ("format = json\n", "config value for 'format'"),
    ],
)
def test_config_file_rejects_malformed_lines(tmp_path, capsys, content, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(content, encoding="utf-8")
    code, out, err = run(["size", "--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert fragment in err


def test_config_file_must_exist(tmp_path, capsys):
    code, out, err = run(["size", "--config", str(tmp_path / "missing.cfg")], capsys)
    assert code == 1
    assert out == ""
    assert "cannot read config file" in err


def test_size_rejects_zero_eps(capsys):
    code, out, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
         "--eps", "0", "--range", "0.1:0.9"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_size_requires_range(capsys):
    code, out, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
         "--eps", "0.002"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--range" in err


@pytest.mark.parametrize("raw", ["0.1-0.9", "a:b", "0.1"])
def test_size_rejects_malformed_range(capsys, raw):
    code, out, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
         "--eps", "0.002", "--range", raw],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--range" in err


def test_size_negative_range_parses_with_or_without_equals(capsys):
    # argparse would read "-0.55:-0.26" after a bare --range as a flag
    argv = ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
            "--eps", "0.01"]
    spaced = run(argv + ["--range", "-0.55:-0.26"], capsys)
    joined = run(argv + ["--range=-0.55:-0.26"], capsys)
    assert spaced == joined
    code, out, err = spaced
    assert code == 0
    assert err == ""
    assert kv(out)["n_min"] == "20"
    # a bare --range followed by another option still lacks its value
    code, out, err = run(argv[:1] + ["--range"] + argv[1:], capsys)
    assert code == 1
    assert out == ""
    assert "--range: expected one argument" in err


def test_size_rejects_quantile_criterion(capsys):
    # the expected-quantile functional has no threshold inequality to invert
    code, _, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion",
         "alc-quantile", "--range", "0.1:0.9"],
        capsys,
    )
    assert code == 1
    assert "no sample-size form" in err


def test_size_unsatisfiable_alternative_exits_2(capsys):
    code, out, err = run(
        ["size", "--model", "normal", "--sigma2", "0.2", "--criterion", "es",
         "--theta1", "0.5", "--range", "0.4:0.6"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "unsatisfiable" in err


def test_unrecognized_flag_prints_usage(capsys):
    code, out, err = run(["size", "--bogus", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "usage" in err.lower()
    assert "unrecognized" in err


def test_missing_subcommand(capsys):
    code, out, err = run([], capsys)
    assert code == 1
    assert out == ""
    assert err != ""


def test_shared_parser_matches_a_fresh_one(capsys):
    # main builds its parser once per process; interleaved subcommands and a
    # usage error must leave nothing behind in it.
    size = ["size", "--model", "bernoulli", "--criterion", "acc", "--len", "0.1",
            "--alpha", "0.05", "--range", "0.4:0.6"]
    calls = [size, ["table", "1"], ["size", "--model", "normal", "--eps", "abc"], size]
    shared = [run(argv, capsys) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0]
    assert "--eps: invalid float value" in shared[2][2]
    assert shared[0] == shared[3]


# ---------------------------------------------------------------------------
# eval


def test_eval_normal_cell(capsys):
    code, out, err = run(
        ["eval", "--model", "normal", "--sigma2", "0.2", "--mu0", "0.25",
         "--tau2", "0.3", "--criterion", "apvc", "--theta0", "0.5", "--n", "10"],
        capsys,
    )
    assert code == 0 and err == ""
    pairs = kv(out)
    g_exact, g_star = float(pairs["g_exact"]), float(pairs["g_star"])
    assert printed_match(g_exact, 0.0187)
    assert printed_match(g_star, 0.0200)
    assert float(pairs["diff"]) == g_exact - g_star


def test_eval_poisson_cell(capsys):
    code, out, _ = run(
        ["eval", "--model", "poisson", "--a", "8", "--b", "7.5",
         "--criterion", "apvc", "--theta0", "1.6", "--n", "50"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    assert printed_match(float(pairs["g_exact"]), 0.0260)
    assert printed_match(float(pairs["g_star"]), 0.0320)


def test_eval_bernoulli_cell_defaults_to_uniform_prior(capsys):
    code, out, _ = run(
        ["eval", "--model", "bernoulli", "--criterion", "apvc",
         "--theta0", "0.2", "--n", "10"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    assert printed_match(float(pairs["g_exact"]), 0.0136)
    assert printed_match(float(pairs["g_star"]), 0.0160)


def test_eval_nonuniform_bernoulli_prints_leading_order_only(capsys):
    argv = ["eval", "--model", "bernoulli", "--a", "2", "--b", "2",
            "--criterion", "apvc", "--theta0", "0.2", "--n", "10"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    pairs = kv(out)
    assert "g_exact" not in pairs and "diff" not in pairs
    assert printed_match(float(pairs["g_star"]), 0.0160)
    # a csv row cannot carry a lone g_star, so that format is refused here
    code, out, err = run(argv + ["--format", "csv"], capsys)
    assert code == 1
    assert out == ""
    assert "no exact value" in err


def test_eval_rate_cell_reports_quadrature_oracle(capsys):
    code, out, _ = run(
        ["eval", "--model", "exp", "--criterion", "apvc",
         "--theta0", "0.5", "--n", "100"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    assert float(pairs["g_star"]) == 0.0025
    assert float(pairs["g_exact"]) == pytest.approx(0.0025676827, abs=1e-8)


def test_eval_rate_cell_at_one_observation_meets_the_oracle_gate(capsys):
    # At n = 1 the sampling law of s spans tens of e-folds; the oracle
    # must still certify the cell.
    code, out, err = run(
        ["eval", "--model", "exp", "--criterion", "apvc",
         "--theta0", "0.1", "--n", "1"],
        capsys,
    )
    assert code == 0, err
    assert err == ""
    pairs = kv(out)
    assert float(pairs["g_star"]) == pytest.approx(0.01)
    assert 0.0 < float(pairs["g_exact"]) < 0.25


def _quad_expected_alc(theta0, n, a=1.5, b=1.5, alpha=0.05):
    """E[Q(1 - alpha/2) - Q(alpha/2)] of the rate posterior over the Gamma(n,
    theta0) law of s, by scipy alone: Gauss-Legendre over the law's
    probability scale, and each quantile a brentq root of a quad CDF about
    the mode."""
    from scipy import integrate, optimize, special, stats

    shape = a + n

    def length(s):
        big = shape + b - 2.0 + s
        mode = 2.0 * (shape - 1.0) / (big + math.sqrt(big * big - 4.0 * s * (shape - 1.0)))
        sd = 1.0 / math.sqrt((shape - 1.0) / mode**2 + (b - 1.0) / (1.0 - mode) ** 2)
        lo, hi = max(mode - 40.0 * sd, 0.0), min(mode + 40.0 * sd, 1.0)

        def f(r):  # the density over its mode's, about the mode
            return math.exp((shape - 1.0) * math.log1p((r - mode) / mode) - s * (r - mode)
                            + (b - 1.0) * (math.log1p(-r) - math.log1p(-mode)))

        def mass(x):
            return integrate.quad(f, lo, x, points=[mode] if lo < mode < x else None,
                                  epsabs=0.0, epsrel=1e-12, limit=200)[0]

        total = mass(hi)
        ends = [optimize.brentq(lambda x: mass(x) / total - p, mode - 4.0 * sd,
                                mode + 4.0 * sd, xtol=1e-300, rtol=1e-12)
                for p in (0.5 * alpha, 1.0 - 0.5 * alpha)]
        return ends[1] - ends[0]

    # Over the law's probability scale the length is smooth and nearly
    # constant at this n: 16 Gauss-Legendre points resolve it.
    law = stats.gamma(n, scale=1.0 / theta0)
    u, w = special.roots_legendre(16)
    return 0.5 * sum(wk * length(law.ppf(0.5 * (uk + 1.0))) for uk, wk in zip(u, w))


def test_eval_rate_alc_at_a_million_observations_meets_quadrature(capsys):
    # The fixed k/4096 grid printed g_exact=0.0010545 here, 7.6 % above
    # g_star; each posterior on its own nodes puts the oracle within its
    # 1e-5 gate of a scipy quadrature reference.
    code, out, err = run(
        ["eval", "--model", "exp", "--criterion", "alc", "--len", "0.1",
         "--theta0", "0.25", "--n", "1000000"],
        capsys,
    )
    assert code == 0 and err == ""
    pairs = kv(out)
    reference = _quad_expected_alc(0.25, 1_000_000)
    assert float(pairs["g_exact"]) == pytest.approx(reference, rel=1e-5)


def test_eval_expected_quantile_cell(capsys):
    code, out, _ = run(
        ["eval", "--model", "normal", "--sigma2", "0.2", "--mu0", "0.25",
         "--tau2", "0.3", "--criterion", "alc-quantile", "--theta0", "0.5",
         "--n", "100"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    assert float(pairs["g_star"]) == pytest.approx(0.42643990954198854, rel=1e-12)
    assert printed_match(float(pairs["g_exact"]), 0.4250)


def test_eval_csv_row_matches_text_run(capsys):
    argv = ["eval", "--model", "normal", "--sigma2", "0.2", "--mu0", "0.25",
            "--tau2", "0.3", "--criterion", "apvc", "--theta0", "0.5", "--n", "10"]
    _, text_out, _ = run(argv, capsys)
    code, csv_out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert csv_out.splitlines()[0] == CSV_HEADER
    [row] = parse_csv(csv_out)
    pairs = kv(text_out)
    assert row.g_exact == float(pairs["g_exact"])
    assert row.g_star == float(pairs["g_star"])
    assert row.g_hat is None and row.g_hat_se is None


def test_eval_requires_prior_parameters(capsys):
    code, out, err = run(
        ["eval", "--model", "normal", "--sigma2", "0.2", "--criterion", "apvc",
         "--theta0", "0.5", "--n", "10"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--mu0" in err


def test_eval_rejects_nonpositive_n(capsys):
    code, out, err = run(
        ["eval", "--model", "normal", "--sigma2", "0.2", "--mu0", "0.25",
         "--tau2", "0.3", "--criterion", "apvc", "--theta0", "0.5", "--n", "0"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--n" in err


def test_eval_names_a_sample_size_too_large_for_a_float(capsys):
    code, out, err = run(
        ["eval", "--model", "exp", "--criterion", "apvc", "--theta0", "0.5",
         "--n", str(10**400)],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == (f"error: sample size {10**400} exceeds the largest float"
                   " 1.7976931348623157e+308\n")


def test_eval_checks_the_prior_where_no_exact_value_follows(capsys):
    # A Poisson alc cell has no closed form, yet its prior is still checked.
    code, out, err = run(
        ["eval", "--model", "poisson", "--criterion", "alc", "--len", "0.1", "--a", "-1",
         "--b", "1", "--theta0", "0.5", "--n", "10"],
        capsys,
    )
    assert code == 1 and out == ""
    assert err == "error: a must be positive and finite, got -1.0\n"


# ---------------------------------------------------------------------------
# simulate


def test_simulate_refuses_theta0_outside_the_domain_as_eval_does(monkeypatch, capsys):
    # A usage error, exit 1, with eval's message and before any draw.
    argv = ["--model", "bernoulli", "--criterion", "apvc", "--theta0", "1.5", "--n", "10"]
    runs = []
    monkeypatch.setattr(cli, "simulate_g", lambda *args: runs.append(args))
    code, out, err = run(["simulate", *argv, "--m", "4"], capsys)
    assert (code, out, runs) == (1, "", [])
    assert err == "error: theta 1.5 lies outside the domain of Bernoulli()\n"
    assert run(["eval", *argv], capsys) == (code, out, err)


@pytest.mark.parametrize("model", ["normal", "poisson", "exp"])
def test_simulate_names_a_sample_size_too_large_for_a_float(capsys, model):
    code, out, err = run(
        ["simulate", "--model", model, "--criterion", "apvc", "--sigma2", "0.2",
         "--mu0", "0.25", "--tau2", "0.3", "--a", "1.5", "--b", "1.5", "--theta0", "0.5",
         "--n", str(10**400), "--m", "2000"],
        capsys,
    )
    # A usage error, exit 1, with eval's message and before any draw.
    assert code == 1 and out == ""
    assert err == (f"error: sample size {10**400} exceeds the largest float"
                   " 1.7976931348623157e+308\n")


def test_simulate_refuses_a_poisson_mean_past_numpys_limit(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(cli, "simulate_g", lambda *args: runs.append(args))
    code, out, err = run(
        ["simulate", "--model", "poisson", "--criterion", "apvc", "--a", "1", "--b", "1",
         "--theta0", "1e300", "--n", "1000000", "--m", "2"],
        capsys,
    )
    assert code == 1 and out == "" and runs == []
    assert err == ("error: Poisson mean n * theta0 = 1e+306 exceeds numpy's limit"
                   " 9.223372006484771e+18\n")


def test_simulate_two_replicate_smoke(capsys):
    code, out, err = run(
        ["simulate", "--model", "exp", "--criterion", "apvc",
         "--theta0", "0.5", "--n", "5", "--m", "2"],
        capsys,
    )
    assert code == 0 and err == ""
    pairs = kv(out)
    assert pairs["m"] == "2"
    assert pairs["seed"] == str(DEFAULT_SEED)
    assert math.isfinite(float(pairs["std_err"]))


@pytest.mark.parametrize(
    "argv",
    [
        ["--model", "bernoulli", "--a", "0.5", "--b", "0.5", "--theta0", "0.02", "--n", "5"],
        ["--model", "poisson", "--a", "1", "--b", "0.5", "--theta0", "0.05", "--n", "3"],
    ],
)
def test_simulate_handles_posterior_shapes_below_one(argv, capsys):
    # Zero counts are common here, leaving a posterior shape below 1.
    code, out, err = run(["simulate", *argv, "--criterion", "alc", "--m", "200"], capsys)
    assert code == 0 and err == ""
    assert 0.0 < float(kv(out)["mean"]) < 1.0


def test_simulate_repeats_are_byte_identical(capsys):
    argv = ["simulate", "--model", "exp", "--criterion", "alc",
            "--theta0", "0.25", "--n", "30", "--m", "40"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_simulate_honors_seed_flag(capsys):
    base = ["simulate", "--model", "exp", "--criterion", "apvc",
            "--theta0", "0.5", "--n", "10", "--m", "20"]
    _, default_out, _ = run(base, capsys)
    _, seeded_out, _ = run(base + ["--seed", "7"], capsys)
    assert kv(seeded_out)["seed"] == "7"
    assert seeded_out != default_out


def test_fresh_seed_leaves_the_default(capsys):
    base = ["simulate", "--model", "exp", "--criterion", "apvc",
            "--theta0", "0.5", "--n", "10", "--m", "20", "--fresh-seed"]
    _, first, _ = run(base, capsys)
    _, second, _ = run(base, capsys)
    assert int(kv(first)["seed"]) != DEFAULT_SEED
    assert first != second


def test_simulate_agrees_with_oracle_on_reference_alc_cell(capsys):
    # Reference cell 0.2084 for theta0=0.25, n=30 came from one particular
    # simulation run; the seeded run here lands about ten percent below it
    # and right on the quadrature oracle.
    code, out, _ = run(
        ["simulate", "--model", "exp", "--criterion", "alc",
         "--theta0", "0.25", "--n", "30", "--m", "1000"],
        capsys,
    )
    assert code == 0
    pairs = kv(out)
    mean, se = float(pairs["mean"]), float(pairs["std_err"])
    oracle = expbeta_expected(CredibleLength(0.05), 0.25, 30, BetaPrior(1.5, 1.5))
    assert abs(mean - oracle.value) <= 3.5 * se
    assert abs(mean - 0.2084) / 0.2084 < 0.15


def test_simulate_csv_row_round_trips(capsys):
    code, out, _ = run(
        ["simulate", "--model", "normal", "--sigma2", "0.2", "--mu0", "0.25",
         "--tau2", "0.3", "--criterion", "apvc", "--theta0", "0.5", "--n", "10",
         "--m", "20", "--format", "csv"],
        capsys,
    )
    assert code == 0
    [row] = parse_csv(out)
    assert row.g_hat is not None and row.g_hat_se is not None
    assert row.g_star == 0.02
    assert row.g_exact == exact_normal(PosteriorVariance(), 0.2, 0.25, 0.3, 0.5, 10).value
    assert render_csv([row]) == out


@pytest.mark.parametrize(
    "exc",
    [AccuracyError("quadrature stalled"), ReplicateError(3, RuntimeError("boom"))],
)
def test_numerical_failures_exit_3(monkeypatch, capsys, exc):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "simulate_g", boom)
    code, out, err = run(
        ["simulate", "--model", "exp", "--criterion", "apvc",
         "--theta0", "0.5", "--n", "5", "--m", "2"],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# table


def test_table1_matches_printed_cells(capsys):
    code, out, err = run(["table", "1", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 36
    for (theta0, n), cells in TABLE1.items():
        for criterion, (exact, star) in cells.items():
            row = one_row(rows, criterion, theta0, n)
            assert printed_match(row.g_exact, exact), (criterion, theta0, n, row.g_exact)
            assert printed_match(row.g_star, star), (criterion, theta0, n, row.g_star)


def test_table2_matches_printed_cells(capsys):
    code, out, err = run(["table", "2", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 24
    for (model, theta0, n), (exact, star) in TABLE2.items():
        row = one_row([r for r in rows if r.model == model], "apvc", theta0, n)
        assert printed_match(row.g_exact, exact), (model, theta0, n, row.g_exact)
        assert printed_match(row.g_star, star), (model, theta0, n, row.g_star)


def test_table_text_layout_spot_cells(capsys):
    _, out1, _ = run(["table", "1"], capsys)
    assert "alc-quantile" in out1.splitlines()[0]
    assert "0.0187 (0.0200)" in out1
    assert "0.3516 (0.3600)" in out1
    _, out2, _ = run(["table", "2"], capsys)
    assert "0.0136 (0.0160)" in out2


def test_table3_small_run(capsys):
    code, out, err = run(["table", "3", "--m", "8", "--format", "csv"], capsys)
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert len(rows) == 60
    assert {r.criterion for r in rows} == {"apvc", "alc", "hpd-lo", "hpd-hi", "hpd-width"}
    assert all(
        r.g_hat is not None and r.g_hat_se is not None
        and r.g_exact is not None and r.g_star is not None
        for r in rows
    )
    assert printed_match(one_row(rows, "apvc", 0.75, 100).g_star, 0.0056)
    assert printed_match(one_row(rows, "alc", 0.25, 100).g_star, 0.0980)
    assert one_row(rows, "apvc", 0.5, 100).g_exact == pytest.approx(
        0.0025676827, abs=1e-8
    )
    assert render_csv(rows) == out


@pytest.mark.parametrize("argv", [["table", "4"], ["table"], ["table", "x"]])
def test_table_rejects_bad_index(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err != ""


def test_out_flag_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    path = tmp_path / "table2.csv"
    code, out, err = run(["table", "2", "--format", "csv", "--out", str(path)], capsys)
    assert code == 0 and out == "" and err == ""
    _, direct, _ = run(["table", "2", "--format", "csv"], capsys)
    assert path.read_text(encoding="utf-8") == direct


def test_csv_round_trip_restores_rows_exactly(capsys):
    _, out, _ = run(["table", "1", "--format", "csv"], capsys)
    parsed = parse_csv(out)
    built = build_table(1)
    assert len(parsed) == len(built)
    for got, want in zip(parsed, built):
        assert got.criterion == want.criterion
        assert got.model == want.model
        assert got.params == want.params
        assert got.theta0 == want.theta0
        assert got.n == want.n
        assert got.g_hat == want.g_hat
        assert got.g_hat_se == want.g_hat_se
        assert got.g_exact == want.g_exact
        assert got.g_star == want.g_star
