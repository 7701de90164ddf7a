"""The traced pass: per-layer spans recorded around bayessize's public functions.

Monte Carlo cells are replayed replicate by replicate through
``SeededGenerator``, ``sample_suffstat``, ``posterior`` and ``evaluate``,
exactly as ``bayessize.montecarlo`` runs them, so each layer gets its own
span and the replayed means must equal the program's bit for bit.  The
oracle, the CLI calls and the sizing, closed-form and table functions are
timed as whole calls.  Spans are kept in memory and written out when the
pass ends.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from bayessize.criteria import Acc, Alc, Apvc, EffectSize, asymptotic_functional, min_sample_size
from bayessize.errors import BayesSizeError, ReplicateError
from bayessize.exact import (
    exact_bernoulli_variance,
    exact_normal,
    exact_poisson_variance,
    expbeta_expected_many,
)
from bayessize.functionals import (
    CenteredIntervalMass,
    CredibleLength,
    PosteriorQuantile,
    PosteriorVariance,
    TailMassAbove,
    evaluate,
)
from bayessize.models import (
    Bernoulli,
    ExponentialRate,
    NormalKnownVariance,
    Poisson,
    posterior,
    sample_suffstat,
)
from bayessize.montecarlo import SeededGenerator
from bayessize.tables import build_table

import workloads as wl

# Span names of the five rate functionals, in RATE_FUNCTIONALS order.  The
# three HPD functionals share one search: the first pays for it, the other
# two read the posterior's cache.
_RATE_SPANS = (
    "functionals.variance_grid",
    "functionals.alc_grid",
    "functionals.hpd_grid",
    "functionals.hpd_cached_grid",
    "functionals.hpd_cached_grid",
)

# A timed per-layer metric in BENCHMARK.json is named after its span plus
# its unit (``functionals.hpd_grid_us`` is the span ``functionals.hpd_grid``
# in microseconds).  It reports the median span duration less its child
# spans, except for these spans, whose children are included.
_INCLUSIVE = {"montecarlo.simulate_cell", "montecarlo.replicate_grid",
              "montecarlo.replicate_gamma", "montecarlo.replicate_beta"}
_SCALES = {"s": 1.0, "ms": 1e3, "us": 1e6}
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Tracer:
    """Spans as parallel lists: name, start, end and the enclosing span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def durations(self) -> tuple[list[float], list[float]]:
        """Inclusive and self duration of every span."""
        incl = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(incl)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += incl[i]
        return incl, [d - c for d, c in zip(incl, child)]

    def summary(self) -> dict[str, dict]:
        incl, self_ = self.durations()
        by_name: dict[str, tuple[list[float], list[float]]] = {}
        for name, d, s in zip(self.names, incl, self_):
            a, b = by_name.setdefault(name, ([], []))
            a.append(d)
            b.append(s)
        return {
            name: {
                "calls": len(a),
                "incl_total_s": sum(a),
                "self_total_s": sum(b),
                "incl_median_s": statistics.median(a),
                "self_median_s": statistics.median(b),
            }
            for name, (a, b) in sorted(by_name.items())
        }

    def write(self, path: Path, extra: dict) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, round(s - t0, 7), round(e - t0, 7), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**extra, "summary": self.summary(),
                   "span_fields": ["name", "start_s", "end_s", "parent"], "spans": spans}
        path.write_text(json.dumps(payload), encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t._open[-1] if t._open else -1)
        t.ends.append(math.nan)
        t._open.append(self.index)
        t.starts.append(perf_counter())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.index] = perf_counter()
        t._open.pop()
        return False


# Span suffixes of sample_suffstat and posterior, by likelihood family.
_FAMILY_SPANS = {Poisson: ("poisson", "gamma"), Bernoulli: ("bernoulli", "beta"),
                 ExponentialRate: ("exp", "grid")}


def replay(tracer, family, prior, theta0, n, m, functionals, seed, spans):
    """``simulate_many`` re-run through public functions, one span per layer.

    ``spans`` names the span of each functional.  Returns ``(mean,
    std_err)`` per functional, reduced exactly as ``simulate_many`` does.
    """
    data, post_kind = _FAMILY_SPANS[type(family)]
    suffstat_span = f"models.sample_suffstat_{data}"
    post_span = f"models.posterior_{post_kind}"
    replicate_span = f"montecarlo.replicate_{post_kind}"
    values = np.empty((len(functionals), m))
    for j in range(m):
        with tracer.span(replicate_span):
            try:
                with tracer.span("randomness.stream"):
                    rng = SeededGenerator(seed, stream_id=j)
                with tracer.span(suffstat_span):
                    stat = sample_suffstat(family, theta0, n, rng)
                with tracer.span(post_span):
                    post = posterior(family, prior, stat)
                for i, functional in enumerate(functionals):
                    with tracer.span(spans[i]):
                        values[i, j] = evaluate(functional, post)
            except Exception as exc:
                raise ReplicateError(j, exc) from exc
    return [(float(row.mean()), float(row.std(ddof=1) / math.sqrt(m))) for row in values]


def _traced_op(tracer: Tracer, workload: str, op):
    """One operation with spans around each layer; same work as ``op.run()``."""
    if workload == "rate-table":
        functionals = [f for _, f in wl.RATE_FUNCTIONALS]
        family = ExponentialRate()
        with tracer.span("montecarlo.simulate_cell"):
            estimates = replay(tracer, family, wl.RATE_PRIOR, op.theta0, op.n, op.m,
                               functionals, op.seed, _RATE_SPANS)
        with tracer.span("exact.oracle_cell"):
            oracles = expbeta_expected_many(functionals, op.theta0, op.n, wl.RATE_PRIOR)
        with tracer.span("criteria.asymptotic_functional"):
            for f in functionals:
                asymptotic_functional(f, family, op.theta0, op.n)
        return estimates, oracles
    if workload == "conjugate-sim":
        post = "gamma" if op.model == "poisson" else "beta"
        with tracer.span("montecarlo.simulate_g"):
            return replay(tracer, op.family, op.prior, op.theta0, op.n, op.m,
                          [op.functional], op.seed, [f"functionals.{op.kind}_{post}"])[0]
    outputs = []
    for argv, _ in op.calls:
        with tracer.span(f"cli.main_{argv[0]}"):
            outputs.append(wl.run_cli(argv))
    return outputs


def _family(inputs: dict):
    model = inputs["model"]
    if model == "normal":
        return NormalKnownVariance(inputs["sigma2"])
    return {"poisson": Poisson(), "bernoulli": Bernoulli(), "exp": ExponentialRate()}[model]


def _layer_calls(tracer: Tracer, session) -> None:
    """The sizing, closed-form and table functions behind each CLI call."""
    for argv, x in session.calls:
        if argv[0] == "size":
            lo, hi, criterion = x["lo"], x["hi"], x["criterion"]
            if criterion == "apvc":
                c = Apvc(x["eps"], lo, hi)
            elif criterion == "acc":
                c = Acc(x["len"], x["alpha"], lo, hi)
            elif criterion == "alc":
                c = Alc(x["len"], x["alpha"], lo, hi)
            else:
                c = EffectSize(x["theta1"], x["alpha"], lo, hi)
            family = _family(x)
            with tracer.span("criteria.min_sample_size"):
                min_sample_size(c, family)
        elif argv[0] == "eval":
            model, theta0, n = x["model"], x["theta0"], x["n"]
            if model == "normal":
                functional = {
                    "apvc": PosteriorVariance,
                    "acc": lambda: CenteredIntervalMass(x["len"]),
                    "alc": lambda: CredibleLength(x["alpha"]),
                    "alc-quantile": lambda: PosteriorQuantile(x["alpha"]),
                    "es": lambda: TailMassAbove(x["theta1"]),
                }[x["criterion"]]()
                with tracer.span("exact.closed_form"):
                    exact_normal(functional, x["sigma2"], x["mu0"], x["tau2"], theta0, n)
            elif model == "poisson":
                with tracer.span("exact.closed_form"):
                    exact_poisson_variance(x["a"], x["b"], theta0, n)
            else:
                with tracer.span("exact.closed_form"):
                    exact_bernoulli_variance(theta0, n)
        else:
            with tracer.span("tables.build_table"):
                build_table(x["table"])


def _same_outcome(program, traced, workload: str) -> bool:
    """Whether the replay reproduced the program's result (or failure) exactly."""
    if isinstance(program, wl.Failed) or isinstance(traced, wl.Failed):
        return program == traced
    if workload == "rate-table":
        estimates, oracles, _ = program
        replayed, traced_oracles = traced
        return ([(e.mean, e.std_err) for e in estimates] == replayed
                and oracles == traced_oracles)
    if workload == "conjugate-sim":
        return (program.mean, program.std_err) == traced
    return program == traced


def _interleaved(tracer: Tracer, workload: str, ops) -> tuple[list, list, float, float]:
    """Each op run plainly and traced, alternating which goes first.

    Returns the plain and traced results (or failures) and the total time
    of each kind.  Interleaving op by op keeps slow drifts of the machine's
    speed out of the overhead estimate.
    """
    def outcome(fn, op):
        t0 = perf_counter()
        try:
            result = fn(op)
        except (BayesSizeError, wl.CliFailure) as exc:
            result = wl.Failed(str(exc))
        return result, perf_counter() - t0

    plain = lambda op: op.run()  # noqa: E731
    traced = lambda op: _traced_op(tracer, workload, op)  # noqa: E731
    results = {plain: [], traced: []}
    seconds = {plain: 0.0, traced: 0.0}
    for i, op in enumerate(ops):
        for fn in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            result, dt = outcome(fn, op)
            results[fn].append(result)
            seconds[fn] += dt
    return results[plain], results[traced], seconds[plain], seconds[traced]


def run_traced(workload: str, seed: int, out_dir: Path) -> dict:
    """Untraced and traced passes of every workload, and the layer report.

    Every workload is traced whatever ``workload`` is, so every run reports
    every layer; ``workload`` picks the pass counts and overhead reported.
    """
    tracer = Tracer()
    problems: list[str] = []
    overhead: dict[str, dict] = {}
    counts = {}
    replicate_errors = 0
    for name in wl.WORKLOADS:
        ops = wl.build_ops(name, seed)
        wl.warm_up(name, seed)
        program, traced, untraced_s, traced_s = _interleaved(tracer, name, ops)
        failed = sum(isinstance(r, wl.Failed) for r in program)
        completed = len(ops) - failed
        counts[name] = (len(ops), failed)
        overhead[name] = {
            "untraced_ops_per_s": completed / untraced_s,
            "traced_ops_per_s": completed / traced_s,
        }
        overhead[name]["overhead_pct"] = 100.0 * (
            1.0 - overhead[name]["traced_ops_per_s"] / overhead[name]["untraced_ops_per_s"])
        replicate_errors += sum(isinstance(t, wl.Failed) and t.message.startswith("replicate ")
                                for t in traced)
        for op, p, t in zip(ops, program, traced):
            if not _same_outcome(p, t, name):
                problems.append(f"{op.label}: the traced replay differs from the program")
        problems += wl.check_pass(name, ops, program)
        if name == "plan":
            with tracer.span("plan.layers"):
                for session in ops:
                    _layer_calls(tracer, session)

    summary = tracer.summary()
    metrics = {}
    for layer in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        name, unit = layer["name"], layer["unit"]
        span = name.removesuffix(f"_{unit}")
        if unit in _SCALES and span in summary:
            key = "incl_median_s" if span in _INCLUSIVE else "self_median_s"
            metrics[name] = {"value": summary[span][key] * _SCALES[unit], "unit": unit}
    # montecarlo.replicate_us pools the replicates of every posterior kind.
    incl, _ = tracer.durations()
    replicates = [d for name, d in zip(tracer.names, incl)
                  if name.startswith("montecarlo.replicate_")]
    metrics["montecarlo.replicate_us"] = {"value": statistics.median(replicates) * 1e6,
                                          "unit": "us"}
    metrics["montecarlo.replicates"] = {"value": len(replicates), "unit": "count"}
    metrics["montecarlo.replicate_errors"] = {"value": replicate_errors, "unit": "count"}
    metrics["exact.oracle_cells"] = {"value": summary["exact.oracle_cell"]["calls"],
                                     "unit": "count"}
    metrics["cli.calls"] = {"value": sum(summary[s]["calls"] for s in summary
                                         if s.startswith("cli.main_")), "unit": "count"}
    metrics["trace.overhead_pct"] = {"value": overhead[workload]["overhead_pct"],
                                     "unit": "%"}
    attempted, failed = counts[workload]
    tracer.write(out_dir / f"trace-{workload}-{seed}.json",
                 {"workload": workload, "seed": seed, "overhead": overhead,
                  "metrics": metrics, "problems": problems})
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "problems": problems}
