#!/usr/bin/env python3
"""Benchmark of bayessize: the rate study, conjugate simulation and planning.

One run of one workload:

    python3 bench/run.py --workload rate-table --seed 1 --seconds 20 --trace 0

prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced pass with ``--trace 1``.  Steadiness mode
runs every workload ten times on consecutive seeds and reports the spread
of each end-to-end metric next to its bound in BENCHMARK.json:

    python3 bench/run.py --steadiness --seed 20060301

Each run starts fresh interpreters: several that only set up (their median
start-to-ready time is ``setup_s``) and one that measures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("rate-table", "conjugate-sim", "plan")
DEFAULT_SEED = 20060301
SETUP_STARTS = 10
IMPORT_STARTS = 5
STEADINESS_RUNS = 10
# A run's worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The program could not be set up or run."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # One BLAS thread: the load comes from one single-threaded process.
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(mode: str, workload: str, seed: int, seconds: float = 0.0) -> list[str]:
    return [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds)]


def _fresh_start(mode: str, workload: str, seed: int) -> float:
    """Seconds from starting an interpreter until it reports ready."""
    t0 = perf_counter()
    with subprocess.Popen(_worker_cmd(mode, workload, seed), stdout=subprocess.PIPE,
                          env=_env(), cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise BenchError(f"{mode} start did not finish")
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"{mode} start failed with exit code {proc.returncode}")
    return elapsed


def _worker(mode: str, workload: str, seed: int, seconds: float) -> dict:
    try:
        proc = subprocess.run(_worker_cmd(mode, workload, seed, seconds),
                              stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} process ran past {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"the {mode} process failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import_s = statistics.median(
            _fresh_start("import", workload, seed) for _ in range(IMPORT_STARTS))
        res = _worker("trace", workload, seed, seconds)
        metrics = {"cli.import_s": {"value": import_s, "unit": "s"}, **res["metrics"]}
        expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        if {k: v["unit"] for k, v in metrics.items()} != expected:
            raise BenchError("the traced pass's metrics differ from per_layer in BENCHMARK.json")
    else:
        # The first start compiles bytecode and fills the file cache; the
        # starts after it are what a user pays on every invocation.  Start
        # times swing by half within seconds on a shared host, so half the
        # starts are taken before the measuring process and half after it.
        _fresh_start("setup", workload, seed)
        starts = [_fresh_start("setup", workload, seed) for _ in range(SETUP_STARTS // 2)]
        res = _worker("measure", workload, seed, seconds)
        starts += [_fresh_start("setup", workload, seed)
                   for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
        setup_s = statistics.median(starts)
        completed = res["attempted"] - res["failed"]
        if completed < 1:
            raise BenchError("no operation completed")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": completed / res["wall_s"], "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(res["op_times_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def steadiness(workloads: list[str], seed: int, seconds: float) -> dict:
    """Repeat each workload on seeds seed, seed+1, ... and report spreads."""
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    report = {}
    for workload in workloads:
        results = []
        for i in range(STEADINESS_RUNS):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed + i), "--seconds", repr(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, cwd=ROOT, text=True, timeout=200)
            if proc.returncode != 0:
                raise BenchError(f"{workload} seed {seed + i} exited {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound,
                          "values": values}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        report[workload] = {"metrics": rows, "failed_shares": shares,
                            "correct": all(r["correct"] for r in results)}
        print(f"{workload}: correct={report[workload]['correct']} failed share={shares}")
        for name, row in rows.items():
            values = " ".join(f"{v:.4g}" for v in row["values"])
            print(f"  {name:<12} median {row['median']:<10.5g} spread {row['spread']:7.2%}"
                  f"  bound {row['bound']:.0%}  values {values}", flush=True)
        out = HERE / "out" / f"steadiness-{seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if args.steadiness:
            steadiness([args.workload] if args.workload else list(WORKLOADS),
                       args.seed, args.seconds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
