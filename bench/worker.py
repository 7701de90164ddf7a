"""One benchmark process, started by ``run.py`` in a fresh interpreter.

Modes:
  import   import ``bayessize.cli``, print "ready" and exit;
  setup    also build the workload's inputs, then print "ready" and exit;
  measure  warm up, run whole passes of the workload for at least
           ``--seconds``, check the outputs, print one JSON line;
  trace    run the traced pass of every workload (see ``tracing.py``)
           and print one JSON line of per-layer metrics.

The program is imported from the checkout's ``src`` directory and nowhere
else; without it the process exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import bayessize.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"cannot import bayessize from {SRC}: {exc}")
    import bayessize

    if Path(bayessize.__file__).resolve().parent.parent != SRC:
        sys.exit(f"imported bayessize from {bayessize.__file__}, not from {SRC}")


def _measure(workload: str, seed: int, seconds: float) -> dict:
    import workloads as wl
    from bayessize.errors import BayesSizeError

    ops = wl.build_ops(workload, seed)
    wl.warm_up(workload, seed)
    op_times: list[float] = []
    first: list | None = None
    attempted = failed = passes = 0
    problems: list[str] = []
    # Whole passes only: a run never stops inside the mix of cheap and
    # costly operations, so every run does the same work per pass.
    start = perf_counter()
    while True:
        results = []
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.run()
            except (BayesSizeError, wl.CliFailure) as exc:
                result = wl.Failed(str(exc))
            t1 = perf_counter()
            if isinstance(result, wl.Failed):
                failed += 1
            else:
                op_times.append(t1 - t0)
            results.append(result)
        attempted += len(ops)
        passes += 1
        if first is None:
            first = results
        elif results != first:
            problems.append(f"pass {passes} returned other results than pass 1")
        if perf_counter() - start >= seconds:
            break
    wall = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += wl.check_pass(workload, ops, first)
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "wall_s": wall,
        "op_times_s": op_times,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("import", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    _import_program()
    if args.mode in ("import", "setup"):
        if args.mode == "setup":
            import workloads

            workloads.build_ops(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.mode == "measure":
        result = _measure(args.workload, args.seed, args.seconds)
    else:
        import tracing

        result = tracing.run_traced(args.workload, args.seed, HERE / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
