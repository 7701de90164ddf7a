#!/usr/bin/env python3
"""Run one fixed list of ``bayessize`` command lines against two source
trees and report every command whose exit code, stdout or stderr differ.

    python3 scripts/compare_outputs.py PARENT_SRC CHANGE_SRC

Each tree runs in its own subprocess, with ``PYTHONPATH`` set to that
tree's ``src`` directory, calling ``bayessize.cli.main`` once per argv.
The list covers ``table 1|2|3``, ``size`` for every model and criterion,
and ``eval`` and ``simulate`` for every model and functional, in text and
CSV; the rate ``simulate`` at n = 1e5 with m = 2000, the Poisson and
Bernoulli ones at n = 1e5 with m = 5000, and two rare-event Bernoulli
ones.  For a command whose output differs, it also prints the largest
relative gap between corresponding numbers of the two outputs, when both
hold the same count of numbers.  Exits 1 if any command differs, else 0.
"""

import argparse
import json
import os
import subprocess
import sys

# Read the argv list as JSON on stdin; write [exit code, stdout, stderr] per argv.
_CHILD = """
import contextlib, io, json, sys
from bayessize.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""

# Per model: its own flags, a planning range, theta0, and an alternative
# outside the range for the effect-size criterion.
_MODELS = {
    "normal": (["--sigma2", "0.2", "--mu0", "0.25", "--tau2", "0.3"], "0.1:0.9", "0.5", "0.05"),
    "poisson": (["--a", "2.5", "--b", "3.5"], "0.5:2", "1.0", "0.25"),
    "bernoulli": ([], "0.2:0.4", "0.3", "0.6"),
    "exp": ([], "0.25:0.75", "0.5", "0.9"),
}
_TARGETS = {"apvc": ["--eps", "0.01"], "acc": ["--len", "0.1"], "alc": ["--len", "0.1"],
            "alc-quantile": [], "es": []}
_FORMATS = (["--format", "text"], ["--format", "csv"])


def argvs() -> list[list[str]]:
    runs = [["table", which, *fmt] for which in ("1", "2", "3") for fmt in _FORMATS]
    for model, (flags, span, theta0, theta1) in _MODELS.items():
        base = ["--model", model, *flags]
        for criterion, target in _TARGETS.items():
            goal = ["--criterion", criterion, *target]
            if criterion == "es":
                goal += ["--theta1", theta1]
            if criterion != "alc-quantile":
                runs.append(["size", *base, *goal, "--range", span])
            cell = [*base, *goal, "--theta0", theta0, "--n", "30"]
            runs += [["eval", *cell, *fmt] for fmt in _FORMATS]
            runs += [["simulate", *cell, "--m", "200", *fmt] for fmt in _FORMATS]
    # The rate path at large shapes, over several blocks and the fork split
    for criterion in ("alc", "apvc"):
        runs += [["simulate", "--model", "exp", "--criterion", criterion, *_TARGETS[criterion],
                  "--theta0", "0.5", "--n", "100000", "--m", "2000", *fmt] for fmt in _FORMATS]
    # The gamma and beta blocks over many distinct totals and the fork split
    for model, theta0 in (("poisson", "1.5"), ("bernoulli", "0.5")):
        for criterion in ("alc", "acc"):
            runs += [["simulate", "--model", model, *_MODELS[model][0], "--criterion", criterion,
                      *_TARGETS[criterion], "--theta0", theta0, "--n", "100000", "--m", "5000",
                      *fmt] for fmt in _FORMATS]
    # Rare events, far in a tail of the incomplete beta function
    for cell in (["--criterion", "es", "--theta1", "0.1", "--theta0", "0.001", "--n", "10000",
                  "--m", "20"],
                 ["--criterion", "acc", "--len", "0.2", "--theta0", "0.998", "--n", "35000"]):
        runs += [["simulate", "--model", "bernoulli", *cell, *fmt] for fmt in _FORMATS]
    # size has no csv row; this one shows how it is refused
    runs.append(["size", "--model", "poisson", "--criterion", "apvc", "--eps", "0.01",
                 "--range", "0.5:2", "--format", "csv"])
    return runs


def largest_gap(old: str, new: str) -> str:
    """The largest relative gap ``|a - b| / max(|a|, |b|)`` between the
    numbers of ``old`` and ``new`` taken in order, or why there is none."""
    import re

    number = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
    a, b = (re.findall(number, text) for text in (old, new))
    if len(a) != len(b):
        return f"{len(a)} numbers against {len(b)}"
    gaps = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(map(float, a), map(float, b))
            if x != y]
    return f"largest relative gap {max(gaps, default=0.0):.3g} over {len(a)} numbers"


def run_tree(src: str, runs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argv, the tree's path in a
    warning's location written as ``SRC``."""
    src = os.path.abspath(src)
    done = subprocess.run([sys.executable, "-c", _CHILD], input=json.dumps(runs),
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    return [[code, out, err.replace(src, "SRC")] for code, out, err in json.loads(done.stdout)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src", help="the src directory of the reference tree")
    parser.add_argument("change_src", help="the src directory of the tree under test")
    args = parser.parse_args(argv)
    runs = argvs()
    before, after = run_tree(args.parent_src, runs), run_tree(args.change_src, runs)
    differ = 0
    for argv, old, new in zip(runs, before, after):
        if old == new:
            continue
        differ += 1
        parts = [f"exit {old[0]} -> {new[0]}"] if old[0] != new[0] else []
        parts += [f"{name} differs ({largest_gap(old[k], new[k])})"
                  for name, k in (("stdout", 1), ("stderr", 2)) if old[k] != new[k]]
        print(f"bayessize {' '.join(argv)}: {'; '.join(parts)}")
    print(f"{len(runs)} commands compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
