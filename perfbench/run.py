#!/usr/bin/env python3
"""Build the Hive simulator benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--out DIR]

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments from the repository root. Its standard
output ends with one JSON line: {correct, attempted, failed, metrics}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")

ARGS = argparse.ArgumentParser(add_help=False)
ARGS.add_argument("--workload", default="all")
ARGS.add_argument("--trace", default="0")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("%s is missing: run this from a checkout of the repository" % needed)
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        return fail("neither dune nor opam is on PATH")
    # A private build: no shared dune cache outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return fail("build failed")
    run = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    # The result line must carry exactly the metrics BENCHMARK.json declares.
    opts, _ = ARGS.parse_known_args(argv)
    declared = declared_metrics(opts.trace == "1")
    if run.returncode == 0 and opts.workload != "all" and declared is not None:
        got = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
        printed = {k: v["unit"] for k, v in got.items()}
        if printed != declared:
            sys.stderr.write(run.stdout)
            return fail("metrics differ from BENCHMARK.json: %s" % sorted(
                set(printed.items()) ^ set(declared.items())))
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
