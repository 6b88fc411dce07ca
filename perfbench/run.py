#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a dolx checkout:

    python3 perfbench/run.py --workload xmark-table1 --seed 1 --seconds 10 --trace 0

Workloads: xmark-table1, acl-churn.  The build goes to _build/ (dune);
per-seed exact counts and traced spans go to .perfbench/.  Build output
and progress lines go to stderr.  The executable prints the measured
values by metric name; this script takes the metric names and units from
BENCHMARK.json, checks that the two agree, and prints the result object
as the last line of stdout.  Exits non-zero when the checkout cannot be
built or a check fails; after a failed answer check the result is still
printed, with "correct": false.
"""

import json
import math
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def metrics(spec, values, trace):
    """The result's metrics: every metric BENCHMARK.json lists for this
    trace mode, with its unit.  A per-layer metric the workload does not
    exercise reads 0; a missing end-to-end metric or a value with no
    listed metric is an error."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    unknown = sorted(set(values) - names)
    if unknown:
        raise ValueError(f"values not listed in BENCHMARK.json: {unknown}")
    out = {}
    for m in listed:
        name = m["name"]
        if name not in values and not trace:
            raise ValueError(f"end-to-end metric {name} was not measured")
        value = values.get(name, 0.0)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def trace_mode(argv):
    """Whether the arguments ask for the traced run (--trace 1)."""
    try:
        return argv[argv.index("--trace") + 1] == "1"
    except (ValueError, IndexError):
        return False


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: not the root of a dolx checkout (no dune-project and lib/)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace = trace_mode(sys.argv)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        run = subprocess.run(
            [EXE] + sys.argv[1:],
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = run.stdout.splitlines()
    if not lines:
        print(f"perfbench: no result (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    try:
        got = json.loads(lines[-1])
        result = {
            "correct": got["correct"],
            "attempted": got["attempted"],
            "failed": got["failed"],
            "metrics": metrics(spec, got["values"], trace),
        }
    except (ValueError, KeyError, TypeError) as e:
        print(f"perfbench: bad result line: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
