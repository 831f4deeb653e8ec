#!/usr/bin/env python3
"""Build the benchmark and run one workload, or both.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root. The workloads and the default run length
are those `BENCHMARK.json` declares. It builds the `perfbench` package (its own
cargo workspace, built against the repository's crates) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, then runs each
workload in a process of its own, so that each reports its own peak memory.

For one workload the last line of standard output is the benchmark's JSON
result. For `all`, one summary line per workload precedes a combined JSON
result whose metric names carry the workload as a prefix.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S,
    )
    return os.path.join(ROOT, target, "release", "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload in its own process; returns its result line, parsed
    and as printed."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        timeout=RUN_TIMEOUT_S,
    )
    line = proc.stdout.strip().splitlines()[-1]
    return json.loads(line), line


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as declared:
        benchmark = json.load(declared)
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
        if args.workload != "all":
            print(run_workload(binary, args.workload, args)[1])
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads:
            result = run_workload(binary, workload, args)[0]
            cells = ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                              for name, m in result["metrics"].items())
            print(f"{workload}: {cells}; attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {str(result['correct']).lower()}")
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError, IndexError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
