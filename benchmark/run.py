#!/usr/bin/env python3
"""Build lacc_bench and run one workload; the last stdout line is the result.

    python3 benchmark/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds benchmark/ in Release into $CARGO_TARGET_DIR (default .bench_build,
relative to the repository root), runs the workload there, checks that it
reported every metric BENCHMARK.json lists for the mode (end_to_end for
--trace 0, per_layer for --trace 1) with its unit, and prints those as

    {"correct": true, "attempted": A, "failed": F, "metrics": {...}}

lacc_bench verifies every output itself and prints nothing for a wrong
one; then, or on any build or run failure, this exits non-zero without a
result line.  Build logs go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target",
                  "lacc_bench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build(build_dir, env)

    out = os.path.join(build_dir, f"result-{os.getpid()}.jsonl")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(build_dir, "lacc_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--json", out]
    try:
        # The stream workload's data directory lands in the build directory.
        done = subprocess.run(cmd, cwd=build_dir, stdout=sys.stderr,
                              env=env, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"lacc_bench exited with {done.returncode}")
        with open(out) as f:
            result = json.loads(f.read().splitlines()[-1])
    except (OSError, ValueError, IndexError, subprocess.TimeoutExpired) as e:
        fail(f"lacc_bench failed: {e}")
    finally:
        if os.path.exists(out):
            os.remove(out)

    got = result["metrics"]
    wrong = sorted(n for n, unit in wanted.items()
                   if n not in got or got[n]["unit"] != unit)
    if wrong:
        fail(f"lacc_bench did not report these as BENCHMARK.json lists "
             f"them: {wrong}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: got[n] for n in wanted}}))


if __name__ == "__main__":
    main()
