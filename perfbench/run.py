#!/usr/bin/env python3
"""Builds and runs one perfbench workload; see perfbench/README.md.

Usage (from the repository root):

    python3 perfbench/run.py --workload gas_16k --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench_native (and the mwx
libraries it links) into .bench_build/perfbench; later calls rebuild only
what changed.  The last line of stdout is the run's result object.  Exits
non-zero, without printing a result, when the program's sources are missing,
the build fails, the run fails, or the result does not carry exactly the
metrics BENCHMARK.json declares.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("gas_16k", "droplet_100k", "sim_fig1")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_native",
                    "-j", "3"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench_native")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--corrupt-ref", action="store_true",
                    help="perturb every reference value; every check must fail")
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"program sources not found ({need} missing at {ROOT})")
            return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    if args.corrupt_ref:
        cmd.append("--corrupt-ref")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    if proc.returncode != 0:
        log(f"run failed with exit code {proc.returncode}")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("run printed no result line")
        return 3
    want = expected_metrics(args.trace == 1)
    got = set(result.get("metrics", {}))
    if want is not None and got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
            f"extra {sorted(got - want)}")
        return 3
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
