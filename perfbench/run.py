#!/usr/bin/env python3
"""Exploration-pipeline benchmark: build, run one workload, or self-test.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library, isexd and the benchmark
driver (Release) under .bench_build/; later calls only rebuild what changed.
The last line of standard output is the result JSON of the driver. See
perfbench/README.md for the workloads, the metrics and the trace files.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "run")
BUILD_LOG = os.path.join(".bench_build", "build.log")
DRIVER = os.path.join(BUILD_DIR, "isex_perfbench")
ISEXD = os.path.join(BUILD_DIR, "isex", "isexd")
WORKLOADS = ["serve_hot", "serve_ir_large", "explore_cold"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(OUT_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "isex_perfbench", "isexd"],
    ]
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(BUILD_LOG) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (full log in %s)" % BUILD_LOG)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def driver_args(workload, seed, seconds, trace, extra=()):
    return [DRIVER, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--isexd", ISEXD, "--out-dir", OUT_DIR,
            "--git-commit", git_commit(), *extra]


def run_driver(args, capture):
    """Runs the driver; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE if capture else None, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [line for line in (stdout or "").splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Every workload for a second, traced and untraced: every metric named in
    BENCHMARK.json is printed with its unit, every check passes; then a
    corrupted pin must surface as a failed operation and a non-zero exit."""
    spec_path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_driver(driver_args(workload, 1, 1, trace), capture=True)
            result = last_json(out)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: exit %d, result %s" % (tag, code, result))
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json: %s" % (tag, got))
            print("ok   %s (%d operations checked)" % (tag, result["attempted"]))
    code, out = run_driver(driver_args("serve_hot", 1, 1, 0, ["--corrupt-pin"]), capture=True)
    result = last_json(out)
    if code == 0 or result is None or result.get("correct") or result.get("failed", 0) == 0:
        problems.append("corrupted pin was not reported as a failure: exit %d, %s" % (code, result))
    else:
        print("ok   corrupted pin -> %d failed operations, exit %d" % (result["failed"], code))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required (or --self-test)")
    if not (os.path.isfile(os.path.join(HERE, os.pardir, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(HERE, os.pardir, "src"))):
        fail("the library sources are not beside perfbench/; run from a full checkout")
    build()
    if args.self_test:
        sys.exit(self_test())
    code, _ = run_driver(driver_args(args.workload, args.seed, args.seconds, args.trace),
                         capture=False)
    sys.exit(code)


if __name__ == "__main__":
    main()
