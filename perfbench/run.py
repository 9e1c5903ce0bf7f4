#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload lc_churn|acl_rw|fail_sweep \
        --seed N --seconds N --trace 0|1

Run it from the root of a checkout. It builds perfbench/ together with the
RealConfig libraries under src/ into .bench_build/ (CMake, Release), runs
one workload in a process of its own, and passes that process's output
through: the last line of stdout is the run's JSON result. Build output goes
to stderr. The exit code is the workload's: 0 only when every output passed
its oracle. Without src/ next to perfbench/ it exits 2 before building.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, if present."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return None
    spec = json.loads(spec_file.read_text())
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lc_churn", "acl_rw", "fail_sweep"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no RealConfig sources at {ROOT / 'src'}")

    env = dict(os.environ)
    tmp = BUILD / "tmp"  # keep compiler temporaries inside the checkout
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    build(env)

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file",
                str(BUILD / f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        die(f"{args.workload} exited {proc.returncode} without a result", 1)
    want = expected_metrics(args.trace)
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if want is not None and got != want:
        die(f"metrics differ from BENCHMARK.json: {sorted(got ^ want)}", 1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
