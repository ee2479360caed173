#!/usr/bin/env python3
"""Builds and runs sqlpl's end-to-end wire benchmark (see README.md).

    python3 e2ebench/run.py --workload parse_hot --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
sqlpl library and the benchmark binary with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. Traced runs (--trace 1)
also write their spans as Chrome-trace JSON under .bench_out/.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["parse_hot", "dialect_churn", "exec_point", "exec_scan"]


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: sqlpl sources (src/) not found next to e2ebench/")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target_dir, "e2ebench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "e2ebench")


def calibration_note(output):
    """Says whether this run's host block matches the calibration host the
    open-loop rates were frozen on."""
    match = re.search(r"^host (\{.*\})$", output, re.M)
    if not match:
        return None
    with open(os.path.join(HERE, "calibration.json")) as f:
        calibrated = json.load(f)["host"]
    host = json.loads(match.group(1))
    if host == calibrated:
        return "calibration host: match"
    differs = sorted(k for k in set(host) | set(calibrated)
                     if host.get(k) != calibrated.get(k))
    return "calibration host: mismatch (" + ", ".join(differs) + ")"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for the four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--dump-inputs", action="store_true",
                        help="print the generated inputs and exit")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        return run_one(binary, args, args.workload)
    # Every workload in a process of its own, so set-up and memory
    # belong to it alone.
    codes = [run_one(binary, args, workload) for workload in WORKLOADS]
    return next((code for code in codes if code != 0), 0)


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    elif args.trace == "1":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        # One file per workload: the latest traced run's spans.
        cmd += ["--trace-out", os.path.join(out_dir, "trace_%s.json" % workload)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if lines and not args.dump_inputs:
        note = calibration_note(proc.stdout)
        if note:
            lines.insert(len(lines) - 1, note)
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")
        sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
