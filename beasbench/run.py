#!/usr/bin/env python3
"""One-command end-to-end benchmark of BEAS.

Builds the program from source in Release (the beasbench CMake package
next to this file, which compiles the repository's libraries), then runs
one workload and prints its result as the last line of stdout:

    python3 beasbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
    python3 beasbench/run.py --selftest

Run it from the repository root. Build output and block files go under
$CARGO_TARGET_DIR (default .bench_build) in the repository root; the
result line is also saved there under beasbench/results/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mix", "union_fanout", "disk_served")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path or None."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "beasbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(build_dir, "beasbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that every correctness check rejects a corrupted answer")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "beasbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    if args.selftest:
        return subprocess.run([binary, "--selftest"], timeout=RUN_TIMEOUT_S).returncode

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("benchmark run failed with exit code %d" % proc.returncode)
        return 1
    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        f.write(lines[-1] + "\n")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
