#!/usr/bin/env python3
"""Builds the malisim benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload figsweep_full|tune_sweep|serve_batch \
        --seed N --seconds S --trace 0|1

The program is built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench under the repository root); later runs reuse the
build. Build output goes to stderr, so the last line of stdout is the
program's JSON result. See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figsweep_full", "tune_sweep", "serve_batch")
RUN_TIMEOUT_SEC = 170
MAX_JOBS = 4


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args()


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures and builds the program; returns its path or None.

    Both steps are incremental: on an up-to-date tree they take well under
    a second.
    """
    env = dict(os.environ)
    # Keep compiler temporaries inside the build tree.
    env["TMPDIR"] = os.path.join(out_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    configure = ["cmake", "-S", HERE, "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
        return None
    jobs = str(max(1, min(MAX_JOBS, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(out_dir, "perfbench")


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "malisim.h")):
        print("run.py: malisim sources not found under " +
              os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    program = build(out_dir)
    if program is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", ROOT,
               "--spans-out",
               os.path.join(out_dir, "spans-%s.json" % args.workload)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_SEC).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark program exceeded %d s" % RUN_TIMEOUT_SEC, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
