#!/usr/bin/env python3
"""Build and run the simulator benchmark (see hmcbench/README.md).

Run from the repository root:

    python3 hmcbench/run.py --workload gups_1cube --seed 1 --seconds 35 --trace 0

The first call configures and builds hmcbench/ (the simulator library
from src/ plus the hmcbench binary, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr.  The binary's stdout is passed through,
so the last line is the result JSON; the exit code is the binary's
(non-zero when an output check failed).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("gups_1cube", "chain8_hotspot", "vault_sweep")
DEFAULT_SEED = 1
# Never used while the benchmark was written; hmcbench/test_bench.py
# runs every workload on it and requires zero failed checks.
HELD_OUT_SEED = 977

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "hmcbench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("hmcbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "hmcbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hmcbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
