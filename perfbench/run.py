#!/usr/bin/env python3
"""Build and run the zipper end-to-end benchmark (design: perfbench/DESIGN.md).

Run from the repository root:

    python3 perfbench/run.py --workload svc_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test        # the oracles' own tests

Each call configures and builds perfbench/ (which compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; after
the first, that only rebuilds what changed. The workload then runs in a
process of its own, and its last stdout line is the JSON result. Build output
goes to stderr. A failed build or a failed oracle exits non-zero.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["des_figures", "svc_stream", "svc_sessions", "rt_inproc"]
# Leaves headroom under the 180 s a run may take, build excluded.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring every time retries a configure step that failed before.
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--test", action="store_true",
                    help="build and run the oracle tests instead")
    args = ap.parse_args()
    if not args.test and not args.workload:
        ap.error("--workload is required")

    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_dir, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.test:
        return subprocess.call(
            [os.path.join(build_dir, "perfbench_oracle_test")],
            stdout=sys.stderr)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace,
           "--work-dir", os.path.join(out_dir, "work"),
           "--golden", os.path.join("tools", "golden_quick.sha256")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
