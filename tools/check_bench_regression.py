#!/usr/bin/env python3
"""Guard against micro-benchmark regressions in the DES kernel, the
executors and zipperd's per-block wire path (checksum, frame encode/decode).

Runs `micro_components --benchmark_format=json` for every kernel named in
the checked-in baseline (BENCH_sim.json, the `after_M_per_s` column) and
fails when any kernel's items_per_second lands more than --threshold below
its baseline. Shared-runner noise is handled two ways: the default threshold
is a generous 30% (BENCH_sim.json documents ~±15% run-to-run spread), and a
kernel that misses the bar is re-measured up to --retries times, keeping its
best observation, before the script calls it a regression.

usage: tools/check_bench_regression.py [--bench build/micro_components]
           [--baseline BENCH_sim.json] [--threshold 0.30]
           [--min-time 0.05s] [--retries 2]
"""

import argparse
import json
import re
import subprocess
import sys


def run_bench(bench, names, min_time):
    """One pass of the benchmark binary over `names`; returns {name: M/s}."""
    pattern = "^(" + "|".join(re.escape(n) for n in names) + ")$"

    def attempt(mt):
        return subprocess.run(
            [bench, "--benchmark_format=json", "--benchmark_min_time=" + mt,
             "--benchmark_filter=" + pattern],
            check=True, capture_output=True, text=True)

    try:
        out = attempt(min_time)
    except subprocess.CalledProcessError:
        # google-benchmark < 1.8 wants a bare double ("0.05"), >= 1.8 prefers
        # the suffixed form ("0.05s"); accept whichever this binary speaks.
        if not min_time.endswith("s"):
            raise
        out = attempt(min_time.rstrip("s"))
    results = {}
    for b in json.loads(out.stdout).get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip mean/median/stddev aggregate rows
        results[b["name"]] = b["items_per_second"] / 1e6
    return results


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", default="build/micro_components")
    ap.add_argument("--baseline", default="BENCH_sim.json")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max fractional drop below baseline (default 0.30)")
    ap.add_argument("--min-time", default="0.05s")
    ap.add_argument("--retries", type=int, default=2,
                    help="re-measurements granted to a failing kernel")
    args = ap.parse_args()

    with open(args.baseline) as f:
        doc = json.load(f)
    baseline = {b["name"]: b["after_M_per_s"] for b in doc["benchmarks"]}
    if not baseline:
        print(f"error: no benchmarks in {args.baseline}", file=sys.stderr)
        return 2

    best = run_bench(args.bench, sorted(baseline), args.min_time)
    missing = sorted(set(baseline) - set(best))
    if missing:
        print("error: baseline kernels absent from the benchmark binary:",
              file=sys.stderr)
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 2

    def failing():
        return sorted(n for n, base in baseline.items()
                      if best[n] < base * (1.0 - args.threshold))

    for attempt in range(args.retries):
        bad = failing()
        if not bad:
            break
        print(f"retry {attempt + 1}/{args.retries}: re-measuring "
              f"{len(bad)} kernel(s) below the bar", file=sys.stderr)
        for name, m_per_s in run_bench(args.bench, bad, args.min_time).items():
            best[name] = max(best[name], m_per_s)

    bad = set(failing())
    floor = 1.0 - args.threshold
    print(f"{'kernel':<44} {'baseline':>10} {'current':>10} "
          f"{'ratio':>7}  status")
    for name in sorted(baseline):
        ratio = best[name] / baseline[name]
        status = "REGRESSED" if name in bad else "ok"
        print(f"{name:<44} {baseline[name]:>8.2f}Ms {best[name]:>8.2f}Ms "
              f"{ratio:>6.2f}x  {status}")
    if bad:
        print(f"\nFAIL: {len(bad)} kernel(s) more than "
              f"{args.threshold:.0%} below {args.baseline} "
              f"(ratio < {floor:.2f})", file=sys.stderr)
        return 1
    print(f"\nbench regression check: OK ({len(baseline)} kernels within "
          f"{args.threshold:.0%} of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
