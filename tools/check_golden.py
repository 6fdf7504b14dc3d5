#!/usr/bin/env python3
"""Golden-digest harness for the scenario lab's quick-mode figures.

Every registered figure is deterministic by contract: the DES replays the
same (time, seq) event order on every run, so a figure's quick-mode CSV is
byte-stable. This script pins that contract with checked-in SHA-256 digests:

    # refresh the manifest after an intentional output change
    python3 tools/check_golden.py generate --lab build/zipper_lab

    # refresh only some figures; every other line stays as it is
    python3 tools/check_golden.py generate fig11 --lab build/zipper_lab

    # CI: re-run every figure and fail on any drift
    python3 tools/check_golden.py check --lab build/zipper_lab

    # the same digests from the sharded parallel DES (fig14/fig15 shard)
    python3 tools/check_golden.py check fig14 fig15 --sim-threads 4

An unintentional digest change means a scenario's observable behaviour moved
— a scheduling change, a metric rename, a coupling regression —
and must be either fixed or acknowledged by regenerating the manifest in
the same commit that explains why.

Digests are compiler/runner-sensitive in principle (floating-point
formatting), so CI runs the check on the primary toolchain only.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

DEFAULT_MANIFEST = os.path.join(os.path.dirname(__file__), "golden_quick.sha256")


def registered_figures(lab):
    out = subprocess.run([lab, "list", "--names"], check=True,
                         capture_output=True, text=True).stdout
    return [line.strip() for line in out.splitlines() if line.strip()]


def run_figures(lab, figures, artifacts_dir, jobs, sim_threads):
    cmd = [lab, "run", *figures, f"--artifacts-dir={artifacts_dir}"]
    if jobs > 1:
        cmd += ["-j", str(jobs)]
    if sim_threads > 1:
        cmd += ["--sim-threads", str(sim_threads)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def digest(fig, artifacts_dir):
    """One digest per figure, over all its CSV artifacts (name + content).

    Most figures emit `<fig>.csv`; the tuner figure emits `<fig>.tune.csv`.
    Folding every CSV the run produced into one hash keeps the manifest
    format stable if a figure grows artifacts.
    """
    names = sorted(n for n in os.listdir(artifacts_dir)
                   if (n == fig + ".csv" or n.startswith(fig + "."))
                   and n.endswith(".csv"))
    if not names:
        raise FileNotFoundError(f"{fig}: no CSV artifacts in {artifacts_dir}")
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(b"\0")
        with open(os.path.join(artifacts_dir, name), "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def collect(lab, figures, jobs, sim_threads):
    digests = {}
    for fig in figures:
        # One directory per figure: a figure whose name prefixes another's
        # (fig01 / fig01b) must not fold the other's artifacts into its hash.
        with tempfile.TemporaryDirectory(prefix="golden_") as tmp:
            run_figures(lab, [fig], tmp, jobs, sim_threads)
            digests[fig] = digest(fig, tmp)
    return digests


def load_manifest(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            sha, name = line.split(None, 1)
            entries[name.removesuffix(".csv")] = sha
    return entries


def merge_manifest(path, figures, digests):
    """The manifest's lines with the listed figures' digests replaced in
    place (new figures appended); every other line is kept byte-for-byte."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    pending = list(figures)
    for i, line in enumerate(lines):
        parts = line.split(None, 1)
        if len(parts) != 2 or line.startswith("#"):
            continue
        fig = parts[1].strip().removesuffix(".csv")
        if fig in digests:
            lines[i] = f"{digests[fig]}  {fig}.csv\n"
            pending.remove(fig)
    lines += [f"{digests[fig]}  {fig}.csv\n" for fig in pending]
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=["generate", "check"])
    ap.add_argument("figures", nargs="*",
                    help="figures to pin (default: every registered figure)")
    ap.add_argument("--lab", default="build/zipper_lab",
                    help="path to the zipper_lab binary")
    ap.add_argument("--manifest", default=DEFAULT_MANIFEST)
    ap.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--sim-threads", type=int, default=1,
                    help="passed to `zipper_lab run`; sharding must not "
                         "change a digest")
    args = ap.parse_args()

    figures = args.figures or registered_figures(args.lab)
    digests = collect(args.lab, figures, args.jobs, args.sim_threads)

    if args.mode == "generate":
        if args.figures and os.path.exists(args.manifest):
            lines = merge_manifest(args.manifest, figures, digests)
        else:
            lines = ["# Quick-mode figure CSV digests — tools/check_golden.py\n",
                     "# Regenerate: python3 tools/check_golden.py generate "
                     "--lab build/zipper_lab\n"]
            lines += [f"{digests[fig]}  {fig}.csv\n" for fig in figures]
        with open(args.manifest, "w", encoding="utf-8") as f:
            f.writelines(lines)
        print(f"golden manifest: wrote {len(figures)} digests to {args.manifest}")
        return 0

    want = load_manifest(args.manifest)
    fail = 0
    for fig in figures:
        expect = want.get(fig)
        if expect is None:
            print(f"FAIL: {fig} is not in {args.manifest} — regenerate")
            fail = 1
        elif digests[fig] != expect:
            print(f"FAIL: {fig}.csv drifted: {digests[fig]} != {expect}")
            fail = 1
    stale = sorted(set(want) - set(figures))
    if stale and not args.figures:
        print(f"FAIL: manifest pins unregistered figures: {', '.join(stale)}")
        fail = 1
    if not fail:
        print(f"golden check: OK ({len(figures)} figures byte-stable)")
    return fail


if __name__ == "__main__":
    sys.exit(main())
