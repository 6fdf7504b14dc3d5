#!/usr/bin/env python3
"""`check_golden.py generate <fig>` must refresh only the figures it is given.

Runs `generate fig11` against a temporary copy of the manifest and checks that
every other line of the copy is unchanged byte for byte, and that fig11 still
has exactly one line.

usage: tools/test_golden_generate.py --lab build/zipper_lab
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lab", required=True)
    args = ap.parse_args()

    src = os.path.join(HERE, "golden_quick.sha256")
    with open(src, "rb") as f:
        before = f.read().splitlines(keepends=True)
    with tempfile.TemporaryDirectory(prefix="golden_merge_") as tmp:
        manifest = os.path.join(tmp, "golden_quick.sha256")
        shutil.copyfile(src, manifest)
        subprocess.run([sys.executable, os.path.join(HERE, "check_golden.py"),
                        "generate", "fig11", "--manifest", manifest,
                        "--lab", args.lab, "-j", "1"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(manifest, "rb") as f:
            after = f.read().splitlines(keepends=True)

    def others(lines):
        return [l for l in lines if not l.rstrip().endswith(b"  fig11.csv")]

    fail = 0
    if others(after) != others(before):
        print("FAIL: generate fig11 changed lines of other figures")
        fail = 1
    if len(after) - len(others(after)) != 1:
        print("FAIL: generate fig11 did not leave exactly one fig11 line")
        fail = 1
    if not fail:
        print(f"golden generate: OK ({len(others(after))} other lines kept)")
    return fail


if __name__ == "__main__":
    sys.exit(main())
