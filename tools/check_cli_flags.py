#!/usr/bin/env python3
"""Check cca_cli's flag contract: rejected flags exit 2, SSPA paths agree.

Checks, in order:
  1. every flag combination the CLI must refuse exits with status 2 and a
     one-line diagnostic on stderr (retired flags, a discovery backend for
     SSPA, misspelled distributions, a split threshold nothing would read);
  2. a tiny `--solver sspa` run (the hierarchical ring scan) and the same
     run with `--dense` (the index-free reference scan) both exit 0 with
     valid=yes and print the same cost= line.

Usage:
  check_cli_flags.py --cli PATH/TO/cca_cli

This is the ctest entry point `test_cli_flags`.
Exit codes: 0 pass, 1 check failure, 2 usage/setup error.
"""

import argparse
import subprocess
import sys

TINY = ["--nq", "4", "--np", "120", "--k", "20"]

# (label, argv) pairs that must each exit 2.
REJECTED = [
    ("retired --no-cell-floors", ["--solver", "sspa", "--no-cell-floors"] + TINY),
    ("retired --no-hierarchy", ["--solver", "sspa", "--no-hierarchy"] + TINY),
    ("retired --no-ann", ["--solver", "ida", "--no-ann"] + TINY),
    ("retired --backend auto", ["--solver", "ida", "--backend", "auto"] + TINY),
    ("retired --backend grid-batched", ["--solver", "ida", "--backend", "grid-batched"] + TINY),
    ("--backend with sspa", ["--solver", "sspa", "--backend", "grid"] + TINY),
    ("--backend auto with sspa", ["--solver", "sspa", "--backend", "auto"] + TINY),
    ("unknown backend", ["--solver", "ida", "--backend", "kd"] + TINY),
    ("--dist-q typo", ["--solver", "sspa", "--dist-q", "uniform"] + TINY),
    ("--dist-p typo", ["--solver", "sspa", "--dist-p", "x"] + TINY),
    ("split threshold off sspa", ["--solver", "ida", "--hier-split-threshold", "8"] + TINY),
    ("split threshold with --dense",
     ["--solver", "sspa", "--dense", "--hier-split-threshold", "8"] + TINY),
    ("empty instance", ["--solver", "sspa", "--nq", "0"]),
]


def run(cli, argv):
    return subprocess.run([cli] + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)


def value(stdout, key):
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cli", required=True, help="path to the cca_cli binary")
    args = parser.parse_args()

    failures = []
    for label, argv in REJECTED:
        done = run(args.cli, argv)
        if done.returncode != 2:
            failures.append(f"{label}: exit {done.returncode}, want 2 ({' '.join(argv)})")
        elif not done.stderr.strip():
            failures.append(f"{label}: exit 2 without a diagnostic on stderr")

    costs = {}
    for label, extra in (("ring scan", []), ("reference", ["--dense"])):
        argv = ["--solver", "sspa", "--dist-q", "u", "--dist-p", "c"] + TINY + extra
        done = run(args.cli, argv)
        if done.returncode != 0 or value(done.stdout, "valid") != "yes":
            failures.append(f"{label}: exit {done.returncode}, valid="
                            f"{value(done.stdout, 'valid')} ({' '.join(argv)})")
            continue
        costs[label] = value(done.stdout, "cost")
    if len(costs) == 2 and costs["ring scan"] != costs["reference"]:
        failures.append(f"cost mismatch: ring scan {costs['ring scan']} vs "
                        f"reference {costs['reference']}")

    if failures:
        for failure in failures:
            print(f"check_cli_flags: FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"check_cli_flags: OK ({len(REJECTED)} rejected combinations, "
          f"cost={costs['ring scan']} on both SSPA paths)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
