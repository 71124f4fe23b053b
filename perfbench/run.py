#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload dispatch|batch|paper|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a cca source tree. The first call builds the driver
(perfbench/CMakeLists.txt) under .bench_build/: an untraced Release tree for
--trace 0 and, for --trace 1, a second Release tree with
-DCCA_ENABLE_TRACING=ON. Later calls only re-check the builds.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced build for the per-layer metrics plus a short untraced reference
run, whose ops_per_s gives the tracing overhead. The driver's report goes
to stdout line by line; the last line is one JSON object with the keys
correct, attempted, failed and metrics. A failed output check exits 1.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("dispatch", "batch", "paper", "serve")
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(flavor):
    """Configures and builds one driver tree; returns the binary's path."""
    tree = os.path.join(BUILD_ROOT, flavor)
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", tree, "-DCMAKE_BUILD_TYPE=Release",
                 "-DCCA_ENABLE_TRACING=" + ("ON" if flavor == "traced" else "OFF")]
    steps = [] if os.path.exists(os.path.join(tree, "CMakeCache.txt")) else [configure]
    steps.append(["cmake", "--build", tree, "--target", "perfbench_driver", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(tree, "perfbench_driver")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def drive(binary, trace, args, seconds, extra=()):
    """Runs the driver; echoes its report lines and returns its JSON result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(seconds), "--trace", str(trace), "--size", args.size,
           "--git-sha", args.git_sha, *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode not in (0, 1) or not lines:
        fail("driver exited with code %d" % done.returncode)
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Small inputs for perfbench/test_perfbench.py; the benchmark uses full.
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("run from a cca source tree: %s has no CMakeLists.txt and src/" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    args.git_sha = git_sha()
    print("source_digest: " + source_digest())
    untraced = build("release")
    if args.trace:
        traced = build("traced")
        # Untraced reference for the tracing overhead: a quarter of the
        # window, with no minimum operation count.
        reference = drive(untraced, 0, args, max(1.0, args.seconds / 4), ["--min-ops", "1"])
        spans = os.path.join(BUILD_ROOT, "spans", "%s-seed%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        result = drive(traced, 1, args, args.seconds, ["--spans-out", spans])
        ref_ops = reference["metrics"]["ops_per_s"]["value"]
        traced_ops = result["metrics"]["ops_per_s"]["value"]
        result["metrics"]["trace.overhead_ops_per_s"] = {"value": ref_ops - traced_ops,
                                                        "unit": "1/s"}
        result["metrics"]["trace.overhead_frac"] = {
            "value": (ref_ops - traced_ops) / ref_ops if ref_ops > 0 else 0.0,
            "unit": "fraction"}
        print("tracing overhead: %.4g -> %.4g ops/s untraced -> traced" % (ref_ops, traced_ops))
        result["correct"] = result["correct"] and reference["correct"]
    else:
        result = drive(untraced, 0, args, args.seconds)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("metric %s with unit %s missing from the driver's output" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
