#!/usr/bin/env python3
"""Builds and runs the end-to-end wire benchmark for one workload.

Run from anywhere; paths are resolved against the repository root:

    python3 bench_e2e/run.py --workload sampled_small --seed 1 --seconds 20 --trace 0

The script configures and builds bench_e2e/ (which compiles the libraries
under src/) into .bench_build/e2e with CMake, runs e2e_bench, prints its
report and ends with one JSON line:

    {"correct": true, "attempted": 7800, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics named in BENCHMARK.json;
--trace 1 runs the traced configuration, writes a Chrome trace next to the
result record and reports the per-layer metrics, including the tracing
overhead against an untraced run with the same seed (run first if no such
record exists yet).

Every run leaves its result record in .bench_build/results/ (or --results)
for compare.py. The exit code is 0 only when the build, the run and every
output check succeed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
# A run must end within 180 s of starting (builds excepted).
RUN_DEADLINE_S = 170.0


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not next to bench_e2e/", 2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as exc:
            fail("build step failed: %s" % exc)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def git_commit():
    # Only the checkout's own repository: never a repository around it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_binary(args, traced, results_dir, deadline):
    stem = "%s-s%d-t%g" % (args.workload, args.seed, args.seconds)
    out = os.path.join(results_dir, stem + ("-traced" if traced else "") +
                       ".json")
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--out=" + out,
           "--socket=" + os.path.relpath(
               os.path.join(BUILD_DIR, "e2e-%d.sock" % os.getpid()), ROOT),
           "--commit=" + git_commit()]
    if traced:
        cmd.append("--trace=" + os.path.join(results_dir,
                                             stem + ".trace.json"))
    if os.path.exists(out):
        os.remove(out)
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("e2e_bench did not finish in time")
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if not os.path.isfile(out):
        fail("e2e_bench exited with %d and wrote no result" % done.returncode)
    with open(out) as f:
        return json.load(f), done.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results",
                        default=os.path.join(ROOT, ".bench_build", "results"))
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(args.results, exist_ok=True)

    record, code, path = run_binary(args, args.trace == 1, args.results,
                                    deadline)
    if args.trace == 1:
        # Tracing overhead: this run against an untraced one, same seed.
        stem = "%s-s%d-t%g" % (args.workload, args.seed, args.seconds)
        plain_path = os.path.join(args.results, stem + ".json")
        plain = None
        if os.path.isfile(plain_path):
            with open(plain_path) as f:
                plain = json.load(f)
        if plain is None or not plain.get("correct"):
            plain, plain_code, _ = run_binary(args, False, args.results,
                                              deadline)
            code = code or plain_code
        traced_e2e, plain_e2e = record["end_to_end"], plain["end_to_end"]
        record["per_layer"]["trace.overhead_rtt_p50_share"] = {
            "value": traced_e2e["rtt_p50_ms"]["value"] /
            plain_e2e["rtt_p50_ms"]["value"] - 1.0, "unit": "ratio"}
        record["per_layer"]["trace.overhead_capacity_share"] = {
            "value": 1.0 - traced_e2e["capacity_jobs_per_s"]["value"] /
            plain_e2e["capacity_jobs_per_s"]["value"], "unit": "ratio"}
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        group, wanted = record["per_layer"], spec["per_layer"]
    else:
        group, wanted = record["end_to_end"], spec["end_to_end"]

    metrics = {}
    for metric in wanted:
        if metric["name"] not in group:
            fail("metric %s missing from the result" % metric["name"])
        metrics[metric["name"]] = group[metric["name"]]
    print(json.dumps({"correct": bool(record["correct"]) and code == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(code)


if __name__ == "__main__":
    main()
