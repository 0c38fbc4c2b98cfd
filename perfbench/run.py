#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds perfbench/ (which compiles the
library from ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, runs the resexbench binary, and turns its last line into

    {"correct": ..., "attempted": ..., "failed": ...,
     "metrics": {"<name>": {"value": ..., "unit": "..."}}}

with names and units from BENCHMARK.json: every end_to_end metric with
--trace 0, every per_layer metric with --trace 1. Run records (host facts,
sample counts) and traced spans land in .bench_out/. Exits nonzero without a
result line when the build or the run fails, and nonzero with the result line
when an output failed its correctness check.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "resexbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(build_dir, "resexbench")


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """sha256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.abspath(build_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", commit(), "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with status {run.returncode}")
    for line in lines[:-1]:
        print(line)

    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail(f"{args.workload} printed no result line")
    metrics = {}
    for name, unit in units.items():
        value = raw["metrics"].get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} missing or not finite: {value!r}")
        metrics[name] = {"value": value, "unit": unit}
    extra = set(raw["metrics"]) - set(units)
    if extra:
        fail(f"metrics not declared in BENCHMARK.json: {sorted(extra)}")
    result = {"correct": bool(raw["correct"]), "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]), "metrics": metrics}
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
