#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. The benchmark's own output is passed through; its
last line is one JSON object with "correct", "attempted", "failed" and
"metrics". A traced run (--trace 1) also writes a Chrome trace to
.bench_build/traces/<workload>.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch
                return log_path, False
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
        ok = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) == 0
    return log_path, ok


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    log_path, ok = build()
    if not ok:
        if os.path.exists(log_path):
            with open(log_path) as f:
                sys.stderr.write(f.read()[-4000:])
        fail("build failed")

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload: the latest traced run (they run to tens of MB).
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(args.trace)
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
             f"unexpected {sorted(extra)}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()
