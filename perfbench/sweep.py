#!/usr/bin/env python3
"""Run the benchmark over several seeds and append every result to a file.

    python3 perfbench/sweep.py OUT.jsonl [--seeds 1-10] [--workloads a,b]

Every run is untraced and lasts BENCHMARK.json's run_seconds, so two sets
always measure the same thing. Each line of OUT.jsonl is {"workload",
"seed", "result"}, the input perfbench/compare.py reads. Defaults: every
workload of BENCHMARK.json, seeds 1-10.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    for wl in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": wl, "seed": seed,
                                    "result": result}) + "\n")
            m = result["metrics"]
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
