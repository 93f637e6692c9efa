#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS.jsonl               # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl     # compare two sets

A set is a JSON-lines file written by perfbench/sweep.py: one object per
untraced run with "workload", "seed" and the run's "result". For every
workload and end-to-end metric this prints each set's median and
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.
With two sets it also gives a verdict against the metric's bound in
BENCHMARK.json:

  within bound  NEW's median is not worse than BASE's by more than the bound
  regressed     NEW's median is worse than BASE's by more than the bound
  unresolved    a set's spread is wider than the bound, so the medians
                cannot be told apart at that bound (unless every NEW run is
                better than every BASE run: then "better")

It also compares the share of failed operations per workload. Exits 1 when
any verdict is "regressed", a failed share differs, or a run of either set
failed its correctness checks ("correct": false).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base_med, new_med, better):
    """How much worse NEW is than BASE, as a share of BASE (<= 0: not worse)."""
    if base_med == 0:
        return 0.0 if new_med == base_med else float("inf")
    delta = (new_med - base_med) / abs(base_med)
    return delta if better == "lower" else -delta


def verdict(base, new, bound, better):
    """Verdict of NEW against BASE for one metric (lists of run values)."""
    if spread(base) > bound or spread(new) > bound:
        if better == "lower" and max(new) < min(base):
            return "better"
        if better == "higher" and min(new) > max(base):
            return "better"
        return "unresolved"
    q_base, q_new = quartiles(base)[1], quartiles(new)[1]
    return "regressed" if worse_by(q_base, q_new, better) > bound else "within bound"


def load(path):
    """{workload: {"metrics": {name: [values]}, "attempted": n, "failed": n,
    "incorrect": n}} over the runs of a set."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            w = out.setdefault(run["workload"], {"metrics": {}, "attempted": 0,
                                                 "failed": 0, "incorrect": 0})
            res = run["result"]
            w["attempted"] += res["attempted"]
            w["failed"] += res["failed"]
            w["incorrect"] += 0 if res["correct"] else 1
            for name, m in res["metrics"].items():
                w["metrics"].setdefault(name, []).append(m["value"])
    return out


def spec_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def fmt_q(values):
    q1, med, q3 = quartiles(values)
    return f"{med:11.4g} [{q1:.4g}, {q3:.4g}] spread {spread(values):6.1%}"


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(p) for p in argv[1:]]
    metrics = spec_metrics()
    bad = False
    for wl in sorted(set().union(*sets)):
        print(f"== {wl}")
        for i, s in enumerate(sets):
            w = s.get(wl)
            if w is None:
                continue
            share = w["failed"] / w["attempted"] if w["attempted"] else 0.0
            print(f"   set {i + 1}: failed {w['failed']}/{w['attempted']} "
                  f"({share:.4%}), incorrect runs {w['incorrect']}")
            bad |= w["incorrect"] > 0
        if len(sets) == 2 and wl in sets[0] and wl in sets[1]:
            a, b = sets[0][wl], sets[1][wl]
            if a["failed"] * b["attempted"] != b["failed"] * a["attempted"]:
                print("   failed share differs")
                bad = True
        for m in metrics:
            name, bound, better = m["name"], m["bound"], m["better"]
            vals = [s[wl]["metrics"].get(name) for s in sets if wl in s]
            if any(v is None for v in vals):
                continue
            line = f"   {name:16s} {m['unit']:>4s}  " + "  |  ".join(fmt_q(v) for v in vals)
            if len(vals) == 2:
                v = verdict(vals[0], vals[1], bound, better)
                med_a, med_b = quartiles(vals[0])[1], quartiles(vals[1])[1]
                line += f"  -> {v} (bound {bound:.0%}, worse by {worse_by(med_a, med_b, better):+.1%})"
                bad |= v == "regressed"
            else:
                line += "  ok" if spread(vals[0]) <= bound / 3 else (
                    "  within bound" if spread(vals[0]) <= bound else "  WIDER THAN BOUND")
                line += f" (bound {bound:.0%})"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
