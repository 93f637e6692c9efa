#!/usr/bin/env python3
"""Tests of the percentile, bound and exit-code logic of compare.py.

    python3 perfbench/test_compare.py
"""
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        v = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
        q1, med, q3 = compare.quartiles(v)
        self.assertEqual([q1, med, q3], statistics.quantiles(v, n=4))
        self.assertEqual(med, 4.0)

    def test_exclusive_method_on_ten_values(self):
        # quantiles' default "exclusive" method: position (n + 1) * p.
        q1, med, q3 = compare.quartiles([float(i) for i in range(1, 11)])
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(med, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(compare.spread([float(i) for i in range(1, 11)]),
                               (8.25 - 2.75) / 5.5)


class Verdict(unittest.TestCase):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]

    def shifted(self, factor):
        return [v * factor for v in self.steady]

    def test_within_bound_either_direction(self):
        self.assertEqual(compare.verdict(self.steady, self.shifted(1.05), 0.1, "lower"),
                         "within bound")
        self.assertEqual(compare.verdict(self.steady, self.shifted(0.5), 0.1, "lower"),
                         "within bound")

    def test_regressed_depends_on_direction(self):
        self.assertEqual(compare.verdict(self.steady, self.shifted(1.2), 0.1, "lower"),
                         "regressed")
        self.assertEqual(compare.verdict(self.steady, self.shifted(0.8), 0.1, "higher"),
                         "regressed")
        self.assertEqual(compare.verdict(self.steady, self.shifted(1.2), 0.1, "higher"),
                         "within bound")

    def test_exactly_at_bound_is_not_a_regression(self):
        self.assertEqual(compare.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertEqual(compare.verdict([100.0] * 5, [110.0] * 5, 0.1, "lower"),
                         "within bound")

    def test_wide_spread_is_unresolved(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(noisy, self.steady, 0.1, "lower"), "unresolved")
        self.assertEqual(compare.verdict(self.steady, noisy, 0.1, "lower"), "unresolved")

    def test_wide_spread_but_every_run_better(self):
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        faster = [v / 10 for v in noisy]
        self.assertEqual(compare.verdict(noisy, faster, 0.1, "lower"), "better")
        self.assertEqual(compare.verdict(faster, noisy, 0.1, "higher"), "better")


class Main(unittest.TestCase):
    """Exit code of the command over sets written to temporary files."""

    def write_set(self, path, correct=(True,) * 3, failed=0):
        with open(path, "w") as f:
            for seed, ok in enumerate(correct, 1):
                metrics = {m["name"]: {"value": 1.0 + 0.001 * seed, "unit": m["unit"]}
                           for m in compare.spec_metrics()}
                result = {"correct": ok, "attempted": 10, "failed": failed,
                          "metrics": metrics}
                f.write(json.dumps({"workload": "w", "seed": seed,
                                    "result": result}) + "\n")

    def run_main(self, *paths):
        with contextlib.redirect_stdout(io.StringIO()):
            return compare.main(["compare.py", *paths])

    def test_agreeing_sets_pass(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            self.write_set(a)
            self.write_set(b)
            self.assertEqual(self.run_main(a, b), 0)
            self.assertEqual(self.run_main(a), 0)

    def test_incorrect_run_fails_either_side(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            self.write_set(a)
            self.write_set(b, correct=(True, False, True))
            self.assertEqual(self.run_main(a, b), 1)
            self.assertEqual(self.run_main(b, a), 1)
            self.assertEqual(self.run_main(b), 1)

    def test_failed_share_must_match(self):
        with tempfile.TemporaryDirectory() as d:
            a, b = os.path.join(d, "a.jsonl"), os.path.join(d, "b.jsonl")
            self.write_set(a, failed=1)
            self.write_set(b, failed=2)
            self.assertEqual(self.run_main(a, b), 1)


if __name__ == "__main__":
    unittest.main()
