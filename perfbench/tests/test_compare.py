"""Tests for the verdicts of perfbench/compare.py."""

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import compare  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (5.5, 2.75, 8.25))
        self.assertEqual(compare.spread([5, 1, 4, 2, 3]), (3, 1.5, 4.5))
        self.assertEqual(compare.spread([1, 2]), (1.5, 0.75, 2.25))
        self.assertEqual(compare.spread([3.0]), (3.0, 3.0, 3.0))


class VerdictTest(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_same_runs_are_within_bound(self):
        self.assertEqual(compare.verdict(self.base, list(self.base), "lower", 0.1),
                         "within bound")

    def test_clear_gain_is_better(self):
        change = [v * 0.8 for v in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1), "better")
        self.assertEqual(compare.verdict(self.base, change, "higher", 0.1), "worse")

    def test_small_shift_is_within_bound(self):
        change = [v * 1.05 for v in self.base]
        self.assertEqual(compare.verdict(self.base, change, "lower", 0.1), "within bound")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50, 150, 60, 140, 100, 90, 110, 70, 130, 100]
        self.assertEqual(compare.verdict(self.base, noisy, "lower", 0.1), "unresolved")

    def test_every_run_better_wins_despite_spread(self):
        noisy = [10, 40, 12, 38, 25, 20, 30, 15, 35, 25]
        self.assertEqual(compare.verdict(self.base, noisy, "lower", 0.1), "better")


class CompareTest(unittest.TestCase):
    def write_set(self, directory, values, digest):
        for seed, value in enumerate(values):
            result = {"workload": "w", "seed": seed, "trace": 0, "digest": digest(seed),
                      "metrics": {"m": {"value": value, "unit": "ms"}}}
            (Path(directory) / f"w-s{seed}-t0.json").write_text(json.dumps(result))

    def test_rows_and_digest_notes(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write_set(a, [10, 10, 11], lambda s: "0x1")
            self.write_set(b, [20, 20, 21], lambda s: "0x2" if s == 1 else "0x1")
            rows, notes = compare.compare(a, b, spec)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][-1], "worse")
        self.assertEqual(notes, ["w seed 1: decision digest differs"])


if __name__ == "__main__":
    unittest.main()
