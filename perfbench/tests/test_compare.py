#!/usr/bin/env python3
"""The paired-comparison rule of compare.py on synthetic samples."""

import os
import sys
import unittest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
)

from compare import judge  # noqa: E402


def around(center, spread, n=10):
    """n samples evenly spaced over center * (1 +- spread / 2)."""
    return [
        center * (1 - spread / 2 + spread * i / (n - 1)) for i in range(n)
    ]


class JudgeTest(unittest.TestCase):
    def test_clear_gain(self):
        r = judge(around(100, 0.02), around(120, 0.02), "higher", 0.1)
        self.assertEqual(r["verdict"], "gain")
        self.assertEqual(r["wins"], 10)

    def test_gain_when_lower_is_better(self):
        r = judge(around(100, 0.02), around(80, 0.02), "lower", 0.1)
        self.assertEqual(r["verdict"], "gain")

    def test_eight_wins_is_not_a_gain(self):
        parent = around(100, 0.02)
        change = [p * 1.2 for p in parent]
        change[0] = change[1] = 50.0  # two lost pairs
        r = judge(parent, change, "higher", 0.5)
        self.assertEqual(r["wins"], 8)
        self.assertNotEqual(r["verdict"], "gain")

    def test_median_gap_inside_parent_spread_is_not_a_gain(self):
        # Every pair wins by 1%, but the parent's own IQR is ~10%.
        parent = around(100, 0.2)
        change = [p * 1.01 for p in parent]
        r = judge(parent, change, "higher", 0.25)
        self.assertEqual(r["wins"], 10)
        self.assertEqual(r["verdict"], "within-bound")

    def test_regression_beyond_bound(self):
        r = judge(around(100, 0.02), around(80, 0.02), "higher", 0.1)
        self.assertEqual(r["verdict"], "regression")
        self.assertAlmostEqual(r["worse"], 0.2)

    def test_small_slowdown_within_bound(self):
        r = judge(around(100, 0.02), around(97, 0.02), "higher", 0.1)
        self.assertEqual(r["verdict"], "within-bound")

    def test_noisy_metric_is_unresolved(self):
        r = judge(around(100, 0.6), around(98, 0.6), "higher", 0.1)
        self.assertEqual(r["verdict"], "unresolved")
        self.assertGreater(r["spread"], 0.1)

    def test_noisy_but_separated_is_not_unresolved(self):
        parent = around(100, 0.4)
        change = [max(parent) + 1 + i for i in range(10)]
        r = judge(parent, change, "lower", 0.1)
        # Every change run is worse: spread does not hide a regression.
        self.assertEqual(r["verdict"], "regression")
        change = [min(parent) - 20 - i for i in range(10)]
        r = judge(parent, change, "lower", 0.1)
        self.assertNotEqual(r["verdict"], "unresolved")

    def test_ties_count_for_neither(self):
        parent = around(100, 0.02)
        r = judge(parent, list(parent), "higher", 0.1)
        self.assertEqual(r["wins"], 0)
        self.assertEqual(r["verdict"], "within-bound")

    def test_needs_ten_pairs(self):
        with self.assertRaises(ValueError):
            judge(around(100, 0.02, 9), around(100, 0.02, 9), "higher", 0.1)


if __name__ == "__main__":
    unittest.main()
