#!/usr/bin/env python3
"""Tests of compare.py's verdict rule. Run: python3 perfbench/test_compare.py"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import verdict  # noqa: E402


class VerdictTest(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_spread_is_a_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [110, 111, 109, 110, 112, 108, 110, 111, 109, 99]
        self.assertEqual(verdict(parent, change, "higher", 0.1), ("gain", 9))

    def test_eight_of_ten_wins_is_not_a_gain(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [110, 111, 109, 110, 112, 108, 110, 111, 95, 95]
        self.assertEqual(verdict(parent, change, "higher", 0.1), ("within bound", 8))

    def test_worse_by_more_than_the_bound_is_a_regression(self):
        parent = [10.0] * 5 + [10.1] * 5
        change = [12.0] * 10
        self.assertEqual(verdict(parent, change, "lower", 0.1)[0], "regression")
        self.assertEqual(verdict(parent, change, "higher", 0.1)[0], "gain")

    def test_a_parent_spread_wider_than_the_bound_is_unresolved(self):
        parent = [80, 120, 90, 110, 100, 85, 115, 95, 105, 100]
        change = [101, 99, 100, 102, 98, 100, 103, 97, 100, 100]
        self.assertEqual(verdict(parent, change, "higher", 0.1)[0], "unresolved")

    def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread(self):
        parent = [80, 120, 90, 110, 100, 85, 115, 95, 105, 100]
        change = [130 + i for i in range(10)]
        self.assertEqual(verdict(parent, change, "higher", 0.1), ("gain", 10))


if __name__ == "__main__":
    unittest.main()
