#!/usr/bin/env python3
"""Tests for compare.py on synthetic run values.

    python3 perfbench/test_compare.py
"""

import io
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

# Ten paired runs with about 1% spread around 10.0.
PARENT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


class Classify(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        change = [v * 0.9 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["verdict"], "improved")
        self.assertEqual(c["wins"], 10)

    def test_eight_of_ten_wins_is_not_a_gain(self):
        change = [v * 0.97 for v in PARENT]
        change[0] = PARENT[0] * 1.01
        change[1] = PARENT[1] * 1.01
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["wins"], 8)
        self.assertEqual(c["verdict"], "unchanged")

    def test_ties_count_for_neither_side(self):
        change = list(PARENT)
        change[0] -= 1
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["wins"], 1)
        self.assertEqual(c["verdict"], "unchanged")

    def test_gain_smaller_than_parent_iqr_is_not_claimed(self):
        # Every pair wins, but by less than the parent's own IQR.
        change = [v - 0.01 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["wins"], 10)
        self.assertEqual(c["verdict"], "unchanged")

    def test_worse_than_bound_is_regressed(self):
        change = [v * 1.2 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["verdict"], "regressed")
        self.assertAlmostEqual(c["worse"], 0.2, places=6)

    def test_worse_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=0.1)
        self.assertEqual(c["verdict"], "unchanged")

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in PARENT]
        self.assertEqual(
            compare.classify(PARENT, change, "higher", 0.1)["verdict"],
            "improved")
        change = [v * 0.8 for v in PARENT]
        self.assertEqual(
            compare.classify(PARENT, change, "higher", 0.1)["verdict"],
            "regressed")

    def test_spread_above_bound_is_unresolved(self):
        noisy = [5, 15, 8, 12, 10, 6, 14, 9, 11, 10]
        change = [v * 0.98 for v in noisy]
        c = compare.classify(noisy, change, "lower", bound=0.1)
        self.assertGreater(c["spread"], 0.1)
        self.assertEqual(c["verdict"], "unresolved")

    def test_noisy_but_every_change_run_better_is_improved(self):
        noisy = [10, 14, 11, 13, 12, 10.5, 13.5, 11.5, 12.5, 12]
        change = [v - 5 for v in noisy]
        c = compare.classify(noisy, change, "lower", bound=0.1)
        self.assertEqual(c["verdict"], "improved")

    def test_every_change_run_better_but_gap_within_iqr_is_unchanged(self):
        # Every change run beats every parent run, which lifts
        # "unresolved"; the median gap (2.6) is still below the parent's
        # IQR (5), so no gain is claimed.
        parent = [10] * 5 + [15] * 5
        change = [9.9] * 10
        c = compare.classify(parent, change, "lower", bound=0.25)
        self.assertEqual(c["verdict"], "unchanged")

    def test_more_failures_cancel_a_gain(self):
        change = [v * 0.8 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=0.1,
                             parent_fail=0.0, change_fail=0.01)
        self.assertEqual(c["verdict"], "no-gain-more-failures")

    def test_per_layer_metric_without_bound(self):
        change = [v * 1.5 for v in PARENT]
        c = compare.classify(PARENT, change, "lower", bound=None)
        self.assertEqual(c["verdict"], "worse")

    def test_unpaired_input_is_rejected(self):
        with self.assertRaises(ValueError):
            compare.classify(PARENT, PARENT[:5], "lower", 0.1)


class Order(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        order = compare.run_order(4)
        self.assertEqual(order[0], ("parent", "change"))
        self.assertEqual(order[1], ("change", "parent"))
        self.assertEqual(order[2], ("parent", "change"))
        self.assertEqual(order[3], ("change", "parent"))


def record(wl, pair, side, value, correct=True, failed=0):
    return {"workload": wl, "pair": pair, "side": side, "seed": pair,
            "result": {"correct": correct, "attempted": 100,
                       "failed": failed,
                       "metrics": {"wall_s": {"value": value, "unit": "s"}}}}


class Report(unittest.TestCase):
    METRICS = {"wall_s": ("s", "lower", 0.1)}

    def rows(self, records):
        out = io.StringIO()
        status = compare.report(records, self.METRICS, out)
        return status, out.getvalue()

    def test_one_row_per_workload_and_metric(self):
        recs = []
        for wl in ("a", "b"):
            for i, v in enumerate(PARENT):
                recs.append(record(wl, i, "parent", v))
                recs.append(record(wl, i, "change", v * 0.9))
        status, text = self.rows(recs)
        self.assertEqual(status, 0)
        rows = [l for l in text.splitlines() if " wall_s " in l]
        self.assertEqual(len(rows), 2)
        self.assertTrue(all(r.endswith("improved") for r in rows))

    def test_regression_sets_exit_status(self):
        recs = []
        for i, v in enumerate(PARENT):
            recs.append(record("a", i, "parent", v))
            recs.append(record("a", i, "change", v * 1.3))
        status, text = self.rows(recs)
        self.assertEqual(status, 1)
        self.assertIn("regressed", text)

    def test_incorrect_run_sets_exit_status(self):
        recs = []
        for i, v in enumerate(PARENT):
            recs.append(record("a", i, "parent", v))
            recs.append(record("a", i, "change", v, correct=(i != 3)))
        status, text = self.rows(recs)
        self.assertEqual(status, 1)
        self.assertIn("incorrect", text)

    def test_failed_share_is_reported_and_cancels_gain(self):
        recs = []
        for i, v in enumerate(PARENT):
            recs.append(record("a", i, "parent", v))
            recs.append(record("a", i, "change", v * 0.8, failed=1))
        status, text = self.rows(recs)
        self.assertIn("no-gain-more-failures", text)
        self.assertIn("failed share: parent 0.0000 change 0.0100", text)


if __name__ == "__main__":
    unittest.main()
