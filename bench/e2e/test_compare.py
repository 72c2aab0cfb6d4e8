#!/usr/bin/env python3
"""Unit tests for compare.py:  python3 bench/e2e/test_compare.py"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "keys_per_s", "unit": "keys/s", "better": "higher", "bound": 0.1},
        {"name": "p99_us", "unit": "us", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "compute_ms", "unit": "ms", "better": "lower"},
        {"name": "exchanges", "unit": "count", "better": "lower"},
    ],
}


def records(values, trace=0, workload="w"):
    """One record per seed; `values` maps metric -> list over seeds."""
    n = len(next(iter(values.values())))
    return [{"workload": workload, "seed": s, "trace": trace,
             "result": {"correct": True, "attempted": 1, "failed": 0,
                        "metrics": {k: {"value": v[s], "unit": "x"} for k, v in values.items()}}}
            for s in range(n)]


def labels(parent, change):
    return {r["metric"]: r["label"] for r in compare.compare(BENCH, parent, change)}


NOISE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


class LabelTest(unittest.TestCase):
    def test_identical_runs_are_unchanged(self):
        vals = {"keys_per_s": [100 * x for x in NOISE], "p99_us": [50 * x for x in NOISE]}
        self.assertEqual(labels(records(vals), records(vals)),
                         {"keys_per_s": "unchanged", "p99_us": "unchanged"})

    def test_regression_beyond_bound_is_worse(self):
        parent = {"keys_per_s": [100 * x for x in NOISE], "p99_us": [50 * x for x in NOISE]}
        change = {"keys_per_s": [85 * x for x in NOISE], "p99_us": [60 * x for x in NOISE]}
        self.assertEqual(labels(records(parent), records(change)),
                         {"keys_per_s": "worse", "p99_us": "worse"})

    def test_regression_within_bound_is_unchanged(self):
        parent = {"keys_per_s": [100 * x for x in NOISE], "p99_us": [50 * x for x in NOISE]}
        change = {"keys_per_s": [96 * x for x in NOISE], "p99_us": [52 * x for x in NOISE]}
        self.assertEqual(labels(records(parent), records(change))["keys_per_s"], "unchanged")

    def test_gain_needs_ninety_percent_of_pairs_and_gap_over_iqr(self):
        parent = {"keys_per_s": [100 * x for x in NOISE], "p99_us": [50] * 10}
        change = {"keys_per_s": [110 * x for x in NOISE], "p99_us": [50] * 10}
        self.assertEqual(labels(records(parent), records(change))["keys_per_s"], "better")
        # Two pairs lost out of ten: 80% wins is not a gain.
        change["keys_per_s"][0] = 90
        change["keys_per_s"][1] = 90
        self.assertNotEqual(labels(records(parent), records(change))["keys_per_s"], "better")

    def test_gain_needs_ten_pairs(self):
        parent = {"keys_per_s": [100 * x for x in NOISE[:5]], "p99_us": [50] * 5}
        change = {"keys_per_s": [120 * x for x in NOISE[:5]], "p99_us": [50] * 5}
        self.assertEqual(labels(records(parent), records(change))["keys_per_s"], "unchanged")

    def test_wide_spread_is_unresolved(self):
        wide = [100, 70, 130, 80, 120, 60, 140, 90, 110, 100]
        parent = {"keys_per_s": wide, "p99_us": [50] * 10}
        change = {"keys_per_s": list(reversed(wide)), "p99_us": [50] * 10}
        self.assertEqual(labels(records(parent), records(change))["keys_per_s"], "unresolved")

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        parent = {"keys_per_s": [60, 70, 80, 90, 100, 60, 70, 80, 90, 100], "p99_us": [50] * 10}
        change = {"keys_per_s": [101, 120, 140, 160, 180, 101, 120, 140, 160, 180],
                  "p99_us": [50] * 10}
        self.assertEqual(labels(records(parent), records(change))["keys_per_s"], "better")

    def test_counts_must_match_exactly(self):
        parent = {"compute_ms": [5.0] * 10, "exchanges": [3] * 10}
        same = {"compute_ms": [5.1] * 10, "exchanges": [3] * 10}
        self.assertEqual(labels(records(parent, trace=1), records(same, trace=1))["exchanges"],
                         "unchanged")
        moved = {"compute_ms": [5.0] * 10, "exchanges": [3] * 9 + [4]}
        self.assertEqual(labels(records(parent, trace=1), records(moved, trace=1))["exchanges"],
                         "mismatch")

    def test_pairs_by_workload_and_seed(self):
        vals = {"keys_per_s": [100.0] * 10, "p99_us": [50.0] * 10}
        parent = records(vals, workload="a") + records(vals, workload="b")
        change = records(vals, workload="a")[:4]
        rows = compare.compare(BENCH, parent, change)
        self.assertEqual({(r["workload"], r["pairs"]) for r in rows}, {("a", 4)})


class CliTest(unittest.TestCase):
    def run_cli(self, parent, change):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for name, recs in (("p.jsonl", parent), ("c.jsonl", change)):
                p = Path(d) / name
                p.write_text("".join(json.dumps(r) + "\n" for r in recs))
                paths.append(str(p))
            bench = Path(d) / "BENCHMARK.json"
            bench.write_text(json.dumps(BENCH))
            return subprocess.run([sys.executable, str(Path(compare.__file__)), *paths,
                                   "--benchmark", str(bench)], capture_output=True, text=True)

    def test_exit_status(self):
        base = {"keys_per_s": [100 * x for x in NOISE], "p99_us": [50 * x for x in NOISE]}
        worse = {"keys_per_s": [80 * x for x in NOISE], "p99_us": [50 * x for x in NOISE]}
        self.assertEqual(self.run_cli(records(base), records(base)).returncode, 0)
        out = self.run_cli(records(base), records(worse))
        self.assertEqual(out.returncode, 1)
        self.assertIn("worse", out.stdout)


if __name__ == "__main__":
    unittest.main()
