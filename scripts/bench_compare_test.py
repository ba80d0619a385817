#!/usr/bin/env python3
"""Checks for bench_compare.py on two fixture files of five single-repetition
entries each (scripts/testdata/bench_compare/).

The baseline's first repetition (130 items/s) is not its median (100), so a
loader that reports repetition 1 fails here. The interleaved recipe writes
one file per run into a directory per side; the check splits each fixture
that way and expects the same comparison as from the single files.

    python3 scripts/bench_compare_test.py
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "testdata", "bench_compare")
BASE = os.path.join(FIXTURES, "baseline.json")
NEW = os.path.join(FIXTURES, "new.json")
NAME = "BM_Fixture"


def split_into_runs(path, out_dir):
    """Writes each benchmark entry of `path` to its own file, as one
    single-repetition run per invocation of the binary would."""
    with open(path) as f:
        doc = json.load(f)
    os.makedirs(out_dir)
    for i, entry in enumerate(doc["benchmarks"]):
        with open(os.path.join(out_dir, "run%02d.json" % i), "w") as f:
            json.dump({"context": doc["context"], "benchmarks": [entry]}, f)


class BenchCompareTest(unittest.TestCase):
    def test_reports_median_of_iterations(self):
        entry, reps, cv = bench_compare.load_with_cv(BASE)[NAME]
        self.assertEqual(bench_compare._throughput(entry)[0], 100.0)
        self.assertEqual(len(reps), 5)
        self.assertIsNotNone(cv)
        entry, _, _ = bench_compare.load_with_cv(NEW)[NAME]
        self.assertEqual(bench_compare._throughput(entry)[0], 150.0)

    def test_even_count_takes_mean_of_middle_pair(self):
        entries = [{"items_per_second": v} for v in (10.0, 40.0, 20.0, 30.0)]
        median = bench_compare._median_entry(entries)
        self.assertEqual(median["items_per_second"], 25.0)

    def test_disjoint_ranges_resolve(self):
        old = bench_compare.load(BASE)[NAME]
        new = bench_compare.load(NEW)[NAME]
        ratio, resolved = bench_compare.speedup(old, new)
        self.assertTrue(resolved)
        self.assertAlmostEqual(ratio, 1.5)

    def test_overlapping_ranges_stay_unresolved(self):
        old = bench_compare.load(BASE)[NAME]
        ratio, resolved = bench_compare.speedup(old, old)
        self.assertFalse(resolved)
        self.assertEqual(ratio, 1.0)

    def test_interleaved_run_directories_match_single_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            base_dir = os.path.join(tmp, "base")
            new_dir = os.path.join(tmp, "new")
            split_into_runs(BASE, base_dir)
            split_into_runs(NEW, new_dir)
            self.assertEqual(bench_compare.load_with_cv(base_dir),
                             bench_compare.load_with_cv(BASE))
            out = os.path.join(tmp, "combined.json")
            with open(os.devnull, "w") as quiet:
                stdout, sys.stdout = sys.stdout, quiet
                try:
                    code = bench_compare.main([base_dir, new_dir, "--out",
                                               out])
                finally:
                    sys.stdout = stdout
            self.assertEqual(code, 0)
            with open(out) as f:
                combined = json.load(f)
            (row,) = combined["benchmarks"]
            self.assertEqual(row["speedup"], 1.5)
            self.assertIsNotNone(row["baseline_cv"])
            self.assertEqual(combined["environment"]["available_cores"], 4)


if __name__ == "__main__":
    unittest.main()
