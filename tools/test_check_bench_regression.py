#!/usr/bin/env python3
"""CLI tests for check_bench_regression.py (stdlib only, run by CTest/CI).

Every case drives the script as a subprocess, the way CI does, and checks
both the exit status and that failures are readable FAIL lines rather than
tracebacks — the regression this guards is a ZeroDivisionError crashing
the bench-perf gate on a zero or missing cpu_time entry.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def bench_json(entries, build_type="Release"):
    return {
        "context": {"stackroute_build_type": build_type},
        "benchmarks": [
            {"name": name, "cpu_time": cpu, "time_unit": "ms"}
            if cpu is not None else {"name": name, "time_unit": "ms"}
            for name, cpu in entries
        ],
    }


def repeated_json(runs):
    """A --benchmark_repetitions file: for each (name, [cpu...]) the
    per-repetition NAME entries plus their NAME_median aggregate."""
    entries = []
    for name, cpus in runs:
        entries += [(name, cpu) for cpu in cpus]
        entries.append((f"{name}_median", sorted(cpus)[len(cpus) // 2]))
    return bench_json(entries)


class CheckBenchRegressionTest(unittest.TestCase):
    def run_script(self, baseline, fresh, counters, extra=()):
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            with open(base_path, "w") as fh:
                json.dump(baseline, fh)
            with open(fresh_path, "w") as fh:
                json.dump(fresh, fh)
            proc = subprocess.run(
                [sys.executable, SCRIPT, base_path, fresh_path,
                 *counters, *extra],
                capture_output=True, text=True)
        return proc

    def assert_clean_fail(self, proc):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("FAIL:", proc.stdout)
        self.assertNotIn("Traceback", proc.stderr)
        self.assertNotIn("Traceback", proc.stdout)

    def test_passes_on_equal_timings(self):
        doc = bench_json([("BM_A", 10.0)])
        proc = self.run_script(doc, doc, ["BM_A"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("ok: BM_A", proc.stdout)

    def test_flags_regression_beyond_threshold(self):
        base = bench_json([("BM_A", 10.0)])
        fresh = bench_json([("BM_A", 14.0)])
        proc = self.run_script(base, fresh, ["BM_A"])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSION", proc.stdout)

    def test_calibration_rescales_away_machine_speed(self):
        base = bench_json([("BM_A", 10.0), ("BM_CAL", 5.0)])
        fresh = bench_json([("BM_A", 20.0), ("BM_CAL", 10.0)])  # 2x machine
        proc = self.run_script(base, fresh, ["BM_A"],
                               ["--calibrate", "BM_CAL"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_zero_baseline_cpu_time_is_clean_fail(self):
        base = bench_json([("BM_A", 0.0)])
        fresh = bench_json([("BM_A", 10.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))

    def test_missing_cpu_time_is_clean_fail(self):
        base = bench_json([("BM_A", None)])
        fresh = bench_json([("BM_A", 10.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))

    def test_zero_fresh_cpu_time_is_clean_fail(self):
        # A zero *fresh* entry must not slip through as a 0.00x "ok" row —
        # it means the fresh JSON is truncated or corrupt, not infinitely
        # fast.
        base = bench_json([("BM_A", 10.0)])
        fresh = bench_json([("BM_A", 0.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))

    def test_zero_calibration_counter_is_clean_fail(self):
        base = bench_json([("BM_A", 10.0), ("BM_CAL", 0.0)])
        fresh = bench_json([("BM_A", 10.0), ("BM_CAL", 5.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"],
                                               ["--calibrate", "BM_CAL"]))

    def test_zero_fresh_calibration_counter_is_clean_fail(self):
        # A zero *fresh* calibration would turn the scale itself into 0 and
        # crash every later division — must be a clean FAIL too.
        base = bench_json([("BM_A", 10.0), ("BM_CAL", 5.0)])
        fresh = bench_json([("BM_A", 10.0), ("BM_CAL", 0.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"],
                                               ["--calibrate", "BM_CAL"]))

    def test_missing_counter_is_clean_fail(self):
        base = bench_json([("BM_A", 10.0)])
        fresh = bench_json([("BM_B", 10.0)])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))

    def test_non_release_build_is_clean_fail(self):
        base = bench_json([("BM_A", 10.0)])
        fresh = bench_json([("BM_A", 10.0)], build_type="Debug")
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))

    def test_gates_on_median_not_last_repetition(self):
        # The last repetition alone would read 1.6x; the median reads 1.0x.
        base = repeated_json([("BM_A", [9.0, 10.0, 11.0])])
        fresh = repeated_json([("BM_A", [10.0, 9.5, 16.0])])
        proc = self.run_script(base, fresh, ["BM_A"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("10.000 -> 10.000", proc.stdout)

    def test_median_regression_still_fails(self):
        base = repeated_json([("BM_A", [9.0, 10.0, 11.0])])
        fresh = repeated_json([("BM_A", [14.0, 15.0, 9.0])])
        proc = self.run_script(base, fresh, ["BM_A"])
        self.assertEqual(proc.returncode, 1)
        self.assertIn("REGRESSION", proc.stdout)

    def test_calibration_reads_median(self):
        # Calibration medians 5 -> 10 (2x machine); the last repetition of
        # BM_CAL (40) would rescale BM_A's 2x into a false pass at 0.5x.
        base = repeated_json([("BM_A", [10.0, 10.0, 10.0]),
                              ("BM_CAL", [5.0, 5.0, 5.0])])
        fresh = repeated_json([("BM_A", [30.0, 30.0, 30.0]),
                               ("BM_CAL", [10.0, 10.0, 40.0])])
        proc = self.run_script(base, fresh, ["BM_A"],
                               ["--calibrate", "BM_CAL"])
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        self.assertIn("calibration BM_CAL: fresh/baseline = 2.00x",
                      proc.stdout)
        self.assertIn("1.50x of calibrated baseline", proc.stdout)

    def test_single_run_baseline_against_repeated_fresh(self):
        base = bench_json([("BM_A", 10.0)])
        fresh = repeated_json([("BM_A", [10.0, 11.0, 30.0])])
        proc = self.run_script(base, fresh, ["BM_A"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("10.000 -> 11.000", proc.stdout)

    def test_zero_median_is_clean_fail(self):
        base = repeated_json([("BM_A", [10.0, 10.0, 10.0])])
        fresh = repeated_json([("BM_A", [0.0, 0.0, 10.0])])
        self.assert_clean_fail(self.run_script(base, fresh, ["BM_A"]))


if __name__ == "__main__":
    unittest.main()
