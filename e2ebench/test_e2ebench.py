#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2ebench/test_e2ebench.py

- the C++ self-test: the timing decorators change no digest for any of the
  five controllers (with an event log attached) or the five queue
  policies, and the deterministic metrics repeat exactly across two
  in-process runs of every workload;
- every metric a run prints, traced and untraced, is declared in
  BENCHMARK.json with the same unit, and the result line has the agreed
  shape;
- in a directory holding only BENCHMARK.json and e2ebench/, the benchmark
  exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_self_test(self):
        done = subprocess.run([self.binary, "--self-test"], cwd=ROOT,
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_printed_metrics_are_declared(self):
        spec = bench_json()
        declared = {
            "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, want in declared.items():
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [self.binary, "--workload", workload, "--seed", "1",
                         "--seconds", "0", "--trace", trace],
                        cwd=ROOT, capture_output=True, text=True)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, run.build_dir(), "..", "bare_check")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", "abr_wan",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
