#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke setting (tiny n, seconds per run).

    python3 perfbench/test_smoke.py

Checks, for every workload in BENCHMARK.json:
  - an untraced run prints every end-to-end metric with its unit, and a
    traced run every per-layer metric, in the result line and on a
    "metric" line each;
  - the result line has exactly the keys correct/attempted/failed/metrics;
  - a run that corrupts one response (or one replayed training round) fails
    the correctness gate: non-zero exit and no result line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd + list(extra), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmokeTest(unittest.TestCase):
    def check_metrics(self, workload, trace, expected):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        printed = {}
        for line in proc.stdout.splitlines():
            fields = line.split()
            if len(fields) >= 4 and fields[0] == "metric":
                printed[fields[1]] = fields[3]
        for metric in expected:
            got = result["metrics"][metric["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertEqual(printed.get(metric["name"]), metric["unit"],
                             metric["name"])
        return result

    def test_end_to_end_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                result = self.check_metrics(workload["name"], 0, SPEC["end_to_end"])
                for name in ("setup_s", "answer_p50_ms", "throughput_per_s",
                             "fresh_p50_ms"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                self.check_metrics(workload["name"], 1, SPEC["per_layer"])

    def test_gate_catches_a_corrupted_response(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = run(workload["name"], 0, "--corrupt-one")
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("correctness gate failed", proc.stderr)
                last = proc.stdout.strip().splitlines()[-1:]
                self.assertFalse(last and last[0].startswith('{"correct"'))


if __name__ == "__main__":
    unittest.main()
