#!/usr/bin/env python3
"""Smoke test of the pdr benchmark: every workload, tiny, untraced and
traced.  Checks that each run is correct and prints exactly the metrics
BENCHMARK.json names, each with its unit, plus the report-only rows.

    python3 pdrbench/test_smoke.py
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


def smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, spec_key):
        rc, report, result = smoke_run(workload, trace)
        self.assertEqual(rc, 0, "\n".join(report))
        self.assertTrue(result["correct"], "\n".join(report))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, unit in want.items():
            self.assertIsInstance(result["metrics"][name]["value"],
                                  (int, float))
            self.assertTrue(any(line.split()[:1] == [name] and
                                line.split()[-1] == unit
                                for line in report), name)
        return report

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    report = self.check(w["name"], trace, key)
                    rows = ["failed_frac"]
                    if w["name"] == "fig14_sweep" and trace == 0:
                        rows += ["paper_zero_load_err", "paper_sat_err"]
                    for row in rows:
                        self.assertTrue(
                            any(line.split()[:1] == [row]
                                for line in report), row)

    def test_unknown_workload_fails(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nope"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
