#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, run at a few simulated days,
completes, prints every declared metric with its unit, passes its output
checks, and a traced run writes well-formed trace JSON. Also checks that the
benchmark fails cleanly where the library sources are missing.

Run from the root of a checkout (the first call builds fistbench):

    python3 perfbench/tests/selftest.py
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
DAYS = "25"  # > 256 blocks, so live_tail takes one snapshot


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--days", DAYS],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class Workloads(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        out = run(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        readable = "\n".join(lines[:-1])
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertRegex(readable, rf"{m['name']}\s+\S+ {m['unit']}")
        return lines

    def test_end_to_end_metrics(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, BENCHMARK["end_to_end"])

    def test_traced_run(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                lines = self.check_run(w["name"], 1, BENCHMARK["per_layer"])
                path = [l for l in lines if l.startswith("trace: ")][-1][7:]
                trace = json.load(open(os.path.join(ROOT, path)))
                self.assertEqual(trace["workload"], w["name"])
                spans = trace["spans"]
                self.assertTrue(spans)
                for i, span in enumerate(spans):
                    self.assertLessEqual(span["start_ms"], span["end_ms"])
                    if span["parent"] is not None:
                        self.assertLess(span["parent"], i)
                        self.assertEqual(spans[span["parent"]]["run"], span["run"])
                names = {s["name"] for s in spans}
                self.assertTrue({"sim.pow", "chain.store_append", "view",
                                 "h2.scan", "analysis.theft"} <= names, names)
                self.assertIn("trace.unattributed_ms", trace["metrics"])


class MissingSources(unittest.TestCase):
    def test_fails_without_library(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run(BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
