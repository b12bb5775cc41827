#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size, both modes.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. Each workload runs through run.py with
--smoke (tiny inputs, same code paths and output checks), untraced and
traced; the result line must be correct and carry exactly the metrics
BENCHMARK.json lists. One more test runs the benchmark in a directory
that holds only BENCHMARK.json and perfbench/, where it must fail
without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_ab", "socket_loop", "control_wire", "tax_mix")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SpecTest(unittest.TestCase):
    def test_spec_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertIn({"name": "setup_s", "unit": "s", "better": "lower",
                       "bound": max(m["bound"] for m in spec["end_to_end"])},
                      spec["end_to_end"])
        self.assertLessEqual(len(spec["per_layer"]), 128)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        spec = load_spec()
        proc = run_bench(ROOT, workload, trace)
        log = "\n".join(line for line in proc.stderr.splitlines()
                        if "Built target" not in line)
        self.assertEqual(proc.returncode, 0, log[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in listed])
        for metric in listed:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"])
            if not trace:
                self.assertGreater(entry["value"], 0, metric["name"])
        return result["metrics"]

    def test_fleet_ab(self):
        self.check("fleet_ab", 0)
        layer = self.check("fleet_ab", 1)
        self.assertGreater(layer["fleet.run_s.baseline"]["value"], 0)

    def test_socket_loop(self):
        self.check("socket_loop", 0)
        layer = self.check("socket_loop", 1)
        self.assertGreaterEqual(layer["core.toggles"]["value"], 4)

    def test_control_wire(self):
        self.check("control_wire", 0)
        layer = self.check("control_wire", 1)
        self.assertGreater(layer["ctl.toggles"]["value"], 0)
        self.assertEqual(layer["ctl.failed_frac"]["value"], 0)

    def test_tax_mix(self):
        self.check("tax_mix", 0)
        layer = self.check("tax_mix", 1)
        self.assertGreater(layer["tax.hw_off.bytes_per_s"]["value"], 0)


class NoSourcesTest(unittest.TestCase):
    def test_fails_without_repository(self):
        build = os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        bare = os.path.join(build, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, "tax_mix", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
