#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_bench.py

Builds the benchmark through run.py if needed (see README.md) and checks:
  - the same seed gives byte-identical generated inputs, for all four
    workloads, and another seed gives different ones;
  - a short smoke run of every workload, untraced and traced, answers
    every request correctly and emits exactly the declared metrics, with
    their declared units and names made of [A-Za-z0-9_.-].
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload, seed, trace="0", seconds="2", extra=()):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", trace, *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
    return proc


class InputsTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = run_bench(workload, 7, extra=["--dump-inputs"])
                second = run_bench(workload, 7, extra=["--dump-inputs"])
                other = run_bench(workload, 8, extra=["--dump-inputs"])
                for proc in (first, second, other):
                    self.assertEqual(proc.returncode, 0, proc.stderr.decode())
                self.assertGreater(len(first.stdout), 1000)
                self.assertEqual(first.stdout, second.stdout)
                self.assertNotEqual(first.stdout, other.stdout)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace, declared):
        proc = run_bench(workload, 3, trace=trace)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-2000:])
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(sorted(result["metrics"]), sorted(want))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], want[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "0", DECLARED["end_to_end"])

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, "1", DECLARED["per_layer"])


class DeclarationTest(unittest.TestCase):
    def test_declared_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in DECLARED[key]]
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("workloads", "end_to_end", "per_layer"):
            listed = [m["name"] for m in DECLARED[key]]
            self.assertEqual(len(listed), len(set(listed)), key)


if __name__ == "__main__":
    unittest.main()
