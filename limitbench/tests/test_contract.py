#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 limitbench/tests/test_contract.py

Checks that every run prints exactly the metrics BENCHMARK.json names,
with their units, that the driver's unit tests pass (digest check,
wrapper equivalence), and that the benchmark refuses to run without the
sources it builds. Builds into .bench_build/ like run.py.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, workload, trace, seconds=0, seed=0):
    spec = load_spec()
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)


class Contract(unittest.TestCase):
    def test_workloads_are_the_drivers(self):
        names = [w["name"] for w in load_spec()["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_printed_metrics_equal_benchmark_json(self):
        spec = load_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        set(result),
                        {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in want:
                        value = result["metrics"][name]["value"]
                        self.assertIsInstance(value, (int, float))
                        if key == "end_to_end":
                            self.assertGreater(value, 0, name)

    def test_any_integer_is_a_seed(self):
        # Seeds fold modulo 2^64: 2^64 + 3 runs seed 3's reference jobs.
        for seed, shown in ((2**64 + 3, "3"), (-1, str(2**64 - 1)),
                            (2**40, str(2**40))):
            with self.subTest(seed=seed):
                proc = run_benchmark(ROOT, run.WORKLOADS[1], 0, seed=seed)
                self.assertEqual(proc.returncode, 0)
                self.assertIn(f"seed {shown},", proc.stdout)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = run.BUILD / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in load_spec()["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        try:
            proc = run_benchmark(bare, run.WORKLOADS[0], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)

    def test_driver_unit_tests(self):
        binary = run.build("limitbench_tests")
        proc = subprocess.run([str(binary)], stdout=subprocess.PIPE,
                              text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])


if __name__ == "__main__":
    unittest.main()
