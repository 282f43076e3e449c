"""Self-tests of the benchmark harness on small instances; a few seconds.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose: they start child
processes and test the benchmark, not the library.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# Every workload's commands and families, at rank 2 and level 1.
SMALL = {
    name: tuple((command, family, 2, 1) for command, family, _, _ in invocations)
    for name, invocations in bench.WORKLOADS.items()
}


class MetricNames(unittest.TestCase):
    def test_names_match_the_benchmark_file(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                self.assertTrue(NAME.fullmatch(entry["name"]), entry["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)


class ShortPass(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.iterations = bench.REFERENCE_ITERATIONS
        bench.REFERENCE_ITERATIONS = 1000  # the scale is not checked here
        cls.children = bench.Children()
        bench.check_program(cls.children)
        cls.golden = bench.record_golden(
            cls.children, [inv for invs in SMALL.values() for inv in invs])

    @classmethod
    def tearDownClass(cls):
        cls.children.close()
        bench.REFERENCE_ITERATIONS = cls.iterations

    def test_every_workload_emits_every_metric(self):
        rng = random.Random(0)
        for name, invocations in SMALL.items():
            with self.subTest(workload=name):
                result = bench.measure(self.children, invocations, self.golden, 0, rng, min_reps=1)
                self.assertTrue(result.correct, result.problems)
                self.assertEqual({k: u for k, (_, u) in result.metrics.items()}, bench.END_TO_END)
                self.assertTrue(all(v > 0 for v, _ in result.metrics.values()))

                traced = bench.trace(self.children, invocations, self.golden, rng)
                self.assertTrue(traced.correct, traced.problems)
                self.assertEqual({k: u for k, (_, u) in traced.metrics.items()}, bench.PER_LAYER)
                uses_tableaux = name == "verify-a1"
                self.assertEqual(traced.metrics["tableaux.tableau_constructed"][0] > 0,
                                 uses_tableaux)

    def test_gate_fails_on_an_altered_digest(self):
        inv = SMALL["verify-coord"][0]
        golden = {k: dict(v) for k, v in self.golden.items()}
        golden[bench.inv_key(inv)]["sha256"] = "0" * 64
        result = bench.measure(self.children, (inv,), golden, 0, random.Random(0), min_reps=1)
        self.assertFalse(result.correct)
        self.assertEqual(result.failed, result.attempted)


class NoProgram(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(bench.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-a1",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
