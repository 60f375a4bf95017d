#!/usr/bin/env python3
"""The benchmark's own test: exact-count keys are a pure function of the seed.

Run from the repository root (builds like run.py, ~2 minutes):

    python3 perfbench/test_perfbench.py

For every workload: two untraced runs with one seed print identical keys,
the traced reproduction prints the same keys again, every correctness check
passes, and another seed changes the corpus and epoch digests. Short run.py
invocations with --trace 0 and 1 must end with a result line in the
contract's shape, carrying exactly BENCHMARK.json's metrics and units.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BUILD_ROOT = Path.cwd() / ".bench_build"
SEED, OTHER_SEED = 7, 8


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(BUILD_ROOT)
        cls.work_dir = BUILD_ROOT / "test-work"

    def child(self, workload, seed, traced=False):
        result = run.run_child(self.binary, workload, seed, self.work_dir,
                               traced)
        self.assertIsNotNone(result, f"{workload} seed {seed} failed")
        self.assertEqual(result["failed"], 0, result["checks"])
        self.assertGreater(result["attempted"], 0)
        return result

    def test_keys_repeat_per_seed_and_move_with_it(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.child(workload, SEED)["keys"]
                self.assertEqual(self.child(workload, SEED)["keys"], first)
                self.assertEqual(
                    self.child(workload, SEED, traced=True)["keys"], first)
                other = self.child(workload, OTHER_SEED)["keys"]
                self.assertNotEqual(other["corpus_digest"],
                                    first["corpus_digest"])
                self.assertNotEqual(other["final_epoch_digest"],
                                    first["final_epoch_digest"])

    def test_result_lines_match_benchmark_json(self):
        declared = json.loads(Path("BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                done = subprocess.run(
                    [sys.executable, str(Path(run.__file__)), "--workload",
                     "collect_dist", "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace)],
                    capture_output=True, text=True, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                units = {m["name"]: m["unit"] for m in declared[section]}
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()},
                    units)
                if trace == 0:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
