"""Self-tests of the benchmark's output contract.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. Builds the harness (as run.py does), runs the
C++ self-tests, checks that the metric names and units the harness emits
match BENCHMARK.json, and makes one short untraced and one short traced run
whose last line must carry exactly the declared metrics.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
PERFBENCH = HERE.parent
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)

ROOT = pathlib.Path.cwd()
SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build(ROOT, targets=(run.BINARY, "perfbench_tests"))

    def test_cpp_self_tests_pass(self):
        subprocess.run([str(self.build / "perfbench_tests")], check=True,
                       stdout=subprocess.DEVNULL, timeout=300)

    def test_metric_names_and_units_match_benchmark_json(self):
        out = subprocess.run([str(self.build / run.BINARY), "--list-metrics"],
                             check=True, capture_output=True, text=True).stdout
        listed = json.loads(out)
        self.assertEqual({m["name"]: m["unit"] for m in listed["end_to_end"]},
                         declared("end_to_end"))
        self.assertEqual({m["name"]: m["unit"] for m in listed["per_layer"]},
                         declared("per_layer"))
        self.assertEqual(listed["workloads"], [w["name"] for w in SPEC["workloads"]])

    def run_bench(self, trace):
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), "--workload",
             "gemm_small_batch", "--seed", "5", "--seconds", "4", "--trace",
             str(trace)],
            check=True, capture_output=True, text=True, timeout=170)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def check_result(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = declared(section)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertEqual(metric["unit"], units[name], name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = self.run_bench(0)
        self.check_result(result, "end_to_end")
        self.assertEqual(result["metrics"]["op_success_rate"]["value"], 1.0)

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_result(self.run_bench(1), "per_layer")


if __name__ == "__main__":
    unittest.main()
