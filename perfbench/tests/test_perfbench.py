"""Tests of the benchmark package.

    python3 -m unittest discover -s perfbench/tests -v

Builds the package like run.py does, runs the statistics helper's tests,
and runs every workload (one pass each, at the benchmark's sizes, about
two minutes in all) to check that each metric the program emits is well
named and declared in BENCHMARK.json.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (perfbench/run.py)

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class CatalogueTest(unittest.TestCase):
    def setUp(self):
        self.bench = run.load_catalogue()

    def test_keys_and_limits(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertEqual(b["command"][0], "python3")
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in b[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for w in b["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in b["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertRegex(m["unit"], UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertIn("setup_s", bounds)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_every_workload_names_its_layers(self):
        self.assertEqual(set(run.REACHES),
                         {w["name"] for w in self.bench["workloads"]})

    def test_missing_metric_of_a_reached_layer_fails(self):
        result = {"metrics": {}}
        problems = run.complete(result, self.bench, "turnstile", 1)
        self.assertIn("metric 'dynamic.update_us_p999' missing", problems)
        self.assertNotIn("metric 'mpc.map_ms' missing", problems)
        self.assertEqual(result["metrics"]["mpc.map_ms"]["value"], 0)


class ProgramTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(("kc_perfbench", "perfbench_stats_test"))
        cls.out_dir = cls.bdir + "-test-out"
        cls.bench = run.load_catalogue()

    def test_stats_helper(self):
        proc = subprocess.run(
            [os.path.join(self.bdir, "perfbench_stats_test")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def run_workload(self, workload, trace):
        proc = subprocess.run(
            [os.path.join(self.bdir, "kc_perfbench"), "--workload", workload,
             "--seed", "7", "--seconds", "0", "--trace", str(trace),
             "--out-dir", self.out_dir],
            capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_emitted_metrics_are_declared(self):
        for w in (w["name"] for w in self.bench["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    result = self.run_workload(w, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = run.declared(self.bench, trace)
                    for name, m in result["metrics"].items():
                        self.assertRegex(name, run.NAME_RE)
                        self.assertIn(name, want)
                        self.assertEqual(m["unit"], want[name], name)
                    if not trace:
                        self.assertEqual(set(result["metrics"]), set(want))
                    self.assertEqual(
                        run.complete(result, self.bench, w, trace), [])
                    self.assertEqual(list(result["metrics"]), list(want))

    def test_traced_run_writes_chrome_trace(self):
        self.run_workload("turnstile", 1)
        path = os.path.join(self.out_dir, "trace-turnstile-seed7.json")
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        names = {e["name"] for e in events}
        self.assertIn("dynamic.update_loop", names)
        self.assertIn("core.solve", names)
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))

    def test_bad_arguments_are_usage_errors(self):
        proc = subprocess.run(
            [os.path.join(self.bdir, "kc_perfbench"), "--workload", "nope",
             "--seed", "1", "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
