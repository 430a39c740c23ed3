"""Tests of tools/bench_json.py on synthetic perfbench outputs.

    python3 -m unittest discover -s tools/tests -v
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SCRIPT = ROOT / "tools" / "bench_json.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tool(*args):
    """@return (exit code, stdout) of bench_json.py."""
    proc = subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return proc.returncode, proc.stdout


def untraced_output(workload, seed, scale):
    metrics = {m["name"]: {"value": scale * (i + 1), "unit": m["unit"]}
               for i, m in enumerate(BENCHMARK["end_to_end"])}
    return "svbperf %s seed=%d: 10 ops in 1.00 s measured\n%s\n" % (
        workload, seed, json.dumps({"correct": True, "attempted": 10,
                                    "failed": 0, "metrics": metrics}))


def traced_output():
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
               for m in BENCHMARK["per_layer"]}
    return "svbperf coldstart-churn traced: 3 ops\n%s\n" % json.dumps(
        {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})


class BenchJson(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        runs = []
        for seed, scale in ((3, 1.0), (1, 2.0), (2, 4.0)):
            path = self.dir / ("run-%d.txt" % seed)
            path.write_text(untraced_output("invocation-replay", seed, scale))
            runs.append(path)
        traced = self.dir / "traced.txt"
        traced.write_text(traced_output())
        code, out = tool("make", "--label", "t", "--commit", "abc1234",
                         "--seconds", 15, "--traced", traced,
                         "--traced-seed", 7, *runs)
        self.assertEqual(code, 0)
        self.doc = json.loads(out)

    def tearDown(self):
        self.tmp.cleanup()

    def checked(self, doc):
        path = self.dir / "BENCH_t.json"
        path.write_text(json.dumps(doc))
        return tool("check", path)[0]

    def test_make_records_seeds_counts_and_quartiles(self):
        wl = self.doc["workloads"]["invocation-replay"]
        self.assertEqual(wl["seeds"], [1, 2, 3])
        self.assertEqual((wl["runs"], wl["correct"], wl["failed"]), (3, 3, 0))
        # perfbench/baseline.py's quartiles (Python's default method):
        # of three runs, q1 and q3 are the lowest and the highest.
        setup = wl["metrics"]["setup_s"]
        self.assertEqual((setup["q1"], setup["median"], setup["q3"]),
                         (1.0, 2.0, 4.0))
        self.assertEqual(self.doc["build_type"], "RelWithDebInfo")
        self.assertEqual(self.doc["traced"]["seed"], 7)
        self.assertEqual(self.checked(self.doc), 0)

    def test_a_missing_field_fails(self):
        for drop in (lambda d: d.pop("commit"),
                     lambda d: d["workloads"]["invocation-replay"].pop("seeds"),
                     lambda d: d["workloads"]["invocation-replay"]["metrics"]
                     .pop("ops_per_s"),
                     lambda d: d["workloads"]["invocation-replay"]["metrics"]
                     ["op_p50_ms"].pop("q3"),
                     lambda d: d["traced"]["metrics"].pop("load.calibrate_s")):
            doc = json.loads(json.dumps(self.doc))
            drop(doc)
            self.assertEqual(self.checked(doc), 1)

    def test_a_non_finite_or_mistyped_value_fails(self):
        for value in (float("nan"), float("inf"), "1.0", True, None):
            doc = json.loads(json.dumps(self.doc))
            doc["workloads"]["invocation-replay"]["metrics"]["setup_s"][
                "median"] = value
            self.assertEqual(self.checked(doc), 1, value)

    def test_no_file_fails(self):
        self.assertEqual(tool("check")[0], 1)

    def test_one_run_of_a_workload_has_no_quartiles(self):
        code, _ = tool("make", "--label", "t", "--commit", "abc1234",
                       "--seconds", 15, self.dir / "run-1.txt")
        self.assertNotEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
