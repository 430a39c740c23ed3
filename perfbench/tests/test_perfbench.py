"""Tests of the host-time benchmark (perfbench/run.py).

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

TailRule, OutputCheck and MetricTables check the metric tables, the
tail rule and the output check on synthetic records, in a second:

    python3 -m unittest discover -s perfbench/tests \\
        -k TailRule -k OutputCheck -k MetricTables

EndToEnd builds svbperf (into $CARGO_TARGET_DIR, default .bench_build)
and runs every workload once at its smallest size plus one traced run,
a few minutes in all.
"""

import importlib.util
import json
import subprocess
import sys
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent

_spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args):
    """Run the benchmark command; @return (stdout lines, final JSON)."""
    cmd = [sys.executable, str(PERFBENCH / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class TailRule(unittest.TestCase):
    def test_ten_ops_lie_beyond_the_tail(self):
        for n in (11, 12, 25, 100, 1000):
            values = list(range(n))
            value, pct = run.tail(values)
            self.assertEqual(sum(v > value for v in values), 10, n)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_no_higher_percentile_qualifies(self):
        # The next rank up would leave only nine ops beyond it.
        values = [float(v) for v in range(40)]
        value, _ = run.tail(values)
        self.assertEqual(value, 29.0)

    def test_order_and_ties(self):
        values = [5.0] * 15 + [1.0] * 5 + [9.0] * 3
        self.assertEqual(run.tail(sorted(values, reverse=True))[0], 5.0)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        self.assertEqual(run.tail([float(v) for v in range(10)]), (9.0, 100.0))


class OutputCheck(unittest.TestCase):
    def op(self, name, digest, ok=True):
        return {"round": 0, "name": name, "ns": 1, "ok": ok,
                "digest": digest, "cls": None}

    def test_wrong_missing_and_not_ok_ops_fail(self):
        expected = {"invocation-replay": {"a": "1", "b": "2", "c": "3"}}
        ops = [self.op("a", "1"), self.op("b", "9"), self.op("c", "3", ok=False),
               self.op("d", "4")]
        bad = run.failures("invocation-replay", ops, expected)
        self.assertEqual([op["name"] for op in bad], ["b", "c", "d"])

    def test_full_and_reap_restores_must_agree(self):
        expected = {"coldstart-churn": {"rv/f/full": "1", "rv/f/reap": "2"}}
        ops = [self.op("rv/f/full", "1"), self.op("rv/f/reap", "2")]
        self.assertEqual(len(run.failures("coldstart-churn", ops, expected)), 2)

    def test_parse_skips_simulator_log_lines(self):
        rec = run.parse("info: calibrating x\nsetup 1.5 7500000\n"
                        "op 0 rv/f 1000 1 00ff plain\nphase measured 2.0\n"
                        "proc 2048 1.0 0.5\nmetric a.b 3 ms\n")
        self.assertEqual(rec["setup"], [(1.5, 7.5)])
        self.assertEqual(rec["ops"][0]["cls"], "plain")
        self.assertEqual(rec["proc"], (2048, 1.0, 0.5))
        self.assertEqual(rec["metrics"]["a.b"], (3.0, "ms"))

    def test_output_digest_ignores_order_and_repeats(self):
        a = [self.op("x", "1"), self.op("y", "2")]
        b = [self.op("y", "2"), self.op("x", "1"), self.op("x", "1")]
        self.assertEqual(run.output_digest(a), run.output_digest(b))
        self.assertNotEqual(run.output_digest(a),
                            run.output_digest([self.op("x", "1")]))


class MetricTables(unittest.TestCase):
    def test_benchmark_json_names_every_printed_metric(self):
        bench = benchmark_json()
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
                         [(k, u, b) for k, (u, b) in run.END_TO_END.items()])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         [m[:3] for m in run.PER_LAYER])
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)

    def test_expected_outputs_cover_every_workload(self):
        expected = json.loads(run.EXPECTED.read_text())
        self.assertEqual(set(expected), set(run.WORKLOADS))
        for wl, ops in expected.items():
            self.assertTrue(ops, wl)


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {wl: invoke("--workload", wl, "--seed", "5", "--seconds", "0",
                               "--trace", "0")
                    for wl in run.WORKLOADS}

    def check_metrics(self, lines, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
            # The human-readable report names the metric with its unit.
            self.assertTrue(any(m["name"] in line and m["unit"] in line.split()
                                for line in lines[:-1]), m["name"])

    def test_every_end_to_end_metric_is_printed_with_its_unit(self):
        specs = benchmark_json()["end_to_end"]
        for wl, (lines, result) in self.runs.items():
            with self.subTest(workload=wl):
                self.check_metrics(lines, result, specs)
                self.assertTrue(any("failed_frac" in line for line in lines))

    def test_every_per_layer_metric_is_printed_with_its_unit(self):
        lines, result = invoke("--workload", "coldstart-churn", "--seed", "5",
                               "--seconds", "0", "--trace", "1")
        self.check_metrics(lines, result, benchmark_json()["per_layer"])

    def test_output_digest_repeats_for_the_same_seed(self):
        def digest(lines):
            return [line for line in lines if "output digest" in line]

        lines, _ = invoke("--workload", "invocation-replay", "--seed", "5",
                          "--seconds", "0", "--trace", "0")
        self.assertEqual(digest(lines), digest(self.runs["invocation-replay"][0]))
        self.assertEqual(len(digest(lines)), 1)


if __name__ == "__main__":
    unittest.main()
