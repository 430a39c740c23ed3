#!/usr/bin/env python3
"""Record a baseline: two sets of repeated runs of every workload plus
one traced run.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Runs perfbench/run.py --runs times per workload and set, each run with
another --seed (set k uses seeds first_seed + 100 k onwards), and writes
per set and metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and their spread (q3 - q1 over the
median), for the speed-scaled values the benchmark reports and for the
unscaled host times beside them. "agreement" holds, per metric, how
much worse the second set's median is than the first's, as a share of
the first (negative: better). Last come the per-layer metrics of one
--trace 1 run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def invoke(*args):
    """Run run.py; @return (final JSON, unscaled value of each
    end-to-end metric from the report)."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    unscaled = {}
    for line in lines[:-1]:
        f = line.split()
        if len(f) >= 4 and f[0] in run.END_TO_END:
            unscaled[f[0]] = float(f[3])
    return json.loads(lines[-1]), unscaled


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def run_set(workloads, runs, seconds, first_seed):
    out = {}
    for wl in workloads:
        values, unscaled, attempted, failed = {}, {}, 0, 0
        for i in range(runs):
            t0 = time.monotonic()
            res, raw = invoke("--workload", wl, "--seed", str(first_seed + i),
                              "--seconds", str(seconds), "--trace", "0")
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                unscaled.setdefault(name, []).append(raw[name])
            print("%s run %d: %.0f s, correct=%s" % (wl, i, time.monotonic() - t0,
                                                      res["correct"]), file=sys.stderr)
        out[wl] = {
            "attempted": attempted, "failed": failed,
            "metrics": {name: dict(unit=run.END_TO_END[name][0], **summarize(v),
                                   unscaled=summarize(unscaled[name]))
                        for name, v in values.items()}}
        for name, s in out[wl]["metrics"].items():
            print("seed %d+ %-18s %-12s median %12.4f spread %.3f (unscaled %.3f)"
                  % (first_seed, wl, name, s["median"], s["spread"],
                     s["unscaled"]["spread"]))
    return out


def agreement(first, second):
    """Per workload and metric: the second set's median worse than the
    first's, as a share of the first."""
    out = {}
    for wl, rec in first.items():
        out[wl] = {}
        for name, s in rec["metrics"].items():
            change = second[wl]["metrics"][name]["median"] / s["median"] - 1
            out[wl][name] = -change if run.END_TO_END[name][1] == "higher" else change
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    out = {"host": "%s, %d CPUs" % (platform.platform(), os.cpu_count()),
           "seconds": args.seconds, "runs": args.runs, "sets": []}
    for k in range(2):
        first = args.first_seed + 100 * k
        out["sets"].append({"first_seed": first,
                            "end_to_end": run_set(workloads, args.runs,
                                                  args.seconds, first)})
    out["agreement"] = agreement(out["sets"][0]["end_to_end"],
                                 out["sets"][1]["end_to_end"])
    res, _ = invoke("--workload", run.WORKLOADS[0], "--seed", str(args.first_seed),
                    "--seconds", str(args.seconds), "--trace", "1")
    out["per_layer"] = {"correct": res["correct"], "metrics": res["metrics"]}
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
