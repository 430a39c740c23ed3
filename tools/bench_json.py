#!/usr/bin/env python3
"""Record saved perfbench runs as one BENCH_<label>.json file, and check
such files.

    python3 tools/bench_json.py make --label <label> --commit <commit> \\
        --seconds <s> [--traced <file> --traced-seed <n>] <run-file>... \\
        > BENCH_<label>.json
    python3 tools/bench_json.py check BENCH_*.json

A run file is the saved stdout of one untraced
`python3 perfbench/run.py --workload <w> --seed <n> --seconds <s>`; its
first line names the workload and seed, its last line is run.py's JSON
object. `--traced` takes the saved stdout of one `--trace 1` run.

`make` groups the runs by workload and records, per workload, the
seeds, the run count (at least two), how many runs read "correct":
true, the failed ops summed over the runs, and the median, q1 and q3 of
every end-to-end metric, computed as perfbench/baseline.py computes
them. `--commit` is the commit the runs were built from; a file that
measures a change before it is committed names the change's parent
followed by "+". The file also records this host's CPU count and the
build type run.py always builds.

`check` exits 1 when a file lacks a field, holds a non-finite number,
or lacks a metric that BENCHMARK.json declares (end-to-end metrics for
every workload; per-layer metrics when the file has a traced run). It
never compares timings.
"""

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench/ is only read: no bytecode is written next to it.
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from baseline import summarize  # noqa: E402

SCHEMA = 1
# perfbench/run.py configures every build it runs with this type.
BUILD_TYPE = "RelWithDebInfo"
FIRST_LINE = re.compile(r"^svbperf (\S+) seed=(\d+):")


def declared_metrics():
    """(end-to-end names, per-layer names) from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]])


def read_run(path):
    """(workload, seed, run.py's final JSON object) of one saved run."""
    lines = Path(path).read_text().strip().splitlines()
    match = FIRST_LINE.match(lines[0]) if lines else None
    if match is None:
        raise ValueError("%s: not the output of an untraced run.py run" % path)
    return match.group(1), int(match.group(2)), json.loads(lines[-1])


def make(args):
    runs = {}
    for path in args.runs:
        workload, seed, result = read_run(path)
        runs.setdefault(workload, []).append((seed, result))
    workloads = {}
    for workload, results in sorted(runs.items()):
        if len(results) < 2:
            raise SystemExit("%s: quartiles need at least two runs" % workload)
        results.sort(key=lambda r: r[0])
        metrics = {}
        for name in results[0][1]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for _, r in results])
            metrics[name] = {"unit": results[0][1]["metrics"][name]["unit"],
                             "median": s["median"], "q1": s["q1"],
                             "q3": s["q3"]}
        workloads[workload] = {
            "seeds": [seed for seed, _ in results],
            "runs": len(results),
            "correct": sum(r["correct"] is True for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": metrics,
        }
    out = {"schema": SCHEMA, "label": args.label, "commit": args.commit,
           "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
           "seconds": args.seconds, "workloads": workloads}
    if args.traced:
        lines = Path(args.traced).read_text().strip().splitlines()
        result = json.loads(lines[-1])
        out["traced"] = {
            "seed": args.traced_seed, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()},
        }
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def problems(doc, end_to_end, per_layer):
    """Every missing or non-finite field of one BENCH file."""
    found = []

    def need(obj, key, kind, where):
        value = obj.get(key) if isinstance(obj, dict) else None
        # bool is an int to isinstance(): only a bool field takes one.
        if not isinstance(value, kind) or \
                isinstance(value, bool) != (kind is bool):
            found.append("%s.%s: missing or of the wrong type" % (where, key))
            return None
        if isinstance(value, float) and not math.isfinite(value):
            found.append("%s.%s: not finite" % (where, key))
        return value

    need(doc, "schema", int, "$")
    for key in ("label", "commit", "build_type"):
        need(doc, key, str, "$")
    need(doc, "nproc", int, "$")
    need(doc, "seconds", (int, float), "$")
    workloads = need(doc, "workloads", dict, "$") or {}
    if not workloads:
        found.append("$.workloads: empty")
    for name, wl in workloads.items():
        where = "$.workloads.%s" % name
        seeds = need(wl, "seeds", list, where) or []
        if not seeds or not all(isinstance(s, int) for s in seeds):
            found.append("%s.seeds: empty or not integers" % where)
        runs = need(wl, "runs", int, where)
        if runs is not None and runs != len(seeds):
            found.append("%s.runs: %d runs but %d seeds" % (where, runs, len(seeds)))
        need(wl, "correct", int, where)
        need(wl, "failed", int, where)
        metrics = need(wl, "metrics", dict, where) or {}
        for metric in end_to_end:
            m = need(metrics, metric, dict, where + ".metrics")
            for stat in ("median", "q1", "q3"):
                if m is not None:
                    need(m, stat, (int, float), "%s.metrics.%s" % (where, metric))
    if "traced" in doc:
        traced = need(doc, "traced", dict, "$") or {}
        need(traced, "seed", int, "$.traced")
        need(traced, "correct", bool, "$.traced")
        need(traced, "failed", int, "$.traced")
        metrics = need(traced, "metrics", dict, "$.traced") or {}
        for metric in per_layer:
            m = need(metrics, metric, dict, "$.traced.metrics")
            if m is not None:
                need(m, "value", (int, float), "$.traced.metrics.%s" % metric)
    return found


def check(args):
    end_to_end, per_layer = declared_metrics()
    bad = 0
    for path in args.files:
        try:
            doc = json.loads(Path(path).read_text())
            found = problems(doc, end_to_end, per_layer)
        except (OSError, ValueError) as e:
            found = [str(e)]
        for p in found:
            print("%s: %s" % (path, p), file=sys.stderr)
        bad += bool(found)
        print("%s: %s" % (path, "bad" if found else "ok"))
    return 1 if bad or not args.files else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    mk = sub.add_parser("make", help="record saved runs as one BENCH file")
    mk.add_argument("--label", required=True)
    mk.add_argument("--commit", required=True)
    mk.add_argument("--seconds", type=float, required=True)
    mk.add_argument("--traced")
    mk.add_argument("--traced-seed", type=int)
    mk.add_argument("runs", nargs="+")
    ck = sub.add_parser("check", help="exit 1 on a missing or non-finite field")
    ck.add_argument("files", nargs="*")
    args = ap.parse_args()
    if args.mode == "make":
        if bool(args.traced) != (args.traced_seed is not None):
            ap.error("--traced and --traced-seed go together")
        return make(args)
    return check(args)


if __name__ == "__main__":
    sys.exit(main())
