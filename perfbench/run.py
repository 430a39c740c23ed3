#!/usr/bin/env python3
"""Host-time benchmark for svbench.

Builds perfbench/ (the svbperf program linked against ../src) and runs
one workload. Everything it reports is host time and memory, the
simulator's own cost; simulated statistics are checked against
perfbench/expected.json, never compared as metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

--trace 0 runs the named workload and prints its end-to-end metrics.
--trace 1 prints the per-layer breakdown instead: it runs one traced
round of every workload (each op untraced, then traced, so the tracing
overhead is measured on the same ops) because the per-layer metrics
span all three workloads.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Maintenance: --write-expected re-records perfbench/expected.json from
one untraced round of each workload (only when the simulated outputs
are meant to change).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("detailed-fresh", "coldstart-churn", "invocation-replay")

# A measurement must end well within the 180 s a run may take.
MEASURE_DEADLINE_S = 170.0

# Median time of svbperf's speed probe on the reference host (a 4-core
# KVM guest) in its fast phases. Shared hosts drift in speed by up to
# 1.7x over tens of seconds; dividing host times by probe times taken
# next to them cancels the drift, and this constant only sets the
# scale, so scaled times read as milliseconds on the reference host.
PROBE_NOMINAL_MS = 7.5
# The drift comes in phases of a few seconds, so each op is scaled by
# the probes nearest to it: the median of those within this many ops.
PROBE_WINDOW = 3

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

# Per-layer metrics of the traced run:
# (name, unit, better, layer, end-to-end metric it should move, workload)
PER_LAYER = [
    ("cluster.construct_ms", "ms", "lower", "core/cluster", "ops_per_s", "detailed-fresh"),
    ("cluster.boot_ms", "ms", "lower", "core/cluster", "ops_per_s", "detailed-fresh"),
    ("cluster.reset_ms", "ms", "lower", "core/cluster", "ops_per_s", "detailed-fresh"),
    ("cluster.container_start_ms", "ms", "lower", "core/cluster", "ops_per_s", "detailed-fresh"),
    ("ckpt.save_ms", "ms", "lower", "core/checkpoint_store", "ops_per_s", "detailed-fresh"),
    ("ckpt.publish_ms", "ms", "lower", "core/checkpoint_store", "ops_per_s", "detailed-fresh"),
    ("ckpt.bytes", "B", "lower", "core/checkpoint_store", "ops_per_s", "detailed-fresh"),
    ("o3.cold_req_ms", "ms", "lower", "cpu/o3", "ops_per_s,op_p50_ms", "detailed-fresh"),
    ("o3.warm_req_ms", "ms", "lower", "cpu/o3", "ops_per_s,op_p50_ms", "detailed-fresh"),
    ("o3.mcycles_per_s", "Mcycles/s", "higher", "cpu/o3", "ops_per_s,op_p50_ms", "detailed-fresh"),
    ("atomic.warming_s", "s", "lower", "cpu/atomic", "ops_per_s", "detailed-fresh"),
    ("atomic.warming_mips", "MIPS", "higher", "cpu/atomic", "ops_per_s", "detailed-fresh"),
    ("ckpt.acquire_ms", "ms", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.rebuild_ms", "ms", "lower", "core/checkpoint_store", "op_p50_ms,peak_rss_mb", "coldstart-churn"),
    ("restore.deploy_ms", "ms", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.image_ms", "ms", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.finish_ms.full", "ms", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.finish_ms.reap", "ms", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.prefetched_pages", "pages", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.lazy_faults", "pages", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("restore.ws_miss_ratio", "ratio", "lower", "core/checkpoint_store", "op_p50_ms", "coldstart-churn"),
    ("atomic.cold_req_ms", "ms", "lower", "cpu/atomic", "op_p50_ms", "coldstart-churn"),
    ("atomic.warm_req_ms", "ms", "lower", "cpu/atomic", "op_p50_ms", "coldstart-churn"),
    ("atomic.mips", "MIPS", "higher", "cpu/atomic", "op_p50_ms", "coldstart-churn"),
    ("decode.hit_ratio", "ratio", "higher", "cpu/atomic", "op_p50_ms", "coldstart-churn"),
    ("superblock.hit_ratio", "ratio", "higher", "cpu/atomic", "op_p50_ms", "coldstart-churn"),
    ("load.calibrate_s", "s", "lower", "load", "setup_s", "invocation-replay"),
    ("load.replay_ms.plain", "ms", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.replay_ms.fleet_faults", "ms", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.replay_ms.autoscaled", "ms", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.ns_per_attempt.plain", "ns", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.ns_per_attempt.fleet_faults", "ns", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.ns_per_attempt.autoscaled", "ns", "lower", "load", "ops_per_s", "invocation-replay"),
    ("load.rss_mb_per_minv", "MiB/Minv", "lower", "load", "peak_rss_mb", "invocation-replay"),
    ("workflow.replay_ms", "ms", "lower", "load/workflow", "ops_per_s", "invocation-replay"),
    ("workflow.ns_per_task", "ns", "lower", "load/workflow", "ops_per_s", "invocation-replay"),
]
# The headline end-to-end metric of each workload.
_HEADLINE = {"detailed-fresh": "ops_per_s", "coldstart-churn": "op_p50_ms",
             "invocation-replay": "ops_per_s"}
for _wl in WORKLOADS:
    PER_LAYER += [
        ("proc.user_s." + _wl, "s", "lower", "process", _HEADLINE[_wl], _wl),
        ("proc.sys_s." + _wl, "s", "lower", "process", _HEADLINE[_wl], _wl),
        ("trace.overhead_pct." + _wl, "%", "lower", "perfbench", "-", _wl),
    ]
# Self time per span layer: host seconds inside the layer's spans minus
# their child spans. "op" is the benchmark's own glue around the calls,
# "setup" the set-up calibrations. Span layer -> module.
SELF_LAYERS = {
    "detailed-fresh": ("cluster", "ckpt", "o3", "atomic", "op"),
    "coldstart-churn": ("ckpt", "restore", "atomic", "op"),
    "invocation-replay": ("setup", "load", "workflow", "op"),
}
_MODULE = {"cluster": "core/cluster", "ckpt": "core/checkpoint_store",
           "restore": "core/checkpoint_store", "o3": "cpu/o3",
           "atomic": "cpu/atomic", "setup": "load", "load": "load",
           "workflow": "load/workflow", "op": "perfbench"}
for _wl, _layers in SELF_LAYERS.items():
    PER_LAYER += [("self_s.%s.%s" % (_wl, layer), "s", "lower", _MODULE[layer],
                   "setup_s" if layer == "setup" else _HEADLINE[_wl], _wl)
                  for layer in _layers]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def tail(values):
    """(value, percentile) of the highest percentile of @values that
    still has at least ten values beyond it: the 11th largest value.
    With fewer than 11 values no percentile qualifies and the maximum
    is returned as p100."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def output_digest(ops):
    """Order-free digest of every (op, simulated-output digest) pair."""
    pairs = sorted({(op["name"], op["digest"]) for op in ops})
    text = "\n".join("%s=%s" % p for p in pairs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_root():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configure (once) and build svbperf; @return the binary's path."""
    bdir = build_root() / "svbperf"
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in cache.read_text():
        shutil.rmtree(bdir)
    if not cache.exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir / "svbperf"


def parse(text):
    rec = {"setup": [], "ops": [], "probes": [], "phase": None, "proc": None,
           "metrics": {}, "setup_failed": False}
    for line in text.splitlines():
        f = line.split()
        if not f:
            continue
        if f[0] == "setup" and len(f) == 3:
            rec["setup"].append((float(f[1]), int(f[2]) / 1e6))
        elif f[0] == "op" and len(f) in (6, 7):
            rec["ops"].append({"round": int(f[1]), "name": f[2],
                               "ns": int(f[3]), "ok": f[4] == "1",
                               "digest": f[5],
                               "cls": f[6] if len(f) == 7 else None})
        elif f[0] == "probe" and len(f) == 2:
            rec["probes"].append(int(f[1]) / 1e6)
        elif f[0] == "phase" and len(f) == 3:
            rec["phase"] = float(f[2])
        elif f[0] == "proc" and len(f) == 4:
            rec["proc"] = (int(f[1]), float(f[2]), float(f[3]))
        elif f[0] == "metric" and len(f) == 4:
            rec["metrics"][f[1]] = (float(f[2]), f[3])
        elif f[0] == "setup-failed":
            rec["setup_failed"] = True
    return rec


def run_svbperf(binary, workload, seed, seconds, trace, setup_reps, deadline):
    workdir = build_root() / "work" / ("%s-%d" % (workload, os.getpid()))
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVBENCH_")}
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir), "--setup-reps", str(setup_reps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("svbperf %s exited with %d" % (workload, proc.returncode))
    rec = parse(proc.stdout)
    if not rec["ops"] or rec["proc"] is None:
        raise RuntimeError("svbperf %s printed no ops" % workload)
    return rec


def failures(workload, ops, expected):
    """Ops whose simulated outputs are wrong: not ok, no expected
    digest, a digest other than the expected one, or (coldstart-churn)
    a full and a REAP restore of one function that disagree."""
    want = expected.get(workload, {})
    bad = [op for op in ops if not op["ok"] or want.get(op["name"]) != op["digest"]]
    if workload == "coldstart-churn":
        by_fn = {}
        for op in ops:
            by_fn.setdefault(op["name"].rsplit("/", 1)[0], set()).add(op["digest"])
        split = {fn for fn, ds in by_fn.items() if len(ds) > 1}
        bad += [op for op in ops if op not in bad and op["name"].rsplit("/", 1)[0] in split]
    return bad


def speed_factors(rec):
    """Per-op factors that convert host times to reference speed: the
    speed probe's nominal time over the median of the probes within
    PROBE_WINDOW ops of the op (svbperf probes once after every op)."""
    probes = rec["probes"]
    return [PROBE_NOMINAL_MS / statistics.median(
                probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i in range(len(probes))]


def end_to_end(rec, scaled=True):
    """End-to-end metric values of an untraced run; with @scaled, every
    host time is converted to reference speed: each op by its own
    factor, the measured phase by the ops' overall factor and each
    set-up repetition by the probes run around it."""
    factors = speed_factors(rec) if scaled else [1.0] * len(rec["ops"])
    times_ms = [op["ns"] / 1e6 * k for op, k in zip(rec["ops"], factors)]
    raw_ms = sum(op["ns"] for op in rec["ops"]) / 1e6
    return {
        "setup_s": statistics.median(s * (PROBE_NOMINAL_MS / p if scaled else 1.0)
                                     for s, p in rec["setup"]),
        "ops_per_s": len(times_ms) / (rec["phase"] * sum(times_ms) / raw_ms),
        "op_p50_ms": statistics.median(times_ms),
        "op_tail_ms": tail(times_ms)[0],
        "peak_rss_mb": rec["proc"][0] / 1024.0,
    }


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def load_expected():
    try:
        return json.loads(EXPECTED.read_text())
    except (OSError, ValueError) as e:
        log("perfbench: cannot read %s: %s" % (EXPECTED, e))
        return {}


def untraced(binary, args, deadline):
    rec = run_svbperf(binary, args.workload, args.seed, args.seconds, False, 3, deadline)
    bad = failures(args.workload, rec["ops"], load_expected())
    n = len(rec["ops"])
    values, raw = end_to_end(rec), end_to_end(rec, scaled=False)
    factors = speed_factors(rec)
    print("svbperf %s seed=%d: %d ops in %.2f s measured" % (args.workload, args.seed,
                                                            n, rec["phase"]))
    print("  speed probe median %.3f ms (nominal %.3f): op times x %.4f to x %.4f"
          % (statistics.median(rec["probes"]), PROBE_NOMINAL_MS, min(factors),
             max(factors)))
    tail_pct = tail([op["ns"] for op in rec["ops"]])[1]
    notes = {"setup_s": "median of %d set-ups" % len(rec["setup"]),
             "op_p50_ms": "%d samples" % n,
             "op_tail_ms": "p%.1f of %d samples, %d beyond"
                           % (tail_pct, n, round(n * (100 - tail_pct) / 100))}
    print("  %-12s %14s %-6s %14s" % ("metric", "value", "unit", "unscaled"))
    for name, (unit, _) in END_TO_END.items():
        print("  %-12s %14.4f %-6s %14.4f %s" % (name, values[name], unit, raw[name],
                                                notes.get(name, "")))
    print("  %-12s %14.4f %-6s %d of %d ops failed the output check"
          % ("failed_frac", len(bad) / n, "ratio", len(bad), n))
    for op in bad[:10]:
        print("  FAILED %s digest=%s ok=%s" % (op["name"], op["digest"], op["ok"]))
    print("  output digest %s" % output_digest(rec["ops"]))
    emit(not bad and not rec["setup_failed"], n, len(bad),
         {k: (values[k], END_TO_END[k][0]) for k in END_TO_END})


def traced(binary, args, deadline):
    expected = load_expected()
    metrics, attempted, bad, setup_failed = {}, 0, [], False
    for wl in WORKLOADS:
        rec = run_svbperf(binary, wl, args.seed, args.seconds, True, 1, deadline)
        attempted += len(rec["ops"])
        bad += failures(wl, rec["ops"], expected)
        setup_failed |= rec["setup_failed"]
        metrics.update(rec["metrics"])
        print("svbperf %s traced: %d ops, output digest %s"
              % (wl, len(rec["ops"]), output_digest(rec["ops"])))
    missing = [m[0] for m in PER_LAYER
               if m[0] not in metrics or not math.isfinite(metrics[m[0]][0])]
    if missing:
        raise RuntimeError("traced run lacks metrics: " + ", ".join(missing))
    print("  %-36s %14s %-9s %-22s %s" % ("metric", "value", "unit", "layer", "moves"))
    for name, unit, _, layer, e2e, wl in PER_LAYER:
        print("  %-36s %14.4f %-9s %-22s %s on %s"
              % (name, metrics[name][0], unit, layer, e2e, wl))
    for op in bad[:10]:
        print("  FAILED %s digest=%s ok=%s" % (op["name"], op["digest"], op["ok"]))
    emit(not bad and not setup_failed, attempted, len(bad),
         {m[0]: (metrics[m[0]][0], m[1]) for m in PER_LAYER})


def write_expected(binary):
    deadline = time.monotonic() + 600
    out = {}
    for wl in WORKLOADS:
        rec = run_svbperf(binary, wl, 1, 0, False, 1, deadline)
        digests = {}
        for op in rec["ops"]:
            if not op["ok"]:
                raise RuntimeError("%s: op %s failed" % (wl, op["name"]))
            if digests.setdefault(op["name"], op["digest"]) != op["digest"]:
                raise RuntimeError("%s: op %s is not deterministic" % (wl, op["name"]))
        out[wl] = dict(sorted(digests.items()))
        if failures(wl, rec["ops"], out):
            raise RuntimeError("%s: restore modes disagree" % wl)
    EXPECTED.write_text(json.dumps(out, indent=1) + "\n")
    log("wrote", EXPECTED)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()
    if not args.write_expected and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.write_expected:
            write_expected(binary)
            return 0
        deadline = time.monotonic() + MEASURE_DEADLINE_S
        (traced if args.trace else untraced)(binary, args, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
