#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the C++
runner (perfbench/CMakeLists.txt, over the library sources in src/) into
.bench_build/perfbench; later runs only rebuild what changed. The workload
runs in its own process. With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 they are the per-layer metrics,
from a separate traced run. Every run checks the program's outputs.

Standard output ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full result — run identity, timing summaries, seeded input properties,
per-layer kinds (measured or computed) — is written to
.bench_build/perfbench/results/. Exit status is nonzero, with no result
line, when the runner cannot be built or the workload does not complete.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import harness  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def pin_for(workload, seed):
    with open(os.path.join(HERE, "pins.json")) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    results = os.path.join(BUILD_DIR, "results")
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(results, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".raw.json", "--tmp", tmp]
    if args.trace:
        cmd += ["--spans", stem + ".spans.json"]
    pin = pin_for(args.workload, args.seed)
    if pin is not None:
        cmd += ["--pin", pin]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with status {proc.returncode}")
    with open(stem + ".raw.json") as f:
        raw = json.load(f)

    attempted, failed = harness.failure_counts(raw["checks"])
    if args.trace:
        layers = harness.per_layer_metrics(raw)
        metrics = {n: {"value": v, "unit": u} for n, (v, u, _) in layers.items()}
        kinds = {n: k for n, (_, _, k) in layers.items()}
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = {n: {"value": v, "unit": u}
                   for n, (v, u) in harness.end_to_end_metrics(raw).items()}
        kinds = {}
        expected = [m["name"] for m in spec["end_to_end"]]
    missing = [n for n in expected if n not in metrics]
    if missing:
        fail(f"metrics missing from the run: {', '.join(missing)}")
    metrics = {n: metrics[n] for n in expected}

    result = {
        "identity": harness.identity(raw, ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "item_name": raw["item_name"],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "failure_notes": raw["checks"]["notes"],
        "metrics": metrics,
        "metric_kinds": kinds,
        "setup_rounds_s": raw["setup_s"],
        "timings": {k: harness.timing_summary(raw[k])
                    for k in ("setup_s", "rep_s", "plain_s", "monitored_s",
                              "untraced_s", "traced_s") if raw[k]},
        "inputs": raw["inputs"],
        "fingerprint": raw["run"].get("fingerprint"),
        "spans": raw["spans"],
    }
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    for name, m in metrics.items():
        kind = f"  [{kinds[name]}]" if name in kinds else ""
        print(f"{name:48s} {m['value']:16.6g} {m['unit']}{kind}")
    print(f"checks: {attempted} attempted, {failed} failed; result: {stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
