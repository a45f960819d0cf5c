#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library under ../src and the
benchmark program in this directory are built with CMake into
$CARGO_TARGET_DIR (default .bench_build), then one workload runs in a
single process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The line before it
is the program's full report (sample counts, audit and load-generator
figures, sizes).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("archive_search", "live_ingest", "http_mix")
# Wall-clock limits for one invocation: the first one in a checkout also
# builds the library.
LIMIT_S = 175
FIRST_LIMIT_S = 880


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    binary = os.path.join(build_dir, "perfbench")
    first = not os.path.exists(binary)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return binary, first


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    declared = declared_metrics(args.trace)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    binary, first = build(os.path.join(build_root, "perfbench"))

    work_dir = os.path.join(build_root, "perfbench-work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    spans_dir = os.path.join(build_root, "perfbench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # Start from a clean page cache: without this, writeback of the build's
    # object files (or of the previous run's files) lands in the timed phase,
    # slowing fsyncs and everything else for the first minutes.
    os.sync()
    budget = (FIRST_LIMIT_S if first else LIMIT_S) - (time.monotonic() - start)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--spans-dir", spans_dir]
    # The workload process never outlives this one: on a timeout or a
    # SIGTERM it is killed and waited for before the work dir goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # glibc's malloc backs its heaps with transparent huge pages. With 4 KiB
    # pages the single-threaded insert path ran 1.3-2x slower in some
    # processes than in others on a 4-vCPU VM; with huge pages it did not.
    # Results are unchanged; older glibc versions ignore the setting.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %.0f s" % budget)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        fail("workload exited with code %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        fail("workload printed no report")
    report = json.loads(lines[-1])

    measured = report["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name, unit in declared.items():
        m = measured.get(name)
        if m is None:
            # Every end-to-end metric applies to every workload; a layer
            # the workload does not drive reports 0.
            if not args.trace:
                fail("end-to-end metric %s was not measured" % name)
            m = {"value": 0, "unit": unit}
        if m["unit"] != unit:
            fail("unit of %s is %s, BENCHMARK.json says %s" %
                 (name, m["unit"], unit))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("metric %s has no finite value" % name)
        metrics[name] = m

    print(json.dumps(report))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
