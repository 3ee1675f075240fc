#!/usr/bin/env python3
"""Dexter hypertext benchmark: builds the library from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dexter_browse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke          # self-test on a tiny graph

The binary is built under .bench_build/ in the checkout (CMake, out of
tree). Each run prints a metadata line, a line with every metric the run
measured (with units and sample counts), and, last, the result object:
the end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "dexter_bench")

WORKLOADS = ["dexter_browse", "dexter_analytics", "dexter_edit"]

# Gated end-to-end metrics: measured on every workload, never 0, and steady
# from run to run. README.md lists the end-to-end figures kept out of this
# list and why.
E2E = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("query_p50_us", "us"),
]

PER_LAYER = [
    ("xsp.parse.us", "us"),
    ("xsp.parse.share", "ratio"),
    ("xsp.optimize.us", "us"),
    ("xsp.optimize.share", "ratio"),
    ("xsp.optimize.rewrites", "count"),
    ("xsp.compile.us", "us"),
    ("xsp.compile.share", "ratio"),
    ("xsp.compile.instrs", "count"),
    ("xsp.verify.us", "us"),
    ("xsp.verify.share", "ratio"),
    ("xsp.vm.self_us", "us"),
    ("xsp.vm.share", "ratio"),
    ("xsp.vm.materializations", "count"),
    ("xsp.vm.intermediate_rows", "count"),
    ("xsp.vm.peak_rows", "count"),
    ("pool.worker_chunk_ratio", "ratio"),
    ("store.cursor.us", "us"),
    ("store.cursor.share", "ratio"),
    ("store.cursor.members", "count"),
    ("store.cursor.batches", "count"),
    ("store.get.share", "ratio"),
    ("store.probe.share", "ratio"),
    ("pager.hit_rate", "ratio"),
    ("pager.misses_per_op", "count"),
    ("pager.evictions_per_op", "count"),
    ("pager.latch.contention_ratio", "ratio"),
    ("store.commit.share", "ratio"),
    ("wal.commits_per_flush", "ratio"),
    ("wal.log_bytes_per_commit", "B"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.checkpoints", "count"),
    ("wal.recovery.replayed_pages", "count"),
    ("store.open.us", "us"),
    ("io.wal.flushes", "count"),
    ("io.wal.write_bytes", "B"),
    ("io.main.reads", "count"),
    ("io.main.read_bytes", "B"),
    ("io.main.write_bytes", "B"),
    ("io.main.flushes", "count"),
    ("io.share", "ratio"),
    ("core.interner.sets_per_op", "count"),
    ("core.interner.members_per_op", "count"),
    ("ledger.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("scale.browse.ops_per_s.c1", "ops/s"),
    ("scale.browse.ops_per_s.c2", "ops/s"),
    ("scale.browse.ops_per_s.c4", "ops/s"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
]

BINARY_TIMEOUT_S = 170

# An untraced run is split over this many processes, each measuring an equal
# share of --seconds, and every metric is the median over them: a process's
# memory layout and the host's load during it move its figures by several
# percent, which a single process cannot average out.
PROCESSES = 3


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary from src/."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "dexter_bench"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed")


def run_binary(workload, seed, seconds, trace, shape="normal", timeout=BINARY_TIMEOUT_S):
    """Runs one workload process and returns its result object."""
    work = os.path.join(RUN_DIR, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", work, "--shape", shape]
    if trace:
        cmd += ["--spans", os.path.join(TRACE_DIR, "%s-seed%d.csv" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %ds" % (workload, timeout))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (workload, proc.returncode))
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s printed no result" % workload)
    return json.loads(lines[-1])


def combine(results):
    """One result from several processes: the median of each metric."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"],
                         "note": "median of %d processes; first: %s" % (len(values), m.get("note", ""))}
    return {"meta": dict(results[0]["meta"], processes=len(results)),
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_workload(workload, seed, seconds, trace, shape="normal"):
    """An untraced run over PROCESSES processes, or one traced process."""
    if trace:
        return run_binary(workload, seed, seconds, trace, shape)
    deadline = time.monotonic() + BINARY_TIMEOUT_S
    results = []
    for _ in range(PROCESSES):
        left = int(deadline - time.monotonic())
        if left <= 0:
            raise BenchError("%s ran out of time" % workload)
        results.append(run_binary(workload, seed, seconds / PROCESSES, trace, shape, timeout=left))
    return combine(results)


def select(result, names):
    """The result's metrics named in `names`, with the units declared here."""
    out = {}
    for name, unit in names:
        m = result["metrics"].get(name)
        if m is None:
            raise BenchError("metric %s missing from the run" % name)
        if m["unit"] != unit:
            raise BenchError("metric %s has unit %s, expected %s" % (name, m["unit"], unit))
        out[name] = {"value": m["value"], "unit": unit}
    return out


def smoke():
    """Runs all three workloads on a tiny graph, traced and untraced, and
    checks the oracle, every metric and the ledger's coverage."""
    problems = []
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        for key, names in (("end_to_end", E2E), ("per_layer", PER_LAYER)):
            if [(m["name"], m["unit"]) for m in spec[key]] != names:
                problems.append("BENCHMARK.json %s differs from run.py" % key)
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(workload, 1, 1, trace, shape="smoke")
            tag = "%s trace=%d" % (workload, trace)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s: oracle failed (%d of %d)" % (tag, r["failed"], r["attempted"]))
            if r["metrics"].get("error_rate", {}).get("value", 1) != 0:
                problems.append("%s: error_rate is not 0" % tag)
            try:
                select(r, E2E if trace == 0 else PER_LAYER)
            except BenchError as e:
                problems.append("%s: %s" % (tag, e))
            if trace:
                share = r["metrics"]["ledger.unattributed_share"]["value"]
                if share > 0.05:
                    problems.append("%s: unattributed share %.3f > 0.05" % (tag, share))
            log("smoke %s: ok=%s attempted=%d" % (tag, r["correct"], r["attempted"]))
    for p in problems:
        log("FAIL " + p)
    print(json.dumps({"smoke": "pass" if not problems else "fail", "problems": problems}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test on a tiny graph")
    args = ap.parse_args()
    try:
        start = time.monotonic()
        build()
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        metrics = select(result, E2E if args.trace == 0 else PER_LAYER)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    print(json.dumps({"meta": result["meta"], "elapsed_s": round(time.monotonic() - start, 3)}))
    print(json.dumps({"all_metrics": result["metrics"]}))
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
