#!/usr/bin/env python3
"""Runs the perf-tracked benchmark binaries and merges their google-benchmark
JSON into one machine-readable report (BENCH_PR1.json et al.).

Usage:
    tools/run_benches.py --build-dir build --out BENCH_PR1.json \
        [--baseline path/to/BENCH_PR0.json] [--min-time 0.2] [--filter REGEX]

The report maps benchmark name -> real_time nanoseconds (plus run metadata).
With --baseline, each entry also records the baseline time and the speedup
factor, so a PR's perf claim is checkable from the committed file alone.

With --metrics (the default), each binary also runs with XST_METRICS_OUT
set, and its process-exit metrics dump (counters, gauges, span histograms)
is merged into the report under "metrics", with a derived rescope-memo hit
rate when the counters are present. --no-metrics disables this.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# google-benchmark reports times in the benchmark's declared unit (ns unless
# ->Unit() was set); the report always stores nanoseconds.
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def to_ns(value, unit):
    return value * TIME_UNIT_NS.get(unit, 1.0)

# The perf trajectory binaries; keep in sync with bench/CMakeLists.txt.
BENCH_BINARIES = [
    "bench_setops",
    "bench_relative_product",
    "bench_image",
    "bench_compose",
    "bench_obs",
    "bench_vm",
    "bench_btree",
    "bench_pager_mt",
    "bench_wal",
    "bench_interner",
]


def usable_cpus():
    """The CPUs this process may run on, as `nproc` reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def cmake_build_type(build_dir):
    """CMAKE_BUILD_TYPE from <build_dir>/CMakeCache.txt, or None if unreadable."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or None
    except OSError:
        pass
    return None


def run_binary(path, min_time, bench_filter, allow_missing, want_metrics):
    """Runs one benchmark binary; returns (google-benchmark JSON, metrics JSON).

    The metrics JSON is the binary's XST_METRICS_OUT process-exit dump, or
    None when metrics collection is off or the dump was unreadable.
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = tmp.name
    metrics_path = None
    try:
        cmd = [
            path,
            f"--benchmark_min_time={min_time}",
            "--benchmark_format=json",
            f"--benchmark_out={tmp_path}",
            "--benchmark_out_format=json",
        ]
        if bench_filter:
            cmd.append(f"--benchmark_filter={bench_filter}")
        env = None
        if want_metrics:
            with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as m:
                metrics_path = m.name
            env = dict(os.environ, XST_METRICS_OUT=metrics_path)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, env=env)
        if proc.returncode != 0:
            if not allow_missing:
                sys.exit(f"error: {path} exited {proc.returncode}; a perf-tracked "
                         "benchmark crashed, so the report would be missing its "
                         "numbers (pass --allow-missing to skip it instead)")
            print(f"warning: {path} exited {proc.returncode}, skipping",
                  file=sys.stderr)
            return {}, None
        metrics = None
        if metrics_path is not None:
            try:
                with open(metrics_path) as f:
                    metrics = json.load(f)
            except (OSError, json.JSONDecodeError):
                metrics = None
        try:
            with open(tmp_path) as f:
                return json.load(f), metrics
        except (OSError, json.JSONDecodeError):
            # A --filter matching nothing in this binary leaves the out file
            # empty; that's zero benchmarks, not a fatal error.
            return {}, metrics
    finally:
        os.unlink(tmp_path)
        if metrics_path is not None:
            try:
                os.unlink(metrics_path)
            except OSError:
                pass


def summarize_metrics(metrics):
    """Adds derived ratios (rescope-memo and pager hit rates) to a dump."""
    counters = metrics.get("counters", {})
    derived = {}
    hits = counters.get("rescope.memo.hits", 0)
    misses = counters.get("rescope.memo.misses", 0)
    if hits + misses > 0:
        derived["rescope_memo_hit_rate"] = hits / (hits + misses)
    phits = counters.get("pager.fetch.hits", 0)
    pmisses = counters.get("pager.fetch.misses", 0)
    if phits + pmisses > 0:
        derived["pager_hit_rate"] = phits / (phits + pmisses)
    if derived:
        metrics = dict(metrics, derived=derived)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--out", default="BENCH_PR1.json")
    parser.add_argument("--baseline", help="previous report to compute speedups against")
    parser.add_argument("--min-time", type=float, default=0.2)
    parser.add_argument("--filter", default=None, help="benchmark name regex")
    parser.add_argument("--label", default=None, help="free-form label for this run")
    parser.add_argument("--allow-missing", action="store_true",
                        help="skip perf-tracked binaries that are missing or crash, "
                             "and drop benchmarks that report an error, instead of "
                             "failing (writes a partial report)")
    parser.add_argument("--metrics", dest="metrics", action="store_true", default=True,
                        help="collect each binary's XST_METRICS_OUT dump into the "
                             "report (default)")
    parser.add_argument("--no-metrics", dest="metrics", action="store_false",
                        help="skip metrics collection")
    args = parser.parse_args()

    baseline = {}
    if args.baseline:
        try:
            with open(args.baseline) as f:
                base_report = json.load(f)
        except OSError as e:
            sys.exit(f"error: cannot read baseline {args.baseline}: {e}")
        base_benchmarks = base_report.get("benchmarks", {})
        if isinstance(base_benchmarks, list):
            # Pre-merge report format: a flat google-benchmark entry list.
            for e in base_benchmarks:
                if e.get("run_type", "iteration") == "iteration":
                    baseline[e["name"]] = to_ns(e["real_time"],
                                                e.get("time_unit", "ns"))
        else:
            for binary, entries in base_benchmarks.items():
                for e in entries:
                    baseline[e["name"]] = e["real_time_ns"]

    report = {"label": args.label, "context": None, "benchmarks": {}}
    if args.metrics:
        report["metrics"] = {}
    # Fail fast on missing binaries: a partial report silently read as "the
    # perf trajectory is covered" when a tracked binary was never built.
    missing = [b for b in BENCH_BINARIES
               if not os.path.exists(os.path.join(args.build_dir, "bench", b))]
    if missing and not args.allow_missing:
        sys.exit("error: perf-tracked benchmark binaries not built: "
                 + ", ".join(missing)
                 + f" (looked under {args.build_dir}/bench; build them with "
                 "`cmake --build build -j`, or pass --allow-missing to write "
                 "a partial report)")
    for binary in BENCH_BINARIES:
        path = os.path.join(args.build_dir, "bench", binary)
        if not os.path.exists(path):
            print(f"warning: {path} not built, skipping", file=sys.stderr)
            continue
        raw, metrics = run_binary(path, args.min_time, args.filter,
                                  args.allow_missing, args.metrics)
        if metrics is not None:
            report["metrics"][binary] = summarize_metrics(metrics)
        if report["context"] is None:
            ctx = raw.get("context", {})
            report["context"] = {
                "date": ctx.get("date"),
                "nproc": usable_cpus(),
                "num_cpus": ctx.get("num_cpus"),
                "mhz_per_cpu": ctx.get("mhz_per_cpu"),
                "cmake_build_type": cmake_build_type(args.build_dir),
                # google-benchmark's own build, not this project's.
                "benchmark_library_build_type": ctx.get("library_build_type"),
            }
        entries = []
        for b in raw.get("benchmarks", []):
            # google-benchmark reports aggregate rows too; keep plain runs.
            if b.get("run_type", "iteration") != "iteration":
                continue
            # A benchmark that called SkipWithError still exits 0, with
            # real_time 0: that is a failure, not a timing.
            if b.get("error_occurred"):
                what = f"{binary}: {b['name']} reported an error: {b.get('error_message', '')}"
                if not args.allow_missing:
                    sys.exit(f"error: {what} (pass --allow-missing to drop it instead)")
                print(f"warning: {what}, dropping it", file=sys.stderr)
                continue
            unit = b.get("time_unit", "ns")
            real_ns = to_ns(b["real_time"], unit)
            entry = {
                "name": b["name"],
                "real_time_ns": real_ns,
                "cpu_time_ns": to_ns(b["cpu_time"], unit),
                "iterations": b["iterations"],
            }
            if "items_per_second" in b:
                entry["items_per_second"] = b["items_per_second"]
            if b["name"] in baseline and real_ns > 0:
                entry["baseline_real_time_ns"] = baseline[b["name"]]
                entry["speedup_vs_baseline"] = baseline[b["name"]] / real_ns
            entries.append(entry)
        report["benchmarks"][binary] = entries
        print(f"{binary}: {len(entries)} benchmarks", file=sys.stderr)

    if not report["benchmarks"]:
        sys.exit(f"error: no benchmark binaries found under {args.build_dir}/bench "
                 "(build them first: cmake --build build -j)")

    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
