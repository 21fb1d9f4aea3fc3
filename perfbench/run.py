#!/usr/bin/env python3
"""Repository benchmark: graph file -> served exact answers, one workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot-uniform --seed 1 --seconds 10 --trace 0

Builds the hublab libraries and perfbench/pipeline.cpp into .bench_build/
(Release), runs the pipeline for one workload in its own process, prints a
human-readable report, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  Exit code 0 when every answer was
correct, 1 when some answer was wrong or missing (the JSON line is still
printed), 2 when the benchmark could not run (no JSON line).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("hot-uniform", "gadget-far", "road-build")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "label_bytes_per_vertex": "B",
    "sat_qps": "queries/s",
    "p50_us": "us",
}

PER_LAYER = {
    "graph.load_s": "s",
    "order.s": "s",
    "pll.build_s": "s",
    "pll.visited": "count",
    "pll.pruned": "count",
    "pll.label_pushes": "count",
    "pll.prune_ratio": "fraction",
    "pll.bp_visited": "count",
    "pll.bp_dist_prunes": "count",
    "pll.bp_mask_prunes": "count",
    "pll.bp_table_bytes": "B",
    "pll.total_hubs": "count",
    "pll.avg_label": "count",
    "pll.max_label": "count",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.file_bytes": "B",
    "flat.convert_s": "s",
    "flat.bytes": "B",
    "kernel.batch_ns_per_query": "ns",
    "kernel.scalar_ns_per_query": "ns",
    "kernel.scanned_per_query": "count",
    "kernel.match_ratio": "fraction",
    "kernel.source_groups_per_pair": "fraction",
    "workload.gen_s": "s",
    "server.loop_s": "s",
    "server.worker_utilization_pct": "%",
    "server.busy_ns_per_query": "ns",
    "server.queue_depth_p50": "count",
    "server.queue_depth_p99": "count",
    "server.latency_rank_error_pct": "%",
    "server.p99_us": "us",
    "trace_overhead_pct.setup_s": "%",
    "trace_overhead_pct.sat_qps": "%",
}

# Reported only where perf_event_open works; never reported as zero.
HW_COUNTERS = {"server.hw.ipc": "instr/cycle", "server.hw.llc_miss_rate": "miss/instr"}

RUN_TIMEOUT_S = 170
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build():
    """Configure and build the libraries and the pipeline; returns its path or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no hublab sources next to perfbench/ (CMakeLists.txt, src/)")
        return None
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(os.cpu_count() or 1)
    libs, bench = BUILD / "hublab", BUILD / "perfbench"
    steps = [
        ["cmake", "-S", str(ROOT), "-B", str(libs), "-DCMAKE_BUILD_TYPE=Release",
         "-DHUBLAB_BUILD_TESTS=OFF", "-DHUBLAB_BUILD_BENCHMARKS=OFF",
         "-DHUBLAB_BUILD_EXAMPLES=OFF"],
        ["cmake", "--build", str(libs), "-j", jobs, "--target", "hublab_oracle",
         "hublab_lowerbound"],
        ["cmake", "-S", str(BENCH_DIR), "-B", str(bench), "-DCMAKE_BUILD_TYPE=Release",
         "-DHUBLAB_BUILD_DIR=" + str(libs)],
        ["cmake", "--build", str(bench), "-j", jobs],
    ]
    for cmd in steps:
        if run_logged(cmd, logfile) != 0:
            log("perfbench: build step failed: " + " ".join(cmd) + " (log: " + str(logfile) + ")")
            log("".join(open(logfile).readlines()[-30:]))
            return None
    return bench / "perfbench_pipeline"


def revision():
    """The git commit when .git is present, plus a hash of the sources built."""
    rev = "none"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench"):
        files += [p for p in (ROOT / tree).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return {"git": rev, "source_sha256": digest.hexdigest()[:16]}


def report(result, names, hw_absent_reason):
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    info = result["info"]
    print("perfbench %s seed=%d trace=%d" % (result["workload"], result["seed"], result["trace"]))
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    latency = "  (%d samples in %d windows, rank error +-%.2f%% of the samples)" % (
        info["latency_samples"], info["latency_windows"], info["latency_rank_error_pct"])
    for name, unit in names.items():
        extra = latency if name in ("p50_us", "server.p99_us") else ""
        print("  %-32s %14.6g %-10s%s" % (name, metrics[name], unit, extra))
    if not result["trace"]:
        print("  %-32s %14.6g %-10s%s" % ("p99_us (not gated)", info["p99_us"], "us", latency))
    print("  %-32s %14.6g %-10s  (%d failed of %d attempted)" % (
        "fail_rate", info["fail_rate"], "fraction", result["failed"], result["attempted"]))
    if result["trace"]:
        for name, unit in HW_COUNTERS.items():
            if name in metrics:
                print("  %-32s %14.6g %s" % (name, metrics[name], unit))
            else:
                print("  %-32s %14s (%s)" % (name, "absent", hw_absent_reason))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    program = build()
    if program is None:
        return 2
    work = BUILD / "work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    out = work / "result.json"
    if out.exists():
        out.unlink()
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", str(work), "--out", str(out)]
    start = time.monotonic()
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("perfbench: pipeline exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    log("perfbench: pipeline finished in %.1f s with exit code %d" % (time.monotonic() - start, code))
    if code not in (0, 1) or not out.is_file():
        return 2
    result = json.loads(out.read_text())
    result["provenance"]["revision"] = revision()
    result["provenance"]["host_cpus"] = os.cpu_count()

    names = PER_LAYER if args.trace else END_TO_END
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    missing = [name for name in names if metrics.get(name) is None]
    if missing:
        log("perfbench: pipeline did not report " + ", ".join(missing))
        return 2
    report(result, names, result["provenance"]["perf_describe"])
    correct = code == 0 and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
