#!/usr/bin/env python3
"""The PIER whole-cluster benchmark (README.md describes the workloads).

One run of one workload, as BENCHMARK.json declares it:

    python3 perfbench/run.py --workload dht_lookup --seed 1 --seconds 20 --trace 0

prints, as its last line, {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints each end-to-end metric
with its unit and sample count, the per-layer table, span self times and
the tracing overhead. It exits nonzero on any wrong answer.

    python3 perfbench/run.py --selftest

runs the failure-accounting self-test and the determinism check.

The first use configures and builds perfbench/ (and with it the library
sources under src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, under the repository root.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import trace_report  # noqa: E402

WORKLOADS = ("dht_lookup", "stream_agg", "keyword_search")
END_TO_END = ("setup_s", "ops_per_s", "peak_rss_mb", "latency_p50_ms",
              "latency_p99_ms", "bytes_per_op", "recall")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "qp", "sim_pier.h")):
        log("perfbench: no PIER sources under %s/src; nothing to benchmark" % ROOT)
        sys.exit(2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                log("perfbench: build step failed: %s" % " ".join(cmd))
                sys.exit(2)
    return os.path.join(out, "pier_perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns the binary's JSON report (span self times
    folded in)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    spans = None
    if trace:
        spans = os.path.join(build_dir(), "traces", "%s-%s.spans" % (workload, seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--trace-out", spans]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %ds" % (workload, RUN_TIMEOUT_S))
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: %s exited with %d" % (workload, proc.returncode))
        sys.exit(3)
    report = json.loads(lines[-1])
    if spans:
        report["spans"] = trace_report.self_times(trace_report.load(spans))
        for name, m in trace_report.span_metrics(spans).items():
            report["per_layer"][name] = dict(m, samples=0, virtual=False)
    return report


def result_line(report, trace):
    if trace:
        metrics = report["per_layer"]
    else:
        metrics = {n: report["end_to_end"][n] for n in END_TO_END}
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in sorted(metrics.items())},
    }


def print_all(reports):
    """Human tables for --all: end-to-end, per-layer, spans, overhead."""
    for workload, (plain, traced) in reports.items():
        print("\n=== %s ===" % workload)
        print("correct=%s attempted=%d failed=%d failed_frac=%.6f" % (
            plain["correct"], plain["attempted"], plain["failed"],
            plain["end_to_end"]["failed_frac"]["value"]))
        print("%-16s %16s %-6s %10s" % ("end-to-end", "value", "unit", "samples"))
        for name in END_TO_END + ("failed_frac",):
            m = plain["end_to_end"][name]
            print("%-16s %16.4f %-6s %10d" % (name, m["value"], m["unit"], m["samples"]))
        print("\n%-36s %16s %-6s" % ("per-layer (traced run)", "value", "unit"))
        for name, m in sorted(traced["per_layer"].items()):
            print("%-36s %16.4f %-6s" % (name, m["value"], m["unit"]))
        print("\nspans (traced run)")
        print(trace_report.format_table(traced["spans"]))
        untraced = plain["end_to_end"]["ops_per_s"]["value"]
        with_trace = traced["per_layer"]["trace.ops_per_s"]["value"]
        print("\ntracing overhead: ops_per_s %.1f untraced, %.1f traced (%+.1f%%)" % (
            untraced, with_trace, 100.0 * (untraced / with_trace - 1.0)))
        for note in plain["notes"]:
            print(note)


def virtual_metrics(report, sections=("end_to_end", "per_layer")):
    return {(s, n): m["value"] for s in sections
            for n, m in report[s].items() if m["virtual"]}


def selftest(binary):
    failures = []

    def check(ok, what):
        log("%s: %s" % ("PASS" if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    # Failure accounting: 100-row batches every 1 ms (100k rows per virtual
    # second) into 64 nodes overload the lookups; drops must be counted.
    r = run_binary(binary, "stream_agg", 1, 1, False,
                   ["--ops", "50000", "--tick-us", "1000"])
    frac = r["end_to_end"]["failed_frac"]["value"]
    recall = r["end_to_end"]["recall"]["value"]
    check(r["correct"], "overloaded stream_agg answers are still correct")
    check(frac > 0, "overloaded stream_agg reports drops (failed_frac=%g)" % frac)
    check(recall < 1, "overloaded stream_agg recall below 1 (recall=%g)" % recall)

    # Determinism: the same seed repeats every virtual-time metric and every
    # per-layer count, traced or not; another seed passes the oracle.
    for w in WORKLOADS:
        a = run_binary(binary, w, 7, 1, True)
        b = run_binary(binary, w, 7, 1, True)
        c = run_binary(binary, w, 7, 1, False)
        d = run_binary(binary, w, 8, 1, False)
        va, vb = virtual_metrics(a), virtual_metrics(b)
        diff = sorted(k[1] for k in va if va[k] != vb.get(k))
        check(not diff and len(va) == len(vb),
              "%s: same-seed traced runs agree on %d virtual metrics%s" % (
                  w, len(va), (" (differ: %s)" % diff) if diff else ""))
        ea, ec = virtual_metrics(a, ("end_to_end",)), virtual_metrics(c, ("end_to_end",))
        check(ea == ec, "%s: tracing leaves the virtual-time metrics unchanged" % w)
        check(all(x["correct"] for x in (a, b, c, d)),
              "%s: seeds 7 and 8 pass the correctness oracle" % w)
    log("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not (args.workload or args.all or args.selftest):
        p.error("one of --workload, --all or --selftest is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.all:
        reports = {w: (run_binary(binary, w, args.seed, args.seconds, False),
                       run_binary(binary, w, args.seed, args.seconds, True))
                   for w in WORKLOADS}
        print_all(reports)
        return 0 if all(p["correct"] and t["correct"] for p, t in reports.values()) else 1

    report = run_binary(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print(json.dumps(result_line(report, args.trace == 1)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
