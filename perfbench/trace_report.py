#!/usr/bin/env python3
"""Self-time report for a traced benchmark run.

A traced run of pier_perfbench writes one span per line:

    <id> <parent id, 0 = root> <name> <start ns> <end ns>

Spans come from the benchmark's own calls into each layer (loop.run slices,
client.query, client.publish_batch, dht.get, dht.put, and the idle maint
interval). The run is single-threaded, so a span's children never overlap
and its self time is its duration minus the sum of its children's.

Usage: python3 perfbench/trace_report.py <spans file>
"""

import sys

# Every span name the benchmark records; a run reports all of them, with
# zero for the ones its workload never enters.
SPAN_NAMES = ("loop.run", "client.query", "client.publish_batch", "dht.get",
              "dht.put", "maint")


def load(path):
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, start, end = line.split()
            spans.append((int(sid), int(parent), name, int(start), int(end)))
    return spans


def self_times(spans):
    """Per span name: count, total ns, self ns."""
    child_ns = {}
    for _, parent, _, start, end in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out = {}
    for sid, _, name, start, end in spans:
        row = out.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += (end - start) - child_ns.get(sid, 0)
    return out


def metric_name(span_name):
    return "span." + span_name.replace(".", "_") + ".self_ms"


def span_metrics(path):
    """The per-layer metrics a traced run derives from its spans."""
    times = self_times(load(path))
    return {
        metric_name(n): {"value": times.get(n, {}).get("self_ns", 0) / 1e6, "unit": "ms"}
        for n in SPAN_NAMES
    }


def format_table(times):
    lines = ["%-22s %10s %12s %12s %8s" % ("span", "count", "total ms", "self ms", "self %")]
    grand = sum(r["self_ns"] for r in times.values()) or 1
    for name, r in sorted(times.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append("%-22s %10d %12.1f %12.1f %7.1f%%" % (
            name, r["count"], r["total_ns"] / 1e6, r["self_ns"] / 1e6,
            100.0 * r["self_ns"] / grand))
    return "\n".join(lines)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(format_table(self_times(load(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
