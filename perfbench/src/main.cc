// pier_perfbench: run one benchmark workload on a simulated PIER cluster.
//
//   pier_perfbench --workload dht_lookup|stream_agg|keyword_search
//                  [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//                  [--ops N] [--tick-us N]
//
// Prints a human-readable summary on stderr and one JSON object on stdout:
// {"workload", "correct", "attempted", "failed", "wrong", "wrong_examples",
//  "end_to_end": {name: {value, unit, samples, virtual}}, "per_layer": {...},
//  "notes": [...]}. run.py turns it into the benchmark's result line.
// Exits 1 when any answer is wrong, 2 on a usage or set-up error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) +
           ", \"samples\": " + std::to_string(metric.samples) +
           ", \"virtual\": " + (metric.virtual_time ? "true" : "false") + "}";
  }
  return out + "}";
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + JsonString(v[i]);
  return out + "]";
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "pier_perfbench: %s\nusage: pier_perfbench --workload "
               "dht_lookup|stream_agg|keyword_search [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] [--ops N] [--tick-us N]\n",
               why.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--trace-out") {
      o.trace_path = v;
    } else {
      double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || x < 0) Usage("bad value for " + flag);
      if (flag == "--seed") o.seed = static_cast<uint64_t>(x);
      else if (flag == "--seconds") o.seconds = x;
      else if (flag == "--trace") o.trace = x != 0;
      else if (flag == "--ops") o.ops = static_cast<uint64_t>(x);
      else if (flag == "--tick-us") o.tick_us = static_cast<int64_t>(x);
      else Usage("unknown flag " + flag);
    }
  }
  if (!IsWorkload(o.workload)) Usage("unknown workload '" + o.workload + "'");
  if (o.seconds <= 0) Usage("--seconds must be positive");

  Report r = RunWorkload(o);

  std::fprintf(stderr, "== %s (seed %llu) ==\n", r.workload.c_str(),
               static_cast<unsigned long long>(o.seed));
  for (const std::string& n : r.notes) std::fprintf(stderr, "%s\n", n.c_str());
  for (const std::string& w : r.wrong_examples) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", w.c_str());
  }
  bool correct = r.wrong == 0;
  std::printf(
      "{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"wrong\": %llu, \"wrong_examples\": %s, \"end_to_end\": %s, "
      "\"per_layer\": %s, \"notes\": %s}\n",
      JsonString(r.workload).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), static_cast<unsigned long long>(r.wrong),
      JsonStrings(r.wrong_examples).c_str(), JsonMetrics(r.end_to_end).c_str(),
      JsonMetrics(r.per_layer).c_str(), JsonStrings(r.notes).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
