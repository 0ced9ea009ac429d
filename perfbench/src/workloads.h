// The benchmark's three whole-cluster workloads (README.md says why each
// was chosen and which layer it stresses).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Sizes the measured phase: a workload runs a fixed number of
  /// operations, about this many wall seconds' worth on a 4-core VM, so
  /// every virtual-time result depends on the seed and this value only.
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans.
  std::string trace_path;
  /// Self-test overrides (0 keeps the workload's own value): measured-phase
  /// operations, and stream_agg's batch interval (10 ms virtual).
  uint64_t ops = 0;
  int64_t tick_us = 0;
};

bool IsWorkload(const std::string& name);

/// Run one workload end to end. Set-up failures abort the process.
Report RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
