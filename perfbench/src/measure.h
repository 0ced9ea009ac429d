// Measurement plumbing shared by the workloads: the loop driver, the span
// tracer, histograms, and the per-layer counter snapshot.
//
// Everything here observes the system from outside. Wall time is read only
// around the benchmark's own calls into the library (EventLoop::RunOne,
// PierClient::Query, PierClient::PublishBatch, Dht::Get/Put) and per-layer
// counts come from each layer's public stats() and MetricsRegistry.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "qp/sim_pier.h"

namespace perfbench {

using pier::TimeUs;

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]) of a sample set; 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

/// Log-linear histogram of nanosecond durations: 16 sub-buckets per power
/// of two, so a quantile is exact to within ~6%. Used for per-event
/// RunOne times, where keeping every sample or a span would cost more than
/// the events themselves.
class LogHistogram {
 public:
  void Add(uint64_t v);
  uint64_t count() const { return count_; }
  double Quantile(double q) const;

 private:
  static size_t Bucket(uint64_t v);
  static double BucketMid(size_t b);
  std::array<uint64_t, 64 * 16> buckets_{};
  uint64_t count_ = 0;
};

/// In-memory span recorder; written out once, when the run ends. A span's
/// parent is whichever span was open when it began.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  uint32_t Begin(const char* name);
  void End(uint32_t id);
  /// One span per line: id parent name start_ns end_ns (parent 0 = root).
  bool WriteTo(const std::string& path) const;

 private:
  struct Span {
    uint32_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t->on() ? t : nullptr), id_(t_ ? t_->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (t_) t_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  uint32_t id_;
};

/// Drives a cluster's event loop in virtual-time slices. Each slice is one
/// `loop.run` span; in a traced run every RunOne is timed into a histogram
/// and the queue depth is sampled per event.
class LoopDriver {
 public:
  LoopDriver(pier::SimPier* net, Tracer* tracer) : net_(net), tracer_(tracer) {}

  /// Schedule `fn`, which performs `ops` operations, at absolute virtual
  /// time `when`.
  void At(TimeUs when, std::function<void()> fn, uint64_t ops = 1);
  /// Run every event up to and including virtual time `t`.
  void RunUntil(TimeUs t);
  TimeUs now() const { return net_->loop()->now(); }

  const LogHistogram& event_ns() const { return event_ns_; }
  uint64_t pending_max() const { return pending_max_; }
  /// Wall seconds spent inside RunUntil: the system's work, without the
  /// benchmark's own input generation between slices.
  double busy_s() const { return static_cast<double>(busy_ns_) * 1e-9; }

  /// Split the load into `n` equal virtual-time chunks of `len` from
  /// `origin`. Each At() counts one operation into its chunk, and each
  /// RunUntil's wall time is charged to the chunk its slice starts in.
  void SetChunks(TimeUs origin, TimeUs len, size_t n);
  /// Operations per busy wall second, as the median over the chunks: a
  /// burst of interference from outside the process moves few chunks.
  double MedianChunkRate() const;

 private:
  /// The chunk virtual time `t` falls in; chunk count when outside.
  size_t ChunkOf(TimeUs t) const;
  /// RunUntil with every RunOne timed and the queue depth sampled.
  void RunTraced(TimeUs t);

  pier::SimPier* net_;
  Tracer* tracer_;
  LogHistogram event_ns_;
  uint64_t pending_max_ = 0;
  int64_t busy_ns_ = 0;
  TimeUs chunk_origin_ = 0;
  TimeUs chunk_len_ = 0;
  std::vector<uint64_t> chunk_ops_;
  std::vector<int64_t> chunk_busy_ns_;
};

/// Cluster-wide sums of every node's public layer counters at one instant.
struct LayerCounters {
  uint64_t events = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t udp_sent = 0;
  uint64_t udp_delivered = 0;
  uint64_t udp_failed = 0;
  uint64_t udp_retransmits = 0;
  uint64_t udp_dups = 0;
  uint64_t lookups = 0;
  uint64_t lookups_ok = 0;
  uint64_t routed_forwarded = 0;
  uint64_t routed_delivered = 0;
  uint64_t coalesced = 0;
  uint64_t dht_puts = 0;
  uint64_t dht_gets = 0;
  uint64_t batched_puts = 0;
  uint64_t batch_msgs = 0;
  uint64_t graphs = 0;
  uint64_t answers_forwarded = 0;
  double answer_bytes = 0;

  static LayerCounters Read(pier::SimPier* net);
  LayerCounters operator-(const LayerCounters& o) const;
};

/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

/// One reported metric. `virtual_time` marks values that depend only on the
/// seed (virtual-time latencies, counts, bytes): those must repeat exactly.
struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  bool virtual_time = false;
};

/// What one workload run produces.
struct Report {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::vector<std::string> wrong_examples;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable extra lines (per-operator table, notes).
  std::vector<std::string> notes;

  void Wrong(const std::string& what);
};

/// Fill the per-layer metrics every workload shares from a counter delta
/// over the measured phase, its busy wall time, the loop driver's event
/// timings (traced runs only) and the rows it published.
void AddLayerMetrics(const LayerCounters& d, const LoopDriver& driver,
                     double measure_wall_s, bool traced, uint64_t rows,
                     Report* r);

/// Fill latency_p50_ms / latency_p99_ms from virtual-µs samples.
void AddLatency(const std::vector<double>& latency_us, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
