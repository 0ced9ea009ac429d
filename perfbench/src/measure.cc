#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// --- LogHistogram ------------------------------------------------------------

size_t LogHistogram::Bucket(uint64_t v) {
  if (v < 16) return v;
  int e = 63 - __builtin_clzll(v);  // e >= 4
  size_t mantissa = (v >> (e - 4)) & 15;
  return static_cast<size_t>(e - 3) * 16 + mantissa;
}

double LogHistogram::BucketMid(size_t b) {
  if (b < 16) return static_cast<double>(b);
  int e = static_cast<int>(b / 16) + 3;
  double lo = std::ldexp(16.0 + static_cast<double>(b % 16), e - 4);
  return lo + std::ldexp(0.5, e - 4);
}

void LogHistogram::Add(uint64_t v) {
  size_t b = Bucket(v);
  if (b >= buckets_.size()) b = buckets_.size() - 1;
  buckets_[b]++;
  count_++;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return BucketMid(b);
  }
  return BucketMid(buckets_.size() - 1);
}

// --- Tracer ------------------------------------------------------------------

uint32_t Tracer::Begin(const char* name) {
  uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back(Span{parent, name, WallNs(), 0});
  uint32_t id = static_cast<uint32_t>(spans_.size());  // ids start at 1
  open_.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  spans_[id - 1].end_ns = WallNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::WriteTo(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i + 1) << ' ' << s.parent << ' ' << s.name << ' '
        << (s.start_ns - epoch) << ' ' << (s.end_ns - epoch) << '\n';
  }
  return static_cast<bool>(out);
}

// --- LoopDriver --------------------------------------------------------------

void LoopDriver::SetChunks(TimeUs origin, TimeUs len, size_t n) {
  chunk_origin_ = origin;
  chunk_len_ = std::max<TimeUs>(len, 1);
  chunk_ops_.assign(n, 0);
  chunk_busy_ns_.assign(n, 0);
}

double LoopDriver::MedianChunkRate() const {
  std::vector<double> rates;
  for (size_t i = 0; i < chunk_ops_.size(); ++i) {
    if (chunk_ops_[i] > 0 && chunk_busy_ns_[i] > 0) {
      rates.push_back(static_cast<double>(chunk_ops_[i]) * 1e9 /
                      static_cast<double>(chunk_busy_ns_[i]));
    }
  }
  return Median(std::move(rates));
}

size_t LoopDriver::ChunkOf(TimeUs t) const {
  if (chunk_len_ <= 0 || t < chunk_origin_) return chunk_ops_.size();
  return static_cast<size_t>((t - chunk_origin_) / chunk_len_);
}

void LoopDriver::At(TimeUs when, std::function<void()> fn, uint64_t ops) {
  size_t c = ChunkOf(when);
  if (c < chunk_ops_.size()) chunk_ops_[c] += ops;
  // The cancellation token is not needed: benchmark operations always run.
  (void)net_->loop()->ScheduleAt(when, std::move(fn));
}

void LoopDriver::RunUntil(TimeUs t) {
  pier::EventLoop* loop = net_->loop();
  size_t c = ChunkOf(loop->now());
  int64_t start = WallNs();
  if (tracer_->on()) {
    RunTraced(t);
  } else {
    loop->RunUntil(t);
  }
  int64_t ns = WallNs() - start;
  busy_ns_ += ns;
  if (c < chunk_busy_ns_.size()) chunk_busy_ns_[c] += ns;
}

void LoopDriver::RunTraced(TimeUs t) {
  pier::EventLoop* loop = net_->loop();
  ScopedSpan span(tracer_, "loop.run");
  while (true) {
    TimeUs next = loop->NextEventTime();
    if (next < 0 || next > t) break;
    // pending() subtracts every cancelled token, including tokens of events
    // that already ran, so it can wrap below zero; such samples are skipped.
    uint64_t pending = loop->pending();
    if (pending > pending_max_ && pending < (uint64_t{1} << 48)) pending_max_ = pending;
    int64_t t0 = WallNs();
    loop->RunOne();
    event_ns_.Add(static_cast<uint64_t>(WallNs() - t0));
  }
  loop->RunUntil(t);  // advances the clock to exactly t; no events remain
}

// --- LayerCounters -----------------------------------------------------------

LayerCounters LayerCounters::Read(pier::SimPier* net) {
  LayerCounters c;
  c.events = net->loop()->events_executed();
  c.net_msgs = net->harness()->total_msgs();
  c.net_bytes = net->harness()->total_bytes();
  for (uint32_t i = 0; i < net->size(); ++i) {
    pier::Dht* dht = net->dht(i);
    const pier::UdpCc::Stats& u = dht->router()->transport()->stats();
    c.udp_sent += u.msgs_sent;
    c.udp_delivered += u.msgs_delivered;
    c.udp_failed += u.msgs_failed;
    c.udp_retransmits += u.retransmits;
    c.udp_dups += u.duplicates_dropped;
    const pier::OverlayRouter::Stats& rs = dht->router()->stats();
    c.lookups += rs.lookups_started;
    c.lookups_ok += rs.lookups_ok;
    c.routed_forwarded += rs.routed_forwarded;
    c.routed_delivered += rs.routed_delivered;
    c.coalesced += rs.coalesced_msgs;
    pier::Dht::Stats ds = dht->stats();
    c.dht_puts += ds.puts;
    c.dht_gets += ds.gets;
    c.batched_puts += ds.batched_puts;
    c.batch_msgs += ds.batch_msgs;
    const pier::QueryProcessor::Stats& qs = net->qp(i)->stats();
    c.graphs += qs.graphs_received;
    c.answers_forwarded += qs.answers_forwarded;
    for (const pier::MetricSample& s : net->metrics(i)->Snapshot()) {
      if (s.name == "pier_query_answer_bytes") c.answer_bytes += s.sum;
    }
  }
  return c;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.events = events - o.events;
  d.net_msgs = net_msgs - o.net_msgs;
  d.net_bytes = net_bytes - o.net_bytes;
  d.udp_sent = udp_sent - o.udp_sent;
  d.udp_delivered = udp_delivered - o.udp_delivered;
  d.udp_failed = udp_failed - o.udp_failed;
  d.udp_retransmits = udp_retransmits - o.udp_retransmits;
  d.udp_dups = udp_dups - o.udp_dups;
  d.lookups = lookups - o.lookups;
  d.lookups_ok = lookups_ok - o.lookups_ok;
  d.routed_forwarded = routed_forwarded - o.routed_forwarded;
  d.routed_delivered = routed_delivered - o.routed_delivered;
  d.coalesced = coalesced - o.coalesced;
  d.dht_puts = dht_puts - o.dht_puts;
  d.dht_gets = dht_gets - o.dht_gets;
  d.batched_puts = batched_puts - o.batched_puts;
  d.batch_msgs = batch_msgs - o.batch_msgs;
  d.graphs = graphs - o.graphs;
  d.answers_forwarded = answers_forwarded - o.answers_forwarded;
  d.answer_bytes = answer_bytes - o.answer_bytes;
  return d;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Report::Wrong(const std::string& what) {
  wrong++;
  if (wrong_examples.size() < 5) wrong_examples.push_back(what);
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Metric Count(double v, const char* unit = "count") {
  return Metric{v, unit, 0, true};
}

}  // namespace

void AddLayerMetrics(const LayerCounters& d, const LoopDriver& driver,
                     double measure_wall_s, bool traced, uint64_t rows,
                     Report* r) {
  auto& m = r->per_layer;
  m["runtime.loop.events"] = Count(static_cast<double>(d.events));
  m["runtime.net.msgs"] = Count(static_cast<double>(d.net_msgs));
  m["runtime.net.bytes"] = Count(static_cast<double>(d.net_bytes), "B");
  m["runtime.udpcc.msgs_sent"] = Count(static_cast<double>(d.udp_sent));
  m["runtime.udpcc.retransmits"] = Count(static_cast<double>(d.udp_retransmits));
  m["runtime.udpcc.failed"] = Count(static_cast<double>(d.udp_failed));
  m["runtime.udpcc.dup_dropped"] = Count(static_cast<double>(d.udp_dups));
  m["runtime.udpcc.delivered_ratio"] =
      Count(Ratio(static_cast<double>(d.udp_delivered), static_cast<double>(d.udp_sent)),
            "ratio");
  m["overlay.router.lookups"] = Count(static_cast<double>(d.lookups));
  m["overlay.router.lookup_ok_ratio"] =
      Count(Ratio(static_cast<double>(d.lookups_ok), static_cast<double>(d.lookups)),
            "ratio");
  m["overlay.router.hops_per_route"] =
      Count(Ratio(static_cast<double>(d.routed_forwarded + d.routed_delivered),
                  static_cast<double>(d.routed_delivered)),
            "hops");
  m["overlay.router.coalesced_msgs"] = Count(static_cast<double>(d.coalesced));
  m["overlay.dht.puts"] = Count(static_cast<double>(d.dht_puts));
  m["overlay.dht.gets"] = Count(static_cast<double>(d.dht_gets));
  m["overlay.dht.rows_per_batch_msg"] =
      Count(Ratio(static_cast<double>(d.batched_puts), static_cast<double>(d.batch_msgs)),
            "ratio");
  m["overlay.dht.lookups_per_publish"] =
      Count(Ratio(static_cast<double>(d.lookups), static_cast<double>(rows)), "ratio");
  m["qp.graphs_installed"] = Count(static_cast<double>(d.graphs));
  m["qp.answers_forwarded"] = Count(static_cast<double>(d.answers_forwarded));
  m["qp.answer_bytes"] = Count(d.answer_bytes, "B");
  m["runtime.loop.pending_max"] = Count(static_cast<double>(driver.pending_max()));
  if (traced) {
    const LogHistogram& h = driver.event_ns();
    m["runtime.loop.ns_per_event"] =
        Metric{Ratio(measure_wall_s * 1e9, static_cast<double>(d.events)), "ns",
               d.events, false};
    m["runtime.loop.event_ns_p50"] = Metric{h.Quantile(0.5), "ns", h.count(), false};
    m["runtime.loop.event_ns_p99"] = Metric{h.Quantile(0.99), "ns", h.count(), false};
  }
}

void AddLatency(const std::vector<double>& latency_us, Report* r) {
  uint64_t n = latency_us.size();
  r->end_to_end["latency_p50_ms"] =
      Metric{Percentile(latency_us, 0.5) / 1000.0, "ms", n, true};
  r->end_to_end["latency_p99_ms"] =
      Metric{Percentile(latency_us, 0.99) / 1000.0, "ms", n, true};
}

}  // namespace perfbench
