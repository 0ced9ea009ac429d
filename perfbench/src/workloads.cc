#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "apps/filesharing.h"
#include "apps/workloads.h"
#include "util/random.h"

namespace perfbench {
namespace {

using pier::kMillisecond;
using pier::kSecond;
using pier::QueryHandle;
using pier::SimPier;
using pier::Sql;
using pier::Status;
using pier::Tuple;
using pier::Value;

/// Operations are scheduled and the loop is run in slices of this much
/// virtual time; each slice is one loop.run span.
constexpr TimeUs kSlice = 10 * kMillisecond;
/// The idle interval just before the load, timed for runtime.maint_s_per_vs.
constexpr TimeUs kIdle = 2 * kSecond;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream;
}

/// One workload: a cluster built by Setup (timed, repeated), then a measured
/// open-loop phase driven by Load, then Finish's oracle and metrics.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup() = 0;
  /// Schedule every operation and run until they have all completed or
  /// passed their deadline.
  virtual void Load(LoopDriver* driver, Tracer* tracer) = 0;
  /// Check answers against ground truth; fill attempted/failed, latency,
  /// recall and the workload's own per-layer metrics. Returns the number
  /// of operations completed.
  virtual uint64_t Finish(Report* r) = 0;
  virtual uint64_t rows_published() const { return 0; }
  SimPier* net() { return net_.get(); }

 protected:
  std::unique_ptr<SimPier> net_;
};

/// The simulated testbed (topology, node ids, per-node RNG streams) is the
/// same in every run; --seed generates the workload's inputs. Varying the
/// testbed too would make each seed measure a different network.
SimPier::Options ClusterOptions() {
  SimPier::Options o;
  o.sim.seed = 1;
  o.seed_routing = true;
  return o;
}

/// ops_per_s is the median over this many equal chunks of the load.
constexpr size_t kChunks = 20;

/// Create every node's client so each node runs the whole stack.
void CreateClients(SimPier* net) {
  for (uint32_t i = 0; i < net->size(); ++i) net->client(i);
}

/// Run `driver` in slices until `done()` or virtual time `cap`.
template <typename Done>
void Drain(LoopDriver* driver, TimeUs cap, Done done) {
  while (!done() && driver->now() < cap) driver->RunUntil(driver->now() + kSlice);
}

// ---------------------------------------------------------------------------
// dht_lookup: 1000 nodes, 90% Get / 10% Put on uniform keys.
// ---------------------------------------------------------------------------

class DhtLookup : public Workload {
 public:
  static constexpr uint32_t kNodes = 1000;
  static constexpr TimeUs kInterval = 100;  // 10k ops per virtual second
  static constexpr TimeUs kDeadline = 12 * kSecond;  // > Dht op_timeout

  DhtLookup(uint64_t seed, uint64_t ops) : seed_(seed), ops_(ops) {}

  void Setup() override {
    net_ = std::make_unique<SimPier>(kNodes, ClusterOptions());
    CreateClients(net_.get());
    written_.assign(kNodes, {});
    uint32_t acked = 0;
    uint32_t failed = 0;
    for (uint32_t k = 0; k < kNodes; ++k) {
      std::string value = Value(k, 0);
      written_[k].insert(value);
      net_->dht(k)->Put(kNs, Key(k), "v", std::move(value), kLifetime,
                        [&acked, &failed](const Status& s) {
                          (s.ok() ? acked : failed)++;
                        });
    }
    TimeUs cap = net_->loop()->now() + 20 * kSecond;
    while (acked + failed < kNodes && net_->loop()->now() < cap) {
      net_->RunFor(100 * kMillisecond);
    }
    if (acked != kNodes) Die("dht_lookup preload: " + std::to_string(acked) +
                             " of " + std::to_string(kNodes) + " puts acked");
  }

  void Load(LoopDriver* driver, Tracer* tracer) override {
    pier::Rng rng(Mix(seed_, 11));
    ops_state_.assign(ops_, Op{});
    TimeUs start = driver->now();
    driver->SetChunks(start, static_cast<TimeUs>(ops_) * kInterval / kChunks + 1, kChunks);
    uint64_t next = 0;
    while (next < ops_) {
      TimeUs slice_end = driver->now() + kSlice;
      for (; next < ops_ && start + static_cast<TimeUs>(next) * kInterval < slice_end;
           ++next) {
        Op& op = ops_state_[next];
        op.sched = start + static_cast<TimeUs>(next) * kInterval;
        op.origin = static_cast<uint32_t>(rng.Uniform(kNodes));
        op.key = static_cast<uint32_t>(rng.Uniform(kNodes));
        op.put = rng.Uniform(10) == 0;
        uint64_t j = next;
        driver->At(op.sched, [this, j, tracer]() { Issue(j, tracer); });
      }
      driver->RunUntil(slice_end);
    }
    TimeUs cap = start + static_cast<TimeUs>(ops_) * kInterval + kDeadline;
    Drain(driver, cap, [this]() { return outstanding_ == 0; });
  }

  uint64_t Finish(Report* r) override {
    uint64_t completed = 0;
    uint64_t gets = 0;
    std::vector<double> latency;
    latency.reserve(ops_);
    for (const Op& op : ops_state_) {
      gets += op.put ? 0 : 1;
      if (op.done >= 0 && op.ok) {
        completed++;
        latency.push_back(static_cast<double>(op.done - op.sched));
      } else {
        latency.push_back(static_cast<double>(kDeadline));
      }
    }
    for (const std::string& w : wrong_) r->Wrong(w);
    r->attempted = ops_;
    r->failed = ops_ - completed;
    AddLatency(latency, r);
    r->end_to_end["recall"] =
        Metric{static_cast<double>(completed) / static_cast<double>(ops_), "ratio",
               ops_, true};
    r->notes.push_back("dht_lookup: " + std::to_string(gets) + " gets, " +
                       std::to_string(ops_ - gets) + " puts, " +
                       std::to_string(completed) + " completed");
    return completed;
  }

 private:
  static constexpr const char* kNs = "bench";
  static constexpr TimeUs kLifetime = 30LL * 60 * kSecond;

  struct Op {
    TimeUs sched = 0;
    TimeUs done = -1;
    uint32_t origin = 0;
    uint32_t key = 0;
    bool put = false;
    bool ok = false;
  };

  static std::string Key(uint32_t k) { return "k" + std::to_string(k); }
  static std::string Value(uint32_t k, uint64_t version) {
    return "k" + std::to_string(k) + ":" + std::to_string(version);
  }

  void Issue(uint64_t j, Tracer* tracer) {
    Op& op = ops_state_[j];
    pier::Dht* dht = net_->dht(op.origin);
    outstanding_++;
    if (op.put) {
      std::string value = Value(op.key, j + 1);
      written_[op.key].insert(value);
      ScopedSpan span(tracer, "dht.put");
      dht->Put(kNs, Key(op.key), "v", std::move(value), kLifetime,
               [this, j](const Status& s) {
                 Op& o = ops_state_[j];
                 o.done = net_->loop()->now();
                 o.ok = s.ok();
                 outstanding_--;
               });
      return;
    }
    ScopedSpan span(tracer, "dht.get");
    dht->Get(kNs, Key(op.key),
             [this, j](const Status& s, std::vector<pier::DhtItem> items) {
               Op& o = ops_state_[j];
               o.done = net_->loop()->now();
               outstanding_--;
               if (!s.ok() || items.empty()) return;  // failed, not wrong
               const std::set<std::string>& truth = written_[o.key];
               if (items.size() != 1 || items[0].suffix != "v" ||
                   truth.count(items[0].value) == 0) {
                 wrong_.push_back("get " + Key(o.key) + " returned " +
                                  std::to_string(items.size()) + " item(s), first '" +
                                  items[0].value + "'");
                 return;
               }
               o.ok = true;
             });
  }

  uint64_t seed_;
  uint64_t ops_;
  std::vector<std::set<std::string>> written_;  // every value put per key
  std::vector<Op> ops_state_;
  uint64_t outstanding_ = 0;
  std::vector<std::string> wrong_;
};

// ---------------------------------------------------------------------------
// stream_agg: 64 nodes, a continuous windowed count over published rows.
// ---------------------------------------------------------------------------

class StreamAgg : public Workload {
 public:
  static constexpr uint32_t kNodes = 64;
  static constexpr uint32_t kRowsPerTick = 100;
  static constexpr TimeUs kWindow = 2 * kSecond;
  /// After the last batch: enough windows for the final counts to arrive.
  static constexpr TimeUs kDeadline = 5 * kWindow;

  StreamAgg(uint64_t seed, uint64_t rows, TimeUs tick)
      : seed_(seed), tick_(tick), ticks_((rows + kRowsPerTick - 1) / kRowsPerTick) {}

  void Setup() override {
    net_ = std::make_unique<SimPier>(kNodes, ClusterOptions());
    CreateClients(net_.get());
    Status reg = net_->catalog()->Register(pier::TableSpec("fw").PartitionBy({"src"}));
    if (!reg.ok()) Die("stream_agg catalog: " + reg.ToString());
    // Outlive the whole measured phase: idle, load and drain.
    TimeUs timeout = kIdle + static_cast<TimeUs>(ticks_) * tick_ + kDeadline + 60 * kSecond;
    auto q = net_->client(0)->Query(
        Sql("SELECT src, count(*) AS cnt FROM fw GROUP BY src TIMEOUT " +
            std::to_string(timeout / kMillisecond) + "ms WINDOW 2s CONTINUOUS")
            .WithAggStrategy("flat"));
    if (!q.ok()) Die("stream_agg query: " + q.status().ToString());
    handle_ = *q;
    handle_.OnTuple([this](const Tuple& t) { OnAnswer(t); });
    net_->RunFor(2 * kSecond);  // dissemination
  }

  void Load(LoopDriver* driver, Tracer* tracer) override {
    pier::Rng rng(Mix(seed_, 22));
    pier::ZipfGenerator zipf(500, 1.1);
    TimeUs start = driver->now();
    driver->SetChunks(start, static_cast<TimeUs>(ticks_) * tick_ / kChunks + 1, kChunks);
    for (uint64_t k = 0; k < ticks_; ++k) {
      TimeUs at = start + static_cast<TimeUs>(k) * tick_;
      auto rows = std::make_shared<std::vector<Tuple>>();
      rows->reserve(kRowsPerTick);
      for (uint32_t i = 0; i < kRowsPerTick; ++i) {
        std::string src = pier::FirewallWorkload::SourceName(zipf.Sample(&rng));
        pending_[src].push_back(at);
        Tuple t("fw");
        t.Append("id", pier::Value::Int64(static_cast<int64_t>(published_)));
        t.Append("src", pier::Value::String(std::move(src)));
        t.Append("dst_port", pier::Value::Int64(static_cast<int64_t>(
                                 rng.Bernoulli(0.5) ? 445 : rng.Uniform(65536))));
        t.Append("proto", pier::Value::String(rng.Bernoulli(0.8) ? "tcp" : "udp"));
        rows->push_back(std::move(t));
        published_++;
      }
      uint32_t node = static_cast<uint32_t>(k % kNodes);
      driver->At(at, [this, node, rows, tracer]() {
        ScopedSpan span(tracer, "client.publish_batch");
        int64_t t0 = tracer->on() ? WallNs() : 0;
        Status s = net_->client(node)->PublishBatch("fw", *rows);
        if (tracer->on()) publish_ns_ += WallNs() - t0;
        if (!s.ok()) Die("PublishBatch rejected a batch: " + s.ToString());
      }, kRowsPerTick);
      driver->RunUntil(at + tick_ - 1);
    }
    TimeUs cap = start + static_cast<TimeUs>(ticks_) * tick_ + kDeadline;
    Drain(driver, cap, [this]() { return counted_ + Dropped() >= published_; });
  }

  uint64_t Finish(Report* r) override {
    uint64_t dropped = Dropped();
    std::vector<double> latency = std::move(latency_);
    uint64_t uncounted = 0;
    for (const auto& [src, q] : pending_) {
      uncounted += q.size();
      for (size_t i = 0; i < q.size(); ++i) latency.push_back(static_cast<double>(kDeadline));
    }
    if (counted_ + dropped > published_) {
      r->Wrong("window sums " + std::to_string(counted_) + " + " +
               std::to_string(dropped) + " reported dropped exceed " +
               std::to_string(published_) + " published rows");
    }
    for (const std::string& w : wrong_) r->Wrong(w);
    r->attempted = published_;
    r->failed = dropped;
    AddLatency(latency, r);
    r->end_to_end["recall"] =
        Metric{static_cast<double>(counted_) / static_cast<double>(published_), "ratio",
               published_, true};
    r->per_layer["client.answer_rows"] = Metric{static_cast<double>(answer_rows_), "count", 0, true};
    if (publish_ns_ > 0) {
      r->per_layer["client.publish_ns_per_row"] =
          Metric{static_cast<double>(publish_ns_) / static_cast<double>(published_), "ns",
                 published_, false};
    }
    // Per-operator tuples of the continuous query, as the proxy reports them.
    auto analyze = net_->client(0)->ExplainAnalyze(handle_);
    if (analyze.ok()) {
      uint64_t in = 0, out = 0;
      for (const pier::QueryCostOp& op : analyze->actual.ops) {
        in += op.cost.tuples_in;
        out += op.cost.tuples_out;
        r->notes.push_back("  op g" + std::to_string(op.graph_id) + "/" +
                           std::to_string(op.op_id) + ": in " +
                           std::to_string(op.cost.tuples_in) + ", out " +
                           std::to_string(op.cost.tuples_out) + ", msgs " +
                           std::to_string(op.cost.msgs) + ", nodes " +
                           std::to_string(op.nodes));
      }
      r->per_layer["qp.op.tuples_in"] = Metric{static_cast<double>(in), "count", 0, true};
      r->per_layer["qp.op.tuples_out"] = Metric{static_cast<double>(out), "count", 0, true};
    }
    (void)handle_.Cancel();
    r->notes.push_back("stream_agg: " + std::to_string(published_) + " rows published, " +
                       std::to_string(counted_) + " counted, " + std::to_string(dropped) +
                       " reported dropped, " + std::to_string(uncounted) +
                       " not counted by the deadline, " + std::to_string(answer_rows_) +
                       " window result rows");
    return counted_;
  }

  uint64_t rows_published() const override { return published_; }

 private:
  /// Index entries the clients report lost (the table has one index, so an
  /// entry is a row).
  uint64_t Dropped() const {
    uint64_t n = 0;
    for (uint32_t i = 0; i < kNodes; ++i) {
      const auto& f = net_->client(i)->publish_failures();
      n += f.dropped_items + f.degraded_items;
    }
    return n;
  }

  /// A window result row (src, cnt): its count accounts for the oldest
  /// `cnt` published, not yet counted rows of `src`.
  void OnAnswer(const Tuple& t) {
    answer_rows_++;
    const Value* src = t.Get("src");
    const Value* cnt = t.Get("cnt");
    if (src == nullptr || cnt == nullptr || cnt->type() != pier::ValueType::kInt64) {
      wrong_.push_back("malformed answer " + t.ToString());
      return;
    }
    std::string name(*src->AsString());
    std::deque<TimeUs>& q = pending_[name];
    int64_t n = cnt->int64_unchecked();
    if (n < 0 || static_cast<uint64_t>(n) > q.size()) {
      wrong_.push_back("src " + name + " counted " + std::to_string(n) + " rows, only " +
                       std::to_string(q.size()) + " published and not yet counted");
      n = static_cast<int64_t>(q.size());
    }
    TimeUs now = net_->loop()->now();
    for (int64_t i = 0; i < n; ++i) {
      latency_.push_back(static_cast<double>(now - q.front()));
      q.pop_front();
    }
    counted_ += static_cast<uint64_t>(n);
  }

  uint64_t seed_;
  TimeUs tick_;
  uint64_t ticks_;
  QueryHandle handle_;
  /// Scheduled times of published rows not yet counted, per src, oldest
  /// first.
  std::unordered_map<std::string, std::deque<TimeUs>> pending_;
  uint64_t published_ = 0;
  uint64_t counted_ = 0;
  uint64_t answer_rows_ = 0;
  int64_t publish_ns_ = 0;
  std::vector<double> latency_;
  std::vector<std::string> wrong_;
};

// ---------------------------------------------------------------------------
// keyword_search: 300 nodes, single-keyword lookups over the Figure 1 index.
// ---------------------------------------------------------------------------

class KeywordSearch : public Workload {
 public:
  static constexpr uint32_t kNodes = 300;
  static constexpr TimeUs kInterval = 10 * kMillisecond;  // 100 queries/vs
  static constexpr TimeUs kTimeout = 2 * kSecond;

  KeywordSearch(uint64_t seed, uint64_t queries) : seed_(seed), queries_(queries) {}

  void Setup() override {
    net_ = std::make_unique<SimPier>(kNodes, ClusterOptions());
    CreateClients(net_.get());
    pier::CorpusOptions co;
    co.vocab_size = 1000;
    co.num_files = 2000;
    co.max_replicas = 60;
    co.seed = 1;  // the indexed corpus is part of the testbed; --seed picks the queries
    corpus_ = std::make_unique<pier::FilesharingCorpus>(co, kNodes);
    pier::FilesharingApp(net_.get()).PublishCorpus(*corpus_);
    for (const pier::CorpusFile& f : corpus_->files()) {
      for (uint32_t host : f.hosts) {
        if (host >= kNodes) continue;  // PublishCorpus skips these
        for (uint32_t kw : f.keywords) truth_[kw].insert(Pair(f.file_id, host));
      }
    }
  }

  void Load(LoopDriver* driver, Tracer* tracer) override {
    pier::Rng rng(Mix(seed_, 44));
    std::vector<pier::FilesharingCorpus::Query> qs =
        corpus_->MakeQueries(static_cast<int>(queries_), 1, false, 0, &rng);
    state_.assign(qs.size(), Query{});
    TimeUs start = driver->now();
    driver->SetChunks(start, static_cast<TimeUs>(qs.size()) * kInterval / kChunks + 1,
                      kChunks);
    uint64_t next = 0;
    while (next < state_.size()) {
      TimeUs slice_end = driver->now() + kSlice;
      for (; next < state_.size() &&
             start + static_cast<TimeUs>(next) * kInterval < slice_end;
           ++next) {
        Query& q = state_[next];
        q.sched = start + static_cast<TimeUs>(next) * kInterval;
        q.kw = qs[next].keywords[0];
        q.origin = static_cast<uint32_t>(rng.Uniform(kNodes));
        uint64_t j = next;
        driver->At(q.sched, [this, j, tracer]() { Issue(j, tracer); });
      }
      driver->RunUntil(slice_end);
    }
    TimeUs cap = start + static_cast<TimeUs>(state_.size()) * kInterval + kTimeout +
                 3 * kSecond;
    Drain(driver, cap, [this]() { return open_ == 0; });
    for (Query& q : state_) {
      if (q.handle.valid() && !q.handle.done()) (void)q.handle.Cancel();
    }
  }

  uint64_t Finish(Report* r) override {
    uint64_t answered = 0;
    uint64_t rows = 0;
    uint64_t truth_rows = 0;
    std::vector<double> latency;
    latency.reserve(state_.size());
    for (const Query& q : state_) {
      rows += q.rows;
      truth_rows += truth_[q.kw].size();
      if (q.first >= 0) {
        answered++;
        latency.push_back(static_cast<double>(q.first - q.sched));
      } else {
        latency.push_back(static_cast<double>(kTimeout));
      }
    }
    for (const std::string& w : wrong_) r->Wrong(w);
    r->attempted = state_.size();
    r->failed = state_.size() - answered;
    AddLatency(latency, r);
    r->end_to_end["recall"] =
        Metric{static_cast<double>(rows) / static_cast<double>(truth_rows), "ratio",
               truth_rows, true};
    r->per_layer["client.answer_rows"] = Metric{static_cast<double>(rows), "count", 0, true};
    if (!query_us_.empty()) {
      r->per_layer["client.query_us_p50"] =
          Metric{Percentile(query_us_, 0.5), "us", query_us_.size(), false};
      r->per_layer["client.query_us_p99"] =
          Metric{Percentile(query_us_, 0.99), "us", query_us_.size(), false};
    }
    r->notes.push_back("keyword_search: " + std::to_string(state_.size()) + " queries, " +
                       std::to_string(answered) + " answered by the deadline, " +
                       std::to_string(rows) + " of " + std::to_string(truth_rows) +
                       " ground-truth rows");
    return answered;
  }

 private:
  struct Query {
    TimeUs sched = 0;
    TimeUs first = -1;
    uint32_t kw = 0;
    uint32_t origin = 0;
    uint64_t rows = 0;  // distinct correct rows by the deadline
    QueryHandle handle;
    std::unordered_set<uint64_t> seen;
  };

  static uint64_t Pair(uint64_t file_id, uint64_t host) { return (file_id << 20) | host; }

  void Issue(uint64_t j, Tracer* tracer) {
    Query& q = state_[j];
    std::string sql = "SELECT file_id, host FROM fidx WHERE kw = '" +
                      pier::FilesharingCorpus::KeywordName(q.kw) + "' TIMEOUT " +
                      std::to_string(kTimeout / kMillisecond) + "ms";
    pier::Result<QueryHandle> h = [&]() {
      ScopedSpan span(tracer, "client.query");
      int64_t t0 = tracer->on() ? WallNs() : 0;
      auto res = net_->client(q.origin)->Query(Sql(sql));
      if (tracer->on()) query_us_.push_back(static_cast<double>(WallNs() - t0) / 1000.0);
      return res;
    }();
    if (!h.ok()) Die("keyword query rejected: " + h.status().ToString());
    open_++;
    q.handle = *h;
    q.handle.OnTuple([this, j](const Tuple& t) { OnAnswer(j, t); });
    q.handle.OnDone([this, j]() {
      open_--;
      state_[j].seen = {};
    });
  }

  void OnAnswer(uint64_t j, const Tuple& t) {
    Query& q = state_[j];
    TimeUs now = net_->loop()->now();
    if (now > q.sched + kTimeout) return;  // past the deadline: not counted
    const Value* fid = t.Get("file_id");
    const Value* host = t.Get("host");
    if (fid == nullptr || host == nullptr || fid->type() != pier::ValueType::kInt64 ||
        host->type() != pier::ValueType::kInt64) {
      wrong_.push_back("malformed answer " + t.ToString());
      return;
    }
    uint64_t pair = Pair(static_cast<uint64_t>(fid->int64_unchecked()),
                         static_cast<uint64_t>(host->int64_unchecked()));
    if (truth_[q.kw].count(pair) == 0) {
      wrong_.push_back("kw" + std::to_string(q.kw) + " answered " + t.ToString() +
                       ", not in ground truth");
      return;
    }
    if (!q.seen.insert(pair).second) {
      wrong_.push_back("kw" + std::to_string(q.kw) + " answered " + t.ToString() + " twice");
      return;
    }
    if (q.first < 0) q.first = now;
    q.rows++;
  }

  uint64_t seed_;
  uint64_t queries_;
  std::unique_ptr<pier::FilesharingCorpus> corpus_;
  std::unordered_map<uint32_t, std::unordered_set<uint64_t>> truth_;
  std::vector<Query> state_;
  uint64_t open_ = 0;
  std::vector<double> query_us_;
  std::vector<std::string> wrong_;
};

/// Operations per nominal wall second of measured phase (4-core VM), and
/// set-ups per run: a cheap set-up repeats more, so its median spans ~1 s.
struct Sizing {
  const char* name;
  double ops_per_wall_s;
  int setups;
};
constexpr Sizing kSizing[] = {
    {"dht_lookup", 7000, 3},
    {"stream_agg", 25000, 40},
    {"keyword_search", 1000, 3},
};

const Sizing* FindSizing(const std::string& workload) {
  for (const Sizing& s : kSizing) {
    if (workload == s.name) return &s;
  }
  return nullptr;
}

std::unique_ptr<Workload> Make(const RunOptions& o) {
  uint64_t ops = o.ops;
  if (ops == 0) ops = static_cast<uint64_t>(o.seconds * FindSizing(o.workload)->ops_per_wall_s);
  if (ops == 0) ops = 1;
  if (o.workload == "dht_lookup") return std::make_unique<DhtLookup>(o.seed, ops);
  if (o.workload == "stream_agg") {
    return std::make_unique<StreamAgg>(o.seed, ops, o.tick_us ? o.tick_us : 10 * kMillisecond);
  }
  return std::make_unique<KeywordSearch>(o.seed, ops);
}

}  // namespace

bool IsWorkload(const std::string& name) { return FindSizing(name) != nullptr; }

Report RunWorkload(const RunOptions& o) {
  Report r;
  r.workload = o.workload;
  Tracer tracer(o.trace);

  // Set up several times: the median is setup_s and the last set-up is
  // measured. The count is fixed per workload, never driven by wall time:
  // the SQL compiler's query ids count every query compiled earlier in the
  // process, so the number of set-ups before the measured one is part of
  // what makes a run's virtual-time results repeat.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < FindSizing(o.workload)->setups; ++i) {
    w.reset();
    w = Make(o);
    int64_t t0 = WallNs();
    w->Setup();
    setup_s.push_back(static_cast<double>(WallNs() - t0) * 1e-9);
  }
  SimPier* net = w->net();

  // The same cluster idling just before the load: per-node maintenance.
  double idle_s = 0;
  {
    ScopedSpan span(&tracer, "maint");
    int64_t t0 = WallNs();
    net->RunFor(kIdle);
    idle_s = static_cast<double>(WallNs() - t0) * 1e-9;
  }

  LoopDriver driver(net, &tracer);
  LayerCounters before = LayerCounters::Read(net);
  w->Load(&driver, &tracer);
  LayerCounters delta = LayerCounters::Read(net) - before;
  double busy_s = driver.busy_s();

  // Defaults for the layers a workload does not touch, so every run reports
  // the same metric set; the workloads overwrite what they measure.
  for (const char* name : {"client.answer_rows", "qp.op.tuples_in", "qp.op.tuples_out"}) {
    r.per_layer[name] = Metric{0, "count", 0, true};
  }
  if (o.trace) {
    r.per_layer["client.query_us_p50"] = Metric{0, "us", 0, false};
    r.per_layer["client.query_us_p99"] = Metric{0, "us", 0, false};
    r.per_layer["client.publish_ns_per_row"] = Metric{0, "ns", 0, false};
  }
  uint64_t completed = w->Finish(&r);
  uint64_t rows = w->rows_published();
  r.per_layer["client.rows_published"] = Metric{static_cast<double>(rows), "count", 0, true};

  r.end_to_end["setup_s"] = Metric{Median(setup_s), "s", setup_s.size(), false};
  r.end_to_end["ops_per_s"] = Metric{driver.MedianChunkRate(), "1/s", completed, false};
  r.end_to_end["peak_rss_mb"] = Metric{PeakRssMb(), "MB", 1, false};
  r.end_to_end["bytes_per_op"] =
      Metric{static_cast<double>(delta.net_bytes) / static_cast<double>(r.attempted), "B",
             r.attempted, true};
  r.end_to_end["failed_frac"] =
      Metric{static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio",
             r.attempted, true};

  AddLayerMetrics(delta, driver, busy_s, o.trace, rows, &r);
  if (o.trace) {
    r.per_layer["runtime.maint_s_per_vs"] =
        Metric{idle_s / (static_cast<double>(kIdle) / kSecond), "s/s", 1, false};
    r.per_layer["trace.ops_per_s"] =
        Metric{driver.MedianChunkRate(), "1/s", completed, false};
    if (!o.trace_path.empty() && !tracer.WriteTo(o.trace_path)) {
      Die("cannot write spans to " + o.trace_path);
    }
  }
  return r;
}

}  // namespace perfbench
