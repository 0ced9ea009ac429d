// First-class observability: MetricsRegistry semantics (labels, histogram
// buckets, snapshot consistency under concurrent writers), the Prometheus
// scrape endpoint round-trip over the VRI's framed TCP, sys.metrics
// publish/query through PierClient, per-query cost-meter aggregation across a
// 2-node simulation, and the repair-tick backoff knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)  // defined by the libc headers included above
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "obs/node_metrics.h"
#include "obs/scrape.h"
#include "qp/sim_pier.h"

// Sanitizer allocators pad and quarantine blocks, so heap-byte gates only
// mean something in a plain build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PIER_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PIER_SANITIZED_HEAP 1
#endif
#endif

namespace pier {
namespace {

SimPier::Options PierOptions(uint64_t seed) {
  SimPier::Options opts;
  opts.sim.seed = seed;
  opts.seed_routing = true;
  opts.settle_time = 8 * kSecond;
  return opts;
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SameNameAndLabelsSameInstrument) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_x_total", {{"op", "put"}});
  Counter* b = reg.GetCounter("pier_x_total", {{"op", "put"}});
  Counter* c = reg.GetCounter("pier_x_total", {{"op", "get"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  a->Inc(3);
  c->Inc();
  EXPECT_EQ(a->value(), 3u);
  EXPECT_EQ(c->value(), 1u);
  EXPECT_EQ(reg.num_families(), 1u);
  EXPECT_EQ(reg.num_series("pier_x_total"), 2u);
}

TEST(MetricsRegistry, KindMismatchYieldsSinkNotCrash) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_y_total");
  ASSERT_NE(a, nullptr);
  // Re-registering the family as a gauge must not corrupt it or return null.
  Gauge* g = reg.GetGauge("pier_y_total");
  ASSERT_NE(g, nullptr);
  g->Set(42);  // lands in the sink, harmless
  a->Inc();
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].value, 1.0);
}

TEST(MetricsRegistry, GaugeMovesBothWays) {
  MetricsRegistry reg;
  Gauge* g = reg.GetGauge("pier_depth");
  g->Set(5.0);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulativeInSamples) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("pier_lat_us", {10, 100, 1000});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  h->Observe(5000);  // +Inf bucket
  std::vector<MetricSample> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::kHistogram);
  ASSERT_EQ(s.buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(s.buckets[0].second, 1u);
  EXPECT_EQ(s.buckets[1].second, 2u);
  EXPECT_EQ(s.buckets[2].second, 3u);
  EXPECT_EQ(s.buckets[3].second, 4u);  // cumulative: everything
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 5555.0);
}

TEST(MetricsRegistry, SeriesCapCollapsesIntoDroppedCounter) {
  MetricsRegistry reg;
  reg.set_max_series_per_family(2);
  Counter* a = reg.GetCounter("pier_q_total", {{"qid", "1"}});
  Counter* b = reg.GetCounter("pier_q_total", {{"qid", "2"}});
  Counter* over = reg.GetCounter("pier_q_total", {{"qid", "3"}});
  EXPECT_NE(a, b);
  over->Inc();  // sink; must not crash or mint a third series
  EXPECT_EQ(reg.num_series("pier_q_total"), 2u);
  EXPECT_GE(reg.dropped_series(), 1u);
  // The synthetic drop counter appears in the snapshot.
  bool found = false;
  for (const MetricSample& s : reg.Snapshot())
    if (s.name == "pier_metrics_dropped_series_total") found = true;
  EXPECT_TRUE(found);
}

TEST(MetricsRegistry, RemoveRetiresSeriesButPointersStayValid) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("pier_r_total", {{"qid", "9"}});
  a->Inc();
  EXPECT_TRUE(reg.Remove("pier_r_total", {{"qid", "9"}}));
  EXPECT_FALSE(reg.Remove("pier_r_total", {{"qid", "9"}}));  // already gone
  a->Inc();  // writes land somewhere harmless
  for (const MetricSample& s : reg.Snapshot())
    EXPECT_NE(s.name, "pier_r_total");
}

TEST(MetricsRegistry, CallbackFamiliesReadLiveValues) {
  MetricsRegistry reg;
  uint64_t live = 7;
  reg.AddCounterFn("pier_live_total", {},
                   [&live] { return static_cast<double>(live); });
  auto value = [&reg]() -> double {
    for (const MetricSample& s : reg.Snapshot())
      if (s.name == "pier_live_total") return s.value;
    return -1;
  };
  EXPECT_EQ(value(), 7.0);
  live = 19;
  EXPECT_EQ(value(), 19.0);
}

TEST(MetricsRegistry, RenderTextExposesHelpTypeAndEscaping) {
  MetricsRegistry reg;
  reg.GetCounter("pier_t_total", {{"tag", "a\"b\\c\nd"}}, "counts things")
      ->Inc(2);
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("# HELP pier_t_total counts things"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pier_t_total counter"), std::string::npos);
  EXPECT_NE(text.find("tag=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(text.find("} 2\n"), std::string::npos);
}

TEST(MetricsRegistry, SameNameKeepsEachRegistrysHelpAndKind) {
  // Names are interned process-wide; help and kind must still be each
  // registry's own.
  MetricsRegistry a, b, c;
  a.GetCounter("pier_shared_name", {}, "first help")->Inc();
  b.GetGauge("pier_shared_name", {}, "second help")->Set(3);
  c.GetCounter("pier_shared_name", {}, "third help")->Inc();
  EXPECT_NE(a.RenderText().find("# HELP pier_shared_name first help\n"
                                "# TYPE pier_shared_name counter\n"),
            std::string::npos);
  EXPECT_NE(b.RenderText().find("# HELP pier_shared_name second help\n"
                                "# TYPE pier_shared_name gauge\n"),
            std::string::npos);
  EXPECT_NE(c.RenderText().find("# HELP pier_shared_name third help\n"
                                "# TYPE pier_shared_name counter\n"),
            std::string::npos);
}

TEST(MetricsRegistry, SnapshotConsistentUnderConcurrentUpdates) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("pier_cc_total");
  Histogram* h = reg.GetHistogram("pier_ch_us", {1, 10, 100});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        h->Observe(static_cast<double>(i % 200));
      }
    });
  }
  // Concurrent snapshots must never see a histogram whose cumulative bucket
  // total is below its count (count is read first by design).
  for (int i = 0; i < 50; ++i) {
    for (const MetricSample& s : reg.Snapshot()) {
      if (s.name != "pier_ch_us") continue;
      ASSERT_FALSE(s.buckets.empty());
      EXPECT_GE(s.buckets.back().second, s.count);
    }
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->value(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(h->count(), uint64_t{kThreads} * kPerThread);
  std::vector<uint64_t> per_bucket = h->bucket_counts();
  uint64_t total = 0;
  for (uint64_t b : per_bucket) total += b;
  EXPECT_EQ(total, uint64_t{kThreads} * kPerThread);
}

// Several threads build registries over the same family names at once: the
// process-wide name pool must hand every registry the same names and help,
// and label values (one per thread here) must stay per registry.
TEST(MetricsRegistry, ConcurrentRegistriesShareInternedNames) {
  constexpr int kThreads = 4;
  constexpr int kRegistriesPerThread = 25;
  constexpr int kFamilies = 24;
  auto build = [](MetricsRegistry* reg, int thread) {
    for (int f = 0; f < kFamilies; ++f) {
      reg->AddCounterFn("pier_intern_f" + std::to_string(f) + "_total", {},
                        [f] { return static_cast<double>(f); },
                        "interned family " + std::to_string(f));
    }
    reg->GetCounter("pier_intern_labeled_total",
                    {{"thread", std::to_string(thread)}}, "one per thread")
        ->Inc(static_cast<uint64_t>(thread) + 1);
  };
  std::vector<std::vector<std::string>> renders(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&build, &renders, t] {
      for (int i = 0; i < kRegistriesPerThread; ++i) {
        MetricsRegistry reg;
        build(&reg, t);
        renders[t].push_back(reg.RenderText());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    MetricsRegistry reference;
    build(&reference, t);
    std::string want = reference.RenderText();
    EXPECT_NE(want.find("{thread=\"" + std::to_string(t) + "\"}"),
              std::string::npos);
    ASSERT_EQ(renders[t].size(), static_cast<size_t>(kRegistriesPerThread));
    for (const std::string& got : renders[t]) EXPECT_EQ(got, want);
  }
}

// A node's registry is a fixed cost every simulated node pays: the 56
// families RegisterNodeMetrics installs must fit in 4 KB of heap, measured
// as the allocator's in-use delta over many fresh registries.
TEST(MetricsFootprint, NodeRegistryFitsInFourKilobytes) {
#if defined(PIER_SANITIZED_HEAP)
  GTEST_SKIP() << "sanitizer allocators distort heap-byte counts";
#elif !defined(__GLIBC__)
  GTEST_SKIP() << "mallinfo2 is glibc-only";
#else
  SimPier net(2, PierOptions(606));
  QueryProcessor* qp = net.qp(0);
  constexpr size_t kRegistries = 200;
  std::vector<std::unique_ptr<MetricsRegistry>> regs;
  regs.reserve(kRegistries);
  size_t before = mallinfo2().uordblks;
  for (size_t i = 0; i < kRegistries; ++i) {
    regs.push_back(std::make_unique<MetricsRegistry>());
    RegisterNodeMetrics(regs.back().get(), qp);
  }
  size_t after = mallinfo2().uordblks;
  // RegisterNodeMetrics re-pointed the processor at the last registry.
  qp->set_metrics(net.metrics(0));
  ASSERT_EQ(regs.front()->num_families(), 56u);
  double per_registry =
      static_cast<double>(after - before) / static_cast<double>(kRegistries);
  RecordProperty("bytes_per_registry", static_cast<int>(per_registry));
  EXPECT_LE(per_registry, 4096.0);
#endif
}

// ---------------------------------------------------------------------------
// Scrape endpoint round-trip (VRI framed TCP, in simulation)
// ---------------------------------------------------------------------------

TEST(MetricsEndpoint, ScrapeRoundTripInSimulation) {
  SimPier::Options opts = PierOptions(101);
  opts.metrics_port = 9100;
  SimPier net(4, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 8; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(2 * kSecond);

  // Scrape node 1's endpoint from node 0's runtime.
  std::string body;
  bool done = false;
  ScrapeMetrics(net.qp(0)->vri(), net.metrics_address(1),
                [&](std::string b) {
                  body = std::move(b);
                  done = true;
                });
  net.RunFor(2 * kSecond);
  ASSERT_TRUE(done) << "scrape never completed";
  ASSERT_FALSE(body.empty());
  // The response is the registry's own rendering: families from several
  // subsystems, help/type headers, and values matching the live Stats.
  EXPECT_NE(body.find("# TYPE pier_dht_puts_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("pier_net_msgs_sent_total"), std::string::npos);
  EXPECT_NE(body.find("pier_repl_repair_period_us"), std::string::npos);
  std::string rendered = net.metrics(1)->RenderText();
  std::string want = "pier_dht_store_requests_total " +
                     std::to_string(net.dht(1)->stats().store_requests);
  EXPECT_NE(rendered.find(want), std::string::npos);
  // Endpoint bookkeeping on the scraped node.
  auto* node =
      static_cast<SimPier::PierNode*>(net.harness()->program(1));
  ASSERT_NE(node->endpoint(), nullptr);
  EXPECT_EQ(node->endpoint()->stats().scrapes, 1u);
}

// ---------------------------------------------------------------------------
// Rendering golden: two live nodes' RenderText, byte for byte
// ---------------------------------------------------------------------------

// A fixed-seed 6-node cluster after a publish, a snapshot query and a
// continuous query whose proxy dies, so the rendering covers help/type
// headers, the answer-bytes histogram, a qid-labeled series and the labeled
// executor counters. The golden was recorded before the registry's storage
// was rebuilt; any HELP, TYPE, ordering or escaping drift fails here.
// PIER_UPDATE_GOLDEN=1 rewrites the file instead of comparing.
TEST(MetricsRender, TwoNodesMatchGolden) {
  SimPier::Options opts = PierOptions(515);
  opts.metrics_port = 9100;
  SimPier net(6, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 24; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    t.Append("src", Value::String(i % 2 == 0 ? "even" : "odd"));
    ASSERT_TRUE(net.client(i % 6)->Publish("ev", t).ok());
  }
  net.RunFor(2 * kSecond);

  auto snap = net.client(1)->Query(Sql("SELECT * FROM ev TIMEOUT 5s"));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->Collect().size(), 24u);

  // A continuous query proxied by node 5 with no successor: once node 5
  // dies, the surviving executors probe it (verdict "dead") and reap.
  constexpr TimeUs kLease = 2 * kSecond;
  auto cont = net.client(5)->Query(
      Sql("SELECT src, count(*) AS cnt FROM ev GROUP BY src TIMEOUT 60s "
          "WINDOW 2s CONTINUOUS")
          .WithLeasePeriod(kLease));
  ASSERT_TRUE(cont.ok()) << cont.status().ToString();
  net.RunFor(3 * kSecond);
  net.harness()->FailNode(5);
  net.RunFor(3 * kLease);

  std::string got;
  for (uint32_t node : {0u, 1u}) {
    got += "=== node " + std::to_string(node) + " ===\n";
    got += net.metrics(node)->RenderText();
  }
  // Paths no node reaches: escaping, multi-label sort, a labeled histogram,
  // fractional values, a retired and re-added series, the overflow counter.
  MetricsRegistry reg;
  reg.set_max_series_per_family(3);
  reg.GetCounter("pier_z_total", {{"tag", "a\"b\\c\nd"}}, "escaped")->Inc(2);
  reg.GetCounter("pier_z_total", {{"b", "2"}, {"a", "1"}})->Inc();
  reg.GetGauge("pier_a_ratio", {}, "a fraction")->Set(0.1);
  reg.AddGaugeFn("pier_a_ratio", {{"k", "v"}}, [] { return -2.5; });
  reg.GetHistogram("pier_h_us", {1.5, 10}, {{"op", "x"}})->Observe(3);
  reg.AddCounterFn("pier_cb_total", {}, [] { return 7.0; }, "callback");
  reg.AddCounterFn("pier_cb_total", {{"k", "late"}}, [] { return 8.0; });
  reg.AddGaugeFn("pier_cb_gauge", {}, [] { return 5.0; });
  reg.GetGauge("pier_cb_gauge", {{"k", "x"}})->Set(6);
  reg.GetGauge("pier_cb_gauge")->Set(99);  // the callback holds the name
  ASSERT_TRUE(reg.Remove("pier_cb_total", {}));
  reg.AddCounterFn("pier_cb_total", {}, [] { return 9.0; });
  // The retired series still counts: this fourth one is over the cap.
  reg.AddCounterFn("pier_cb_total", {{"k", "over"}}, [] { return 10.0; });
  reg.AddGaugeFn("pier_e_gauge", {}, [] { return 4.0; });
  reg.AddGaugeFn("pier_e_gauge", {}, nullptr);  // an empty callback reads 0
  reg.AddCounterFn("pier_e_total", {}, nullptr);
  reg.GetCounter("pier_z_total", {{"q", "3"}});
  reg.GetCounter("pier_z_total", {{"q", "4"}})->Inc();  // over the cap
  reg.GetGauge("pier_z_total")->Set(1);                 // kind mismatch
  got += "=== synthetic ===\n";
  got += reg.RenderText();
  // The scenario must reach every rendering path the golden is meant to pin.
  EXPECT_NE(got.find("pier_query_answer_bytes_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(got.find("pier_query_answers_total{qid=\""), std::string::npos);
  EXPECT_NE(got.find("pier_exec_probe_verdicts_total{verdict=\"dead\"}"),
            std::string::npos);
  EXPECT_NE(got.find("pier_exec_orphan_reaps_total{reason=\""),
            std::string::npos);

  const std::string path =
      std::string(PIER_TEST_DATA_DIR) + "/metrics_render.golden";
  if (std::getenv("PIER_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << got;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str());
}

// ---------------------------------------------------------------------------
// sys.metrics publish / query through PIER itself
// ---------------------------------------------------------------------------

TEST(SysMetrics, PublishedSnapshotIsQueryable) {
  SimPier net(4, PierOptions(202));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 16; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(kSecond);

  std::vector<MetricSample> published;
  ASSERT_TRUE(net.client(0)->PublishMetrics(&published).ok());
  ASSERT_FALSE(published.empty());
  net.RunFor(2 * kSecond);  // let the puts land

  auto q = net.client(1)->Query(
      Sql("SELECT * FROM sys.metrics TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  ASSERT_FALSE(rows.empty());

  // Fold: newest row per (metric, labels, origin).
  std::map<std::string, std::pair<int64_t, double>> newest;
  for (const Tuple& r : rows) {
    const Value* name = r.Get("metric");
    const Value* labels = r.Get("labels");
    const Value* origin = r.Get("origin");
    const Value* value = r.Get("value");
    const Value* at = r.Get("updated_us");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(value, nullptr);
    ASSERT_NE(at, nullptr);
    std::string key = std::string(*name->AsString()) + "|" +
                      std::string(*labels->AsString()) + "|" +
                      std::string(*origin->AsString());
    int64_t ts = *at->AsInt64();
    auto it = newest.find(key);
    if (it == newest.end() || ts > it->second.first)
      newest[key] = {ts, *value->AsDouble()};
  }
  // Every published sample must be queryable with the value the snapshot
  // carried (same origin, so the keys are unambiguous).
  NetAddress self = net.dht(0)->local_address();
  std::string origin =
      std::to_string(self.host) + ":" + std::to_string(self.port);
  size_t checked = 0;
  for (const MetricSample& s : published) {
    if (s.kind == MetricKind::kHistogram) continue;  // value rides count/sum
    auto it = newest.find(s.name + "|" + RenderLabels(s.labels) + "|" + origin);
    ASSERT_NE(it, newest.end()) << "missing sys.metrics row for " << s.name;
    EXPECT_DOUBLE_EQ(it->second.second, s.value) << s.name;
    checked++;
  }
  EXPECT_GT(checked, 10u);
}

TEST(SysMetrics, PeriodicPublisherNeedsRegistryAndStops) {
  SimPier net(2, PierOptions(203));
  // SimPier wires a registry automatically; a client without one refuses.
  PierClient bare(net.qp(1), net.catalog());
  EXPECT_FALSE(bare.PublishMetrics().ok());
  EXPECT_FALSE(bare.StartMetricsPublish().ok());

  ASSERT_TRUE(net.client(0)->StartMetricsPublish(kSecond).ok());
  net.RunFor(3 * kSecond + 500 * kMillisecond);
  net.client(0)->StopMetricsPublish();
  uint64_t puts_after_stop = net.dht(0)->stats().puts;
  net.RunFor(3 * kSecond);
  // No further sys.metrics publishes once stopped (no other put source
  // is active in this idle network).
  EXPECT_EQ(net.dht(0)->stats().puts, puts_after_stop);
}

// ---------------------------------------------------------------------------
// Per-query cost metering, aggregated at the proxy (2-node sim)
// ---------------------------------------------------------------------------

TEST(QueryMetering, ExplainAnalyzeAggregatesAcrossNodes) {
  SimPier net(2, PierOptions(303));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  for (int i = 0; i < 24; ++i) {
    Tuple t("ev");
    t.Append("k", Value::Int64(i));
    t.Append("v", Value::Int64(i * 10));
    ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  }
  net.RunFor(2 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 24u);

  auto ea = net.client(0)->ExplainAnalyze(*q);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  EXPECT_TRUE(ea->final) << "costs must be final after completion";
  ASSERT_FALSE(ea->actual.ops.empty());

  // The answer pseudo-op counted every delivered tuple, local and remote.
  const QueryCostOp* answers = nullptr;
  uint64_t scan_out = 0;
  uint32_t scan_nodes = 0;
  for (const QueryCostOp& op : ea->actual.ops) {
    if (op.graph_id == QueryMeter::kAnswerSlot.first &&
        op.op_id == QueryMeter::kAnswerSlot.second) {
      answers = &op;
    } else if (op.cost.tuples_out > 0) {
      scan_out += op.cost.tuples_out;
      scan_nodes = std::max(scan_nodes, op.nodes);
    }
  }
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->cost.tuples_out, 24u);
  EXPECT_GE(scan_out, 24u) << "operator meters saw every produced tuple";
  EXPECT_EQ(scan_nodes, 2u) << "both nodes' meters reached the proxy";
  // Tuples from the remote node crossed the wire and were metered as such.
  EXPECT_GT(answers->cost.msgs, 0u);
  EXPECT_GT(answers->cost.bytes, 0u);
  EXPECT_LT(answers->cost.msgs, 24u) << "local deliveries are not wire msgs";

  // Handle-level totals mirror the report.
  EXPECT_EQ(q->stats().op_msgs, ea->actual.total.msgs);
  EXPECT_EQ(q->stats().op_bytes, ea->actual.total.bytes);
  EXPECT_GT(q->stats().op_tuples, 0u);

  // The rendering names both sides.
  std::string text = ea->ToString();
  EXPECT_NE(text.find("answers:"), std::string::npos);
  EXPECT_NE(text.find("actual"), std::string::npos);
}

TEST(QueryMetering, MeteringOffMeansEmptyReport) {
  SimPier net(2, PierOptions(304));
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("ev").PartitionBy({"k"}))
                  .ok());
  Tuple t("ev");
  t.Append("k", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("ev", t).ok());
  net.RunFor(kSecond);
  for (uint32_t i = 0; i < net.size(); ++i)
    net.qp(i)->executor()->set_metering(false);

  auto q = net.client(0)->Query(Sql("SELECT * FROM ev TIMEOUT 4s"));
  ASSERT_TRUE(q.ok());
  std::vector<Tuple> rows = q->Collect();
  EXPECT_EQ(rows.size(), 1u) << "answers still flow with metering off";
  auto ea = net.client(0)->ExplainAnalyze(*q);
  ASSERT_TRUE(ea.ok());
  EXPECT_EQ(ea->actual.total.msgs, 0u);
  EXPECT_EQ(ea->actual.total.tuples_out, 0u);
}

// ---------------------------------------------------------------------------
// Repair-tick cadence knob (satellite: replication known-hole)
// ---------------------------------------------------------------------------

TEST(RepairBackoff, QuietRingStretchesCadenceAndChangeResets) {
  SimPier::Options opts = PierOptions(404);
  opts.dht.replication_factor = 2;
  opts.dht.repl_repair_period = kSecond;
  opts.dht.repl_repair_backoff_max = 8 * kSecond;
  SimPier net(4, opts);

  // The settle window already ran quiet ticks; keep the ring idle longer.
  net.RunFor(20 * kSecond);
  ReplicationManager* repl = net.dht(0)->replication();
  EXPECT_GT(repl->stats().repair_ticks, 0u);
  EXPECT_GT(repl->stats().idle_repair_ticks, 0u);
  EXPECT_TRUE(repl->repair_backed_off());
  EXPECT_EQ(repl->current_repair_period(), 8 * kSecond) << "capped at max";

  // With backoff, an idle node ticks far less than once per base period.
  uint64_t ticks_before = repl->stats().repair_ticks;
  net.RunFor(16 * kSecond);
  uint64_t quiet_ticks = repl->stats().repair_ticks - ticks_before;
  EXPECT_LE(quiet_ticks, 3u);

  // A ring change (kill a neighbor) snaps the cadence back to base once the
  // protocol notices the membership move.
  net.harness()->FailNode(2);
  net.RunFor(30 * kSecond);
  bool any_reset = false;
  for (uint32_t i = 0; i < net.size(); ++i) {
    if (i == 2 || !net.harness()->IsAlive(i)) continue;
    if (net.dht(i)->replication()->stats().idle_repair_ticks <
        net.dht(i)->replication()->stats().repair_ticks)
      any_reset = true;
  }
  EXPECT_TRUE(any_reset) << "some live node saw a non-idle repair tick";
}

TEST(RepairBackoff, DisabledByDefaultKeepsFixedCadence) {
  SimPier::Options opts = PierOptions(405);
  opts.dht.replication_factor = 2;
  SimPier net(2, opts);
  net.RunFor(10 * kSecond);
  ReplicationManager* repl = net.dht(0)->replication();
  EXPECT_FALSE(repl->repair_backed_off());
  EXPECT_EQ(repl->current_repair_period(), kSecond);
}

}  // namespace
}  // namespace pier
