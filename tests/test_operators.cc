// Operator-level tests: local opgraphs on a one-node network, driven through
// the executor with injected batches. These exercise each operator's contract
// (including the best-effort malformed-tuple policy) without the cost of a
// full multi-node simulation.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>

#include "data/tuple_batch.h"
#include "qp/agg_state.h"
#include "qp/sim_pier.h"
#include "util/random.h"

namespace pier {
namespace {

/// A one-node rig: builds a local graph source[inject] -> <middle> -> result
/// and collects the answer tuples.
class LocalGraph {
 public:
  explicit LocalGraph(uint64_t seed = 99) {
    SimPier::Options opts;
    opts.sim.seed = seed;
    opts.settle_time = 1 * kSecond;
    net_ = std::make_unique<SimPier>(1, opts);
  }

  /// Builds source -> ops... -> result. Returns ids of the middle ops.
  std::vector<uint32_t> Build(std::vector<OpSpec> middle,
                              TimeUs timeout = 60 * kSecond) {
    plan_.query_id = 50000 + seed_counter_++;
    plan_.timeout = timeout;
    OpGraph& g = plan_.AddGraph();
    g.dissem = DissemKind::kLocal;
    OpSpec& src = g.AddOp(OpKind::kSource);
    src.SetInt("inject", 1);
    src_id_ = src.id;
    uint32_t prev = src_id_;
    std::vector<uint32_t> ids;
    for (OpSpec& spec : middle) {
      OpSpec& op = g.AddOp(spec.kind);
      op.params = spec.params;
      uint32_t id = op.id;
      ids.push_back(id);
      g.Connect(prev, id, 0);
      prev = id;
    }
    OpSpec& res = g.AddOp(OpKind::kResult);
    g.Connect(prev, res.id, 0);
    graph_id_ = g.id;

    auto qid = net_->qp(0)->SubmitQuery(
        plan_, [this](const Tuple& t) { out.push_back(t); });
    EXPECT_TRUE(qid.ok()) << qid.status().ToString();
    net_->RunFor(100 * kMillisecond);
    return ids;
  }

  /// Inject one row as a 1-row batch.
  void Inject(const Tuple& t) { InjectBatch(TupleBatch::FromTuple(t)); }

  /// Inject `rows` in order as batches of at most `batch_rows` rows (the
  /// assembler also rolls a batch on every schema change).
  void InjectRows(const std::vector<Tuple>& rows, size_t batch_rows) {
    BatchAssembler assembler(batch_rows);
    for (const Tuple& t : rows) assembler.Add(t);
    for (const TupleBatch& b : assembler.TakeBatches()) InjectBatch(b);
  }

  void InjectBatch(const TupleBatch& b) {
    EXPECT_TRUE(net_->qp(0)
                    ->executor()
                    ->InjectBatch(plan_.query_id, graph_id_, src_id_, b)
                    .ok());
  }

  void Run(TimeUs t = 500 * kMillisecond) { net_->RunFor(t); }

  void Flush() { net_->qp(0)->executor()->FlushQuery(plan_.query_id); }

  Operator* Op(uint32_t id) {
    return net_->qp(0)->executor()->FindOp(plan_.query_id, graph_id_, id);
  }

  SimPier* net() { return net_.get(); }

  std::vector<Tuple> out;

 private:
  std::unique_ptr<SimPier> net_;
  QueryPlan plan_;
  uint32_t src_id_ = 0;
  uint32_t graph_id_ = 0;
  uint64_t seed_counter_ = 0;
};

Tuple Row(int64_t a, int64_t b) {
  Tuple t("t");
  t.Append("a", Value::Int64(a));
  t.Append("b", Value::Int64(b));
  return t;
}

/// Wire encodings, for byte-exact stream comparisons.
std::vector<std::string> Enc(const std::vector<Tuple>& ts) {
  std::vector<std::string> out;
  out.reserve(ts.size());
  for (const Tuple& t : ts) out.push_back(t.Encode());
  return out;
}

TEST(Operators, SelectionDiscardsMalformedTuplesSilently) {
  LocalGraph g;
  OpSpec sel(0, OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("a > 5"));
  g.Build({sel});
  g.Inject(Row(10, 0));                       // passes
  g.Inject(Row(3, 0));                        // fails predicate
  g.Inject(Tuple("t", {{"x", Value::Int64(9)}}));  // no column a: discarded
  Tuple wrong_type("t");
  wrong_type.Append("a", Value::String("ten"));     // type error: discarded
  g.Inject(wrong_type);
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(*g.out[0].Get("a")->AsInt64(), 10);
}

TEST(Operators, ProjectionComputedColumns) {
  LocalGraph g;
  OpSpec proj(0, OpKind::kProjection);
  proj.SetStrings("cols", {"a"});
  proj.Set("out0", "twice");
  proj.SetExpr("expr0", *ParseExpr("a * 2"));
  g.Build({proj});
  g.Inject(Row(21, 1));
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(*g.out[0].Get("twice")->AsInt64(), 42);
  EXPECT_FALSE(g.out[0].Has("b"));
}

TEST(Operators, DupElimByContentAndBySubset) {
  LocalGraph g;
  g.Build({OpSpec(0, OpKind::kDupElim)});
  g.Inject(Row(1, 1));
  g.Inject(Row(1, 1));  // exact duplicate
  g.Inject(Row(1, 2));  // differs in b
  g.Run();
  EXPECT_EQ(g.out.size(), 2u);

  LocalGraph g2;
  OpSpec de(0, OpKind::kDupElim);
  de.SetStrings("cols", {"a"});
  g2.Build({de});
  g2.Inject(Row(1, 1));
  g2.Inject(Row(1, 2));  // same a: duplicate under the subset
  g2.Inject(Row(2, 1));
  g2.Run();
  EXPECT_EQ(g2.out.size(), 2u);
}

TEST(Operators, QueueYieldsButPreservesOrderAndCount) {
  LocalGraph g;
  OpSpec q(0, OpKind::kQueue);
  auto ids = g.Build({q});
  for (int i = 0; i < 600; ++i) g.Inject(Row(i, 0));
  EXPECT_LT(g.out.size(), 600u) << "queue must defer past the batch limit";
  g.Run();
  ASSERT_EQ(g.out.size(), 600u);
  for (int i = 0; i < 600; ++i)
    EXPECT_EQ(*g.out[i].Get("a")->AsInt64(), i) << "FIFO order";
}

TEST(Operators, LimitStopsTheQueryLocally) {
  LocalGraph g;
  OpSpec lim(0, OpKind::kLimit);
  lim.SetInt("k", 3);
  g.Build({lim});
  for (int i = 0; i < 10; ++i) g.Inject(Row(i, 0));
  g.Run();
  EXPECT_EQ(g.out.size(), 3u);
}

TEST(Operators, GroupByLocalEmitsOnFlushAndTumbles) {
  LocalGraph g;
  OpSpec agg(0, OpKind::kGroupBy);
  agg.SetStrings("keys", {"a"});
  agg.Set("aggs", "count::n,sum:b:total");
  auto ids = g.Build({agg});
  g.Inject(Row(1, 10));
  g.Inject(Row(1, 20));
  g.Inject(Row(2, 5));
  g.Run();
  EXPECT_TRUE(g.out.empty()) << "blocking operator: nothing before flush";
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 2u);
  for (const Tuple& t : g.out) {
    if (*t.Get("a")->AsInt64() == 1) {
      EXPECT_EQ(*t.Get("n")->AsInt64(), 2);
      EXPECT_EQ(*t.Get("total")->AsInt64(), 30);
    } else {
      EXPECT_EQ(*t.Get("n")->AsInt64(), 1);
    }
  }
  // Tumbling: a second flush with no new input emits nothing.
  size_t before = g.out.size();
  g.Flush();
  g.Run();
  EXPECT_EQ(g.out.size(), before);
}

TEST(Operators, TopKDedupReplacesRefinedGroups) {
  LocalGraph g;
  OpSpec topk(0, OpKind::kTopK);
  topk.SetInt("k", 2);
  topk.Set("col", "b");
  topk.SetInt("desc", 1);
  topk.SetStrings("dedup", {"a"});
  g.Build({topk});
  g.Inject(Row(1, 10));
  g.Inject(Row(2, 20));
  g.Inject(Row(3, 5));
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 2u);
  EXPECT_EQ(*g.out[0].Get("a")->AsInt64(), 2);
  EXPECT_EQ(*g.out[1].Get("a")->AsInt64(), 1);
  // A refined value for group 3 overtakes; re-flush emits the new ranking.
  g.Inject(Row(3, 99));
  g.Flush();
  g.Run();
  ASSERT_EQ(g.out.size(), 4u);
  EXPECT_EQ(*g.out[2].Get("a")->AsInt64(), 3);
  // Unchanged state: no re-emission.
  g.Flush();
  g.Run();
  EXPECT_EQ(g.out.size(), 4u);
}

TEST(Operators, UnionRenamesTable) {
  LocalGraph g;
  OpSpec u(0, OpKind::kUnion);
  u.Set("table", "merged");
  g.Build({u});
  g.Inject(Row(1, 1));
  g.Run();
  ASSERT_EQ(g.out.size(), 1u);
  EXPECT_EQ(g.out[0].table(), "merged");
}

TEST(Operators, EddyPassesConjunctionRegardlessOfPolicy) {
  for (const char* policy : {"fixed", "adaptive"}) {
    LocalGraph g;
    OpSpec eddy(0, OpKind::kEddy);
    eddy.SetInt("n", 2);
    eddy.SetExpr("mexpr0", *ParseExpr("a > 0"));
    eddy.SetExpr("mexpr1", *ParseExpr("b < 100"));
    eddy.Set("policy", policy);
    auto ids = g.Build({eddy});
    g.Inject(Row(1, 50));    // passes both
    g.Inject(Row(-1, 50));   // fails first
    g.Inject(Row(1, 200));   // fails second
    g.Run();
    EXPECT_EQ(g.out.size(), 1u) << policy;
    Operator* op = g.Op(ids[0]);
    ASSERT_NE(op, nullptr);
    EXPECT_GT(op->Metric("evaluations"), 0) << policy;
    EXPECT_EQ(op->Metric("no_such_metric"), -1);
  }
}

TEST(Operators, MaterializerMakesTupleScanableLocally) {
  SimPier::Options opts;
  opts.sim.seed = 3;
  opts.settle_time = 1 * kSecond;
  SimPier net(1, opts);

  QueryPlan plan;
  plan.query_id = 60001;
  plan.timeout = 30 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& src = g.AddOp(OpKind::kSource);
  src.SetInt("inject", 1);
  uint32_t src_id = src.id;
  OpSpec& mat = g.AddOp(OpKind::kMaterializer);
  mat.Set("ns", "mat_table");
  mat.SetStrings("key", {"a"});
  mat.SetInt("drop_on_close", 0);
  g.Connect(src_id, mat.id, 0);

  ASSERT_TRUE(net.qp(0)->SubmitQuery(plan, [](const Tuple&) {}).ok());
  net.RunFor(100 * kMillisecond);
  ASSERT_TRUE(net.qp(0)
                  ->executor()
                  ->InjectBatch(plan.query_id, g.id, src_id,
                                TupleBatch::FromTuple(Row(7, 8)))
                  .ok());
  net.RunFor(100 * kMillisecond);
  EXPECT_EQ(net.dht(0)->objects()->NamespaceObjects("mat_table"), 1u);
}

// ---------------------------------------------------------------------------
// Operators whose former body was tuple-at-a-time only. Each is fed the same
// rows once as 1-row batches and once as 64-row batches; the answers must be
// exact (and identical) both times.
// ---------------------------------------------------------------------------

constexpr size_t kBatchSizes[] = {1, 64};

std::vector<Tuple> Rows(int n, int64_t (*b_of)(int)) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) rows.push_back(Row(i, b_of(i)));
  return rows;
}

TEST(ConvertedOperators, SourceInjectPassesRowsInOrder) {
  std::vector<Tuple> rows = Rows(150, [](int i) { return int64_t{i} * 3; });
  rows.push_back(Tuple("other", {{"z", Value::String("zz")}}));
  for (size_t batch_rows : kBatchSizes) {
    LocalGraph g;
    g.Build({});
    g.InjectRows(rows, batch_rows);
    g.Run();
    EXPECT_EQ(Enc(g.out), Enc(rows)) << batch_rows << "-row batches";
  }
}

TEST(ConvertedOperators, SourceConstantTuplesArriveInOrder) {
  SimPier::Options opts;
  opts.sim.seed = 6;
  opts.settle_time = 1 * kSecond;
  SimPier net(1, opts);
  QueryPlan plan;
  plan.query_id = 60003;
  plan.timeout = 5 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& src = g.AddOp(OpKind::kSource);
  std::vector<Tuple> rows = {Row(1, 2), Tuple("u", {{"s", Value::String("x")}}),
                             Row(3, 4)};
  for (size_t i = 0; i < rows.size(); ++i)
    src.Set("tuple" + std::to_string(i), rows[i].Encode());
  uint32_t src_id = src.id;
  OpSpec& res = g.AddOp(OpKind::kResult);
  g.Connect(src_id, res.id, 0);
  std::vector<Tuple> out;
  auto collect = [&out](const Tuple& t) { out.push_back(t); };
  ASSERT_TRUE(net.qp(0)->SubmitQuery(plan, collect).ok());
  net.RunFor(kSecond);
  EXPECT_EQ(Enc(out), Enc(rows));
}

TEST(ConvertedOperators, TopKEmitsExactTopRowsInOrder) {
  // b = 37 i mod 100 is a permutation of 0..99: no ties.
  std::vector<Tuple> rows =
      Rows(100, [](int i) { return int64_t{i} * 37 % 100; });
  rows.push_back(Tuple("t", {{"a", Value::Int64(500)}}));  // no b: discarded
  std::vector<Tuple> want(rows.begin(), rows.end() - 1);
  std::sort(want.begin(), want.end(), [](const Tuple& x, const Tuple& y) {
    return *x.Get("b")->AsInt64() > *y.Get("b")->AsInt64();
  });
  want.resize(5);
  for (size_t batch_rows : kBatchSizes) {
    LocalGraph g;
    OpSpec topk(0, OpKind::kTopK);
    topk.SetInt("k", 5);
    topk.Set("col", "b");
    topk.SetInt("desc", 1);
    g.Build({topk});
    g.InjectRows(rows, batch_rows);
    g.Run();
    EXPECT_TRUE(g.out.empty()) << "blocking operator: nothing before flush";
    g.Flush();
    g.Run();
    EXPECT_EQ(Enc(g.out), Enc(want)) << batch_rows << "-row batches";
  }
}

TEST(ConvertedOperators, BloomCreateThenProbePassesExactlyTheBuildKeys) {
  for (size_t batch_rows : kBatchSizes) {
    SimPier::Options opts;
    opts.sim.seed = 7;
    opts.settle_time = 1 * kSecond;
    SimPier net(1, opts);
    QueryPlan plan;
    plan.query_id = 60004;
    plan.timeout = 30 * kSecond;
    // Graph 1: source -> bloomcreate over the build keys. Graph 2:
    // source -> bloomprobe -> result over the probe rows.
    OpGraph& build = plan.AddGraph();
    build.dissem = DissemKind::kLocal;
    OpSpec& bsrc = build.AddOp(OpKind::kSource);
    bsrc.SetInt("inject", 1);
    uint32_t bsrc_id = bsrc.id;
    OpSpec& bc = build.AddOp(OpKind::kBloomCreate);
    bc.Set("col", "a");
    bc.Set("ns", "bf");
    build.Connect(bsrc_id, bc.id, 0);
    uint32_t build_id = build.id;
    OpGraph& probe = plan.AddGraph();
    probe.dissem = DissemKind::kLocal;
    OpSpec& psrc = probe.AddOp(OpKind::kSource);
    psrc.SetInt("inject", 1);
    uint32_t psrc_id = psrc.id;
    OpSpec& bp = probe.AddOp(OpKind::kBloomProbe);
    bp.Set("col", "a");
    bp.Set("ns", "bf");
    bp.SetInt("wait_ms", 1000);
    uint32_t bp_id = bp.id;
    probe.Connect(psrc_id, bp_id, 0);
    OpSpec& res = probe.AddOp(OpKind::kResult);
    probe.Connect(bp_id, res.id, 0);
    uint32_t probe_id = probe.id;

    std::vector<Tuple> out;
    auto collect = [&out](const Tuple& t) { out.push_back(t); };
    ASSERT_TRUE(net.qp(0)->SubmitQuery(plan, collect).ok());
    net.RunFor(100 * kMillisecond);
    QueryExecutor* ex = net.qp(0)->executor();
    auto inject = [&](uint32_t graph, uint32_t src,
                      const std::vector<Tuple>& rows) {
      BatchAssembler assembler(batch_rows);
      for (const Tuple& t : rows) assembler.Add(t);
      for (const TupleBatch& b : assembler.TakeBatches())
        ASSERT_TRUE(ex->InjectBatch(plan.query_id, graph, src, b).ok());
    };
    // Build keys: the even a in [0, 20).
    std::vector<Tuple> build_rows;
    for (int i = 0; i < 20; i += 2) build_rows.push_back(Row(i, 0));
    inject(build_id, bsrc_id, build_rows);
    ex->FlushQuery(plan.query_id);  // ships the build filter
    net.RunFor(100 * kMillisecond);
    // Probe rows before the filter is fetched are held, then released.
    std::vector<Tuple> early = Rows(40, [](int i) { return int64_t{i}; });
    early.push_back(Tuple("t", {{"b", Value::Int64(1)}}));  // no a: dropped
    inject(probe_id, psrc_id, early);
    EXPECT_TRUE(out.empty()) << "probe rows wait for the filter";
    net.RunFor(2 * kSecond);
    std::vector<Tuple> late = Rows(40, [](int i) { return int64_t{100 + i}; });
    inject(probe_id, psrc_id, late);
    net.RunFor(500 * kMillisecond);

    std::vector<Tuple> want;
    for (const auto* rows : {&early, &late}) {
      for (const Tuple& t : *rows) {
        const Value* a = t.Get("a");
        if (a != nullptr && *a->AsInt64() < 20 && *a->AsInt64() % 2 == 0)
          want.push_back(t);
      }
    }
    EXPECT_EQ(Enc(out), Enc(want)) << batch_rows << "-row batches";
  }
}

TEST(ConvertedOperators, ControlBuffersWhilePausedAndReleasesInOrder) {
  std::vector<Tuple> rows = Rows(80, [](int i) { return int64_t{i} % 7; });
  for (size_t batch_rows : kBatchSizes) {
    LocalGraph g;
    OpSpec ctl(0, OpKind::kControl);
    ctl.SetInt("paused", 1);
    ctl.SetInt("max_buffer", 50);
    g.Build({ctl});
    g.InjectRows(rows, batch_rows);
    g.Run();
    EXPECT_TRUE(g.out.empty()) << "paused: nothing passes";
    g.Flush();  // releases the buffer, stays paused
    g.Run();
    std::vector<Tuple> want(rows.begin(), rows.begin() + 50);
    EXPECT_EQ(Enc(g.out), Enc(want)) << "bounded by max_buffer, in order";
    std::vector<Tuple> more = Rows(3, [](int) { return int64_t{-1}; });
    g.InjectRows(more, batch_rows);
    g.Run();
    EXPECT_EQ(g.out.size(), 50u) << "still paused after a flush";
    g.Flush();
    g.Run();
    want.insert(want.end(), more.begin(), more.end());
    EXPECT_EQ(Enc(g.out), Enc(want)) << batch_rows << "-row batches";

    LocalGraph open;
    open.Build({OpSpec(0, OpKind::kControl)});
    open.InjectRows(rows, batch_rows);
    open.Run();
    EXPECT_EQ(Enc(open.out), Enc(rows)) << "unpaused: pass-through";
  }
}

/// One partial-state row, as a mode=partial GroupBy emits it, folding
/// `values` for count::n, sum:b:total and min:b:lo. With `only` set, the
/// row carries that one aggregate's four partial columns and lacks the
/// other two aggregates' columns.
Tuple PartialRow(int64_t a, std::vector<int64_t> values,
                 const char* only = nullptr) {
  const AggSpec specs[] = {{AggFunc::kCount, "", "n"},
                           {AggFunc::kSum, "b", "total"},
                           {AggFunc::kMin, "b", "lo"}};
  Tuple t("agg");
  t.Append("a", Value::Int64(a));
  for (const AggSpec& spec : specs) {
    if (only != nullptr && spec.alias != only) continue;
    AggState state;
    for (int64_t v : values) state.UpdateValue(spec, Value::Int64(v), true);
    state.ToPartialColumns(spec.alias, &t);
  }
  return t;
}

TEST(ConvertedOperators, GroupByFinalMergesPartialStates) {
  std::vector<Tuple> rows;
  for (int rep = 0; rep < 30; ++rep) {
    rows.push_back(PartialRow(1, {10, 20}));
    rows.push_back(PartialRow(2, {5}));
  }
  rows.push_back(PartialRow(1, {-3}));
  // Rows without n's and lo's partial columns: only total merges them. A
  // run of ten puts several of them in one multi-row batch, so a missing
  // column read as its neighbour's cell would change n and lo.
  for (int rep = 0; rep < 10; ++rep) {
    rows.push_back(PartialRow(rep % 2 + 1, {-50, 7}, "total"));
  }
  rows.push_back(Tuple("agg", {{"n#n", Value::Int64(9)}}));  // no key: dropped
  auto final_row = [](int64_t a, int64_t n, int64_t total, int64_t lo) {
    Tuple t("agg");
    t.Append("a", Value::Int64(a));
    t.Append("n", Value::Int64(n));
    t.Append("total", Value::Int64(total));
    t.Append("lo", Value::Int64(lo));
    return t;
  };
  std::vector<Tuple> want = {final_row(1, 61, 30 * 30 - 3 - 5 * 43, -3),
                             final_row(2, 30, 30 * 5 - 5 * 43, 5)};
  for (size_t batch_rows : kBatchSizes) {
    LocalGraph g;
    OpSpec fin(0, OpKind::kGroupBy);
    fin.SetStrings("keys", {"a"});
    fin.Set("aggs", "count::n,sum:b:total,min:b:lo");
    fin.Set("mode", "final");
    g.Build({fin});
    g.InjectRows(rows, batch_rows);
    g.Run();
    g.Flush();
    g.Run();
    EXPECT_EQ(Enc(g.out), Enc(want)) << batch_rows << "-row batches";
  }
}

TEST(ConvertedOperators, PutStoresEveryRowOnceInBothModes) {
  std::vector<Tuple> rows = Rows(90, [](int i) { return int64_t{i} % 4; });
  std::vector<std::string> want = Enc(rows);
  std::sort(want.begin(), want.end());
  for (const char* mode : {"send", "put"}) {
    for (size_t batch_rows : kBatchSizes) {
      LocalGraph g;
      OpSpec put(0, OpKind::kPut);
      put.Set("ns", "put_out");
      put.SetStrings("key", {"a"});
      put.Set("mode", mode);
      g.Build({put});
      g.InjectRows(rows, batch_rows);
      g.Run(2 * kSecond);
      std::vector<std::string> stored;
      g.net()->dht(0)->LocalScan(
          "put_out", [&](ObjectNameView, std::string_view value) {
            stored.emplace_back(value);
          });
      std::sort(stored.begin(), stored.end());
      EXPECT_EQ(stored, want) << mode << ", " << batch_rows << "-row batches";
      EXPECT_TRUE(g.out.empty()) << "put is a sink";
    }
  }
}

TEST(ConvertedOperators, HierJoinProducesTheExactJoinOnce) {
  // l(k, a) rows enter at node 1, r(k, b) rows at node 2; every node runs
  // the hierarchical join, and each matching pair reaches the proxy
  // exactly once (early at a path node, or at the bucket owner).
  std::vector<Tuple> left, right;
  for (int i = 0; i < 30; ++i) {
    left.push_back(
        Tuple("l", {{"k", Value::Int64(i % 5)}, {"a", Value::Int64(i)}}));
    right.push_back(
        Tuple("r", {{"k", Value::Int64(i % 3)}, {"b", Value::Int64(100 + i)}}));
  }
  std::vector<std::string> want;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      if (*l.Get("k") == *r.Get("k")) {
        want.push_back(Tuple("join", {{"k", *l.Get("k")},
                                      {"a", *l.Get("a")},
                                      {"b", *r.Get("b")}})
                           .Encode());
      }
    }
  }
  std::sort(want.begin(), want.end());
  for (size_t batch_rows : kBatchSizes) {
    SimPier::Options opts;
    opts.sim.seed = 8;
    SimPier net(8, opts);
    QueryPlan plan;
    plan.query_id = 60005;
    plan.timeout = 20 * kSecond;
    OpGraph& g = plan.AddGraph();
    OpSpec& ls = g.AddOp(OpKind::kSource);
    ls.SetInt("inject", 1);
    uint32_t ls_id = ls.id;
    OpSpec& rs = g.AddOp(OpKind::kSource);
    rs.SetInt("inject", 1);
    uint32_t rs_id = rs.id;
    OpSpec& hj = g.AddOp(OpKind::kHierJoin);
    hj.Set("l_key", "k");
    hj.Set("r_key", "k");
    uint32_t hj_id = hj.id;
    g.Connect(ls_id, hj_id, 0);
    g.Connect(rs_id, hj_id, 1);
    uint32_t gid = g.id;
    std::vector<std::string> got;
    auto collect = [&got](const Tuple& t) { got.push_back(t.Encode()); };
    ASSERT_TRUE(net.qp(0)->SubmitQuery(plan, collect).ok());
    net.RunFor(2 * kSecond);  // the broadcast reaches every node
    auto inject = [&](uint32_t node, uint32_t src,
                      const std::vector<Tuple>& rows) {
      BatchAssembler assembler(batch_rows);
      for (const Tuple& t : rows) assembler.Add(t);
      for (const TupleBatch& b : assembler.TakeBatches()) {
        ASSERT_TRUE(net.qp(node)
                        ->executor()
                        ->InjectBatch(plan.query_id, gid, src, b)
                        .ok());
      }
    };
    inject(1, ls_id, left);
    inject(2, rs_id, right);
    net.RunFor(6 * kSecond);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << batch_rows << "-row batches";
  }
}

TEST(Operators, UnknownOpKindIsRejectedNotFatal) {
  OpSpec bogus(1, static_cast<OpKind>(200));
  auto op = MakeOperator(bogus);
  EXPECT_FALSE(op.ok());
}

TEST(Operators, BadParamsRejectedAtBuild) {
  // A graph whose operator fails Init must be rejected by Build, and the
  // node must keep running (the executor logs and skips it).
  SimPier::Options opts;
  opts.sim.seed = 4;
  opts.settle_time = 1 * kSecond;
  SimPier net(1, opts);
  QueryPlan plan;
  plan.query_id = 60002;
  plan.timeout = 5 * kSecond;
  OpGraph& g = plan.AddGraph();
  g.dissem = DissemKind::kLocal;
  OpSpec& scan = g.AddOp(OpKind::kScan);  // missing ns param
  (void)scan;
  auto qid = net.qp(0)->SubmitQuery(plan, [](const Tuple&) {});
  EXPECT_TRUE(qid.ok()) << "submission survives";
  net.RunFor(kSecond);
  EXPECT_EQ(net.qp(0)->executor()->FindOp(plan.query_id, g.id, 1), nullptr)
      << "bad graph was not instantiated";
}

TEST(Operators, MalformedStoredObjectsAreSkippedByScan) {
  // Garbage bytes published into a table namespace must not break queries
  // over that table (§3.3.4 best-effort).
  SimPier::Options opts;
  opts.sim.seed = 5;
  opts.settle_time = 6 * kSecond;
  SimPier net(4, opts);
  ASSERT_TRUE(
      net.catalog()->Register(TableSpec("junkish").PartitionBy({"v"})).ok());
  Tuple good("junkish");
  good.Append("v", Value::Int64(1));
  ASSERT_TRUE(net.client(0)->Publish("junkish", good).ok());
  net.dht(1)->Put("junkish", "somekey", "sfx", "\xde\xad\xbe\xef garbage",
                  60 * kSecond);
  net.RunFor(2 * kSecond);

  auto q = net.client(2)->Query(Sql("SELECT * FROM junkish TIMEOUT 5s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->Collect().size(), 1u)
      << "the good tuple arrives, the garbage is dropped";
}

// ---------------------------------------------------------------------------
// Batch equivalence against a golden: the same randomized stream through the
// same middle graph twice — once as 1-row batches, once as N-row batches (the
// assembler rolls batches on schema changes, exactly as the runtime's decode
// path does). Both answer streams must equal the stream recorded in
// tests/testdata/batch_equivalence.golden byte for byte and in order,
// including across window flush boundaries. The golden holds the answers of
// the former tuple-at-a-time execution path, the oracle this suite was built
// against; it is never regenerated from the code under test.
// ---------------------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

/// The golden's sections: "[name]" lines, each followed by one hex-encoded
/// answer tuple per line.
std::map<std::string, std::vector<std::string>> LoadGolden() {
  std::map<std::string, std::vector<std::string>> sections;
  std::ifstream in(std::string(PIER_TEST_DATA_DIR) +
                   "/batch_equivalence.golden");
  std::vector<std::string>* cur = nullptr;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line.front() == '[' && line.back() == ']') {
      cur = &sections[line.substr(1, line.size() - 2)];
    } else if (cur != nullptr && !line.empty()) {
      cur->push_back(line);
    }
  }
  return sections;
}

void ExpectMatchesGolden(const std::string& section,
                         const std::vector<OpSpec>& middle,
                         const std::vector<std::vector<Tuple>>& windows,
                         size_t batch_rows = 64) {
  const auto golden = LoadGolden();
  auto it = golden.find(section);
  ASSERT_NE(it, golden.end()) << "no golden section [" << section << "]";
  for (size_t rows : {size_t{1}, batch_rows}) {
    LocalGraph g(123);
    g.Build(middle);
    for (const std::vector<Tuple>& win : windows) {
      g.InjectRows(win, rows);
      g.Run();
      g.Flush();
      g.Run();
    }
    std::vector<std::string> got;
    for (const std::string& wire : Enc(g.out)) got.push_back(Hex(wire));
    EXPECT_EQ(got, it->second) << section << " fed as " << rows
                               << "-row batches";
  }
}

/// Randomized rows: duplicate-heavy int key `a` (sometimes missing, sometimes
/// mistyped as a string), optional int `b`, optional string `s` — exercising
/// the best-effort discard policy on both paths.
std::vector<Tuple> RandomRows(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Tuple t("t");
    uint64_t shape = rng.Uniform(12);
    if (shape != 0)
      t.Append("a", shape == 1
                        ? Value::String("ten")
                        : Value::Int64(static_cast<int64_t>(rng.Uniform(20))));
    if (rng.Uniform(10) != 0)
      t.Append("b", Value::Int64(static_cast<int64_t>(rng.Uniform(100))));
    if (rng.Uniform(3) == 0)
      t.Append("s", Value::String("u" + std::to_string(rng.Uniform(5))));
    rows.push_back(std::move(t));
  }
  return rows;
}

TEST(BatchEquivalence, SelectionProjectionDupElimChain) {
  OpSpec sel(0, OpKind::kSelection);
  sel.SetExpr("pred", *ParseExpr("a < 15"));
  OpSpec proj(0, OpKind::kProjection);
  proj.SetStrings("cols", {"a", "s"});
  proj.Set("out0", "twice");
  proj.SetExpr("expr0", *ParseExpr("a * 2"));
  OpSpec dedup(0, OpKind::kDupElim);
  ExpectMatchesGolden("SelectionProjectionDupElimChain", {sel, proj, dedup},
                      {RandomRows(71, 400)});
}

TEST(BatchEquivalence, GroupByAcrossWindowBoundaries) {
  OpSpec agg(0, OpKind::kGroupBy);
  agg.SetStrings("keys", {"a"});
  agg.Set("aggs", "count::n,sum:b:total,min:b:lo");
  // Three tumbling windows (Flush between them): per-window group answers
  // must agree, not just the final state.
  ExpectMatchesGolden(
      "GroupByAcrossWindowBoundaries", {agg},
      {RandomRows(72, 150), RandomRows(73, 150), RandomRows(74, 150)});
}

TEST(BatchEquivalence, EddyDrawsIdenticalRoutingDecisions) {
  for (const char* policy : {"fixed", "adaptive"}) {
    OpSpec eddy(0, OpKind::kEddy);
    eddy.SetInt("n", 2);
    eddy.SetExpr("mexpr0", *ParseExpr("a > 5"));
    eddy.SetExpr("mexpr1", *ParseExpr("b < 80"));
    eddy.Set("policy", policy);
    ExpectMatchesGolden(
        std::string("EddyDrawsIdenticalRoutingDecisions/") + policy, {eddy},
        {RandomRows(75, 300)});
  }
}

TEST(BatchEquivalence, QueueThenLimitStopsAtTheSameRow) {
  OpSpec q(0, OpKind::kQueue);
  OpSpec lim(0, OpKind::kLimit);
  lim.SetInt("k", 37);
  ExpectMatchesGolden("QueueThenLimitStopsAtTheSameRow", {q, lim},
                      {RandomRows(76, 200)});
}

TEST(BatchEquivalence, SymHashJoinMixedTableStream) {
  // An interleaved two-table stream through the join's single-input mode:
  // batches roll on every table switch, so the batch path sees many short
  // batches routed whole to the correct side.
  Rng rng(77);
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) {
    if (rng.Uniform(2) == 0) {
      Tuple r("r");
      r.Append("x", Value::Int64(static_cast<int64_t>(rng.Uniform(40))));
      r.Append("a", Value::Int64(i));
      rows.push_back(std::move(r));
    } else {
      Tuple s("s");
      s.Append("y", Value::Int64(static_cast<int64_t>(rng.Uniform(40))));
      s.Append("b", Value::Int64(i));
      rows.push_back(std::move(s));
    }
  }
  OpSpec shj(0, OpKind::kSymHashJoin);
  shj.Set("l_key", "x");
  shj.Set("r_key", "y");
  shj.Set("l_table", "r");
  shj.Set("r_table", "s");
  ExpectMatchesGolden("SymHashJoinMixedTableStream", {shj}, {rows},
                      /*batch_rows=*/32);
}

TEST(BatchEquivalence, ReplicatedScanMergeStillDeliversEachRowOnce) {
  // k = 3 placement: every row exists on its owner plus two successors, and
  // the scan-time replica merge must still deliver each exactly once now
  // that scan results travel as batches.
  SimPier::Options opts;
  opts.sim.seed = 29;
  opts.seed_routing = true;
  SimPier net(8, opts);
  ASSERT_TRUE(net.catalog()
                  ->Register(TableSpec("rv").PartitionBy({"id"}).Replicas(3))
                  .ok());
  std::vector<std::string> published;
  for (int i = 0; i < 24; ++i) {
    Tuple e("rv");
    e.Append("id", Value::Int64(i));
    e.Append("v", Value::String("p" + std::to_string(i)));
    ASSERT_TRUE(net.client(i % 8)->Publish("rv", e).ok());
    published.push_back(e.Encode());
  }
  net.RunFor(3 * kSecond);

  auto q = net.client(0)->Query(Sql("SELECT * FROM rv TIMEOUT 6s"));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  std::vector<std::string> got;
  q->OnTuple([&](const Tuple& t) { got.push_back(t.Encode()); });
  net.RunFor(8 * kSecond);

  std::sort(published.begin(), published.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, published)
      << "replica merge under batch delivery lost or double-counted rows";
}

}  // namespace
}  // namespace pier
