// Unit and property tests for the runtime substrate (event loop, simulated
// network, UdpCC) and the utility layer (wire codec, Bloom filter, RNG/Zipf,
// hashing).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/event_loop.h"
#include "runtime/sim_runtime.h"
#include "runtime/udpcc.h"
#include "util/bloom.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/u64_set.h"
#include "util/wire.h"

namespace pier {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoop, FiresInTimeOrderWithStableTies) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(20, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(10, [&] { order.push_back(2); });  // same time: FIFO by seq
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 20);
}

TEST(EventLoop, CancelIsBestEffort) {
  EventLoop loop;
  int fired = 0;
  uint64_t a = loop.ScheduleAt(5, [&] { fired++; });
  loop.ScheduleAt(6, [&] { fired++; });
  loop.Cancel(a);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, 1);
  loop.Cancel(a);  // double-cancel: no-op
  loop.Cancel(12345678);  // unknown token: no-op
}

TEST(EventLoop, RunUntilAdvancesClockExactly) {
  EventLoop loop;
  int fired = 0;
  loop.ScheduleAt(100, [&] { fired++; });
  loop.ScheduleAt(300, [&] { fired++; });
  EXPECT_EQ(loop.RunUntil(200), 1u);
  EXPECT_EQ(loop.now(), 200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, HandlersMayScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) loop.ScheduleAfter(1, chain);
  };
  loop.ScheduleAfter(1, chain);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(50, [] {});
  loop.RunUntilIdle();
  bool fired = false;
  loop.ScheduleAt(10, [&] { fired = true; });  // in the past
  loop.RunUntilIdle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.now(), 50) << "clock must never run backwards";
}

TEST(EventLoop, StaleTokenDoesNotCancelSlotReuser) {
  EventLoop loop;
  int ran = 0, cancelled = 0, reuser = 0;
  uint64_t done = loop.ScheduleAt(5, [&] { ran++; });
  loop.RunUntilIdle();
  uint64_t gone = loop.ScheduleAt(6, [&] { cancelled++; });
  loop.Cancel(gone);
  // Both freed slots are reused; neither old token may reach the new events.
  uint64_t a = loop.ScheduleAt(10, [&] { reuser++; });
  uint64_t b = loop.ScheduleAt(11, [&] { reuser++; });
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  for (uint64_t stale : {done, gone}) {
    EXPECT_NE(stale, a);
    EXPECT_NE(stale, b);
    loop.Cancel(stale);
  }
  EXPECT_EQ(loop.pending(), 2u);
  loop.RunUntilIdle();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(cancelled, 0);
  EXPECT_EQ(reuser, 2);
}

TEST(EventLoop, CancelAfterRunKeepsPendingExact) {
  EventLoop loop;
  std::vector<uint64_t> tokens;
  for (int i = 0; i < 8; ++i) tokens.push_back(loop.ScheduleAt(i, [] {}));
  EXPECT_EQ(loop.RunUntilIdle(), 8u);
  for (uint64_t t : tokens) loop.Cancel(t);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.NextEventTime(), -1);
  loop.ScheduleAt(20, [] {});
  EXPECT_EQ(loop.pending(), 1u);
  EXPECT_FALSE(loop.empty());
}

TEST(EventLoop, HandlerCancelsAndSchedulesAtNow) {
  EventLoop loop;
  std::vector<std::string> order;
  uint64_t self = 0, later = 0;
  self = loop.ScheduleAt(10, [&] {
    order.push_back("self");
    loop.Cancel(self);  // already running: a no-op
    loop.Cancel(later);
    loop.ScheduleAt(loop.now(), [&] { order.push_back("at-now"); });
  });
  loop.ScheduleAt(10, [&] { order.push_back("queued-tie"); });
  later = loop.ScheduleAt(30, [&] { order.push_back("later"); });
  EXPECT_EQ(loop.pending(), 3u);
  loop.RunOne();
  EXPECT_EQ(loop.pending(), 2u) << "self-cancel is a no-op; `later` is gone";
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"self", "queued-tie", "at-now"}));
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoop, MutedOwnerFiresInPlaceWithoutRunning) {
  EventLoop loop;
  std::vector<int> order;
  auto held = std::make_shared<int>(0);
  loop.ScheduleAt(10, [&] { order.push_back(1); }, /*owner=*/1);
  loop.ScheduleAt(10, [&, held] { order.push_back(2); }, /*owner=*/2);
  loop.ScheduleAt(10, [&] { order.push_back(3); });
  loop.MuteOwner(2);
  // Scheduled after the mute: muted too.
  loop.ScheduleAt(20, [&] { order.push_back(4); }, /*owner=*/2);
  loop.MuteOwner(EventLoop::kNoOwner);  // a no-op
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_EQ(loop.RunUntilIdle(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(loop.events_executed(), 4u) << "muted events still count";
  EXPECT_EQ(loop.now(), 20) << "and still advance the clock";
  EXPECT_EQ(held.use_count(), 1) << "a muted callback is destroyed, not leaked";
}

TEST(EventLoop, DifferentialAgainstOrderedSetModel) {
  // The reference model: the pending set ordered by (when, seq), with seq
  // assigned once per schedule. Every op must leave the loop and the model
  // with the same firing sequence, clock and pending count.
  EventLoop loop;
  std::set<std::pair<TimeUs, uint64_t>> model;
  std::map<uint64_t, TimeUs> model_when;  // seq -> when, pending only
  TimeUs model_now = 0;
  uint64_t model_seq = 0;
  std::vector<uint64_t> fired, model_fired;
  std::vector<std::pair<uint64_t, uint64_t>> issued;  // (token, seq)

  auto model_pop = [&] {
    auto [when, seq] = *model.begin();
    model.erase(model.begin());
    model_when.erase(seq);
    if (when > model_now) model_now = when;
    model_fired.push_back(seq);
  };

  Rng rng(20240611);
  for (int op = 0; op < 20000; ++op) {
    uint64_t kind = rng.Uniform(10);
    if (kind < 4) {
      // Near deadlines, far ones (retransmit-timer-like) and some in the
      // past, so removals from the middle of the heap must sift both ways.
      TimeUs when = model_now + (rng.Bernoulli(0.5)
                                     ? rng.UniformRange(-5, 200)
                                     : rng.UniformRange(0, 100000));
      uint64_t seq = model_seq++;
      uint64_t token =
          loop.ScheduleAt(when, [&fired, seq] { fired.push_back(seq); });
      ASSERT_NE(token, 0u);
      if (when < model_now) when = model_now;
      model.insert({when, seq});
      model_when[seq] = when;
      issued.push_back({token, seq});
    } else if (kind < 7) {
      if (issued.empty()) continue;
      auto [token, seq] = issued[rng.Uniform(issued.size())];
      loop.Cancel(token);
      auto it = model_when.find(seq);
      if (it != model_when.end()) {
        model.erase({it->second, seq});
        model_when.erase(it);
      }
    } else if (kind < 9) {
      bool ran = loop.RunOne();
      ASSERT_EQ(ran, !model.empty());
      if (ran) model_pop();
    } else {
      TimeUs t = model_now + rng.UniformRange(0, 100);
      size_t n = loop.RunUntil(t);
      size_t model_n = 0;
      while (!model.empty() && model.begin()->first <= t) {
        model_pop();
        ++model_n;
      }
      if (t > model_now) model_now = t;
      ASSERT_EQ(n, model_n);
    }
    ASSERT_EQ(fired, model_fired) << "op " << op;
    ASSERT_EQ(loop.pending(), model.size()) << "op " << op;
    ASSERT_EQ(loop.empty(), model.empty());
    ASSERT_EQ(loop.now(), model_now);
    ASSERT_EQ(loop.NextEventTime(), model.empty() ? -1 : model.begin()->first);
  }
  EXPECT_GT(fired.size(), 1000u);
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, VarintBoundaries) {
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 16383, 16384,
                                          UINT64_MAX}) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.data());
    uint64_t back;
    ASSERT_TRUE(r.GetVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(Wire, TruncationYieldsCorruptionNotUB) {
  WireWriter w;
  w.PutU64(42);
  w.PutBytes("payload");
  std::string full = std::move(w).data();
  for (size_t len = 0; len < full.size(); ++len) {
    WireReader r(std::string_view(full).substr(0, len));
    uint64_t x;
    std::string_view s;
    Status st = r.GetU64(&x);
    if (st.ok()) st = r.GetBytes(&s);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " must not parse";
  }
}

TEST(Wire, MixedRoundTripProperty) {
  Rng rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    WireWriter w;
    std::vector<uint64_t> u64s;
    std::vector<std::string> blobs;
    int n = 1 + static_cast<int>(rng.Uniform(10));
    for (int i = 0; i < n; ++i) {
      uint64_t v = rng.Next();
      u64s.push_back(v);
      w.PutU64(v);
      std::string b;
      for (uint64_t j = rng.Uniform(32); j > 0; --j)
        b.push_back(static_cast<char>(rng.Uniform(256)));
      blobs.push_back(b);
      w.PutBytes(b);
    }
    WireReader r(w.data());
    for (int i = 0; i < n; ++i) {
      uint64_t v;
      std::string b;
      ASSERT_TRUE(r.GetU64(&v).ok());
      ASSERT_TRUE(r.GetBytes(&b).ok());
      EXPECT_EQ(v, u64s[i]);
      EXPECT_EQ(b, blobs[i]);
    }
    EXPECT_TRUE(r.AtEnd());
  }
}

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

TEST(Bloom, NoFalseNegativesAndBoundedFalsePositives) {
  BloomFilter f(1000, 0.01);
  for (int i = 0; i < 1000; ++i) f.Add("member" + std::to_string(i));
  for (int i = 0; i < 1000; ++i)
    EXPECT_TRUE(f.MayContain("member" + std::to_string(i)));
  int fp = 0;
  for (int i = 0; i < 10000; ++i) fp += f.MayContain("other" + std::to_string(i));
  EXPECT_LT(fp, 300) << "~1% target, allow 3x slack";
}

TEST(Bloom, SerializeRoundTripAndMerge) {
  BloomFilter a(4096, 3), b(4096, 3);
  a.Add("only-a");
  b.Add("only-b");
  Result<BloomFilter> back = BloomFilter::Deserialize(a.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->MayContain("only-a"));
  ASSERT_TRUE(back->Merge(b).ok());
  EXPECT_TRUE(back->MayContain("only-a"));
  EXPECT_TRUE(back->MayContain("only-b"));
  BloomFilter other_geometry(8192, 3);
  EXPECT_FALSE(back->Merge(other_geometry).ok());
  EXPECT_FALSE(BloomFilter::Deserialize("garbage").ok());
}

// ---------------------------------------------------------------------------
// U64Set: same admit/reject sequence as std::unordered_set<uint64_t>
// ---------------------------------------------------------------------------

void ExpectSameInsertSequence(const std::vector<uint64_t>& values) {
  U64Set set;
  std::unordered_set<uint64_t> model;
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(set.Insert(values[i]), model.insert(values[i]).second)
        << "value " << values[i] << " at step " << i;
  }
  EXPECT_EQ(set.size(), model.size());
}

TEST(U64Set, RandomInsertsMatchUnorderedSet) {
  Rng rng(91);
  std::vector<uint64_t> values = {0, 0, ~uint64_t{0}, 1, ~uint64_t{0}};
  for (int i = 0; i < 200000; ++i) {
    // Half from a small range so repeats are common, half full-width.
    values.push_back(i % 2 == 0 ? rng.Uniform(50000) : rng.Next());
  }
  values.push_back(0);
  ExpectSameInsertSequence(values);
}

TEST(U64Set, CollidingInsertsMatchUnorderedSet) {
  // Values whose products with the table's multiplier share their top 24
  // bits all start probing at the same slot in every table up to 2^24
  // slots, so each insert walks the whole cluster.
  const uint64_t k = 0x9e3779b97f4a7c15ULL;
  uint64_t k_inv = k;  // Newton's iteration for the inverse mod 2^64
  for (int i = 0; i < 6; ++i) k_inv *= 2 - k * k_inv;
  ASSERT_EQ(k * k_inv, 1u);
  Rng rng(92);
  std::vector<uint64_t> distinct;
  for (int i = 0; i < 3000; ++i) {
    uint64_t product =
        (uint64_t{0xabcdef} << 40) | rng.Uniform(uint64_t{1} << 40);
    distinct.push_back(product * k_inv);
  }
  std::vector<uint64_t> values = {~uint64_t{0}};
  for (size_t i = 0; i < distinct.size(); ++i) {
    values.push_back(distinct[i]);
    values.push_back(distinct[i / 2]);  // a repeat of an earlier value
    if (i % 500 == 0) values.push_back(0);
  }
  ExpectSameInsertSequence(values);
}

// ---------------------------------------------------------------------------
// RNG / Zipf / hashing
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeedAndForkIndependent) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) differs |= a2.Next() != c.Next();
  EXPECT_TRUE(differs);
  Rng parent(9);
  Rng fork = parent.Fork();
  differs = false;
  for (int i = 0; i < 100; ++i) differs |= parent.Next() != fork.Next();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Zipf, HeadDominatesAndPmfSumsToOne) {
  ZipfGenerator zipf(1000, 1.1);
  Rng rng(11);
  std::map<uint64_t, int> counts;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Sample(&rng)]++;
  EXPECT_GT(counts[0], counts[50] * 5) << "rank 0 must dominate rank 50";
  EXPECT_GT(counts[0], kSamples / 20) << "head gets a large share";
  double mass = 0;
  for (uint64_t r = 0; r < 1000; ++r) mass += zipf.Pmf(r);
  EXPECT_NEAR(mass, 1.0, 1e-9);
}

TEST(Hash, StableAndSensitive) {
  // Values are part of the wire protocol: keys must hash identically on
  // every node, so the function must be deterministic across processes.
  EXPECT_EQ(Fnv1a64("chained-naming"), Fnv1a64("chained-naming"));
  EXPECT_NE(Fnv1a64("a"), Fnv1a64("b"));
  EXPECT_NE(HashNamespaceKey("ns", "key"), HashNamespaceKey("nsk", "ey"))
      << "namespace/key boundary must matter";
  EXPECT_NE(Mix64(1), Mix64(2));
}

// ---------------------------------------------------------------------------
// Simulation harness + UdpCC
// ---------------------------------------------------------------------------

struct Capture : UdpHandler {
  std::vector<std::pair<NetAddress, std::string>> got;
  void HandleUdp(const NetAddress& src, std::string_view p) override {
    got.emplace_back(src, std::string(p));
  }
};

TEST(SimHarness, UdpDeliversWithTopologyLatency) {
  SimOptions opts;
  opts.seed = 5;
  SimHarness sim(opts);
  sim.AddNodes(2);
  Capture rx;
  ASSERT_TRUE(sim.vri(1)->UdpListen(9, &rx).ok());
  ASSERT_TRUE(sim.vri(0)->UdpSend(9, sim.AddressOf(1, 9), "ping").ok());
  TimeUs before = sim.loop()->now();
  sim.loop()->RunUntilIdle();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0].second, "ping");
  EXPECT_GT(sim.loop()->now(), before) << "delivery takes nonzero latency";
}

TEST(SimHarness, FailedNodeReceivesNothingAndSendsNothing) {
  SimOptions opts;
  opts.seed = 6;
  SimHarness sim(opts);
  sim.AddNodes(3);
  Capture rx;
  ASSERT_TRUE(sim.vri(2)->UdpListen(9, &rx).ok());
  sim.FailNode(2);
  // The send itself is accepted; what the test asserts is that nothing is
  // DELIVERED to the dead node.
  (void)sim.vri(0)->UdpSend(9, sim.AddressOf(2, 9), "into the void");
  sim.loop()->RunUntilIdle();
  EXPECT_TRUE(rx.got.empty());
  EXPECT_FALSE(sim.IsAlive(2));
  EXPECT_EQ(sim.num_alive(), 2u);
}

TEST(SimHarness, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    SimOptions opts;
    opts.seed = seed;
    SimHarness sim(opts);
    sim.AddNodes(4);
    Capture rx;
    EXPECT_TRUE(sim.vri(3)->UdpListen(9, &rx).ok());
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(
          sim.vri(i % 3)->UdpSend(9, sim.AddressOf(3, 9), std::to_string(i)).ok());
    }
    sim.loop()->RunUntilIdle();
    std::string log;
    for (auto& [src, p] : rx.got) log += std::to_string(src.host) + ":" + p + ";";
    return log + "@" + std::to_string(sim.loop()->now());
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(SimHarness, TcpFramedRoundTrip) {
  SimOptions opts;
  opts.seed = 8;
  SimHarness sim(opts);
  sim.AddNodes(2);

  struct Server : TcpHandler {
    Vri* vri = nullptr;
    std::vector<std::string> got;
    void HandleTcpNew(uint64_t, const NetAddress&) override {}
    void HandleTcpData(uint64_t conn, std::string_view d) override {
      got.emplace_back(d);
      EXPECT_TRUE(vri->TcpWrite(conn, "ack:" + std::string(d)).ok());
    }
    void HandleTcpError(uint64_t) override {}
  } server;
  server.vri = sim.vri(1);

  struct Client : TcpHandler {
    std::vector<std::string> got;
    bool connected = false;
    void HandleTcpNew(uint64_t, const NetAddress&) override { connected = true; }
    void HandleTcpData(uint64_t, std::string_view d) override {
      got.emplace_back(d);
    }
    void HandleTcpError(uint64_t) override {}
  } client;

  ASSERT_TRUE(sim.vri(1)->TcpListen(7000, &server).ok());
  Result<uint64_t> conn = sim.vri(0)->TcpConnect(sim.AddressOf(1, 7000), &client);
  ASSERT_TRUE(conn.ok());
  sim.loop()->RunUntilIdle();
  ASSERT_TRUE(client.connected);
  ASSERT_TRUE(sim.vri(0)->TcpWrite(*conn, "query").ok());
  ASSERT_TRUE(sim.vri(0)->TcpWrite(*conn, "plan").ok());
  sim.loop()->RunUntilIdle();
  ASSERT_EQ(server.got, (std::vector<std::string>{"query", "plan"}));
  ASSERT_EQ(client.got, (std::vector<std::string>{"ack:query", "ack:plan"}));
}

TEST(UdpCc, ReliableDeliveryAndDuplicateSuppression) {
  SimOptions opts;
  opts.seed = 9;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> received;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    received.emplace_back(p);
  });
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    a.Send(sim.AddressOf(1, 5000), "m" + std::to_string(i),
           [&](const Status& s) { delivered += s.ok(); });
  }
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(delivered, 20);
  EXPECT_EQ(received.size(), 20u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);
}

TEST(UdpCc, SenderNotifiedWhenPeerIsDead) {
  SimOptions opts;
  opts.seed = 10;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc a(sim.vri(0), 5000);
  sim.FailNode(1);
  Status failure = Status::Ok();
  bool called = false;
  a.Send(sim.AddressOf(1, 5000), "doomed", [&](const Status& s) {
    failure = s;
    called = true;
  });
  sim.RunFor(60 * kSecond);  // retries, then gives up
  EXPECT_TRUE(called);
  EXPECT_FALSE(failure.ok()) << "reliable-or-notify contract (§3.1.3)";
  EXPECT_GT(a.stats().retransmits, 0u);
}

// A raw UdpHandler that plays the sending side of UdpCC by hand: it emits
// hand-built kData frames (type 0, u64 seq, body) and records the seq of
// every kAck (type 1) that comes back.
struct RawSender : UdpHandler {
  std::vector<uint64_t> acks;
  void HandleUdp(const NetAddress&, std::string_view p) override {
    WireReader r(p);
    uint8_t type = 0;
    uint64_t seq = 0;
    ASSERT_TRUE(r.GetU8(&type).ok());
    ASSERT_TRUE(r.GetU64(&seq).ok());
    ASSERT_EQ(type, 1) << "only acks flow back to the sender";
    acks.push_back(seq);
  }
};

std::string DataFrame(uint64_t seq) {
  WireWriter w;
  w.PutU8(0);
  w.PutU64(seq);
  w.PutRaw("b" + std::to_string(seq));
  return std::move(w).data();
}

TEST(UdpCc, ReceiverDeliversEachSeqOnceAndAcksEveryFrame) {
  SimOptions opts;
  opts.seed = 13;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc rx(sim.vri(1), 5000);
  std::vector<std::string> bodies;
  rx.set_message_handler([&](const NetAddress& src, std::string_view p) {
    EXPECT_EQ(src, sim.AddressOf(0, 5000));
    bodies.emplace_back(p);
  });
  RawSender tx;
  ASSERT_TRUE(sim.vri(0)->UdpListen(5000, &tx).ok());

  // One frame at a time, so arrival order is exactly the order below.
  const std::vector<uint64_t> frames = {
      3, 1, 2,  // out of order: 3 waits above the horizon until 1, 2 arrive
      4,        // in order at the horizon
      1, 4,     // duplicates below the horizon
      6, 6,     // a gap, then a duplicate above the horizon
      5,        // closes the gap; the horizon jumps over 6
      5, 6,     // duplicates below the horizon again
      7};
  for (uint64_t seq : frames) {
    ASSERT_TRUE(
        sim.vri(0)->UdpSend(5000, sim.AddressOf(1, 5000), DataFrame(seq)).ok());
    sim.loop()->RunUntilIdle();
  }

  EXPECT_EQ(bodies, (std::vector<std::string>{"b3", "b1", "b2", "b4", "b6",
                                              "b5", "b7"}));
  EXPECT_EQ(tx.acks, frames) << "every frame is acked, duplicates included";
  EXPECT_EQ(rx.stats().msgs_received, 7u);
  EXPECT_EQ(rx.stats().duplicates_dropped, 5u);
  EXPECT_EQ(rx.stats().bytes_received, 7u * 2);
  EXPECT_EQ(rx.peer_count(), 1u);
}

TEST(UdpCc, BurstBeyondWindowDrainsFifo) {
  SimOptions opts;
  opts.seed = 14;
  SimHarness sim(opts);
  sim.AddNodes(2);
  UdpCc::Options small_window;
  small_window.initial_cwnd = 4;
  UdpCc a(sim.vri(0), 5000, small_window);
  UdpCc b(sim.vri(1), 5000);
  std::vector<std::string> received;
  b.set_message_handler([&](const NetAddress&, std::string_view p) {
    received.emplace_back(p);
  });
  std::vector<int> acked;
  std::vector<std::string> sent;
  for (int i = 0; i < 20; ++i) {
    sent.push_back("m" + std::to_string(i));
    a.Send(sim.AddressOf(1, 5000), sent.back(), [&acked, i](const Status& s) {
      EXPECT_TRUE(s.ok());
      acked.push_back(i);
    });
  }
  EXPECT_EQ(a.stats().msgs_sent, 4u) << "16 wait beyond the window";
  sim.RunFor(5 * kSecond);
  EXPECT_EQ(received, sent) << "the queue beyond cwnd drains in FIFO order";
  ASSERT_EQ(acked.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(acked[i], i);
  EXPECT_EQ(a.stats().msgs_sent, 20u);
  EXPECT_EQ(a.stats().retransmits, 0u);
  EXPECT_EQ(b.stats().duplicates_dropped, 0u);
  EXPECT_EQ(a.peer_count(), 1u);
}

TEST(SimHarness, DeadNodeTimersAndInFlightDatagramsAreDropped) {
  SimOptions opts;
  opts.seed = 15;
  SimHarness sim(opts);
  sim.AddNodes(3);
  std::vector<std::string> fired;
  auto timer = [&](uint32_t node, const std::string& name) {
    (void)sim.vri(node)->ScheduleEvent(
        10 * kMillisecond, [&fired, name] { fired.push_back(name); });
  };
  // Same-instant timers, interleaved across a live and a dying node.
  timer(0, "a1");
  timer(2, "dead1");
  timer(1, "b1");
  timer(0, "a2");
  Capture to_dead;
  Capture to_live;
  ASSERT_TRUE(sim.vri(2)->UdpListen(9, &to_dead).ok());
  ASSERT_TRUE(sim.vri(1)->UdpListen(9, &to_live).ok());
  ASSERT_TRUE(sim.vri(0)->UdpSend(9, sim.AddressOf(2, 9), "in flight").ok());
  ASSERT_TRUE(sim.vri(0)->UdpSend(9, sim.AddressOf(1, 9), "arrives").ok());

  const uint64_t before = sim.loop()->events_executed();
  sim.FailNode(2);
  timer(2, "dead2");  // scheduled after the failure: never runs either
  sim.loop()->RunUntilIdle();

  EXPECT_EQ(fired, (std::vector<std::string>{"a1", "b1", "a2"}))
      << "live nodes keep (when, seq) order; the dead node's timers are muted";
  EXPECT_TRUE(to_dead.got.empty());
  ASSERT_EQ(to_live.got.size(), 1u);
  EXPECT_EQ(to_live.got[0].second, "arrives");
  // 5 timers (2 muted) + 2 deliveries (1 dropped): muted events still count.
  EXPECT_EQ(sim.loop()->events_executed() - before, 7u);
  EXPECT_TRUE(sim.loop()->empty());
}

TEST(SimHarness, ClockSkewBoundsHold) {
  SimOptions opts;
  opts.seed = 12;
  opts.max_clock_skew = 50 * kMillisecond;
  SimHarness sim(opts);
  sim.AddNodes(8);
  sim.loop()->RunUntil(kSecond);
  for (uint32_t i = 0; i < 8; ++i) {
    TimeUs diff = sim.vri(i)->Now() - sim.loop()->now();
    EXPECT_LE(diff, 50 * kMillisecond) << "node " << i;
    EXPECT_GE(diff, -50 * kMillisecond) << "node " << i;
  }
}

}  // namespace
}  // namespace pier
