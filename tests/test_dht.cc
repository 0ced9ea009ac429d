// DHT batching and wire-path tests: PutBatch grouping/ordering/fallback
// semantics, the byte-identical-when-unbatched guard, router send
// coalescing, and the soft-state store checked against a reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "overlay/dht.h"
#include "overlay/object_manager.h"
#include "overlay/sim_overlay.h"
#include "util/random.h"
#include "util/wire.h"

namespace pier {
namespace {

SimOverlay::Options SeededOptions(uint64_t seed = 42,
                                  TimeUs coalesce_window = 0) {
  SimOverlay::Options opts;
  opts.sim.seed = seed;
  opts.dht.router.coalesce_window_us = coalesce_window;
  opts.seed_routing = true;
  opts.settle_time = 1 * kSecond;
  return opts;
}

DhtPutItem Item(const std::string& ns, const std::string& key,
                const std::string& suffix, const std::string& value) {
  DhtPutItem item;
  item.ns = ns;
  item.key = key;
  item.suffix = suffix;
  item.value = value;
  item.lifetime = 60 * kSecond;
  return item;
}

/// The owner index of (ns, key) under the current routing state.
int OwnerOf(SimOverlay* net, const std::string& ns, const std::string& key) {
  Id target = RoutingId(ns, key);
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->dht(i)->router()->protocol()->IsOwner(target))
      return static_cast<int>(i);
  }
  return -1;
}

TEST(DhtBatch, SplitAcrossTwoOwnersDeliversToBoth) {
  SimOverlay net(16, SeededOptions());
  // Two keys with distinct owners plus a same-key pair: the batch must fan
  // out to BOTH destinations, and the same-owner pair must ride one frame.
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&net, "bt", key_a);
  ASSERT_GE(owner_a, 0);
  for (int i = 1; i < 64; ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&net, "bt", candidate);
    if (owner >= 0 && owner != owner_a) {
      key_b = candidate;
      break;
    }
  }
  ASSERT_FALSE(key_b.empty()) << "no second owner found in 64 candidates";

  Status done_status = Status::Internal("not called");
  net.dht(3)->PutBatch(
      {Item("bt", key_a, "s1", "v1"), Item("bt", key_a, "s2", "v2"),
       Item("bt", key_b, "s3", "v3")},
      [&](const Status& s) { done_status = s; });
  net.RunFor(5 * kSecond);
  EXPECT_TRUE(done_status.ok()) << done_status.ToString();

  // Both owners hold their share.
  std::vector<DhtItem> got_a, got_b;
  net.dht(9)->Get("bt", key_a, [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got_a = std::move(items);
  });
  net.dht(9)->Get("bt", key_b, [&](const Status& s, std::vector<DhtItem> items) {
    ASSERT_TRUE(s.ok());
    got_b = std::move(items);
  });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(got_a.size(), 2u);
  EXPECT_EQ(got_b.size(), 1u);

  // The same-key pair shared a multi-object frame; the lone item fell back
  // to a plain put.
  Dht::Stats stats = net.dht(3)->stats();
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.batched_puts, 2u);
  EXPECT_EQ(stats.batch_msgs, 1u);
}

TEST(DhtBatch, OrderPreservedWithinKey) {
  SimOverlay net(12, SeededOptions(7));
  int owner = OwnerOf(&net, "ord", "k");
  ASSERT_GE(owner, 0);
  std::vector<std::string> arrivals;
  net.dht(owner)->OnNewData("ord",
                            [&](ObjectNameView name, std::string_view) {
                              arrivals.emplace_back(name.suffix);
                            });
  std::vector<DhtPutItem> items;
  for (int i = 0; i < 8; ++i)
    items.push_back(Item("ord", "k", "s" + std::to_string(i), "v"));
  net.dht(5)->PutBatch(std::move(items));
  net.RunFor(5 * kSecond);
  ASSERT_EQ(arrivals.size(), 8u);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(arrivals[i], "s" + std::to_string(i)) << "batch order broken";
}

TEST(DhtBatch, EmptyBatchCompletesImmediately) {
  SimOverlay net(4, SeededOptions(9));
  bool called = false;
  net.dht(0)->PutBatch({}, [&](const Status& s) {
    EXPECT_TRUE(s.ok());
    called = true;
  });
  EXPECT_TRUE(called);
  EXPECT_EQ(net.dht(0)->stats().puts, 0u);
}

TEST(DhtBatch, SingletonGroupsAreByteIdenticalToPlainPuts) {
  // The acceptance guard: with coalescing off and every destination getting
  // exactly one object, a PutBatch produces the very same wire traffic as
  // the loose Put calls it replaces — byte for byte, message for message.
  SimOverlay::Options opts = SeededOptions(21);

  SimOverlay plain(12, opts);
  SimOverlay batched(12, opts);  // twin sim: same seed, same topology
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&plain, "tw", key_a);
  ASSERT_GE(owner_a, 0);
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&plain, "tw", candidate);
    if (owner >= 0 && owner != owner_a) key_b = candidate;
  }
  ASSERT_FALSE(key_b.empty());

  plain.harness()->ResetStats();
  batched.harness()->ResetStats();
  plain.dht(2)->Put("tw", key_a, "s", "value-a", 60 * kSecond);
  plain.dht(2)->Put("tw", key_b, "s", "value-b", 60 * kSecond);
  batched.dht(2)->PutBatch(
      {Item("tw", key_a, "s", "value-a"), Item("tw", key_b, "s", "value-b")});
  plain.RunFor(10 * kSecond);
  batched.RunFor(10 * kSecond);

  EXPECT_EQ(plain.harness()->total_msgs(), batched.harness()->total_msgs());
  EXPECT_EQ(plain.harness()->total_bytes(), batched.harness()->total_bytes());
  EXPECT_EQ(batched.dht(2)->stats().batched_puts, 0u)
      << "singleton groups must not use the batch frame";
}

TEST(DhtBatch, PartialFailureReportsPerGroupStatus) {
  SimOverlay net(16, SeededOptions(77));
  // Two keys with distinct owners; then the second owner dies, so the batch
  // PARTIALLY fails — the report must say exactly which items were dropped,
  // not collapse everything into the first error.
  std::string key_a = "a0", key_b;
  int owner_a = OwnerOf(&net, "pf", key_a);
  ASSERT_GE(owner_a, 0);
  int owner_b = -1;
  for (int i = 1; i < 64 && key_b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    int owner = OwnerOf(&net, "pf", candidate);
    if (owner > 0 && owner != owner_a) {
      key_b = candidate;
      owner_b = owner;
    }
  }
  ASSERT_FALSE(key_b.empty()) << "no second owner found in 64 candidates";
  uint32_t sender = 0;
  while (static_cast<int>(sender) == owner_a ||
         static_cast<int>(sender) == owner_b)
    sender++;

  net.harness()->FailNode(static_cast<uint32_t>(owner_b));

  bool reported = false;
  Status first = Status::Ok();
  std::vector<Dht::PutGroupStatus> groups;
  net.dht(sender)->PutBatch(
      {Item("pf", key_a, "s1", "v1"), Item("pf", key_b, "s2", "v2"),
       Item("pf", key_a, "s3", "v3")},
      [&](const Status& s, std::vector<Dht::PutGroupStatus> g) {
        reported = true;
        first = s;
        groups = std::move(g);
      });
  // Give the transport time to exhaust its retries against the dead owner.
  net.RunFor(60 * kSecond);

  ASSERT_TRUE(reported);
  EXPECT_FALSE(first.ok()) << "the legacy first-error contract still holds";
  ASSERT_EQ(groups.size(), 2u);
  size_t ok_items = 0, failed_items = 0;
  for (const Dht::PutGroupStatus& g : groups) {
    for (size_t idx : g.indices) {
      if (g.status.ok()) {
        ok_items++;
        EXPECT_TRUE(idx == 0 || idx == 2) << "ok group must be the a-items";
      } else {
        failed_items++;
        EXPECT_EQ(idx, 1u) << "dropped group must be the b-item";
      }
    }
  }
  EXPECT_EQ(ok_items, 2u);
  EXPECT_EQ(failed_items, 1u);

  // The live owner's items made it regardless of the dead group.
  std::vector<DhtItem> got_a;
  net.dht(sender)->Get("pf", key_a,
                       [&](const Status& s, std::vector<DhtItem> items) {
                         ASSERT_TRUE(s.ok());
                         got_a = std::move(items);
                       });
  net.RunFor(5 * kSecond);
  EXPECT_EQ(got_a.size(), 2u);
}

TEST(DhtCoalesce, MergesSendsAndUnframesTransparently) {
  SimOverlay net(12, SeededOptions(33, /*coalesce_window=*/1000));
  // A burst of puts within one coalescing window: same-destination wire
  // messages merge into bundles, yet every object lands normally.
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    net.dht(4)->Put("cl", "k" + std::to_string(i % 4), "s" + std::to_string(i),
                    "v", 60 * kSecond, [&](const Status& s) {
                      EXPECT_TRUE(s.ok()) << s.ToString();
                      done++;
                    });
  }
  net.RunFor(10 * kSecond);
  EXPECT_EQ(done, 20);

  uint64_t stored = 0, coalesced = 0, bundles = 0;
  for (uint32_t i = 0; i < net.size(); ++i) {
    stored += net.dht(i)->stats().store_requests;
    coalesced += net.dht(i)->router()->stats().coalesced_msgs;
    bundles += net.dht(i)->router()->stats().bundles_sent;
  }
  EXPECT_EQ(stored, 20u);
  EXPECT_GT(coalesced, 0u) << "the burst never shared a bundle";
  EXPECT_GT(bundles, 0u);
  EXPECT_EQ(net.dht(4)->stats().coalesced_msgs,
            net.dht(4)->router()->stats().coalesced_msgs)
      << "Dht::Stats mirrors the router counter";
}

TEST(DhtCoalesce, DisabledByDefault) {
  SimOverlay net(8, SeededOptions(11));
  for (int i = 0; i < 10; ++i)
    net.dht(0)->Put("nc", "k" + std::to_string(i), "s", "v", 60 * kSecond);
  net.RunFor(5 * kSecond);
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.dht(i)->router()->stats().coalesced_msgs, 0u);
    EXPECT_EQ(net.dht(i)->router()->stats().bundles_sent, 0u);
  }
}

// ---------------------------------------------------------------------------
// Owner-range cache: staleness and the lookup-response decoder
// ---------------------------------------------------------------------------

/// Up to `n` keys of namespace `ns` whose owner is node `owner`.
std::vector<std::string> KeysOwnedBy(SimOverlay* net, const std::string& ns,
                                     int owner, size_t n) {
  std::vector<std::string> keys;
  for (int i = 0; i < 4096 && keys.size() < n; ++i) {
    std::string candidate = "k" + std::to_string(i);
    if (OwnerOf(net, ns, candidate) == owner) keys.push_back(candidate);
  }
  return keys;
}

/// Sum of every node's owner-redirect counter.
uint64_t TotalRedirects(SimOverlay* net) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < net->size(); ++i) {
    if (net->harness()->IsAlive(i))
      total += net->dht(i)->stats().owner_redirects;
  }
  return total;
}

TEST(OwnerCache, DeadCachedOwnerFallsBackToFreshLookup) {
  SimOverlay net(16, SeededOptions(61));
  const uint32_t origin = 2, writer = 5;
  int dead = OwnerOf(&net, "oc", "k0");
  ASSERT_GE(dead, 0);
  ASSERT_NE(dead, static_cast<int>(origin));
  ASSERT_NE(dead, static_cast<int>(writer));
  std::vector<std::string> keys = KeysOwnedBy(&net, "oc", dead, 2);
  ASSERT_EQ(keys.size(), 2u);
  const std::string& put_key = keys[0];
  const std::string& get_key = keys[1];

  // Warm the origin: the first put resolves the owner through a routed
  // lookup, the second rides the cached range.
  net.dht(origin)->Put("oc", put_key, "warm", "w", 60 * kSecond);
  net.RunFor(1 * kSecond);
  net.dht(origin)->Put("oc", get_key, "warm", "w", 60 * kSecond);
  net.RunFor(1 * kSecond);
  OverlayRouter* router = net.dht(origin)->router();
  ASSERT_EQ(router->stats().lookup_cache_hits, 1u);

  // The cached owner dies; routing is repaired at once, so a fresh lookup
  // finds the new owner, which the cache cannot know.
  net.harness()->FailNode(static_cast<uint32_t>(dead));
  net.SeedAll();
  net.dht(writer)->Put("oc", get_key, "fresh", "f", 60 * kSecond);
  net.RunFor(1 * kSecond);

  TimeUs start = net.loop()->now();
  TimeUs put_done_at = -1, get_done_at = -1, late_put_done_at = -1;
  Status put_status = Status::Internal("not called");
  Status get_status = Status::Internal("not called");
  Status late_put_status = Status::Internal("not called");
  std::vector<DhtItem> got;
  net.dht(origin)->Put("oc", put_key, "after", "a", 60 * kSecond,
                       [&](const Status& s) {
                         put_status = s;
                         put_done_at = net.loop()->now();
                       });
  net.dht(origin)->Get("oc", get_key,
                       [&](const Status& s, std::vector<DhtItem> items) {
                         get_status = s;
                         got = std::move(items);
                         get_done_at = net.loop()->now();
                       });
  EXPECT_EQ(router->stats().lookup_cache_hits, 3u) << "both went to the cache";

  // The get gives the silent cached owner a quarter of the lookup budget,
  // then redoes itself through one fresh lookup: well inside op_timeout.
  const TimeUs op_timeout = Dht::Options{}.op_timeout;
  net.RunFor(op_timeout / 4);
  ASSERT_TRUE(get_status.ok()) << get_status.ToString();
  EXPECT_LT(get_done_at - start, op_timeout / 4);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].suffix, "fresh");

  // The missed deadline evicted the dead owner: a put issued now goes to
  // the new owner at once.
  TimeUs late_start = net.loop()->now();
  net.dht(origin)->Put("oc", put_key, "late", "l", 60 * kSecond,
                       [&](const Status& s) {
                         late_put_status = s;
                         late_put_done_at = net.loop()->now();
                       });
  net.RunFor(1 * kSecond);
  ASSERT_TRUE(late_put_status.ok()) << late_put_status.ToString();
  EXPECT_LT(late_put_done_at - late_start, 1 * kSecond);

  // The put already sent to the dead owner is resent only once the
  // transport gives up on it (a put that might have been delivered is never
  // sent twice), then succeeds through one fresh lookup.
  net.RunFor(op_timeout);
  ASSERT_TRUE(put_status.ok()) << put_status.ToString();
  EXPECT_GT(put_done_at, late_put_done_at);

  // Both of the origin's puts reached the new owner.
  std::vector<DhtItem> after;
  net.dht(writer)->Get("oc", put_key,
                       [&](const Status& s, std::vector<DhtItem> items) {
                         ASSERT_TRUE(s.ok());
                         after = std::move(items);
                       });
  net.RunFor(2 * kSecond);
  ASSERT_EQ(after.size(), 2u);
  std::vector<std::string> suffixes{after[0].suffix, after[1].suffix};
  std::sort(suffixes.begin(), suffixes.end());
  EXPECT_EQ(suffixes, (std::vector<std::string>{"after", "late"}));
}

TEST(OwnerCache, JoinInsideCachedRangeRedirectsOnce) {
  SimOverlay net(12, SeededOptions(62));
  const uint32_t origin = 3;
  // Fill the origin's cache with every node's range.
  for (int i = 0; i < 64; ++i) {
    net.dht(origin)->Get("jn", "w" + std::to_string(i),
                         [](const Status&, std::vector<DhtItem>) {});
  }
  net.RunFor(2 * kSecond);
  ASSERT_EQ(net.dht(origin)->router()->cached_owner_ranges(), 11u);

  // A node joins inside one of those ranges; once the ring agrees on it,
  // the range's old owner no longer owns the newcomer's keys.
  uint32_t joined = net.AddNode();
  net.SeedAll();
  net.RunFor(1 * kSecond);
  std::vector<std::string> keys =
      KeysOwnedBy(&net, "jn", static_cast<int>(joined), 2);
  ASSERT_EQ(keys.size(), 2u);
  ASSERT_EQ(TotalRedirects(&net), 0u);

  // The first put goes to the stale owner, which passes it on and corrects
  // the origin's entry.
  uint64_t hits = net.dht(origin)->router()->stats().lookup_cache_hits;
  net.dht(origin)->Put("jn", keys[0], "s", "v1", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(net.dht(origin)->router()->stats().lookup_cache_hits, hits + 1);
  EXPECT_EQ(TotalRedirects(&net), 1u);
  EXPECT_EQ(net.dht(joined)->stats().routed_deliveries, 1u);

  // A cold node finds it at the new owner.
  std::vector<DhtItem> got;
  net.dht(7)->Get("jn", keys[0],
                   [&](const Status& s, std::vector<DhtItem> items) {
                     ASSERT_TRUE(s.ok());
                     got = std::move(items);
                   });
  net.RunFor(2 * kSecond);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "v1");

  // The corrected entry sends the next put of that range straight to the
  // new owner: no further redirect.
  net.dht(origin)->Put("jn", keys[1], "s", "v2", 60 * kSecond);
  net.dht(origin)->Put("jn", keys[0], "s2", "v3", 60 * kSecond);
  net.RunFor(2 * kSecond);
  EXPECT_EQ(TotalRedirects(&net), 1u);
  EXPECT_EQ(net.dht(joined)->objects()->TotalObjects(), 3u);
}

TEST(OwnerCache, PrefixProtocolNeverCaches) {
  SimOverlay::Options opts = SeededOptions(63);
  opts.dht.router.protocol = ProtocolKind::kPrefix;
  SimOverlay net(12, opts);
  for (int i = 0; i < 24; ++i) {
    net.dht(1)->Put("px", "k" + std::to_string(i % 8), "s" + std::to_string(i),
                    "v" + std::to_string(i), 60 * kSecond);
  }
  net.RunFor(3 * kSecond);
  std::map<std::string, size_t> counts;
  for (int i = 0; i < 8; ++i) {
    std::string key = "k" + std::to_string(i);
    net.dht(1)->Get("px", key,
                    [&, key](const Status& s, std::vector<DhtItem> items) {
                      ASSERT_TRUE(s.ok());
                      counts[key] = items.size();
                    });
  }
  net.RunFor(3 * kSecond);
  ASSERT_EQ(counts.size(), 8u);
  for (const auto& [key, n] : counts) EXPECT_EQ(n, 3u) << key;
  for (uint32_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.dht(i)->router()->stats().lookup_cache_hits, 0u);
    EXPECT_EQ(net.dht(i)->router()->cached_owner_ranges(), 0u);
    EXPECT_EQ(net.dht(i)->stats().owner_redirects, 0u);
  }
}

TEST(OwnerCache, LookupResponseDecoderToleratesMissingAndTruncatedRange) {
  SimOverlay net(8, SeededOptions(64));
  const uint32_t requester = 0;
  Id target = RoutingId("dec", "k");
  int owner = OwnerOf(&net, "dec", "k");
  ASSERT_GE(owner, 0);
  ASSERT_NE(owner, static_cast<int>(requester));
  uint32_t injector = 1;
  while (static_cast<int>(injector) == owner) injector++;
  // The real owner is dead and nobody knows yet, so the routed lookup
  // stalls in transport retries; the injector's forged answers arrive first.
  net.harness()->FailNode(static_cast<uint32_t>(owner));
  OverlayRouter* router = net.dht(requester)->router();
  Dht* fake = net.dht(injector);

  // A lookup response for `lookup_id` naming the injector as owner, with the
  // given bytes after the (empty) successor list.
  auto forge = [&](uint64_t lookup_id, const std::string& tail) {
    WireWriter w;
    w.PutU8(4);  // the router's lookup-response type
    w.PutU64(lookup_id);
    w.PutU64(fake->local_id());
    w.PutU32(fake->local_address().host);
    w.PutU16(fake->local_address().port);
    w.PutU8(0);
    w.PutRaw(tail);
    fake->router()->transport()->Send(router->local_address(),
                                      std::move(w).data());
  };
  WireWriter range;
  range.PutU64(target - 1);
  const std::string full = std::move(range).data();

  // Lookup ids count from 1 per router. No predecessor field, then a
  // truncated one, then (the control) a whole one.
  const std::string tails[] = {"", full.substr(0, 3), full};
  for (uint64_t id = 1; id <= 3; ++id) {
    NetAddress answer;
    bool was_cached = true;
    router->Lookup(target, [&](const Result<NetAddress>& o, Id, bool cached) {
      ASSERT_TRUE(o.ok());
      answer = o.value();
      was_cached = cached;
    });
    forge(id, tails[id - 1]);
    net.RunFor(150 * kMillisecond);
    EXPECT_EQ(answer, fake->local_address()) << "lookup " << id;
    EXPECT_FALSE(was_cached);
    EXPECT_EQ(router->cached_owner_ranges(), id == 3 ? 1u : 0u)
        << "lookup " << id;
  }

  // The control's range now answers at once.
  bool cached_hit = false;
  router->Lookup(target,
                 [&](const Result<NetAddress>& o, Id owner_id, bool cached) {
                   cached_hit = cached && o.ok() &&
                                o.value() == fake->local_address() &&
                                owner_id == fake->local_id();
                 });
  EXPECT_TRUE(cached_hit);
}

// ---------------------------------------------------------------------------
// ObjectManager against a reference model
// ---------------------------------------------------------------------------

/// A Vri that is only a settable clock. The store's GC timer never fires;
/// the test calls DropExpired itself.
class ClockVri : public Vri {
 public:
  TimeUs now = 0;

  TimeUs Now() const override { return now; }
  uint64_t ScheduleEvent(TimeUs, std::function<void()>) override {
    return ++tokens_;
  }
  void CancelEvent(uint64_t) override {}
  Status UdpListen(uint16_t, UdpHandler*) override { return Unsupported(); }
  void UdpRelease(uint16_t) override {}
  Status UdpSend(uint16_t, const NetAddress&, std::string) override {
    return Unsupported();
  }
  Status TcpListen(uint16_t, TcpHandler*) override { return Unsupported(); }
  void TcpRelease(uint16_t) override {}
  Result<uint64_t> TcpConnect(const NetAddress&, TcpHandler*) override {
    return Unsupported();
  }
  Status TcpWrite(uint64_t, std::string) override { return Unsupported(); }
  void TcpClose(uint64_t) override {}
  NetAddress LocalAddress() const override { return NetAddress{}; }
  Rng* rng() override { return &rng_; }

 private:
  static Status Unsupported() { return Status::NotSupported("clock only"); }
  uint64_t tokens_ = 0;
  Rng rng_{1};
};

/// One object with every observable field, length-prefixed so distinct
/// objects never print alike.
std::string Describe(std::string_view ns, std::string_view key,
                     std::string_view suffix, std::string_view value,
                     TimeUs expires_at, TimeUs stored_at, int replica_index,
                     int desired_replicas, uint64_t owner_id) {
  std::string out;
  for (std::string_view part : {ns, key, suffix, value}) {
    out += std::to_string(part.size()) + ":";
    out.append(part.data(), part.size());
    out += "|";
  }
  out += std::to_string(expires_at) + "|" + std::to_string(stored_at) + "|" +
         std::to_string(replica_index) + "|" +
         std::to_string(desired_replicas) + "|" + std::to_string(owner_id);
  return out;
}

std::string Describe(ObjectNameView name, const ObjectManager::Object& o) {
  return Describe(name.ns, name.key, o.suffix(), o.value(), o.expires_at,
                  o.stored_at, o.replica_index, o.desired_replicas, o.owner_id);
}

/// The store's semantics as plain nested maps of strings: lazy expiry on
/// every read path that meets an object, counts that include expired
/// objects no sweep has dropped yet, hooks for primaries only.
class ModelStore {
 public:
  struct Obj {
    std::string value;
    TimeUs expires_at = 0;
    TimeUs stored_at = 0;
    uint8_t replica_index = 0;
    uint8_t desired_replicas = 1;
    uint64_t owner_id = 0;
  };
  using Suffixes = std::map<std::string, Obj>;
  using Keys = std::map<std::string, Suffixes>;

  ModelStore(const TimeUs* now, TimeUs max_lifetime,
             std::vector<std::string>* hooks)
      : now_(now), max_lifetime_(max_lifetime), hooks_(hooks) {}

  void Put(const ObjectName& n, const std::string& value, TimeUs lifetime) {
    lifetime = std::min(lifetime, max_lifetime_);
    if (lifetime <= 0) return;
    Obj o;
    o.value = value;
    o.expires_at = *now_ + lifetime;
    o.stored_at = *now_;
    store_[n.ns][n.key][n.suffix] = o;
    hooks_->push_back(Show(n, o));
  }

  void PutReplica(const ObjectName& n, const std::string& value,
                  TimeUs remaining, TimeUs age, uint8_t replica_index,
                  uint8_t desired, uint64_t owner_id) {
    remaining = std::min(remaining, max_lifetime_);
    if (remaining <= 0) return;
    Obj o;
    o.value = value;
    o.expires_at = *now_ + remaining;
    o.stored_at = *now_ - std::max<TimeUs>(age, 0);
    o.replica_index = replica_index;
    o.desired_replicas = desired > 0 ? desired : 1;
    o.owner_id = owner_id;
    store_[n.ns][n.key][n.suffix] = o;
    if (replica_index == 0) hooks_->push_back(Show(n, o));
  }

  bool Promote(const ObjectName& n) {
    Obj* o = Raw(n);
    if (o == nullptr) return false;
    if (o->expires_at <= *now_) {
      store_[n.ns][n.key].erase(n.suffix);
      return false;
    }
    if (o->replica_index == 0) return false;
    o->replica_index = 0;
    hooks_->push_back(Show(n, *o));
    return true;
  }

  bool Demote(const ObjectName& n) {
    Obj* o = Raw(n);
    if (o == nullptr || o->replica_index != 0) return false;
    o->replica_index = 1;
    return true;
  }

  bool Renew(const ObjectName& n, TimeUs lifetime) {
    lifetime = std::min(lifetime, max_lifetime_);
    Obj* o = Raw(n);
    if (o == nullptr) return false;
    if (o->expires_at <= *now_) {
      store_[n.ns][n.key].erase(n.suffix);
      return false;
    }
    o->expires_at = *now_ + lifetime;
    return true;
  }

  std::string Find(const ObjectName& n) {
    Obj* o = Raw(n);
    return o != nullptr && o->expires_at > *now_ ? Show(n, *o) : "";
  }

  std::vector<std::string> Get(const std::string& ns, const std::string& key) {
    std::vector<std::string> out;
    auto ns_it = store_.find(ns);
    if (ns_it == store_.end()) return out;
    auto key_it = ns_it->second.find(key);
    if (key_it == ns_it->second.end()) return out;
    Visit(ns, key, &key_it->second, &out);
    return out;
  }

  std::vector<std::string> Scan(const std::string& ns) {
    std::vector<std::string> out;
    auto ns_it = store_.find(ns);
    if (ns_it == store_.end()) return out;
    for (auto& [key, suffixes] : ns_it->second) Visit(ns, key, &suffixes, &out);
    return out;
  }

  std::vector<std::string> ScanAll() {
    std::vector<std::string> out;
    for (auto& [ns, keys] : store_) {
      for (auto& [key, suffixes] : keys) Visit(ns, key, &suffixes, &out);
    }
    return out;
  }

  void Remove(const ObjectName& n) {
    auto ns_it = store_.find(n.ns);
    if (ns_it == store_.end()) return;
    auto key_it = ns_it->second.find(n.key);
    if (key_it != ns_it->second.end()) key_it->second.erase(n.suffix);
  }

  void DropNamespace(const std::string& ns) { store_.erase(ns); }

  void DropExpired() {
    for (auto& [ns, keys] : store_) {
      for (auto& [key, suffixes] : keys) {
        for (auto it = suffixes.begin(); it != suffixes.end();) {
          it = it->second.expires_at <= *now_ ? suffixes.erase(it) : ++it;
        }
      }
    }
  }

  size_t Objects(const std::string& ns) const {
    size_t n = 0;
    auto ns_it = store_.find(ns);
    if (ns_it == store_.end()) return 0;
    for (const auto& [key, suffixes] : ns_it->second) n += suffixes.size();
    return n;
  }

  size_t TotalObjects() const {
    size_t n = 0;
    for (const auto& [ns, keys] : store_) n += Objects(ns);
    return n;
  }

  size_t TotalBytes() const {
    size_t n = 0;
    for (const auto& [ns, keys] : store_) {
      for (const auto& [key, suffixes] : keys) {
        for (const auto& [suffix, o] : suffixes)
          n += sizeof(ObjectManager::Object) + suffix.size() + o.value.size();
      }
    }
    return n;
  }

 private:
  static std::string Show(const ObjectName& n, const Obj& o) {
    return Describe(n.ns, n.key, n.suffix, o.value, o.expires_at, o.stored_at,
                    o.replica_index, o.desired_replicas, o.owner_id);
  }

  Obj* Raw(const ObjectName& n) {
    auto ns_it = store_.find(n.ns);
    if (ns_it == store_.end()) return nullptr;
    auto key_it = ns_it->second.find(n.key);
    if (key_it == ns_it->second.end()) return nullptr;
    auto it = key_it->second.find(n.suffix);
    return it == key_it->second.end() ? nullptr : &it->second;
  }

  void Visit(const std::string& ns, const std::string& key, Suffixes* suffixes,
             std::vector<std::string>* out) {
    for (auto it = suffixes->begin(); it != suffixes->end();) {
      if (it->second.expires_at <= *now_) {
        it = suffixes->erase(it);
      } else {
        out->push_back(Show(ObjectName{ns, key, it->first}, it->second));
        ++it;
      }
    }
  }

  const TimeUs* now_;
  TimeUs max_lifetime_;
  std::vector<std::string>* hooks_;
  std::map<std::string, Keys> store_;
};

TEST(ObjectManagerModel, MatchesReferenceOverRandomOperations) {
  constexpr TimeUs kMaxLifetime = 1000;
  ClockVri vri;
  vri.now = 5000;
  ObjectManager::Options opts;
  opts.max_lifetime = kMaxLifetime;
  ObjectManager store(&vri, opts);
  std::vector<std::string> real_hooks, model_hooks;
  store.set_insert_hook(
      [&](ObjectNameView name, const ObjectManager::Object& o) {
        real_hooks.push_back(Describe(name, o));
      });
  ModelStore model(&vri.now, kMaxLifetime, &model_hooks);

  // A small name space so names collide: embedded NULs, prefixes of each
  // other and bytes above 0x7f pin the byte-wise suffix order.
  const std::vector<std::string> spaces = {"a", "b", std::string("a\0", 2)};
  const std::vector<std::string> keys = {"", "k", "k1", "\xff"};
  const std::vector<std::string> suffixes = {
      "",  "s", std::string("s\0", 2), "s0", "s00", "t", "\x7f", "\x80",
      "\xff", "\xff\xff"};
  Rng rng(20240611);
  auto pick = [&](const std::vector<std::string>& v) {
    return v[rng.Uniform(v.size())];
  };
  auto random_name = [&] {
    return ObjectName{pick(spaces), pick(keys), pick(suffixes)};
  };
  // Lifetimes straddle zero and the cap, so puts get clamped or refused and
  // renews can shorten a lifetime below a namespace's current GC bound.
  auto random_lifetime = [&] {
    return static_cast<TimeUs>(rng.Uniform(kMaxLifetime + 300)) - 100;
  };
  auto random_value = [&] {
    char fill = static_cast<char>('a' + rng.Uniform(26));
    return std::string(rng.Uniform(40), fill);
  };
  auto real_view = [&](std::vector<std::string>* out) {
    return [out](ObjectNameView name, const ObjectManager::Object& o) {
      out->push_back(Describe(name, o));
    };
  };

  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    if (rng.Uniform(4) == 0) vri.now += static_cast<TimeUs>(rng.Uniform(60));
    ObjectName n = random_name();
    uint64_t op = rng.Uniform(100);
    if (op < 30) {
      std::string v = random_value();
      TimeUs life = random_lifetime();
      store.Put(n, v, life);
      model.Put(n, v, life);
    } else if (op < 45) {
      std::string v = random_value();
      TimeUs remaining = random_lifetime();
      TimeUs age = static_cast<TimeUs>(rng.Uniform(200)) - 20;
      uint8_t index = static_cast<uint8_t>(rng.Uniform(3));
      uint8_t desired = static_cast<uint8_t>(rng.Uniform(4));
      uint64_t owner = rng.Uniform(5);
      store.PutReplica(n, v, remaining, age, index, desired, owner);
      model.PutReplica(n, v, remaining, age, index, desired, owner);
    } else if (op < 52) {
      ASSERT_EQ(store.Promote(n), model.Promote(n)) << "op " << i;
    } else if (op < 57) {
      ASSERT_EQ(store.Demote(n), model.Demote(n)) << "op " << i;
    } else if (op < 67) {
      TimeUs life = random_lifetime();
      ASSERT_EQ(store.Renew(n, life).ok(), model.Renew(n, life)) << "op " << i;
    } else if (op < 73) {
      std::vector<std::string> got;
      for (const ObjectManager::Object* o : store.Get(n.ns, n.key))
        got.push_back(Describe(ObjectNameView{n.ns, n.key, o->suffix()}, *o));
      ASSERT_EQ(got, model.Get(n.ns, n.key)) << "op " << i;
    } else if (op < 76) {
      const ObjectManager::Object* o = store.Find(n);
      ASSERT_EQ(o == nullptr ? "" : Describe(n, *o), model.Find(n))
          << "op " << i;
    } else if (op < 81) {
      std::vector<std::string> got;
      store.Scan(n.ns, real_view(&got));
      ASSERT_EQ(got, model.Scan(n.ns)) << "op " << i;
    } else if (op < 84) {
      std::vector<std::string> got;
      store.ScanAll(real_view(&got));
      ASSERT_EQ(got, model.ScanAll()) << "op " << i;
    } else if (op < 90) {
      store.Remove(n);
      model.Remove(n);
    } else if (op < 91) {
      store.DropNamespace(n.ns);
      model.DropNamespace(n.ns);
    } else {
      store.DropExpired();
      model.DropExpired();
    }
    ASSERT_EQ(real_hooks, model_hooks) << "op " << i;
    real_hooks.clear();
    model_hooks.clear();
    ASSERT_EQ(store.TotalObjects(), model.TotalObjects()) << "op " << i;
    ASSERT_EQ(store.TotalBytes(), model.TotalBytes()) << "op " << i;
    for (const std::string& ns : spaces)
      ASSERT_EQ(store.NamespaceObjects(ns), model.Objects(ns)) << "op " << i;
  }
  std::vector<std::string> got;
  store.ScanAll(real_view(&got));
  EXPECT_EQ(got, model.ScanAll());
  EXPECT_GT(got.size(), 0u) << "the sequence should end with live objects";
}

}  // namespace
}  // namespace pier
