#include "overlay/dht.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/wire.h"

namespace pier {

Dht::Dht(Vri* vri, Options options) : vri_(vri), options_(options) {
  router_ = std::make_unique<OverlayRouter>(vri_, options_.router);
  objects_ = std::make_unique<ObjectManager>(vri_, options_.objects);
  // A factor the protocol cannot place is a deployment error: fail at
  // startup, not silently at placement time.
  PIER_CHECK(options_.replication_factor >= 1);
  PIER_CHECK(options_.replication_factor <=
             router_->protocol()->MaxReplicationFactor());
  ReplicationManager::Options ropts;
  ropts.replication_factor = options_.replication_factor;
  ropts.repair_period = options_.repl_repair_period;
  ropts.repair_backoff_max = options_.repl_repair_backoff_max;
  ropts.max_objects_per_frame = kMaxBatchEntriesPerFrame;
  repl_ = std::make_unique<ReplicationManager>(vri_, router_.get(),
                                               objects_.get(), ropts);
  repl_->set_primary_store_hook([this]() { stats_.store_requests++; });

  objects_->set_insert_hook([this](ObjectNameView name,
                                   const ObjectManager::Object& obj) {
    auto it = subs_by_ns_.find(name.ns);
    if (it == subs_by_ns_.end()) return;
    // Copy: handlers may (un)subscribe while we iterate.
    std::vector<uint64_t> tokens = it->second;
    NewDataEvent event{name, obj.value()};
    // The event aliases the store, and a handler may overwrite or remove the
    // object it was handed; with several subscribers, all of them read one
    // owned copy instead.
    bool owned = false;
    ObjectName owned_name;
    std::string owned_value;
    for (uint64_t token : tokens) {
      auto sit = subs_.find(token);
      if (sit == subs_.end()) continue;
      // During a put-batch store loop, batch subscriptions get ONE grouped
      // delivery afterwards; outside it, a single insert is a one-element
      // batch.
      if (sit->second.batch_handler && collecting_batch_) continue;
      if (tokens.size() > 1 && !owned) {
        owned = true;
        owned_name = name.ToName();
        owned_value = std::string(obj.value());
        event = NewDataEvent{owned_name, owned_value};
      }
      if (sit->second.batch_handler) {
        std::vector<NewDataEvent> one{event};
        sit->second.batch_handler(one);
      } else {
        sit->second.handler(event.name, event.value);
      }
    }
  });

  router_->set_delivery_handler(
      [this](const RouteInfo& info, std::string_view payload) {
        HandleRoutedDelivery(info, payload);
      });
  router_->RegisterDirectType(kMsgPut, [this](const NetAddress& f, std::string_view b) {
    HandlePut(f, b);
  });
  router_->RegisterDirectType(
      kMsgPutBatch,
      [this](const NetAddress& f, std::string_view b) { HandlePutBatch(f, b); });
  router_->RegisterDirectType(kMsgGetReq, [this](const NetAddress& f, std::string_view b) {
    HandleGetReq(f, b);
  });
  router_->RegisterDirectType(kMsgGetResp, [this](const NetAddress& f, std::string_view b) {
    HandleGetResp(f, b);
  });
  router_->RegisterDirectType(kMsgRenewReq, [this](const NetAddress& f, std::string_view b) {
    HandleRenewReq(f, b);
  });
  router_->RegisterDirectType(kMsgRenewResp, [this](const NetAddress& f, std::string_view b) {
    HandleRenewResp(f, b);
  });
  router_->RegisterDirectType(kMsgGetReqEx, [this](const NetAddress& f, std::string_view b) {
    HandleGetReqEx(f, b);
  });
  router_->RegisterDirectType(kMsgGetRespEx, [this](const NetAddress& f, std::string_view b) {
    HandleGetRespEx(f, b);
  });
}

Dht::~Dht() {
  for (auto& [id, op] : pending_) {
    (void)id;
    if (op.timer != 0) vri_->CancelEvent(op.timer);
    if (op.cache_timer != 0) vri_->CancelEvent(op.cache_timer);
  }
}

// ---------------------------------------------------------------------------
// Wire helpers
// ---------------------------------------------------------------------------

void Dht::EncodeObjectTo(WireWriter* w, ObjectNameView name, TimeUs lifetime,
                         std::string_view value) {
  w->PutBytes(name.ns);
  w->PutBytes(name.key);
  w->PutBytes(name.suffix);
  w->PutU64(static_cast<uint64_t>(lifetime));
  w->PutBytes(value);
}

std::string Dht::EncodeObject(ObjectNameView name, TimeUs lifetime,
                              std::string_view value) {
  WireWriter w;
  EncodeObjectTo(&w, name, lifetime, value);
  return std::move(w).data();
}

Status Dht::DecodeObjectFrom(WireReader* r, WireObjectView* out) {
  uint64_t lifetime;
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->ns));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->key));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->suffix));
  PIER_RETURN_IF_ERROR(r->GetU64(&lifetime));
  PIER_RETURN_IF_ERROR(r->GetBytes(&out->value));
  out->lifetime = static_cast<TimeUs>(lifetime);
  return Status::Ok();
}

Result<Dht::WireObject> Dht::DecodeObject(std::string_view wire) {
  WireReader r(wire);
  WireObjectView v;
  PIER_RETURN_IF_ERROR(DecodeObjectFrom(&r, &v));
  WireObject obj;
  obj.name.ns = std::string(v.ns);
  obj.name.key = std::string(v.key);
  obj.name.suffix = std::string(v.suffix);
  obj.lifetime = v.lifetime;
  obj.value = std::string(v.value);
  return obj;
}

bool Dht::FromCache(WireReader* r) {
  uint8_t mark = 0;
  return r->GetU8(&mark).ok() && mark == kFromCache;
}

void Dht::StoreFromView(const WireObjectView& v) {
  stats_.store_requests++;
  objects_->Put(ObjectNameView{v.ns, v.key, v.suffix}, v.value,
                EffectiveLifetime(v.lifetime));
}

// ---------------------------------------------------------------------------
// Inter-node operations
// ---------------------------------------------------------------------------

int Dht::EffectiveReplicas(int replicas) const {
  int k = replicas > 0 ? replicas : options_.replication_factor;
  return std::min(k, max_replication_factor());
}

void Dht::Put(const std::string& ns, const std::string& key, const std::string& suffix,
              std::string&& value, TimeUs lifetime, DoneCallback done,
              int replicas) {
  std::vector<DhtPutItem> items(1);
  items[0] = DhtPutItem{ns, key, suffix, std::move(value), lifetime, replicas};
  PutBatch(std::move(items), std::move(done));
}

void Dht::PutBatch(std::vector<DhtPutItem> items, DoneCallback done) {
  // Single-status form (Put's): collapse the per-group report into the
  // first error.
  BatchCallback wrapped = nullptr;
  if (done) {
    wrapped = [done = std::move(done)](const Status& first,
                                       std::vector<PutGroupStatus>) {
      done(first);
    };
  }
  PutBatch(std::move(items), std::move(wrapped));
}

/// Shared completion state of one PutBatch: the owners arrive
/// asynchronously, one lookup per distinct id; once all resolved, one wire
/// message goes to each distinct destination. Every group's outcome is kept —
/// a partial failure (one dead owner in a multi-owner batch) reports exactly
/// which items were dropped rather than only the first error.
struct Dht::BatchState {
  std::vector<DhtPutItem> items;
  size_t want_succs = 0;  // the batch's replica fan-out width, minus one
  struct OwnerGroup {
    std::vector<size_t> indices;
    // Successor-set replication places every replica at the OWNER's
    // successors, so the sets are per owner, not per key.
    std::vector<NetAddress> succs;
    Id owner_id = 0;
    bool cached = false;  // some item's owner came from the range cache
  };
  std::map<NetAddress, OwnerGroup> by_owner;
  std::vector<PutGroupStatus> groups;
  /// Items whose cached owner could not be reached: resolved again once.
  std::vector<size_t> refresh;
  bool refreshed = false;
  size_t pending_lookups = 0;
  size_t pending_sends = 0;
  BatchCallback done;
};

void Dht::PutBatch(std::vector<DhtPutItem> items, BatchCallback done) {
  if (items.empty()) {
    if (done) done(Status::Ok(), {});
    return;
  }
  stats_.puts += items.size();
  auto st = std::make_shared<BatchState>();
  st->items = std::move(items);
  st->done = std::move(done);
  // The lookups request enough of each owner's successor set to place the
  // widest item; per-item factors resolve against the configured default.
  int max_k = 1;
  for (const DhtPutItem& it : st->items)
    max_k = std::max(max_k, EffectiveReplicas(it.replicas));
  st->want_succs = static_cast<size_t>(max_k - 1);
  std::vector<size_t> all(st->items.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  ResolveBatch(st, std::move(all));
}

void Dht::ResolveBatch(const std::shared_ptr<BatchState>& st,
                       std::vector<size_t> indices) {
  // Group by routing id first — entries sharing a (ns, key) share an owner
  // and need only one Lookup between them; order inside each group follows
  // batch order.
  std::map<Id, std::vector<size_t>> by_id;
  for (size_t i : indices)
    by_id[RoutingId(st->items[i].ns, st->items[i].key)].push_back(i);
  st->pending_lookups = by_id.size();
  for (auto& [id, group] : by_id) {
    router_->LookupEx(
        id, st->want_succs,
        [this, st, group = std::move(group)](
            const Result<NetAddress>& owner, Id owner_id,
            std::vector<NetAddress> succs, bool cached) {
          if (owner.ok()) {
            BatchState::OwnerGroup& g = st->by_owner[owner.value()];
            g.indices.insert(g.indices.end(), group.begin(), group.end());
            g.succs = std::move(succs);
            g.owner_id = owner_id;
            g.cached = g.cached || cached;
          } else {
            // The whole group is undeliverable: no owner could be resolved.
            st->groups.push_back(
                PutGroupStatus{NetAddress{}, group, owner.status()});
          }
          if (--st->pending_lookups == 0) ShipBatch(st);
        });
  }
}

void Dht::ShipBatch(const std::shared_ptr<BatchState>& st) {
  // All lookups resolved: one message per destination (chunked at the frame
  // cap the receiver enforces). All sends are registered before the first
  // one goes out, so a synchronously-failing send cannot complete the batch
  // while later chunks are still unsent.
  std::map<NetAddress, BatchState::OwnerGroup> owners;
  owners.swap(st->by_owner);
  const std::vector<DhtPutItem>& batch = st->items;
  struct Frame {
    size_t group;  // index into st->groups
    bool replica = false;  // replica copies: failure = degraded, not dropped
    bool refreshable = false;  // a cached owner: failure = one fresh lookup
    NetAddress dest;
    std::string wire;
  };
  std::vector<Frame> frames;
  for (auto& [owner, og] : owners) {
    const std::vector<size_t>& indices = og.indices;
    bool refreshable = og.cached && !st->refreshed;
    for (size_t start = 0; start < indices.size();
         start += kMaxBatchEntriesPerFrame) {
      size_t n = std::min(kMaxBatchEntriesPerFrame, indices.size() - start);
      // One status group PER WIRE FRAME (an oversized destination chunks
      // into several), so a lost chunk reports exactly its own items as
      // dropped, never its sibling chunks' delivered ones.
      size_t group = st->groups.size();
      st->groups.push_back(PutGroupStatus{
          owner,
          std::vector<size_t>(indices.begin() + start,
                              indices.begin() + start + n),
          Status::Ok()});
      int chunk_k = 1;
      for (size_t j = start; j < start + n; ++j)
        chunk_k = std::max(chunk_k,
                           EffectiveReplicas(batch[indices[j]].replicas));
      WireWriter w;
      if (chunk_k > 1) {
        // Replicated chunk: the owner takes one primary replicate frame
        // (index 0 — stores and fires newData exactly like a put, plus
        // records each item's desired factor for repair).
        w = ReplicationManager::FrameReplicate(
            0, ReplicationManager::Origin::kWrite, og.owner_id, n);
        for (size_t j = start; j < start + n; ++j) {
          const DhtPutItem& it = batch[indices[j]];
          ReplicationManager::EncodeReplicaObject(
              &w, ObjectNameView{it.ns, it.key, it.suffix},
              EffectiveLifetime(it.lifetime), 0,
              static_cast<uint8_t>(EffectiveReplicas(it.replicas)), it.value);
        }
      } else if (n == 1) {
        // Singleton group: the plain kMsgPut frame.
        const DhtPutItem& it = batch[indices[start]];
        w = OverlayRouter::FrameMessage(kMsgPut);
        EncodeObjectTo(&w, ObjectNameView{it.ns, it.key, it.suffix},
                       it.lifetime, it.value);
      } else {
        w = OverlayRouter::FrameMessage(kMsgPutBatch);
        w.PutVarint(n);
        for (size_t j = start; j < start + n; ++j) {
          const DhtPutItem& it = batch[indices[j]];
          EncodeObjectTo(&w, ObjectNameView{it.ns, it.key, it.suffix},
                         it.lifetime, it.value);
        }
      }
      if (n > 1) {
        stats_.batched_puts += n;
        stats_.batch_msgs++;
      }
      // A cached owner never holds a replicated chunk: the cache answers
      // only lookups that want no successors.
      if (og.cached) w.PutU8(kFromCache);
      frames.push_back(
          Frame{group, false, refreshable, owner, std::move(w).data()});
      // Each of the owner's first chunk_k-1 successors then takes one
      // replica frame per chunk with the items wide enough to reach it —
      // replicating per destination group, not per item.
      for (int rep = 1; rep < chunk_k; ++rep) {
        size_t si = static_cast<size_t>(rep - 1);
        if (si >= og.succs.size()) break;
        const NetAddress& dest = og.succs[si];
        if (dest.IsNull() || dest == owner) continue;
        std::vector<size_t> rep_items;
        for (size_t j = start; j < start + n; ++j) {
          if (EffectiveReplicas(batch[indices[j]].replicas) > rep)
            rep_items.push_back(indices[j]);
        }
        if (rep_items.empty()) continue;
        WireWriter rw = ReplicationManager::FrameReplicate(
            static_cast<uint8_t>(rep), ReplicationManager::Origin::kWrite,
            og.owner_id, rep_items.size());
        for (size_t idx : rep_items) {
          const DhtPutItem& it = batch[idx];
          ReplicationManager::EncodeReplicaObject(
              &rw, ObjectNameView{it.ns, it.key, it.suffix},
              EffectiveLifetime(it.lifetime), 0,
              static_cast<uint8_t>(EffectiveReplicas(it.replicas)), it.value);
        }
        repl_->NoteReplicaCopiesSent(rep_items.size());
        st->groups[group].replica_frames++;
        frames.push_back(Frame{group, true, false, dest, std::move(rw).data()});
      }
    }
  }
  st->pending_sends = frames.size();
  for (Frame& f : frames) {
    size_t group = f.group;
    bool replica = f.replica;
    bool refreshable = f.refreshable;
    NetAddress dest = f.dest;
    router_->SendFramed(
        dest, std::move(f.wire),
        [this, st, group, replica, refreshable, dest](const Status& s) {
          PutGroupStatus& g = st->groups[group];
          if (replica) {
            // A lost replica copy degrades the group; the data itself lives.
            if (!s.ok()) g.replica_failures++;
          } else if (!s.ok() && refreshable) {
            // The cached owner is gone: its items get one fresh lookup, and
            // this group leaves the report.
            CachedOwnerUnreachable(dest);
            st->refresh.insert(st->refresh.end(), g.indices.begin(),
                               g.indices.end());
            g.indices.clear();
          } else if (!s.ok()) {
            g.status = s;
          }
          st->pending_sends--;
          FinishBatchIfIdle(st);
        });
  }
  FinishBatchIfIdle(st);
}

void Dht::FinishBatchIfIdle(const std::shared_ptr<BatchState>& st) {
  if (st->pending_lookups > 0 || st->pending_sends > 0) return;
  if (!st->refresh.empty()) {
    std::vector<size_t> again;
    again.swap(st->refresh);
    st->refreshed = true;
    ResolveBatch(st, std::move(again));
    return;
  }
  if (!st->done) return;
  BatchCallback cb = std::move(st->done);
  st->done = nullptr;
  std::vector<PutGroupStatus> groups = std::move(st->groups);
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const PutGroupStatus& g) {
                                return g.indices.empty();
                              }),
               groups.end());
  Status first_error = Status::Ok();
  for (const PutGroupStatus& g : groups) {
    if (!g.status.ok()) {
      first_error = g.status;
      break;
    }
  }
  cb(first_error, std::move(groups));
}

void Dht::Send(const std::string& ns, const std::string& key,
               const std::string& suffix, std::string value, TimeUs lifetime) {
  stats_.sends++;
  ObjectNameView name{ns, key, suffix};
  router_->Route(ns, name.routing_id(), EncodeObject(name, lifetime, value));
}

void Dht::SendToId(Id target, const std::string& ns, const std::string& key,
                   const std::string& suffix, std::string value,
                   TimeUs lifetime) {
  stats_.sends++;
  ObjectNameView name{ns, key, suffix};
  router_->Route(ns, target, EncodeObject(name, lifetime, value));
}

void Dht::Get(const std::string& ns, const std::string& key, GetCallback cb) {
  Get(ns, key, std::move(cb), 0);
}

void Dht::Get(const std::string& ns, const std::string& key, GetCallback cb,
              int replicas) {
  stats_.gets++;
  Id target = RoutingId(ns, key);
  int k = EffectiveReplicas(replicas);
  uint64_t op_id = next_op_id_++;
  PendingOp op;
  op.get_cb = std::move(cb);
  op.timer = vri_->ScheduleEvent(options_.op_timeout, [this, op_id]() {
    auto it = pending_.find(op_id);
    if (it == pending_.end()) return;
    GetCallback cb2 = std::move(it->second.get_cb);
    vri_->CancelEvent(it->second.cache_timer);
    pending_.erase(it);
    cb2(Status::TimedOut("dht get timed out"), {});
  });
  op.ns = ns;
  op.key = key;
  pending_[op_id] = std::move(op);

  if (k <= 1) {
    // Owner-only get: the classic wire exchange, byte-identical.
    SendToOwner(op_id);
    return;
  }

  // Read-any: resolve the owner AND its replica holders, then walk the
  // candidate list until one of them answers with data (or all come back
  // empty, which is an honest empty result).
  router_->LookupEx(
      target, static_cast<size_t>(k - 1),
      [this, op_id, ns, key, k](const Result<NetAddress>& owner, Id owner_id,
                                std::vector<NetAddress> succs, bool) {
        auto it = pending_.find(op_id);
        if (it == pending_.end()) return;
        if (!owner.ok()) {
          GetCallback cb2 = std::move(it->second.get_cb);
          vri_->CancelEvent(it->second.timer);
          pending_.erase(it);
          cb2(owner.status(), {});
          return;
        }
        PendingOp& op = it->second;
        op.owner_id = owner_id;
        op.replicas = k;
        op.candidates.push_back(owner.value());
        for (const NetAddress& s : succs) {
          if (op.candidates.size() >= static_cast<size_t>(k)) break;
          if (s.IsNull() || s == owner.value()) continue;
          op.candidates.push_back(s);
        }
        SendGetAttempt(op_id);
      });
}

void Dht::SendToOwner(uint64_t op_id) {
  auto pending = pending_.find(op_id);
  if (pending == pending_.end()) return;
  const PendingOp& op = pending->second;
  router_->Lookup(RoutingId(op.ns, op.key), [this, op_id](
                                                const Result<NetAddress>& owner,
                                                Id, bool cached) {
    auto it = pending_.find(op_id);
    if (it == pending_.end()) return;
    PendingOp& op = it->second;
    if (!owner.ok()) {
      GetCallback get_cb = std::move(op.get_cb);
      DoneCallback done_cb = std::move(op.done_cb);
      vri_->CancelEvent(op.timer);
      pending_.erase(it);
      if (get_cb) get_cb(owner.status(), {});
      if (done_cb) done_cb(owner.status());
      return;
    }
    WireWriter w;
    w.PutU64(op_id);
    w.PutU32(router_->local_address().host);
    w.PutU16(router_->local_address().port);
    w.PutBytes(op.ns);
    w.PutBytes(op.key);
    if (op.renew) {
      w.PutBytes(op.suffix);
      w.PutU64(static_cast<uint64_t>(EffectiveLifetime(op.lifetime)));
    }
    if (cached) {
      w.PutU8(kFromCache);
      op.cached_owner = owner.value();
      if (!op.refreshed) {
        // A dead cached owner would hold the op until the transport gives
        // up on it, past op_timeout: presume it gone after the deadline.
        op.cache_timer =
            vri_->ScheduleEvent(CachedAttemptDeadline(), [this, op_id]() {
              auto it = pending_.find(op_id);
              if (it == pending_.end()) return;
              it->second.cache_timer = 0;
              CachedOwnerUnreachable(it->second.cached_owner);
            });
      }
    }
    router_->SendDirect(owner.value(), op.renew ? kMsgRenewReq : kMsgGetReq,
                        std::move(w).data(), nullptr);
  });
}

void Dht::Refresh(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end() || it->second.refreshed ||
      it->second.cached_owner.IsNull())
    return;
  PendingOp& op = it->second;
  vri_->CancelEvent(op.cache_timer);
  op.cache_timer = 0;
  router_->EvictOwner(op.cached_owner);
  op.cached_owner = NetAddress{};
  op.refreshed = true;
  SendToOwner(op_id);
}

bool Dht::RedoNotOwner(uint64_t op_id, const NetAddress& from) {
  const PendingOp& op = pending_.at(op_id);
  // An attempt the op already left behind: wait for the current one.
  if (from != op.cached_owner) return true;
  // The redo reached a non-owner too: take its answer, as a lookup's.
  if (op.refreshed) return false;
  Refresh(op_id);
  return true;
}

void Dht::CachedOwnerUnreachable(const NetAddress& dead) {
  router_->EvictOwner(dead);
  // Every other get and renew sent to the dead owner from the cache would
  // wait out its own deadline: redo them all now, in issue order.
  std::vector<uint64_t> ops;
  for (const auto& [id, op] : pending_) {
    if (op.cached_owner == dead) ops.push_back(id);
  }
  std::sort(ops.begin(), ops.end());
  for (uint64_t id : ops) Refresh(id);
}

void Dht::SendGetAttempt(uint64_t op_id) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  size_t attempt = op.attempt;
  WireWriter w;
  w.PutU64(op_id);
  w.PutU32(router_->local_address().host);
  w.PutU16(router_->local_address().port);
  w.PutBytes(op.ns);
  w.PutBytes(op.key);
  w.PutU8(static_cast<uint8_t>(attempt));
  router_->SendDirect(op.candidates[attempt], kMsgGetReqEx,
                      std::move(w).data(), [this, op_id, attempt](const Status& s) {
                        if (!s.ok()) AdvanceGet(op_id, attempt);
                      });
}

void Dht::AdvanceGet(uint64_t op_id, size_t failed_attempt) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  if (op.attempt != failed_attempt) return;  // already moved on
  if (op.attempt + 1 < op.candidates.size()) {
    op.attempt++;
    stats_.read_failovers++;
    SendGetAttempt(op_id);
    return;
  }
  // Every candidate is unreachable or empty: report an honest empty result,
  // matching the owner-only semantics for a missing key.
  GetCallback cb = std::move(op.get_cb);
  vri_->CancelEvent(op.timer);
  pending_.erase(it);
  if (cb) cb(Status::Ok(), {});
}

void Dht::Renew(const std::string& ns, const std::string& key,
                const std::string& suffix, TimeUs lifetime, DoneCallback done) {
  stats_.renews++;
  uint64_t op_id = next_op_id_++;
  PendingOp op;
  op.done_cb = std::move(done);
  op.timer = vri_->ScheduleEvent(options_.op_timeout, [this, op_id]() {
    auto it = pending_.find(op_id);
    if (it == pending_.end()) return;
    DoneCallback cb2 = std::move(it->second.done_cb);
    vri_->CancelEvent(it->second.cache_timer);
    pending_.erase(it);
    if (cb2) cb2(Status::TimedOut("dht renew timed out"));
  });
  op.renew = true;
  op.ns = ns;
  op.key = key;
  op.suffix = suffix;
  op.lifetime = lifetime;
  pending_[op_id] = std::move(op);
  SendToOwner(op_id);
}

// ---------------------------------------------------------------------------
// Intra-node operations
// ---------------------------------------------------------------------------

void Dht::LocalScan(std::string_view ns, const ScanFn& fn) {
  objects_->Scan(ns, [this, &fn](ObjectNameView name,
                                 const ObjectManager::Object& obj) {
    // Replica merge: of an object's k copies exactly one is visible to
    // scans, so replicated tables never double-count.
    if (!repl_->ShouldEmitInScan(name, obj)) return;
    fn(name, obj.value());
  });
}

void Dht::LocalScan(std::string_view ns, const TimedScanFn& fn) {
  objects_->Scan(ns, [this, &fn](ObjectNameView name,
                                 const ObjectManager::Object& obj) {
    if (!repl_->ShouldEmitInScan(name, obj)) return;
    fn(name, obj.value(), obj.stored_at);
  });
}

uint64_t Dht::OnNewData(const std::string& ns, NewDataHandler handler) {
  uint64_t token = next_sub_id_++;
  subs_[token] = Subscription{ns, std::move(handler), nullptr};
  subs_by_ns_[ns].push_back(token);
  return token;
}

uint64_t Dht::OnNewDataBatch(const std::string& ns,
                             BatchNewDataHandler handler) {
  uint64_t token = next_sub_id_++;
  subs_[token] = Subscription{ns, nullptr, std::move(handler)};
  subs_by_ns_[ns].push_back(token);
  return token;
}

void Dht::CancelNewData(uint64_t token) {
  auto it = subs_.find(token);
  if (it == subs_.end()) return;
  auto& vec = subs_by_ns_[it->second.ns];
  vec.erase(std::remove(vec.begin(), vec.end(), token), vec.end());
  if (vec.empty()) subs_by_ns_.erase(it->second.ns);
  subs_.erase(it);
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

bool Dht::OwnsOrUnsure(Id id) const {
  const RoutingProtocol* p = router_->protocol();
  Id pred;
  return !p->PredecessorId(&pred) || p->IsOwner(id);
}

void Dht::Reroute(const WireObjectView& v) {
  stats_.owner_redirects++;
  // A reserved namespace: no upcall handler sees a re-routed put en route.
  router_->Route("\x01put", RoutingId(v.ns, v.key),
                 EncodeObject(ObjectNameView{v.ns, v.key, v.suffix}, v.lifetime,
                              v.value));
}

void Dht::HandleRoutedDelivery(const RouteInfo& info, std::string_view payload) {
  // A routed Send reached the responsible node: store like a put.
  stats_.routed_deliveries++;
  stats_.routed_delivery_hops += info.hops;
  WireReader r(payload);
  WireObjectView v;
  if (!DecodeObjectFrom(&r, &v).ok()) return;  // malformed: drop
  StoreFromView(v);
}

void Dht::HandlePut(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  StorePutFrame(from, &r, 1);
}

void Dht::HandlePutBatch(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint64_t count;
  if (!r.GetVarint(&count).ok()) return;
  if (count > kMaxBatchEntriesPerFrame) return;  // malformed: drop
  StorePutFrame(from, &r, count);
}

void Dht::StorePutFrame(const NetAddress& from, WireReader* r,
                        uint64_t count) {
  // Entries alias the receive buffer; the only copies are the ones the
  // store itself must own. A malformed tail drops the rest of the batch,
  // never what already decoded (best-effort, like every other handler).
  // Batch-capable newData subscriptions see the frame's objects as ONE
  // grouped delivery of views after the store loop, instead of per-object
  // re-materialized callbacks.
  std::vector<WireObjectView> views;
  views.reserve(count);
  bool complete = true;
  for (uint64_t i = 0; complete && i < count; ++i) {
    WireObjectView v;
    complete = DecodeObjectFrom(r, &v).ok();
    if (complete) views.push_back(v);
  }
  // The cache mark trails the items; only a marked frame is owner-checked.
  // Items this node does not own are passed on after the grouped dispatch,
  // so one that routes back here (no better hop known) is a plain insert.
  bool from_cache = complete && FromCache(r);
  std::vector<WireObjectView> misplaced;
  size_t stored = 0;
  collecting_batch_ = true;
  for (const WireObjectView& v : views) {
    if (from_cache && !OwnsOrUnsure(RoutingId(v.ns, v.key))) {
      misplaced.push_back(v);
      continue;
    }
    StoreFromView(v);
    views[stored++] = v;
  }
  collecting_batch_ = false;
  views.resize(stored);
  DispatchBatchNewData(views);
  if (misplaced.empty()) return;
  for (const WireObjectView& v : misplaced) Reroute(v);
  router_->SendOwnerRange(from);
}

void Dht::DispatchBatchNewData(const std::vector<WireObjectView>& stored) {
  if (stored.empty() || subs_.empty()) return;
  // Group by namespace in first-seen order; within a namespace, store order
  // is preserved (objects sharing a (ns, key) arrive in batch order).
  for (size_t i = 0; i < stored.size(); ++i) {
    std::string_view ns = stored[i].ns;
    bool seen = false;
    for (size_t j = 0; j < i && !seen; ++j) seen = stored[j].ns == ns;
    if (seen) continue;
    auto it = subs_by_ns_.find(ns);
    if (it == subs_by_ns_.end()) continue;
    std::vector<uint64_t> tokens = it->second;  // handlers may unsubscribe
    bool any_batch = false;
    for (uint64_t token : tokens) {
      auto sit = subs_.find(token);
      any_batch = any_batch || (sit != subs_.end() && sit->second.batch_handler);
    }
    if (!any_batch) continue;
    std::vector<NewDataEvent> events;
    for (size_t j = i; j < stored.size(); ++j) {
      const WireObjectView& v = stored[j];
      if (v.ns != ns) continue;
      events.push_back(
          NewDataEvent{ObjectNameView{v.ns, v.key, v.suffix}, v.value});
    }
    for (uint64_t token : tokens) {
      auto sit = subs_.find(token);
      if (sit != subs_.end() && sit->second.batch_handler) {
        sit->second.batch_handler(events);
      }
    }
  }
}

void Dht::HandleGetReq(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint32_t host;
  uint16_t port;
  std::string_view ns, key;
  if (!r.GetU64(&op_id).ok() || !r.GetU32(&host).ok() || !r.GetU16(&port).ok() ||
      !r.GetBytes(&ns).ok() || !r.GetBytes(&key).ok())
    return;
  auto items = objects_->Get(ns, key);
  WireWriter w;
  w.PutU64(op_id);
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const auto* obj : items) {
    w.PutBytes(obj->suffix());
    w.PutBytes(obj->value());
  }
  // Trailing "not owner" flag, sent only to a request from the range cache
  // that reached a non-owner: the requester redoes the get.
  if (FromCache(&r) && !OwnsOrUnsure(RoutingId(ns, key))) {
    stats_.owner_redirects++;
    w.PutU8(1);
  }
  router_->SendDirect(NetAddress{host, port}, kMsgGetResp, std::move(w).data(),
                      nullptr);
}

void Dht::HandleGetResp(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint64_t op_id;
  uint32_t count;
  if (!r.GetU64(&op_id).ok() || !r.GetU32(&count).ok()) return;
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  std::vector<DhtItem> items;
  items.reserve(count);
  bool complete = true;
  for (uint32_t i = 0; complete && i < count; ++i) {
    std::string_view suffix, value;
    complete = r.GetBytes(&suffix).ok() && r.GetBytes(&value).ok();
    if (complete)
      items.push_back(DhtItem{std::string(suffix), std::string(value)});
  }
  uint8_t not_owner = 0;
  if (complete && r.GetU8(&not_owner).ok() && not_owner != 0 &&
      RedoNotOwner(op_id, from))
    return;
  GetCallback cb = std::move(it->second.get_cb);
  vri_->CancelEvent(it->second.timer);
  vri_->CancelEvent(it->second.cache_timer);
  pending_.erase(it);
  if (cb) cb(Status::Ok(), std::move(items));
}

void Dht::HandleGetReqEx(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint32_t host;
  uint16_t port;
  std::string_view ns, key;
  uint8_t attempt;
  if (!r.GetU64(&op_id).ok() || !r.GetU32(&host).ok() || !r.GetU16(&port).ok() ||
      !r.GetBytes(&ns).ok() || !r.GetBytes(&key).ok() || !r.GetU8(&attempt).ok())
    return;
  // Replica copies answer too — that is the read-any contract. Remaining
  // lifetimes ride along so the requester can read-repair the owner without
  // extending anything past its origin-stamped expiry.
  auto items = objects_->Get(ns, key);
  TimeUs now = vri_->Now();
  WireWriter w;
  w.PutU64(op_id);
  w.PutU8(attempt);
  w.PutU32(static_cast<uint32_t>(items.size()));
  for (const auto* obj : items) {
    w.PutBytes(obj->suffix());
    w.PutBytes(obj->value());
    w.PutU64(static_cast<uint64_t>(obj->expires_at - now));
  }
  router_->SendDirect(NetAddress{host, port}, kMsgGetRespEx, std::move(w).data(),
                      nullptr);
}

void Dht::HandleGetRespEx(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint8_t attempt;
  uint32_t count;
  if (!r.GetU64(&op_id).ok() || !r.GetU8(&attempt).ok() || !r.GetU32(&count).ok())
    return;
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  std::vector<DhtItem> items;
  std::vector<TimeUs> remaining;
  items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view suffix, value;
    uint64_t rem;
    if (!r.GetBytes(&suffix).ok() || !r.GetBytes(&value).ok() ||
        !r.GetU64(&rem).ok())
      break;
    items.push_back(DhtItem{std::string(suffix), std::string(value)});
    remaining.push_back(static_cast<TimeUs>(rem));
  }
  if (items.empty()) {
    // This candidate holds nothing: try the next one (a stale response for
    // an attempt we already left is ignored).
    AdvanceGet(op_id, attempt);
    return;
  }
  // Data found — even a late answer from a slower candidate is accepted
  // (read-any). A replica answering while the owner came up empty or dead
  // also repairs the owner copy.
  if (attempt > 0) ReadRepair(op_id, items, remaining);
  GetCallback cb = std::move(it->second.get_cb);
  vri_->CancelEvent(it->second.timer);
  pending_.erase(it);
  if (cb) cb(Status::Ok(), std::move(items));
}

void Dht::ReadRepair(uint64_t op_id, const std::vector<DhtItem>& items,
                     const std::vector<TimeUs>& remaining) {
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  PendingOp& op = it->second;
  stats_.read_repairs++;
  WireWriter w = ReplicationManager::FrameReplicate(
      0, ReplicationManager::Origin::kReadRepair, op.owner_id, items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    ReplicationManager::EncodeReplicaObject(
        &w, ObjectName{op.ns, op.key, items[i].suffix}, remaining[i], 0,
        static_cast<uint8_t>(op.replicas), items[i].value);
  }
  router_->SendFramed(op.candidates[0], std::move(w).data(), nullptr);
}

void Dht::HandleRenewReq(const NetAddress& from, std::string_view body) {
  (void)from;
  WireReader r(body);
  uint64_t op_id;
  uint32_t host;
  uint16_t port;
  std::string_view ns, key, suffix;
  uint64_t lifetime;
  if (!r.GetU64(&op_id).ok() || !r.GetU32(&host).ok() || !r.GetU16(&port).ok() ||
      !r.GetBytes(&ns).ok() || !r.GetBytes(&key).ok() || !r.GetBytes(&suffix).ok() ||
      !r.GetU64(&lifetime).ok())
    return;
  ObjectNameView name{ns, key, suffix};
  WireWriter w;
  w.PutU64(op_id);
  if (FromCache(&r) && !OwnsOrUnsure(name.routing_id())) {
    // Sent here by a stale cache entry: "not found, not owner", which the
    // requester redoes.
    stats_.owner_redirects++;
    w.PutU8(0);
    w.PutU8(1);
  } else {
    Status s = objects_->Renew(name, static_cast<TimeUs>(lifetime));
    if (s.ok()) {
      // A renewed replicated object has drifted from its replica copies'
      // lifetimes: re-propagate it on the next repair tick.
      const ObjectManager::Object* o = objects_->Find(name);
      if (o != nullptr && !o->is_replica() && o->desired_replicas > 1)
        repl_->RefreshReplicas(name);
    }
    w.PutU8(s.ok() ? 1 : 0);
  }
  router_->SendDirect(NetAddress{host, port}, kMsgRenewResp, std::move(w).data(),
                      nullptr);
}

void Dht::HandleRenewResp(const NetAddress& from, std::string_view body) {
  WireReader r(body);
  uint64_t op_id;
  uint8_t ok;
  if (!r.GetU64(&op_id).ok() || !r.GetU8(&ok).ok()) return;
  auto it = pending_.find(op_id);
  if (it == pending_.end()) return;
  uint8_t not_owner = 0;
  if (r.GetU8(&not_owner).ok() && not_owner != 0 && RedoNotOwner(op_id, from))
    return;
  DoneCallback cb = std::move(it->second.done_cb);
  vri_->CancelEvent(it->second.timer);
  vri_->CancelEvent(it->second.cache_timer);
  pending_.erase(it);
  if (cb) cb(ok ? Status::Ok() : Status::NotFound("renew: object not present"));
}

}  // namespace pier
