// Access methods and DHT-facing operators (§3.3.1, §3.3.6):
//
//   scan      localScan of a DHT namespace on this node, with "catch-up":
//             tuples that arrive after the scan are delivered via newData
//             (§3.3.4, No Global Synchronization).
//   newdata   pure subscription to a namespace (rendezvous consumer).
//   put       the Exchange: repartitions tuples by value by publishing them
//             into the DHT under a partitioning key (§3.3.6).
//   result    the result handler: forwards answer tuples to the proxy.

#include "qp/dataflow.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/u64_set.h"

namespace pier {
namespace {

/// Scan + watch can see the same object twice (stored mid-scan); dedup by
/// the object's *identity* (key + suffix), never by content — distinct
/// publishers legitimately produce byte-identical tuples. True the first
/// time `name` is seen.
bool AdmitOnce(U64Set* seen, ObjectNameView name) {
  return seen->Insert(HashCombine(Fnv1a64(name.key), Fnv1a64(name.suffix)));
}

/// Both access methods over a DHT namespace. Delivery is batch-at-a-time:
/// the catch-up scan and every newData delivery (a multi-object put frame, or
/// a single store as a 1-row batch) are assembled into same-schema batches.
/// Malformed objects are dropped (best effort).
///
///   scan[ns=<table>, watch=0|1]   every local tuple of a namespace, then
///                                 (watch=1) the ones stored later.
///   newdata[ns=<name>, catchup=0|1]  the subscription: the consuming half of
///                                 a DHT rendezvous between opgraphs; with
///                                 catchup=1 it also scans objects that
///                                 arrived before the graph reached this
///                                 node (§3.3.4: operators must be able to
///                                 "catch up" because there is no global
///                                 synchronization).
class NamespaceReaderOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    const bool scan = spec_.kind == OpKind::kScan;
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) {
      return Status::InvalidArgument(scan ? "scan needs ns"
                                          : "newdata needs ns");
    }
    watch_ = !scan || spec_.GetInt("watch", 1) != 0;
    catchup_ = scan || spec_.GetInt("catchup", 1) != 0;
    floor_ = cx->catchup_floor_us;
    return Status::Ok();
  }

  void OnOpen() override {
    // Subscribe before scanning so nothing falls between the two.
    if (watch_) {
      sub_ = cx_->dht->OnNewDataBatch(
          ns_, [this](const std::vector<Dht::NewDataEvent>& events) {
            BatchAssembler batches;
            for (const Dht::NewDataEvent& ev : events) {
              Admit(ev.name, ev.value, &batches);
            }
            PushAll(&batches);
          });
    }
    if (!catchup_) return;
    timer_ = cx_->vri->ScheduleEvent(0, [this]() {
      timer_ = 0;
      // The catch-up scan honors the swap-time high-water mark: objects the
      // predecessor generation already counted are skipped, not re-emitted.
      // The newData subscription above is untouched — it only ever sees
      // stores later than this instant. Rendezvous namespaces outlive plan
      // generations (they are keyed by query id), so for a newdata consumer
      // this skips the partials its predecessor already folded. (For JOIN
      // rendezvous this trades lost old-side matches for no re-emitted ones;
      // the replanner only swaps when the strategy changes, which abandons
      // the old namespace anyway, so the trade only bites hand-driven
      // same-shape swaps.)
      BatchAssembler batches;
      cx_->dht->LocalScan(ns_, [this, &batches](ObjectNameView name,
                                                std::string_view value,
                                                TimeUs stored_at) {
        if (floor_ > 0 && stored_at < floor_) {
          suppressed_++;
          return;
        }
        Admit(name, value, &batches);
      });
      PushAll(&batches);
    });
  }

  void ProcessBatch(int, uint32_t, const TupleBatch&) override {}  // no inputs

  void Close() override {
    if (sub_) cx_->dht->CancelNewData(sub_);
    sub_ = 0;
    if (timer_) cx_->vri->CancelEvent(timer_);
    timer_ = 0;
  }

  int64_t Metric(const std::string& name) const override {
    if (name == "suppressed") return static_cast<int64_t>(suppressed_);
    return -1;
  }

 private:
  void Admit(ObjectNameView name, std::string_view value,
             BatchAssembler* batches) {
    // A malformed object is skipped (best effort).
    if (AdmitOnce(&seen_, name)) (void)batches->AddEncoded(value);
  }

  void PushAll(BatchAssembler* batches) {
    for (const TupleBatch& b : batches->TakeBatches()) PushBatch(0, b);
  }

  std::string ns_;
  bool watch_ = true;
  bool catchup_ = true;
  uint64_t sub_ = 0;
  uint64_t timer_ = 0;
  uint64_t suppressed_ = 0;
  TimeUs floor_ = 0;
  U64Set seen_;
};

/// put[ns=<name>, key=<attrs>, mode=put|send]: the distributed Exchange.
/// Each tuple is published into the DHT partitioned by its key attributes;
/// mode=send routes hop-by-hop (enabling upcall-based in-network processing),
/// mode=put uses the two-phase lookup + direct store (Figure 6).
class PutOp : public Operator {
 public:
  using Operator::Operator;

  Status Init(ExecContext* cx) override {
    PIER_RETURN_IF_ERROR(Operator::Init(cx));
    ns_ = spec_.GetString("ns");
    if (ns_.empty()) return Status::InvalidArgument("put needs ns");
    key_attrs_ = spec_.GetStrings("key");
    use_send_ = spec_.GetString("mode", "put") == "send";
    lifetime_ = spec_.GetInt("lifetime_ms", 0) * kMillisecond;
    if (lifetime_ <= 0) lifetime_ = cx_->query_lifetime;
    return Status::Ok();
  }

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    const size_t n = batch.num_rows();
    // Rows are keyed and encoded straight off the batch cells. In put mode
    // the whole batch becomes one PutBatch, which the DHT groups into one
    // wire frame per destination; send mode routes each object hop by hop.
    std::vector<DhtPutItem> items;
    if (!use_send_) items.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      std::string key = batch.RowPartitionKey(r, key_attrs_);
      std::string suffix = cx_->NextSuffix();
      std::string value = batch.EncodeRow(r);
      const size_t bytes = value.size();
      MeterNet(1, bytes);
      if (cx_->observe_publish) {
        cx_->observe_publish(ns_, key_attrs_, batch, r, bytes);
      }
      if (use_send_) {
        cx_->dht->Send(ns_, key, suffix, std::move(value), lifetime_);
        continue;
      }
      DhtPutItem item;
      item.ns = ns_;
      item.key = std::move(key);
      item.suffix = std::move(suffix);
      item.value = std::move(value);
      item.lifetime = lifetime_;
      item.replicas = cx_->replicas;
      items.push_back(std::move(item));
    }
    if (!use_send_) cx_->dht->PutBatch(std::move(items));
  }

 private:
  std::string ns_;
  std::vector<std::string> key_attrs_;
  bool use_send_ = false;
  TimeUs lifetime_ = 0;
};

/// result: forward every input tuple to the query's proxy node (§3.3.2).
class ResultOp : public Operator {
 public:
  using Operator::Operator;

  void ProcessBatch(int, uint32_t, const TupleBatch& batch) override {
    if (cx_->emit_result) cx_->emit_result(batch);
  }
};

}  // namespace

std::unique_ptr<Operator> MakeAccessOperator(const OpSpec& spec) {
  switch (spec.kind) {
    case OpKind::kScan:
    case OpKind::kNewData: return std::make_unique<NamespaceReaderOp>(spec);
    case OpKind::kPut: return std::make_unique<PutOp>(spec);
    case OpKind::kResult: return std::make_unique<ResultOp>(spec);
    default: return nullptr;
  }
}

}  // namespace pier
