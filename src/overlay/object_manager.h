// The soft-state object manager (§3.2.3, Figure 5).
//
// PIER has no persistent storage: every stored object carries a lifetime and
// is discarded when it expires. Publishers that want persistence must renew;
// a renew succeeds only if the object is still present at this node (if the
// responsible node changed, the renew fails and the publisher must re-put).
// The system clamps lifetimes to a maximum so objects whose publisher died
// are eventually garbage collected.
//
// Layout. Each object is ONE heap block: the fixed fields of `Object`
// (lifetimes, owner id, replica tags, lengths), then the suffix bytes, then
// the value bytes. The blocks of one (ns, key) sit in an ordered set keyed
// on the suffix bytes, inside a map keyed on `key`, inside a map keyed on
// `ns`; the namespace and key strings are stored once, as those map keys.
// The set compares suffixes as byte strings, exactly like a
// std::map<std::string, ...>, so Get, Scan and ScanAll visit objects in
// (ns, key, suffix) byte order.
//
// Validity. The store hands out `ObjectNameView`s and `const Object*`s that
// point into itself: the view's ns and key alias the map keys, its suffix
// and the object's value alias the block. Both stay valid until that object
// is overwritten (Put/PutReplica of the same name allocate a new block),
// removed, found expired, or its namespace is dropped; an expired object is
// erased by any Get, Scan, ScanAll, Renew, Promote or GC sweep that meets
// it. A caller that mutates the store while holding one (including from an
// insert hook or a scan callback) must first copy what it still needs, for
// example with ObjectNameView::ToName(). Expiry counts as a mutation: in the
// simulator the clock stands still within a handler, but on the physical
// runtime a later Get or Scan may find an object expired that an earlier
// one returned live, so pointers held across lookups come from Find, which
// never erases.
//
// GC bound. Each namespace keeps a lower bound on its objects' expires_at:
// every write of an expires_at (Put, PutReplica, Renew) lowers it, and a GC
// sweep of the namespace resets it to the exact minimum. The periodic GC
// tick skips every namespace whose bound is still in the future, so a tick
// costs O(namespaces) plus the namespaces that can actually hold expired
// objects, and it drops exactly the objects a full walk would. Per-namespace
// object and byte counters make TotalObjects/NamespaceObjects O(1).

#ifndef PIER_OVERLAY_OBJECT_MANAGER_H_
#define PIER_OVERLAY_OBJECT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/object_id.h"
#include "runtime/vri.h"
#include "util/status.h"

namespace pier {

class ObjectManager {
 public:
  struct Options {
    TimeUs max_lifetime = 30LL * 60 * kSecond;  // system-enforced cap
    TimeUs gc_period = 2 * kSecond;
  };

  /// One stored object: the head of its heap block. The suffix and value
  /// bytes follow the fixed fields in the same allocation.
  class Object {
   public:
    TimeUs expires_at = 0;
    /// When this node stored the object (local clock). Lets catch-up scans
    /// skip history older than a swapped-in plan's high-water mark. Replica
    /// copies back-date this by the origin copy's age so the mark stays
    /// meaningful across handoffs.
    TimeUs stored_at = 0;
    /// Routing id of the node that was responsible when the copy was placed.
    uint64_t owner_id = 0;
    /// Replica placement tags (k-way successor-set replication). Index 0 is
    /// the primary copy at the responsible node; 1..k-1 are the copies at its
    /// successors. Only the primary fires the insert hook, and scans suppress
    /// replica copies unless ownership has moved here.
    uint8_t replica_index = 0;
    /// How many live copies the writer asked for (1 = unreplicated).
    uint8_t desired_replicas = 1;

    bool is_replica() const { return replica_index != 0; }
    std::string_view suffix() const { return {bytes(), suffix_len_}; }
    std::string_view value() const {
      return {bytes() + suffix_len_, value_len_};
    }

   private:
    friend class ObjectManager;
    uint32_t suffix_len_ = 0;
    uint32_t value_len_ = 0;
    const char* bytes() const {
      return reinterpret_cast<const char*>(this + 1);
    }
    size_t block_size() const {
      return sizeof(Object) + suffix_len_ + value_len_;
    }
  };

  ObjectManager(Vri* vri, Options options);
  ObjectManager(Vri* vri) : ObjectManager(vri, Options{}) {}  // NOLINT
  ~ObjectManager();

  /// Store (or overwrite) an object. Lifetime is clamped to max_lifetime.
  /// Fires the insert hook. `name` and `value` are copied into the new block
  /// before any old block is released, so they may alias the object being
  /// overwritten.
  void Put(ObjectNameView name, std::string_view value, TimeUs lifetime);

  /// Store a replicated copy with an ORIGIN-STAMPED lifetime: the copy keeps
  /// the remaining lifetime of the origin, not a fresh local one, so copies
  /// placed at different times all expire together with the owner copy.
  /// `remaining` is the origin's time left at send time and `age` how long
  /// the origin had already lived (back-dates stored_at so catch-up marks
  /// treat the copy like the original). Fires the insert hook only for the
  /// primary (replica_index 0).
  void PutReplica(ObjectNameView name, std::string_view value, TimeUs remaining,
                  TimeUs age, uint8_t replica_index, uint8_t desired_replicas,
                  uint64_t owner_id);

  /// Retag a replica copy as the primary (ownership moved here after the
  /// owner left) and fire the insert hook, so subscribers see the object as
  /// newly arrived data. No-op (false) if absent, expired, or already
  /// primary.
  bool Promote(ObjectNameView name);

  /// Retag a primary as a replica copy (ownership moved away): the copy
  /// stays readable but stops counting as this node's data in scans.
  bool Demote(ObjectNameView name);

  /// Extend the lifetime of an existing object. NotFound if absent/expired —
  /// this is the signal that tells a publisher its object moved or died.
  Status Renew(ObjectNameView name, TimeUs lifetime);

  /// All live objects with the given namespace and key (any suffix), in
  /// suffix order. Erases the expired objects of that key it meets.
  std::vector<const Object*> Get(std::string_view ns, std::string_view key);

  /// The live object named `name`, or nullptr if absent or expired. Erases
  /// nothing.
  const Object* Find(ObjectNameView name) const;

  /// Visit all live objects in a namespace (localScan). The view and object
  /// are valid for the call (see Validity above).
  using VisitFn = std::function<void(ObjectNameView, const Object&)>;
  void Scan(std::string_view ns, const VisitFn& fn);

  /// Visit every live object in every namespace (replica repair sweeps).
  void ScanAll(const VisitFn& fn);

  /// Remove one object (used by operators that consume state). A `name`
  /// that aliases the removed object is dead once this returns.
  void Remove(ObjectNameView name);

  /// Remove every object in a namespace (query teardown).
  void DropNamespace(std::string_view ns);

  /// Called whenever a new primary object is stored (the wrapper turns this
  /// into per-namespace newData callbacks). The view aliases the store.
  using InsertHook = std::function<void(ObjectNameView, const Object&)>;
  void set_insert_hook(InsertHook hook) { insert_hook_ = std::move(hook); }

  /// Stored objects, counting expired ones not yet dropped.
  size_t TotalObjects() const { return total_objects_; }
  size_t NamespaceObjects(std::string_view ns) const;
  /// Bytes held in object blocks (fixed fields, suffix and value).
  size_t TotalBytes() const { return total_bytes_; }

  /// Drop everything past its lifetime (also runs periodically).
  void DropExpired();

 private:
  struct BlockDeleter {
    void operator()(Object* o) const { ::operator delete(o); }
  };
  using Block = std::unique_ptr<Object, BlockDeleter>;
  /// A set element. Overwriting a name swaps the block under the same
  /// suffix, which leaves the set's order intact, hence `mutable`.
  struct Slot {
    mutable Block block;
  };
  struct SuffixLess {
    using is_transparent = void;
    bool operator()(const Slot& a, const Slot& b) const {
      return a.block->suffix() < b.block->suffix();
    }
    bool operator()(const Slot& a, std::string_view b) const {
      return a.block->suffix() < b;
    }
    bool operator()(std::string_view a, const Slot& b) const {
      return a < b.block->suffix();
    }
  };
  using SuffixSet = std::set<Slot, SuffixLess>;
  using KeyMap = std::map<std::string, SuffixSet, std::less<>>;
  static constexpr TimeUs kNever = std::numeric_limits<TimeUs>::max();
  struct Namespace {
    KeyMap keys;
    /// Lower bound on every expires_at here (kNever: nothing can expire).
    TimeUs expiry_floor = kNever;
    size_t objects = 0;
    size_t bytes = 0;
  };
  using NamespaceMap = std::map<std::string, Namespace, std::less<>>;

  /// Allocate a block holding `suffix` and `value`; the fields are default.
  static Block NewBlock(std::string_view suffix, std::string_view value);
  /// Install `block` under (name.ns, name.key), replacing any object of the
  /// same suffix; returns the stored object. Maintains counters and bound.
  Object* Install(ObjectNameView name, Block block,
                  NamespaceMap::iterator* ns_out, KeyMap::iterator* key_out);
  void FireInsertHook(NamespaceMap::iterator ns_it, KeyMap::iterator key_it,
                      const Object& obj);

  struct Location {
    NamespaceMap::iterator ns;
    KeyMap::iterator key;
    SuffixSet::iterator slot;
  };
  bool Locate(ObjectNameView name, Location* loc);
  /// Erase one object; erases its key set and namespace if they empty.
  void EraseAt(const Location& loc);
  /// Erase one object from a key set, keeping the counters right.
  SuffixSet::iterator EraseSlot(Namespace* space, SuffixSet* set,
                                SuffixSet::iterator it);
  /// Visit the live objects of one namespace, erasing expired ones and the
  /// key sets that empty.
  void ScanNamespace(NamespaceMap::iterator ns_it, TimeUs now,
                     const VisitFn& fn);

  NamespaceMap store_;
  size_t total_objects_ = 0;
  size_t total_bytes_ = 0;

  Vri* vri_;
  Options options_;
  InsertHook insert_hook_;
  /// Repeating GC tick; scheduled events copy from here so the closure never
  /// strongly captures its own function object (that cycle leaks).
  std::function<void()> gc_tick_;
  uint64_t gc_timer_ = 0;
};

}  // namespace pier

#endif  // PIER_OVERLAY_OBJECT_MANAGER_H_
