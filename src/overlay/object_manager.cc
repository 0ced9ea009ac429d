#include "overlay/object_manager.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>

namespace pier {

// Blocks are released with plain operator delete, never destroyed.
static_assert(std::is_trivially_destructible_v<ObjectManager::Object>);

ObjectManager::ObjectManager(Vri* vri, Options options)
    : vri_(vri), options_(options) {
  // The tick lives in gc_tick_, not a self-capturing shared_ptr (which would
  // cycle and leak); scheduled events hold plain copies.
  gc_tick_ = [this]() {
    DropExpired();
    gc_timer_ = vri_->ScheduleEvent(options_.gc_period, gc_tick_);
  };
  gc_timer_ = vri_->ScheduleEvent(options_.gc_period, gc_tick_);
}

ObjectManager::~ObjectManager() { vri_->CancelEvent(gc_timer_); }

ObjectManager::Block ObjectManager::NewBlock(std::string_view suffix,
                                             std::string_view value) {
  void* mem = ::operator new(sizeof(Object) + suffix.size() + value.size());
  Block block(new (mem) Object());
  block->suffix_len_ = static_cast<uint32_t>(suffix.size());
  block->value_len_ = static_cast<uint32_t>(value.size());
  char* bytes = static_cast<char*>(mem) + sizeof(Object);
  if (!suffix.empty()) std::memcpy(bytes, suffix.data(), suffix.size());
  if (!value.empty())
    std::memcpy(bytes + suffix.size(), value.data(), value.size());
  return block;
}

ObjectManager::Object* ObjectManager::Install(ObjectNameView name, Block block,
                                              NamespaceMap::iterator* ns_out,
                                              KeyMap::iterator* key_out) {
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end())
    ns_it = store_.emplace(std::string(name.ns), Namespace{}).first;
  Namespace& space = ns_it->second;
  auto key_it = space.keys.find(name.key);
  if (key_it == space.keys.end())
    key_it = space.keys.emplace(std::string(name.key), SuffixSet{}).first;
  SuffixSet& set = key_it->second;

  Object* obj = block.get();
  size_t size = obj->block_size();
  auto slot = set.find(obj->suffix());
  if (slot == set.end()) {
    set.insert(Slot{std::move(block)});
    space.objects++;
    total_objects_++;
  } else {
    size_t old_size = slot->block->block_size();
    space.bytes -= old_size;
    total_bytes_ -= old_size;
    slot->block = std::move(block);  // frees the overwritten object
  }
  space.bytes += size;
  total_bytes_ += size;
  space.expiry_floor = std::min(space.expiry_floor, obj->expires_at);
  *ns_out = ns_it;
  *key_out = key_it;
  return obj;
}

void ObjectManager::FireInsertHook(NamespaceMap::iterator ns_it,
                                   KeyMap::iterator key_it, const Object& obj) {
  if (!insert_hook_) return;
  insert_hook_(ObjectNameView{ns_it->first, key_it->first, obj.suffix()}, obj);
}

void ObjectManager::Put(ObjectNameView name, std::string_view value,
                        TimeUs lifetime) {
  if (lifetime > options_.max_lifetime) lifetime = options_.max_lifetime;
  if (lifetime <= 0) return;  // instantly expired
  Block block = NewBlock(name.suffix, value);
  block->expires_at = vri_->Now() + lifetime;
  block->stored_at = vri_->Now();
  NamespaceMap::iterator ns_it;
  KeyMap::iterator key_it;
  Object* obj = Install(name, std::move(block), &ns_it, &key_it);
  FireInsertHook(ns_it, key_it, *obj);
}

void ObjectManager::PutReplica(ObjectNameView name, std::string_view value,
                               TimeUs remaining, TimeUs age,
                               uint8_t replica_index, uint8_t desired_replicas,
                               uint64_t owner_id) {
  if (remaining > options_.max_lifetime) remaining = options_.max_lifetime;
  if (remaining <= 0) return;  // origin copy already expired
  if (age < 0) age = 0;
  Block block = NewBlock(name.suffix, value);
  block->expires_at = vri_->Now() + remaining;
  block->stored_at = vri_->Now() - age;
  block->replica_index = replica_index;
  block->desired_replicas = desired_replicas > 0 ? desired_replicas : 1;
  block->owner_id = owner_id;
  NamespaceMap::iterator ns_it;
  KeyMap::iterator key_it;
  Object* obj = Install(name, std::move(block), &ns_it, &key_it);
  if (replica_index == 0) FireInsertHook(ns_it, key_it, *obj);
}

bool ObjectManager::Locate(ObjectNameView name, Location* loc) {
  loc->ns = store_.find(name.ns);
  if (loc->ns == store_.end()) return false;
  KeyMap& keys = loc->ns->second.keys;
  loc->key = keys.find(name.key);
  if (loc->key == keys.end()) return false;
  loc->slot = loc->key->second.find(name.suffix);
  return loc->slot != loc->key->second.end();
}

ObjectManager::SuffixSet::iterator ObjectManager::EraseSlot(
    Namespace* space, SuffixSet* set, SuffixSet::iterator it) {
  size_t size = it->block->block_size();
  space->objects--;
  space->bytes -= size;
  total_objects_--;
  total_bytes_ -= size;
  return set->erase(it);
}

void ObjectManager::EraseAt(const Location& loc) {
  Namespace& space = loc.ns->second;
  SuffixSet& set = loc.key->second;
  EraseSlot(&space, &set, loc.slot);
  if (!set.empty()) return;
  space.keys.erase(loc.key);
  if (space.keys.empty()) store_.erase(loc.ns);
}

bool ObjectManager::Promote(ObjectNameView name) {
  Location loc;
  if (!Locate(name, &loc)) return false;
  Object& obj = *loc.slot->block;
  if (obj.expires_at <= vri_->Now()) {
    EraseAt(loc);
    return false;
  }
  if (obj.replica_index == 0) return false;
  obj.replica_index = 0;
  FireInsertHook(loc.ns, loc.key, obj);
  return true;
}

bool ObjectManager::Demote(ObjectNameView name) {
  Location loc;
  if (!Locate(name, &loc)) return false;
  Object& obj = *loc.slot->block;
  if (obj.replica_index != 0) return false;
  obj.replica_index = 1;
  return true;
}

Status ObjectManager::Renew(ObjectNameView name, TimeUs lifetime) {
  if (lifetime > options_.max_lifetime) lifetime = options_.max_lifetime;
  Location loc;
  if (!Locate(name, &loc)) return Status::NotFound("no such object");
  Object& obj = *loc.slot->block;
  TimeUs now = vri_->Now();
  if (obj.expires_at <= now) {
    EraseAt(loc);
    return Status::NotFound("object expired");
  }
  obj.expires_at = now + lifetime;
  TimeUs& floor = loc.ns->second.expiry_floor;
  floor = std::min(floor, obj.expires_at);
  return Status::Ok();
}

std::vector<const ObjectManager::Object*> ObjectManager::Get(std::string_view ns,
                                                             std::string_view key) {
  std::vector<const Object*> out;
  auto ns_it = store_.find(ns);
  if (ns_it == store_.end()) return out;
  Namespace& space = ns_it->second;
  auto key_it = space.keys.find(key);
  if (key_it == space.keys.end()) return out;
  SuffixSet& set = key_it->second;
  TimeUs now = vri_->Now();
  for (auto it = set.begin(); it != set.end();) {
    if (it->block->expires_at <= now) {
      it = EraseSlot(&space, &set, it);
    } else {
      out.push_back(it->block.get());
      ++it;
    }
  }
  if (set.empty()) space.keys.erase(key_it);
  return out;
}

const ObjectManager::Object* ObjectManager::Find(ObjectNameView name) const {
  auto ns_it = store_.find(name.ns);
  if (ns_it == store_.end()) return nullptr;
  auto key_it = ns_it->second.keys.find(name.key);
  if (key_it == ns_it->second.keys.end()) return nullptr;
  auto slot = key_it->second.find(name.suffix);
  if (slot == key_it->second.end()) return nullptr;
  const Object* obj = slot->block.get();
  return obj->expires_at > vri_->Now() ? obj : nullptr;
}

void ObjectManager::ScanNamespace(NamespaceMap::iterator ns_it, TimeUs now,
                                  const VisitFn& fn) {
  Namespace& space = ns_it->second;
  for (auto key_it = space.keys.begin(); key_it != space.keys.end();) {
    SuffixSet& set = key_it->second;
    for (auto it = set.begin(); it != set.end();) {
      const Object& obj = *it->block;
      if (obj.expires_at <= now) {
        it = EraseSlot(&space, &set, it);
      } else {
        fn(ObjectNameView{ns_it->first, key_it->first, obj.suffix()}, obj);
        ++it;
      }
    }
    if (set.empty()) {
      key_it = space.keys.erase(key_it);
    } else {
      ++key_it;
    }
  }
}

void ObjectManager::Scan(std::string_view ns, const VisitFn& fn) {
  auto ns_it = store_.find(ns);
  if (ns_it == store_.end()) return;
  ScanNamespace(ns_it, vri_->Now(), fn);
}

void ObjectManager::ScanAll(const VisitFn& fn) {
  TimeUs now = vri_->Now();
  for (auto ns_it = store_.begin(); ns_it != store_.end(); ++ns_it)
    ScanNamespace(ns_it, now, fn);
}

void ObjectManager::Remove(ObjectNameView name) {
  Location loc;
  if (Locate(name, &loc)) EraseAt(loc);
}

void ObjectManager::DropNamespace(std::string_view ns) {
  auto it = store_.find(ns);
  if (it == store_.end()) return;
  total_objects_ -= it->second.objects;
  total_bytes_ -= it->second.bytes;
  store_.erase(it);
}

size_t ObjectManager::NamespaceObjects(std::string_view ns) const {
  auto it = store_.find(ns);
  return it == store_.end() ? 0 : it->second.objects;
}

void ObjectManager::DropExpired() {
  TimeUs now = vri_->Now();
  for (auto ns_it = store_.begin(); ns_it != store_.end();) {
    Namespace& space = ns_it->second;
    if (space.expiry_floor > now) {  // nothing here can have expired
      ++ns_it;
      continue;
    }
    TimeUs floor = kNever;
    for (auto key_it = space.keys.begin(); key_it != space.keys.end();) {
      SuffixSet& set = key_it->second;
      for (auto it = set.begin(); it != set.end();) {
        TimeUs expires_at = it->block->expires_at;
        if (expires_at <= now) {
          it = EraseSlot(&space, &set, it);
        } else {
          floor = std::min(floor, expires_at);
          ++it;
        }
      }
      if (set.empty()) {
        key_it = space.keys.erase(key_it);
      } else {
        ++key_it;
      }
    }
    if (space.keys.empty()) {
      ns_it = store_.erase(ns_it);
    } else {
      space.expiry_floor = floor;
      ++ns_it;
    }
  }
}

}  // namespace pier
