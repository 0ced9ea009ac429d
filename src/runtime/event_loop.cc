#include "runtime/event_loop.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace pier {

namespace {
constexpr size_t kArity = 4;
}  // namespace

uint64_t EventLoop::ScheduleAt(TimeUs when, std::function<void()> fn,
                               uint32_t owner) {
  if (when < now_) when = now_;
  uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].link;
    fns_[slot] = std::move(fn);
  } else {
    PIER_CHECK(slots_.size() < kNoSlot);
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
    fns_.push_back(std::move(fn));
  }
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Item{when, next_seq_++, slot, owner});
  return (uint64_t{slots_[slot].gen} << 32) | (uint64_t{slot} + 1);
}

void EventLoop::Cancel(uint64_t token) {
  // Token 0 wraps to kNoSlot and fails the bounds check.
  uint32_t slot = static_cast<uint32_t>(token) - 1;
  if (slot >= slots_.size()) return;
  const Slot& s = slots_[slot];
  // A generation mismatch means the event ran or was cancelled (and the slot
  // may since hold a new event); a slot no heap item points back to is free.
  if (s.gen != static_cast<uint32_t>(token >> 32)) return;
  if (s.link >= heap_.size() || heap_[s.link].slot != slot) return;
  RemoveAt(s.link);
  std::function<void()> fn = FreeSlot(slot);
  // `fn` is destroyed here, after the loop is consistent again: destroying
  // its captures may schedule or cancel other events.
}

void EventLoop::MuteOwner(uint32_t owner) {
  if (owner == kNoOwner) return;
  if (owner >= muted_.size()) muted_.resize(size_t{owner} + 1);
  muted_[owner] = true;
}

bool EventLoop::RunOne() {
  if (heap_.empty()) return false;
  RunTop();
  return true;
}

size_t EventLoop::RunUntil(TimeUs t) {
  size_t n = 0;
  while (!heap_.empty() && heap_[0].when <= t) {
    RunTop();
    ++n;
  }
  if (t > now_) now_ = t;
  return n;
}

size_t EventLoop::RunUntilIdle(uint64_t max_events) {
  size_t n = 0;
  while (n < max_events && !heap_.empty()) {
    RunTop();
    ++n;
  }
  return n;
}

void EventLoop::RunTop() {
  const Item top = heap_[0];
  RemoveAt(0);
  // The slot is free before the callback runs, so the callback's own token
  // is stale: a self-cancel is a no-op.
  std::function<void()> fn = FreeSlot(top.slot);
  if (top.when > now_) now_ = top.when;
  ++events_executed_;
  if (!Muted(top.owner)) fn();
}

void EventLoop::RemoveAt(size_t i) {
  const Item last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the last item itself
  if (i > 0 && Before(last, heap_[(i - 1) / kArity])) {
    SiftUp(i, last);
  } else {
    SiftDown(i, last);
  }
}

std::function<void()> EventLoop::FreeSlot(uint32_t slot) {
  std::function<void()> fn;
  fn.swap(fns_[slot]);
  Slot& s = slots_[slot];
  ++s.gen;
  s.link = free_head_;
  free_head_ = slot;
  return fn;
}

void EventLoop::SiftUp(size_t i, Item item) {
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(item, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, item);
}

void EventLoop::SiftDown(size_t i, Item item) {
  const size_t n = heap_.size();
  while (true) {
    size_t first = i * kArity + 1;
    if (first >= n) break;
    size_t best = first;
    size_t end = std::min(first + kArity, n);
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], item)) break;
    Place(i, heap_[best]);
    i = best;
  }
  Place(i, item);
}

}  // namespace pier
