// The Main Scheduler (§3.1.2): a single-threaded priority queue of events.
//
// Both runtime environments are built on this loop. In simulation the loop's
// clock is virtual and jumps from event to event; in the Physical Runtime the
// loop is driven by the wall clock and an I/O thread posts network events
// into it. Ties in event time are broken by insertion sequence, which is what
// makes simulations deterministic.
//
// Layout: the queue is an indexed 4-ary min-heap of 24-byte {when, seq, slot}
// items ordered by (when, seq). The callbacks live in a separate slot array
// that sift operations never touch; a slot records its item's heap position
// while the event is pending and links the free list once it is not. `seq` is
// assigned once per ScheduleAt, so the firing order is exactly the
// (when, seq) order.
//
// Tokens are opaque: `generation << 32 | (slot + 1)`, never 0. A slot's
// generation is bumped each time it is freed, so a token of an event that
// already ran or was cancelled no longer matches and Cancel on it is a no-op,
// even after the slot has been reused by a new event.
//
// Cancel removes the event from the heap at once, in O(log n), and destroys
// its callback. The queue therefore holds only live events: pending() and
// empty() are exact, and NextEventTime() is a single read of the heap top.
//
// Owners: an event may carry a nonzero owner tag (the simulator tags each
// virtual node's timers with its node). MuteOwner silences every event of
// that owner, pending or scheduled later: such an event still fires in its
// (when, seq) place, advances the clock and counts in events_executed(), but
// its callback is destroyed without being called. The tag rides in the heap
// item's padding, so it costs no memory.

#ifndef PIER_RUNTIME_EVENT_LOOP_H_
#define PIER_RUNTIME_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/vri.h"

namespace pier {

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Owner tag of an event that belongs to no one; it is never muted.
  static constexpr uint32_t kNoOwner = 0;

  /// Schedule `fn` at absolute time `when` (clamped to >= now), on behalf of
  /// `owner`. Returns a cancellation token, never 0.
  uint64_t ScheduleAt(TimeUs when, std::function<void()> fn,
                      uint32_t owner = kNoOwner);

  /// Schedule `fn` after `delay` from now.
  uint64_t ScheduleAfter(TimeUs delay, std::function<void()> fn,
                         uint32_t owner = kNoOwner) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn), owner);
  }

  /// From now on, the callbacks of `owner`'s events (already pending or
  /// scheduled later) are dropped instead of run. Irreversible.
  void MuteOwner(uint32_t owner);

  /// Remove the event from the queue; a no-op if it already ran, was
  /// cancelled, or the token is unknown.
  void Cancel(uint64_t token);

  TimeUs now() const { return now_; }

  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  uint64_t events_executed() const { return events_executed_; }

  /// Time of the earliest pending event, or -1 if none.
  TimeUs NextEventTime() const { return heap_.empty() ? -1 : heap_[0].when; }

  /// Run the earliest event, advancing the clock to it. False if none pending.
  bool RunOne();

  /// Run all events with time <= t, then advance the clock to exactly t.
  /// Returns the number of events executed.
  size_t RunUntil(TimeUs t);

  /// Run events until the queue drains or `max_events` executed.
  size_t RunUntilIdle(uint64_t max_events = UINT64_MAX);

 private:
  struct Item {
    TimeUs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t owner;  // fills what would be padding
  };
  static_assert(sizeof(Item) == 24, "heap items stay 24 bytes");
  struct Slot {
    uint32_t gen = 0;
    uint32_t link = 0;  // heap index while pending; next free slot otherwise
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;

  bool Muted(uint32_t owner) const {
    return owner < muted_.size() && muted_[owner];
  }

  static bool Before(const Item& a, const Item& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// Pop the heap top, free its slot and run its callback.
  void RunTop();
  /// Remove the heap item at index `i`, keeping the heap ordered.
  void RemoveAt(size_t i);
  /// Bump the slot's generation, return it to the free list and hand back
  /// its callback (destroyed by the caller once the loop is consistent).
  std::function<void()> FreeSlot(uint32_t slot);
  void SiftUp(size_t i, Item item);
  void SiftDown(size_t i, Item item);
  void Place(size_t i, const Item& item) {
    heap_[i] = item;
    slots_[item.slot].link = static_cast<uint32_t>(i);
  }

  std::vector<Item> heap_;
  std::vector<Slot> slots_;
  std::vector<std::function<void()>> fns_;  // indexed by slot
  std::vector<bool> muted_;                 // indexed by owner
  uint32_t free_head_ = kNoSlot;
  TimeUs now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
};

}  // namespace pier

#endif  // PIER_RUNTIME_EVENT_LOOP_H_
