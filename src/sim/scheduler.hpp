// Discrete-event scheduler. All experiments run on a single scheduler; time
// is virtual, so a 10-minute meeting simulates in well under a second.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace scallop::sim {

using EventFn = std::function<void()>;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  util::TimeUs now() const { return now_; }

  // Schedules `fn` at absolute time `when` (clamped to now).
  // Returns an id usable with Cancel().
  uint64_t At(util::TimeUs when, EventFn fn);
  uint64_t After(util::DurationUs delay, EventFn fn) {
    return At(now_ + delay, std::move(fn));
  }

  // Cancels a pending event in O(1). Cancelling an already-fired (or
  // already-cancelled) id is a no-op: ids are generation-stamped slot
  // handles, so a stale id can never hit a later event reusing the slot.
  void Cancel(uint64_t id);

  // Batched one-shot events — the packet-delivery fast path. Semantically
  // identical to At (same clamping, same FIFO-among-equal-times order,
  // interleaved exactly with At events by a shared sequence counter), but
  // not cancellable. Entries stage in a side heap that keeps only ONE
  // main-queue event armed — carrying the earliest entry's (when, seq);
  // when it fires, every staged entry that would have been the
  // immediately-next event anyway runs inline, so a burst of N deliveries
  // costs one main-heap push+pop instead of N.
  void BatchAt(util::TimeUs when, EventFn fn);

  // Runs events until the queue is empty or `until` is passed.
  // Returns the number of events executed.
  size_t RunUntil(util::TimeUs until);
  size_t RunAll();

  bool empty() const { return pending() == 0; }
  size_t pending() const {
    // The armed batch wake stands in for the front staged entry; count the
    // staged entries themselves instead of double-counting it.
    return queue_.size() - cancelled_in_queue_ + batch_.size() -
           (batch_wake_id_ != 0 ? 1 : 0);
  }

 private:
  struct Event {
    util::TimeUs when;
    uint64_t seq;   // global FIFO order among equal times
    uint32_t slot;  // cancellation slot (slots_[slot])
    EventFn fn;
  };
  struct Later {
    // Earliest time first; FIFO among equal times via seq. Shared by the
    // main queue (Event) and the batch staging heap (BatchEntry).
    template <typename E>
    bool operator()(const E& a, const E& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // One live queue entry per slot. `gen` stamps the slot's current
  // occupancy: Cancel ids carry the generation they were issued under and
  // miss once the slot is released (event fired or cancelled-and-popped).
  struct Slot {
    uint32_t gen = 1;
    bool armed = false;
  };

  // Staged entries keep only a slab index so the heap sifts 24-byte PODs;
  // the callables live in batch_fns_ (slot recycled on fire).
  struct BatchEntry {
    util::TimeUs when;
    uint64_t seq;
    uint32_t fn_idx;
  };

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  // Pops the top event; returns false (and releases the slot) when it was
  // cancelled while queued.
  bool PopLive(Event& ev);
  // Like At with a caller-supplied (already reserved) sequence number.
  uint64_t AtSequenced(util::TimeUs when, uint64_t seq, EventFn fn);
  // True iff an event keyed (when, seq) would be the very next event the
  // running loop pops AND lies within the loop's horizon; on success
  // advances now() so the caller may run it inline.
  bool TryRunInline(util::TimeUs when, uint64_t seq);
  // Keeps the armed wake's key equal to the staged front's key.
  void SyncBatchWake();
  // Delivers the staged front, then drains every staged entry that still
  // sorts before the whole main queue.
  void BatchWake();

  util::TimeUs now_ = 0;
  // Upper time bound of the innermost running RunUntil/RunAll (saved and
  // restored across nesting); TryRunInline refuses events beyond it.
  util::TimeUs horizon_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t cancelled_in_queue_ = 0;
  // Staging heap for BatchAt. Invariant outside BatchWake: batch_
  // non-empty => batch_wake_id_ armed with key == batch_.top()'s key.
  std::priority_queue<BatchEntry, std::vector<BatchEntry>, Later> batch_;
  std::vector<EventFn> batch_fns_;
  std::vector<uint32_t> batch_fn_free_;
  uint64_t batch_wake_id_ = 0;
  util::TimeUs batch_wake_when_ = 0;
  uint64_t batch_wake_seq_ = 0;
  bool in_batch_wake_ = false;
};

// Helper: schedules `fn` every `period` starting at now+period until it
// returns false or Cancel() is called on the handle. Safe to Cancel() or
// destroy from inside its own callback (including callbacks that return
// true): the armed event holds only a weak reference to shared state and
// re-checks cancellation after `fn` returns, so a Cancel issued anywhere
// inside the callback's call graph sticks.
class PeriodicTask {
 public:
  PeriodicTask(Scheduler& sched, util::DurationUs period,
               std::function<bool()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Cancel();

 private:
  struct State {
    Scheduler* sched = nullptr;
    util::DurationUs period = 0;
    std::function<bool()> fn;
    uint64_t pending_id = 0;
    bool cancelled = false;
  };
  static void Arm(const std::shared_ptr<State>& state);

  std::shared_ptr<State> state_;
};

}  // namespace scallop::sim
