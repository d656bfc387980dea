// Discrete-event scheduler. All experiments run on a single scheduler; time
// is virtual, so a 10-minute meeting simulates in well under a second.
//
// Events live in two heaps keyed alike by (when, seq), where seq is one
// counter shared by both: At's cancellable events, and Post's cheaper
// uncancellable ones (packet deliveries, nearly all of the work). The run
// loop takes whichever front is earlier, so every event runs in (when,
// submission) order no matter which call queued it.
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

  // Schedules a one-shot `fn` that cannot be cancelled: the
  // packet-delivery path. Same clamping and same order as At, without
  // At's cancellation slot.
  void Post(util::TimeUs when, EventFn fn);

  // Runs events until both heaps are empty or the next event lies past
  // `until`, then advances now() to `until`; RunAll runs until both heaps
  // are empty. Safe to call from inside a running event. Returns the
  // number of events executed, At and Post alike.
  size_t RunUntil(util::TimeUs until);
  size_t RunAll();

  bool empty() const { return pending() == 0; }
  size_t pending() const {
    return queue_.size() - cancelled_in_queue_ + posted_.size();
  }

 private:
  struct Event {
    util::TimeUs when;
    uint64_t seq;   // global FIFO order among equal times
    uint32_t slot;  // cancellation slot (slots_[slot])
    EventFn fn;
  };
  // A Post entry keeps only a slab index so its heap sifts PODs; the
  // callable lives in posted_fns_ (slot recycled when it runs).
  struct Posted {
    util::TimeUs when;
    uint64_t seq;
    uint32_t fn_idx;
  };
  struct Later {
    // Earliest time first; FIFO among equal times via seq. Orders each
    // heap, and compares one heap's front with the other's.
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
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

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  // Pops the top event; returns false (and releases the slot) when it was
  // cancelled while queued.
  bool PopLive(Event& ev);
  // The run loop behind RunUntil and RunAll: runs events due by `until`,
  // each step taking the earlier of the two heaps' fronts.
  size_t Run(util::TimeUs until);

  util::TimeUs now_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t cancelled_in_queue_ = 0;
  std::priority_queue<Posted, std::vector<Posted>, Later> posted_;
  std::vector<EventFn> posted_fns_;
  std::vector<uint32_t> posted_fn_free_;
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
