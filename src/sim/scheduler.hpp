// Discrete-event scheduler. All experiments run on a single scheduler; time
// is virtual, so a 10-minute meeting simulates in well under a second.
//
// Events live in two heaps keyed alike by (when, seq), where seq is one
// counter shared by both: At's cancellable events, and Post's cheaper
// uncancellable deliveries (packet arrivals, nearly all of the work). A
// delivery is a plain record (when, seq, target, token): the run loop calls
// target.Fire(token), so a link or server keeps the packet in a slab of its
// own and the heap sifts no callable. The run loop takes whichever front is
// earlier, so every event runs in (when, submission) order no matter which
// call queued it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "util/slab.hpp"
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

  // Receives typed deliveries. The target must outlive every delivery
  // posted to it that the scheduler may still run.
  class Target {
   public:
    virtual void Fire(uint64_t token) = 0;

   protected:
    ~Target() = default;
  };

  // Schedules `target.Fire(token)` at `when` as a delivery that cannot be
  // cancelled: the packet path. Same clamping and same order as At,
  // without At's cancellation slot.
  void Post(util::TimeUs when, Target& target, uint64_t token);
  // The same for a one-shot callable, kept in a slab of the scheduler's
  // own whose slot is the delivery's token.
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
  struct Delivery {
    util::TimeUs when;
    uint64_t seq;
    Target* target;
    uint64_t token;
  };
  // Post(when, fn)'s callables; the token is the slab handle, freed as
  // the callable runs.
  class Callables final : public Target {
   public:
    uint32_t Add(EventFn fn) { return fns_.Put(std::move(fn)); }
    void Fire(uint64_t token) override {
      fns_.Take(static_cast<uint32_t>(token))();
    }

   private:
    util::Slab<EventFn> fns_;
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
  std::priority_queue<Delivery, std::vector<Delivery>, Later> posted_;
  Callables callables_;
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
