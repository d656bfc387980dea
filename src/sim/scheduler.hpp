// Discrete-event scheduler. All experiments run on a single scheduler; time
// is virtual, so a 10-minute meeting simulates in well under a second.
//
// Every event is a delivery: a plain record (when, seq, target, token) in
// one heap ordered by (when, seq), which the run loop hands to
// target.Fire(token). Post's callers (links, the software SFU) keep the
// packet in a slab of their own under the token, so the heap sifts no
// callable. At parks its callable in a generation-stamped slot of the
// scheduler's own target and posts the slot's id as the token, so Cancel
// disarms it in O(1) and the run loop drops the disarmed record unrun.
// One counter draws seq for both, so every event runs in (when,
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

  // Cancels a pending event in O(1): it does not run, is not counted and
  // does not move now(). Cancelling an already-fired (or already-cancelled)
  // id is a no-op: ids are generation-stamped slot handles, so a stale id
  // can never hit a later event reusing the slot.
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
  // without At's callable slot.
  void Post(util::TimeUs when, Target& target, uint64_t token);

  // Runs events until the heap is empty or the next event lies past
  // `until`, then advances now() to `until`; RunAll runs until the heap is
  // empty. Safe to call from inside a running event. Returns the number of
  // events executed, At and Post alike.
  size_t RunUntil(util::TimeUs until);
  size_t RunAll();

  bool empty() const { return pending() == 0; }
  size_t pending() const { return queue_.size() - disarmed_; }

 private:
  struct Delivery {
    util::TimeUs when;
    uint64_t seq;  // global FIFO order among equal times
    Target* target;
    uint64_t token;
  };
  struct Later {
    // Earliest time first; FIFO among equal times via seq.
    bool operator()(const Delivery& a, const Delivery& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // At's callables. A slot's id (slot, gen) is its delivery's token; `gen`
  // stamps the slot's current occupancy, and running or cancelling the
  // callable bumps it, so the id misses from then on. A cancelled slot
  // stays taken until the run loop pops its record and frees it.
  struct Callables final : Target {
    struct Slot {
      EventFn fn;
      uint32_t gen = 1;
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> free;

    void Fire(uint64_t token) override;
  };

  // The run loop behind RunUntil and RunAll: runs events due by `until`.
  size_t Run(util::TimeUs until);

  util::TimeUs now_ = 0;
  uint64_t next_seq_ = 1;
  std::priority_queue<Delivery, std::vector<Delivery>, Later> queue_;
  size_t disarmed_ = 0;  // cancelled records still in queue_
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
