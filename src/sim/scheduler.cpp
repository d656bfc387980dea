#include "sim/scheduler.hpp"

namespace scallop::sim {
namespace {

// Ids pack (slot, generation); gen starts at 1 and only increments, so no
// valid id is ever 0 (callers use 0 as a "nothing armed" sentinel).
constexpr uint64_t MakeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(slot) << 32) | gen;
}

}  // namespace

uint32_t Scheduler::AcquireSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.push_back(Slot{});
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Scheduler::ReleaseSlot(uint32_t slot) {
  ++slots_[slot].gen;  // invalidates every id issued for this occupancy
  free_slots_.push_back(slot);
}

uint64_t Scheduler::At(util::TimeUs when, EventFn fn) {
  if (when < now_) when = now_;
  uint32_t slot = AcquireSlot();
  slots_[slot].armed = true;
  queue_.push(Event{when, next_seq_++, slot, std::move(fn)});
  return MakeId(slot, slots_[slot].gen);
}

void Scheduler::Post(util::TimeUs when, Target& target, uint64_t token) {
  if (when < now_) when = now_;
  posted_.push(Delivery{when, next_seq_++, &target, token});
}

void Scheduler::Post(util::TimeUs when, EventFn fn) {
  Post(when, callables_, callables_.Add(std::move(fn)));
}

void Scheduler::Cancel(uint64_t id) {
  uint32_t slot = static_cast<uint32_t>(id >> 32);
  uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.armed) return;  // fired or already cancelled
  s.armed = false;
  ++cancelled_in_queue_;
}

bool Scheduler::PopLive(Event& ev) {
  Event& top = const_cast<Event&>(queue_.top());
  ev.when = top.when;
  ev.seq = top.seq;
  ev.slot = top.slot;
  ev.fn = std::move(top.fn);
  queue_.pop();
  Slot& s = slots_[ev.slot];
  if (!s.armed) {  // cancelled while queued
    --cancelled_in_queue_;
    ReleaseSlot(ev.slot);
    return false;
  }
  // Release before running: `fn` may Cancel its own (now stale) id or
  // schedule a new event that reuses the slot under a fresh generation.
  s.armed = false;
  ReleaseSlot(ev.slot);
  return true;
}

size_t Scheduler::Run(util::TimeUs until) {
  size_t executed = 0;
  for (;;) {
    // The fronts never tie: seq is unique across both heaps.
    if (!posted_.empty() &&
        (queue_.empty() || Later{}(queue_.top(), posted_.top()))) {
      const Delivery front = posted_.top();
      if (front.when > until) break;
      posted_.pop();
      now_ = front.when;
      front.target->Fire(front.token);
    } else {
      if (queue_.empty() || queue_.top().when > until) break;
      Event ev;
      if (!PopLive(ev)) continue;  // a cancelled tombstone
      now_ = ev.when;
      ev.fn();
    }
    ++executed;
  }
  return executed;
}

size_t Scheduler::RunUntil(util::TimeUs until) {
  size_t executed = Run(until);
  if (now_ < until) now_ = until;
  return executed;
}

size_t Scheduler::RunAll() { return Run(util::kTimeNever); }

PeriodicTask::PeriodicTask(Scheduler& sched, util::DurationUs period,
                           std::function<bool()> fn)
    : state_(std::make_shared<State>()) {
  state_->sched = &sched;
  state_->period = period;
  state_->fn = std::move(fn);
  Arm(state_);
}

PeriodicTask::~PeriodicTask() { Cancel(); }

void PeriodicTask::Cancel() {
  state_->cancelled = true;
  if (state_->pending_id != 0) {
    state_->sched->Cancel(state_->pending_id);
    state_->pending_id = 0;
  }
}

void PeriodicTask::Arm(const std::shared_ptr<State>& state) {
  std::weak_ptr<State> weak = state;
  state->pending_id = state->sched->After(state->period, [weak] {
    std::shared_ptr<State> s = weak.lock();
    if (!s || s->cancelled) return;
    s->pending_id = 0;
    // `fn` may Cancel() this task or destroy it outright: `s` keeps the
    // state alive through the call, and the re-check catches a Cancel
    // issued anywhere inside fn's call graph (including nested RunUntil
    // callbacks) after the entry check already passed.
    if (s->fn() && !s->cancelled) Arm(s);
  });
}

}  // namespace scallop::sim
