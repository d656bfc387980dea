#include "sim/scheduler.hpp"

namespace scallop::sim {
namespace {

// Ids pack (slot, generation); gen starts at 1 and only increments, so no
// valid id is ever 0 (callers use 0 as a "nothing armed" sentinel).
constexpr uint64_t MakeId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(slot) << 32) | gen;
}
constexpr uint32_t SlotOf(uint64_t id) {
  return static_cast<uint32_t>(id >> 32);
}
constexpr uint32_t GenOf(uint64_t id) { return static_cast<uint32_t>(id); }

}  // namespace

uint64_t Scheduler::At(util::TimeUs when, EventFn fn) {
  uint32_t slot = static_cast<uint32_t>(callables_.slots.size());
  if (callables_.free.empty()) {
    callables_.slots.emplace_back();
  } else {
    slot = callables_.free.back();
    callables_.free.pop_back();
  }
  Callables::Slot& s = callables_.slots[slot];
  s.fn = std::move(fn);
  const uint64_t id = MakeId(slot, s.gen);
  Post(when, callables_, id);
  return id;
}

void Scheduler::Post(util::TimeUs when, Target& target, uint64_t token) {
  if (when < now_) when = now_;
  queue_.push(Delivery{when, next_seq_++, &target, token});
}

void Scheduler::Cancel(uint64_t id) {
  const uint32_t slot = SlotOf(id);
  if (slot >= callables_.slots.size()) return;
  uint32_t& gen = callables_.slots[slot].gen;
  if (gen != GenOf(id)) return;  // fired or already cancelled
  ++gen;  // disarmed: the run loop frees the slot when the record pops
  ++disarmed_;
}

void Scheduler::Callables::Fire(uint64_t token) {
  const uint32_t slot = SlotOf(token);
  EventFn fn = std::move(slots[slot].fn);
  // Free the slot before running: `fn` may Cancel its own (now stale) id
  // or schedule a new event that reuses the slot under a fresh generation.
  ++slots[slot].gen;
  free.push_back(slot);
  fn();
}

size_t Scheduler::Run(util::TimeUs until) {
  size_t executed = 0;
  while (!queue_.empty() && queue_.top().when <= until) {
    const Delivery front = queue_.top();
    queue_.pop();
    if (front.target == &callables_) {
      const uint32_t slot = SlotOf(front.token);
      Callables::Slot& s = callables_.slots[slot];
      if (s.gen != GenOf(front.token)) {  // cancelled while queued
        // Destroyed off the slot, once it is free: its captures' destructors
        // may schedule events, which can reuse the slot or move the slab.
        const EventFn dropped = std::move(s.fn);
        callables_.free.push_back(slot);
        --disarmed_;
        continue;
      }
    }
    now_ = front.when;
    front.target->Fire(front.token);
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
