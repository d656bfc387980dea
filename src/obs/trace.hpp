// Deterministic structured event tracing.
//
// TraceLog captures sim-time-stamped events from the control-path layers
// (southbound conduits, fleet controllers, federation, topology replans,
// redundancy flips). Events carry a category, a track (one per switch /
// region / conduit), and an optional causal correlation id so that a
// command's sent -> applied pair, or a heartbeat-miss -> adoption chain,
// can be stitched into spans by the exporters.
//
// Two exporters:
//   ToText()       - compact deterministic lines; diffing two runs' text
//                    streams is the debugging primitive for digest drift.
//   ToChromeJson() - Chrome trace-event JSON loadable in chrome://tracing
//                    or Perfetto; one tid per track, "X" spans for
//                    corr-matched begin/end pairs, "i" instants otherwise.
//
// A ring capacity > 0 turns the log into a flight recorder: only the last
// N events are retained (oldest evicted), cheap enough to leave on so a
// failing invariant can dump its own timeline.
//
// Emit() takes an explicit timestamp rather than holding a scheduler
// reference: the harness constructs the TraceLog before the backend (and
// its scheduler) exists, and every emitter already knows the current time.
//
// Instrumented code holds a possibly-null TraceLog* and goes through the
// null-safe free functions at the bottom of this header (Emitf,
// NextCorrelation), so an untraced run pays one branch per site and never
// formats a detail string.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace scallop::obs {

class StatsRegistry;

enum class Category {
  kControl,
  kFleet,
  kFederation,
  kTopology,
  kRedundancy,
  kPlacement,
  kScheduler,
};

const char* CategoryName(Category c);

struct TraceEvent {
  util::TimeUs t = 0;
  Category category = Category::kControl;
  std::string track;   // e.g. "sw:3", "region:1", "ew:0-2", "runner"
  std::string name;    // e.g. "add_participant.sent", "switch.dead"
  uint64_t corr = 0;   // 0 = uncorrelated instant
  std::string detail;  // deterministic key=value text, may be empty
};

class TraceLog {
 public:
  // ring_capacity == 0 keeps every event; > 0 retains only the newest N.
  explicit TraceLog(size_t ring_capacity = 0) : ring_capacity_(ring_capacity) {}

  void Emit(util::TimeUs t, Category category, const std::string& track,
            const std::string& name, uint64_t corr = 0,
            const std::string& detail = "");

  // Fresh id for stitching related events into a causal chain.
  uint64_t NextCorrelation() { return ++next_corr_; }

  size_t size() const { return events_.size(); }
  uint64_t total_emitted() const { return total_emitted_; }
  uint64_t evicted() const { return evicted_; }
  size_t ring_capacity() const { return ring_capacity_; }
  const std::deque<TraceEvent>& events() const { return events_; }

  // One line per event: "<t_us> <category> <track> <name> corr=<n> <detail>".
  std::string ToText() const;

  // Chrome trace-event JSON. If a registry is supplied its counters ride
  // along as a final metadata event so the numbers travel with the timeline.
  std::string ToChromeJson(const StatsRegistry* registry = nullptr) const;

  // Structural check shared by tests and bench_smoke: balanced JSON and
  // monotone non-decreasing ts per tid (metadata events exempt).
  static bool ValidateChromeTrace(const std::string& json, std::string* error);

 private:
  size_t ring_capacity_;
  std::deque<TraceEvent> events_;
  uint64_t next_corr_ = 0;
  uint64_t total_emitted_ = 0;
  uint64_t evicted_ = 0;
};

// Fresh correlation id, or 0 (uncorrelated) when tracing is off.
inline uint64_t NextCorrelation(TraceLog* log) {
  return log != nullptr ? log->NextCorrelation() : 0;
}

// The one printf-style emit entry point: formats `fmt` into the event's
// detail and records it. A null `log` returns before any formatting.
// VEmitf is the va_list form for wrappers that add their own defaults.
void Emitf(TraceLog* log, util::TimeUs t, Category category,
           std::string_view track, std::string_view name, uint64_t corr,
           const char* fmt, ...) __attribute__((format(printf, 7, 8)));
void VEmitf(TraceLog* log, util::TimeUs t, Category category,
            std::string_view track, std::string_view name, uint64_t corr,
            const char* fmt, va_list args);

}  // namespace scallop::obs
