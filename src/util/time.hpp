// Simulation time: 64-bit microsecond ticks since simulation start.
// A plain integer (not std::chrono) keeps event-queue keys and wire-format
// arithmetic (RTP timestamps, NTP fractions) trivially convertible.
#pragma once

#include <cstdint>

namespace scallop::util {

using TimeUs = int64_t;    // absolute simulation time, microseconds
using DurationUs = int64_t;

constexpr TimeUs kTimeNever = INT64_MAX;

constexpr DurationUs Seconds(double s) {
  return static_cast<DurationUs>(s * 1'000'000.0);
}
constexpr DurationUs Millis(double ms) {
  return static_cast<DurationUs>(ms * 1'000.0);
}
constexpr double ToSeconds(DurationUs us) { return static_cast<double>(us) / 1e6; }
constexpr double ToMillis(DurationUs us) { return static_cast<double>(us) / 1e3; }

// Converts a simulation time to a 90 kHz RTP media clock value.
constexpr uint32_t ToRtpTimestamp90k(TimeUs t) {
  return static_cast<uint32_t>((t * 90) / 1000);
}

// NTP 32.32 fixed-point timestamp used by RTCP sender reports.
constexpr uint64_t ToNtp(TimeUs t) {
  uint64_t secs = static_cast<uint64_t>(t / 1'000'000);
  uint64_t frac = (static_cast<uint64_t>(t % 1'000'000) << 32) / 1'000'000;
  return (secs << 32) | frac;
}
}  // namespace scallop::util
