// Unified stats registry: one walkable name -> value view over the
// scattered counter families (aggregate metrics, control-plane counters,
// cascade counters, federation/topology/workload/redundancy stats, trace
// totals). ScenarioMetrics fills it from the same section declarations
// its CSV and Summary() render, and the Chrome trace exporter embeds it.
//
// Values are doubles so ratios (link utilization) sit beside counters;
// counters stay exact up to 2^53. Entries keep insertion order so every
// rendered view is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace scallop::obs {

class StatsRegistry {
 public:
  // Registers or overwrites a value. Insertion order is preserved;
  // re-setting an existing name updates it in place.
  void Set(const std::string& name, double value);

  // Returns the value, or 0 when the name was never registered.
  double Get(const std::string& name) const;

  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }

  // One "name=value" line per entry (%.15g: integers print exactly), in
  // registration order.
  std::string ToText() const;

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace scallop::obs
