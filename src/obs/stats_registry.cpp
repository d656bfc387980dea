#include "obs/stats_registry.hpp"

#include <cstdio>

namespace scallop::obs {

void StatsRegistry::Set(const std::string& name, double value) {
  for (auto& [existing, v] : entries_) {
    if (existing == name) {
      v = value;
      return;
    }
  }
  entries_.emplace_back(name, value);
}

double StatsRegistry::Get(const std::string& name) const {
  for (const auto& [existing, v] : entries_) {
    if (existing == name) return v;
  }
  return 0;
}

std::string StatsRegistry::ToText() const {
  std::string out;
  char buf[256];
  for (const auto& [name, value] : entries_) {
    snprintf(buf, sizeof(buf), "%s=%.15g\n", name.c_str(), value);
    out += buf;
  }
  return out;
}

}  // namespace scallop::obs
