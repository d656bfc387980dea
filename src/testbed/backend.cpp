#include "testbed/backend.hpp"

#include "testbed/testbed.hpp"

namespace scallop::testbed {

std::string BackendChoice::Label() const {
  if (kind == Kind::kSoftware) return "software";
  if (fleet_regions > 1) {
    return "fleet{" + std::to_string(fleet_switches) + "," +
           std::to_string(fleet_regions) + "}";
  }
  if (fleet_switches == 1) return "scallop";
  return "fleet{" + std::to_string(fleet_switches) + "}";
}

std::unique_ptr<Backend> MakeBackend(const BackendChoice& choice,
                                     const TestbedConfig& cfg) {
  if (choice.kind == BackendChoice::Kind::kSoftware) {
    return std::make_unique<SoftwareTestbed>(cfg);
  }
  if (choice == BackendChoice::Scallop()) {
    return std::make_unique<ScallopTestbed>(cfg);
  }
  return std::make_unique<FleetTestbed>(cfg, choice.fleet_switches,
                                        choice.fleet_regions);
}

}  // namespace scallop::testbed
