#include "harness/scenario.hpp"

#include <stdexcept>
#include <utility>

namespace scallop::harness {

namespace {

// The testbed's default client access shape, so scenario runs stay in
// lockstep with direct-testbed runs if those defaults are ever retuned.
sim::LinkConfig DefaultAccess() {
  return testbed::TestbedConfig{}.client_uplink;
}

}  // namespace

LinkProfile LinkProfile::Default() {
  return LinkProfile{"default", DefaultAccess(), DefaultAccess()};
}

LinkProfile LinkProfile::Lossy(double down_loss, double up_loss) {
  LinkProfile p = Default();
  p.name = "lossy";
  p.down.loss_rate = down_loss;
  p.up.loss_rate = up_loss;
  return p;
}

LinkProfile LinkProfile::Constrained(double down_bps) {
  LinkProfile p = Default();
  p.name = "constrained";
  p.down.rate_bps = down_bps;
  return p;
}

LinkProfile LinkProfile::Asymmetric(double up_bps, double down_bps) {
  LinkProfile p = Default();
  p.name = "asymmetric";
  p.up.rate_bps = up_bps;
  p.down.rate_bps = down_bps;
  return p;
}

ScenarioSpec ScenarioSpec::Uniform(std::string name, int meetings,
                                   int participants, double duration_s,
                                   uint64_t seed) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.meetings.resize(static_cast<size_t>(meetings));
  for (auto& m : spec.meetings) {
    m.participants.resize(static_cast<size_t>(participants));
  }
  return spec;
}

ScenarioSpec& ScenarioSpec::WithLink(int meeting, int participant,
                                     LinkProfile profile) {
  meetings.at(static_cast<size_t>(meeting))
      .participants.at(static_cast<size_t>(participant))
      .link = std::move(profile);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithJoin(int meeting, int participant,
                                     double join_at_s) {
  meetings.at(static_cast<size_t>(meeting))
      .participants.at(static_cast<size_t>(participant))
      .join_at_s = join_at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithLeave(int meeting, int participant,
                                      double leave_at_s, double rejoin_at_s) {
  auto& p = meetings.at(static_cast<size_t>(meeting))
                .participants.at(static_cast<size_t>(participant));
  p.leave_at_s = leave_at_s;
  p.rejoin_at_s = rejoin_at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithLinkEvent(LinkEvent ev) {
  link_events.push_back(ev);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithFailover(double at_s) {
  failover_at_s = at_s;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithBackend(testbed::BackendChoice choice) {
  backend = choice;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithControllerFailure(double at_s, int region) {
  controller_failure_at_s = at_s;
  controller_failure_region = region;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithControlPlane(double latency_s, double loss,
                                             double heartbeat_s,
                                             double load_report_s) {
  base.control.latency = util::Seconds(latency_s);
  base.control.loss_rate = loss;
  base.control.heartbeat_interval = util::Seconds(heartbeat_s);
  base.control.load_report_interval = util::Seconds(load_report_s);
  control_plane_configured = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRebalance(double interval_s,
                                          int imbalance_threshold) {
  base.rebalance.interval = util::Seconds(interval_s);
  base.rebalance.imbalance_threshold = imbalance_threshold;
  control_plane_configured = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithPlacementPolicy(
    core::PlacementPolicyConfig policy) {
  base.placement = policy;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithInterSwitchLink(int a, int b,
                                                double latency_s,
                                                double capacity_bps) {
  if (a < 0 || b < 0 || a == b) {
    throw std::invalid_argument(
        "ScenarioSpec: inter-switch link needs two distinct switch indices");
  }
  base.inter_switch_links.push_back(core::InterSwitchLinkSpec{
      static_cast<size_t>(a), static_cast<size_t>(b), latency_s,
      capacity_bps});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithInterSwitchLinkEvent(double at_s, int a,
                                                     int b,
                                                     double capacity_bps) {
  topology_events.push_back(TopologyEvent{at_s, a, b, capacity_bps});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRoam(int meeting, int participant,
                                     double at_s, int new_region) {
  roams.push_back(RoamEvent{at_s, meeting, participant, new_region});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithMeetingRegion(int meeting, int region) {
  meetings.at(static_cast<size_t>(meeting)).region = region;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithSwitchCapacity(int switch_index,
                                               double capacity_class) {
  base.switch_capacities.emplace_back(switch_index, capacity_class);
  return *this;
}

ScenarioSpec& ScenarioSpec::WithCorrelatedFailure(
    double at_s, std::vector<std::pair<int, int>> links) {
  correlated_failures.push_back(
      CorrelatedFailureEvent{at_s, std::move(links)});
  return *this;
}

ScenarioSpec& ScenarioSpec::WithRedundantTrees(int dedup_window) {
  base.redundancy.redundant_trees = true;
  base.redundancy.dedup_window = dedup_window;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithHitlessMigration() {
  base.redundancy.hitless_migration = true;
  return *this;
}

ScenarioSpec& ScenarioSpec::WithTrace(size_t ring_capacity) {
  trace_enabled = true;
  trace_ring = ring_capacity;
  return *this;
}

int ScenarioSpec::TotalParticipants() const {
  int n = 0;
  for (const auto& m : meetings) n += static_cast<int>(m.participants.size());
  return n;
}

}  // namespace scallop::harness
