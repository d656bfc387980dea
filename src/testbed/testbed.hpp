// Experiment scaffolding: the single-switch Scallop deployment and the
// software-SFU baseline. ScallopTestbed is the fleet of one — a
// FleetTestbed (fleet_testbed.hpp) with one switch under one region's
// controller — plus the index-free accessors single-switch experiments
// read. SoftwareTestbed wires the split-proxy SFU instead. Both implement
// the testbed::Backend interface (backend.hpp), so the ScenarioRunner and
// the benches drive them interchangeably; TestbedConfig (config.hpp) holds
// the knobs every testbed is built from.
#pragma once

#include <memory>
#include <vector>

#include "client/peer.hpp"
#include "sfu/software_sfu.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "testbed/backend.hpp"
#include "testbed/config.hpp"
#include "testbed/fleet_testbed.hpp"

namespace scallop::testbed {

// One Scallop switch programmed by its controller (paper §5): fleet{1,1}.
// Signaling enters through signaling(); fleet() is the one regional
// controller, which sends every command over channel() itself. The switch
// numbers meetings switch-locally (PlacementDetail gives the id a global
// meeting has there), and a scripted experiment can send a command of its
// own, such as ForceDecodeTarget, straight down channel().
class ScallopTestbed : public FleetTestbed {
 public:
  explicit ScallopTestbed(const TestbedConfig& cfg = {})
      : FleetTestbed(cfg, 1, 1) {}

  switchsim::Switch& sw() { return FleetTestbed::sw(0); }
  core::DataPlaneProgram& dataplane() { return FleetTestbed::dataplane(0); }
  core::SwitchAgent& agent() { return FleetTestbed::agent(0); }
  core::ControlChannel& channel() { return FleetTestbed::channel(0); }
};

class SoftwareTestbed : public Backend {
 public:
  explicit SoftwareTestbed(const TestbedConfig& cfg = {});

  client::Peer& AddPeer();
  client::Peer& AddPeer(const sim::LinkConfig& up, const sim::LinkConfig& down);
  client::Peer& AddPeer(const client::PeerConfig& base,
                        const sim::LinkConfig& up,
                        const sim::LinkConfig& down) override;

  core::MeetingId CreateMeeting() override;
  void RunFor(double seconds);
  void RunUntil(double t_s) override;

  sim::Scheduler& sched() override { return sched_; }
  sim::Network& network() override { return *network_; }
  sfu::SoftwareSfu& sfu() { return *sfu_; }
  std::vector<std::unique_ptr<client::Peer>>& peers() override {
    return peers_;
  }

  // testbed::Backend
  std::string Name() const override { return "software"; }
  core::SignalingServer& signaling() override { return *sfu_; }
  // Process restart: all meetings lose their forwarding state.
  std::vector<core::MeetingId> FailoverBegin() override { return meetings_; }
  BackendCounters counters() const override;

 private:
  TestbedConfig cfg_;
  sim::Scheduler sched_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sfu::SoftwareSfu> sfu_;
  std::vector<std::unique_ptr<client::Peer>> peers_;
  std::vector<core::MeetingId> meetings_;
  int next_host_ = 1;
};

}  // namespace scallop::testbed
