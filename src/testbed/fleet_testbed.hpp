// The Scallop stack, 1..N switches. Each switch gets its own data plane,
// switch agent, southbound ControlChannel and SFU IP on datacenter links,
// all under a FederatedControlPlane of R per-region controllers — the
// paper's Appendix A deployment shape, sharded. The FleetTestbed
// constructor is the one place a switch node is wired: the single-switch
// deployment (ScallopTestbed, testbed.hpp) is fleet{1,1}, and R = 1 runs
// the same federation code as R > 1 with one region and no peers. R > 1
// slices the switches across regions peered over an east-west message
// plane (directory lookups, border-span negotiation, controller
// heartbeats + shard adoption). Failover means the victim's control link
// goes dark: the owning region's heartbeat-miss detector declares it dead
// and migrates its meetings to a live standby, so recovering peers
// re-signal to the standby's SFU IP; with no standby (one switch) the
// meetings stay put and recover on the restarted victim. With a positive
// cfg.rebalance.interval every region additionally runs the load-driven
// background rebalancer over the northbound SwitchLoadReports.
#pragma once

#include <memory>
#include <vector>

#include "core/control_channel.hpp"
#include "core/dataplane.hpp"
#include "core/federation.hpp"
#include "core/switch_agent.hpp"
#include "switchsim/switch.hpp"
#include "testbed/backend.hpp"
#include "testbed/config.hpp"

namespace scallop::testbed {

class FleetTestbed : public Backend {
 public:
  // Switch i gets SFU IP cfg.sfu_ip + i (last octet) and the config's
  // datacenter link shapes; the i-th slice of n_switches / n_regions
  // switches answers to region i's controller.
  explicit FleetTestbed(const TestbedConfig& cfg = {}, int n_switches = 2,
                        int n_regions = 1);

  client::Peer& AddPeer();
  client::Peer& AddPeer(const sim::LinkConfig& up, const sim::LinkConfig& down);
  client::Peer& AddPeer(const client::PeerConfig& base,
                        const sim::LinkConfig& up,
                        const sim::LinkConfig& down) override;

  core::MeetingId CreateMeeting() override;
  core::MeetingId CreateMeetingInRegion(int region) override;
  void RunFor(double seconds);
  void RunUntil(double t_s) override;

  sim::Scheduler& sched() override { return sched_; }
  sim::Network& network() override { return *network_; }
  std::vector<std::unique_ptr<client::Peer>>& peers() override {
    return peers_;
  }
  // Region 0's controller — the whole fleet when n_regions == 1.
  core::FleetController& fleet() { return federation_->region(0); }
  core::FederatedControlPlane& federation() { return *federation_; }
  switchsim::Switch& sw(size_t i) { return *nodes_[i].sw; }
  core::DataPlaneProgram& dataplane(size_t i) { return *nodes_[i].dp; }
  core::SwitchAgent& agent(size_t i) { return *nodes_[i].agent; }
  core::ControlChannel& channel(size_t i) { return *nodes_[i].channel; }

  // testbed::Backend
  std::string Name() const override;
  core::SignalingServer& signaling() override { return *federation_; }
  core::SignalingServer& RegionIngress(size_t r) override {
    return federation_->ingress(r);
  }
  bool MeetingReachable(core::MeetingId meeting) const override {
    return federation_->HasLiveOwner(meeting);
  }
  TopologySnapshot topology_snapshot() const override;
  void SetInterSwitchLinkCapacity(size_t a, size_t b,
                                  double capacity_bps) override;
  std::vector<core::MeetingId> FailoverBegin() override;
  void FailoverEnd() override;
  void SetMeetingMovedCallback(core::MeetingMovedCallback cb) override;
  void SetMeetingMovedHitlessCallback(
      core::MeetingMovedHitlessCallback cb) override;
  RedundancyCounters redundancy_counters() const override;
  BackendCounters counters() const override;
  ControlPlaneCounters control_counters() const override;
  CascadeCounters cascade_counters() const override;
  FederationCounters federation_counters() const override;
  void FailController(size_t region) override;
  std::string TreeDesignOf(core::MeetingId meeting) const override;
  size_t switch_count() const override { return nodes_.size(); }
  core::MeetingPlacement PlacementOf(core::MeetingId meeting) const override {
    return federation_->PlacementOf(meeting);
  }
  std::vector<core::ParticipantId> SenderAliasesOf(
      core::MeetingId meeting, core::ParticipantId participant) const override;
  std::vector<SwitchStatus> SwitchBreakdown() const override;

 private:
  struct Node {
    net::Ipv4 ip;
    std::unique_ptr<switchsim::Switch> sw;
    std::unique_ptr<core::DataPlaneProgram> dp;
    std::unique_ptr<core::SwitchAgent> agent;
    std::unique_ptr<core::ControlChannel> channel;
  };

  TestbedConfig cfg_;
  sim::Scheduler sched_;
  std::unique_ptr<sim::Network> network_;
  std::vector<Node> nodes_;
  std::unique_ptr<core::FederatedControlPlane> federation_;
  std::vector<std::unique_ptr<client::Peer>> peers_;
  std::vector<core::MeetingId> meetings_;
  int next_host_ = 1;
  size_t failed_switch_ = SIZE_MAX;
};

}  // namespace scallop::testbed
