#include "testbed/fleet_testbed.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace scallop::testbed {

FleetTestbed::FleetTestbed(const TestbedConfig& cfg, int n_switches,
                           int n_regions)
    : cfg_(cfg) {
  if (n_switches < 1 || n_switches > 200) {
    throw std::invalid_argument("FleetTestbed: n_switches out of range");
  }
  if (n_regions < 1 || n_regions > n_switches) {
    throw std::invalid_argument(
        "FleetTestbed: n_regions must be in [1, n_switches]");
  }
  network_ = std::make_unique<sim::Network>(sched_, cfg_.seed);
  core::FederationConfig fed_cfg;
  fed_cfg.regions = static_cast<size_t>(n_regions);
  fed_cfg.switches = static_cast<size_t>(n_switches);
  // The east-west plane rides the same impairment knobs as the
  // southbound channels: region peering is control traffic too.
  fed_cfg.east_west_latency = cfg_.control.latency;
  fed_cfg.east_west_loss = cfg_.control.loss_rate;
  fed_cfg.heartbeat_interval = cfg_.control.heartbeat_interval;
  fed_cfg.seed = cfg_.seed * 7 + 13;
  federation_ =
      std::make_unique<core::FederatedControlPlane>(sched_, fed_cfg);
  if (cfg_.trace != nullptr) federation_->set_trace(cfg_.trace);
  nodes_.reserve(static_cast<size_t>(n_switches));
  for (int i = 0; i < n_switches; ++i) {
    Node node;
    node.ip = net::Ipv4(cfg_.sfu_ip.value() + static_cast<uint32_t>(i));
    switchsim::SwitchConfig sw_cfg;
    sw_cfg.address = node.ip;
    node.sw = std::make_unique<switchsim::Switch>(sched_, *network_, sw_cfg);
    node.dp = std::make_unique<core::DataPlaneProgram>(*node.sw,
                                                       cfg_.dataplane);
    core::AgentConfig agent_cfg = cfg_.agent;
    agent_cfg.sfu_ip = node.ip;
    node.agent =
        std::make_unique<core::SwitchAgent>(sched_, *node.dp, agent_cfg);
    core::ControlChannelConfig ctrl_cfg = cfg_.control;
    ctrl_cfg.seed =
        cfg_.seed * 1'000'003 + 17 + static_cast<uint64_t>(i) * 7919;
    node.channel =
        std::make_unique<core::ControlChannel>(sched_, *node.agent, ctrl_cfg);
    if (cfg_.trace != nullptr) {
      node.channel->EnableTrace(cfg_.trace, static_cast<size_t>(i));
    }
    network_->Attach(node.ip, node.sw.get(), cfg_.sfu_uplink,
                     cfg_.sfu_downlink);
    federation_->AddSwitch(*node.channel, node.ip);
    nodes_.push_back(std::move(node));
  }
  for (const auto& [sw, capacity_class] : cfg_.switch_capacities) {
    federation_->SetSwitchCapacity(static_cast<size_t>(sw), capacity_class);
  }
  // The controller's per-stream relay bandwidth estimate tracks the
  // encoder ceiling (plus audio + RTP overhead) so residual-capacity
  // planning matches what spans actually put on the backbone.
  federation_->set_relay_stream_bps(
      static_cast<double>(cfg_.peer.encoder.max_bitrate_bps) + 100e3);
  // Declared inter-switch links become both the control plane's
  // link-state view and dedicated sim links; every switch pair's traffic
  // is then routed over the backbone's shortest path (multi-hop where not
  // adjacent).
  for (const core::InterSwitchLinkSpec& l : cfg_.inter_switch_links) {
    if (l.a >= nodes_.size() || l.b >= nodes_.size() || l.a == l.b) {
      throw std::invalid_argument(
          "FleetTestbed: inter-switch link endpoints out of range");
    }
    federation_->ConfigureInterSwitchLink(l.a, l.b, l.latency_s,
                                          l.capacity_bps);
    sim::LinkConfig shape;
    shape.rate_bps = l.capacity_bps > 0.0 ? l.capacity_bps : 0.0;
    shape.prop_delay = util::Seconds(l.latency_s);
    network_->Connect(nodes_[l.a].ip, nodes_[l.b].ip, shape, shape);
  }
  if (!cfg_.inter_switch_links.empty()) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      for (size_t j = 0; j < nodes_.size(); ++j) {
        if (i == j) continue;
        std::vector<size_t> path = federation_->topology().RelayPath(i, j);
        if (path.size() < 2) continue;  // disconnected: star fallback
        std::vector<net::Ipv4> hops;
        hops.reserve(path.size());
        for (size_t sw : path) hops.push_back(nodes_[sw].ip);
        network_->SetRoute(nodes_[i].ip, nodes_[j].ip, std::move(hops));
      }
    }
  }
  federation_->SetPlacementPolicy(cfg_.placement);
  federation_->SetRedundancy(cfg_.redundancy);
  if (cfg_.rebalance.interval > 0) {
    federation_->EnableRebalancer(cfg_.rebalance);
  }
  // East-west heartbeats + peer failure detectors start last so region
  // construction order never interleaves with scheduled control traffic
  // (no-op when n_regions == 1).
  federation_->Activate();
}

void FleetTestbed::SetInterSwitchLinkCapacity(size_t a, size_t b,
                                              double capacity_bps) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) return;
  // Reshape the physical pair links first so the controller's re-plan
  // decisions and the data path agree on the new capacity.
  const double rate = capacity_bps > 0.0 ? capacity_bps : 0.0;
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    sim::Link* link = network_->pair_link(nodes_[from].ip, nodes_[to].ip);
    if (link != nullptr) link->set_rate_bps(rate);
  }
  federation_->SetInterSwitchLinkCapacity(a, b, capacity_bps);
}

TopologySnapshot FleetTestbed::topology_snapshot() const {
  TopologySnapshot snap;
  const core::InterSwitchTopology& topo = federation_->topology();
  snap.configured = topo.explicit_topology();
  if (!snap.configured) return snap;
  for (const auto& link : topo.links()) {
    TopologyLinkStatus s;
    s.a = link.a;
    s.b = link.b;
    s.latency_s = link.latency_s;
    s.capacity_bps = link.capacity_bps;
    s.load_bps = topo.LoadOf(link.a, link.b);
    s.utilization = link.capacity_bps > 0.0 &&
                            link.capacity_bps <
                                core::InterSwitchTopology::kUnconstrained
                        ? s.load_bps / link.capacity_bps
                        : 0.0;
    for (auto [from, to] :
         {std::pair{link.a, link.b}, std::pair{link.b, link.a}}) {
      const sim::Link* pl =
          network_->pair_link(nodes_[from].ip, nodes_[to].ip);
      if (pl == nullptr) continue;
      s.relay_packets += pl->stats().delivered_packets;
      s.relay_bytes += pl->stats().delivered_bytes;
    }
    snap.max_utilization = std::max(snap.max_utilization, s.utilization);
    snap.links.push_back(s);
  }
  snap.relay_replans = federation_->TotalFleetStats().relay_replans;
  for (core::MeetingId m : meetings_) {
    core::MeetingPlacement placement = federation_->PlacementOf(m);
    if (!placement.valid()) continue;
    const size_t depth = placement.TreeDepth();
    snap.max_depth = std::max(snap.max_depth, depth);
    if (snap.depth_histogram.size() <= depth) {
      snap.depth_histogram.resize(depth + 1, 0);
    }
    ++snap.depth_histogram[depth];
  }
  return snap;
}

std::string FleetTestbed::Name() const {
  return BackendChoice::Fleet(static_cast<int>(nodes_.size()),
                              static_cast<int>(federation_->regions()))
      .Label();
}

client::Peer& FleetTestbed::AddPeer() {
  return AddPeer(cfg_.client_uplink, cfg_.client_downlink);
}

client::Peer& FleetTestbed::AddPeer(const sim::LinkConfig& up,
                                    const sim::LinkConfig& down) {
  return AddPeer(cfg_.peer, up, down);
}

client::Peer& FleetTestbed::AddPeer(const client::PeerConfig& base,
                                    const sim::LinkConfig& up,
                                    const sim::LinkConfig& down) {
  return AttachPeer(sched_, *network_, cfg_.seed, next_host_, peers_, base,
                    up, down);
}

core::MeetingId FleetTestbed::CreateMeeting() {
  return CreateMeetingInRegion(-1);
}

core::MeetingId FleetTestbed::CreateMeetingInRegion(int region) {
  core::MeetingId id = federation_->CreateMeetingIn(
      region < 0 ? SIZE_MAX : static_cast<size_t>(region));
  meetings_.push_back(id);
  return id;
}

void FleetTestbed::RunFor(double seconds) {
  sched_.RunUntil(sched_.now() + util::Seconds(seconds));
}

void FleetTestbed::RunUntil(double t_s) {
  sched_.RunUntil(util::Seconds(t_s));
}

std::vector<core::MeetingId> FleetTestbed::FailoverBegin() {
  // Kill the switch hosting the first still-placed meeting; every meeting
  // whose placement touches it — home or relay span — loses forwarding
  // state there. The crash is delivered the way a real fleet learns of
  // one: the victim's control link goes dark, its heartbeats stop, and
  // the owning controller's miss detector declares it dead and re-plans
  // its meetings onto live switches — so the re-Joins after the blackout
  // land on the standbys' SFU IPs. The blackout must exceed
  // heartbeat_miss_threshold heartbeat intervals or the victim is revived
  // before it is ever declared dead.
  size_t victim = SIZE_MAX;
  std::vector<core::MeetingId> affected;
  for (core::MeetingId m : meetings_) {
    core::MeetingPlacement placement = federation_->PlacementOf(m);
    if (!placement.valid()) continue;
    if (victim == SIZE_MAX) victim = placement.home;
    if (placement.home == victim ||
        placement.SpanOn(victim) != nullptr) {
      affected.push_back(m);
    }
  }
  if (victim == SIZE_MAX) return {};
  failed_switch_ = victim;
  nodes_[victim].channel->set_link_up(false);
  // The affected meetings are mid-blackout: the load rebalancer must not
  // migrate them while their members are down.
  federation_->FreezeMeetings(affected);
  return affected;
}

void FleetTestbed::FailoverEnd() {
  // The victim restarts empty and rejoins the fleet as a standby for
  // future placements; migrated meetings stay where they are.
  if (failed_switch_ == SIZE_MAX) return;
  nodes_[failed_switch_].channel->set_link_up(true);
  federation_->ReviveSwitch(failed_switch_);
  failed_switch_ = SIZE_MAX;
}

void FleetTestbed::SetMeetingMovedCallback(core::MeetingMovedCallback cb) {
  federation_->SetMigrationCallback(std::move(cb));
}

void FleetTestbed::SetMeetingMovedHitlessCallback(
    core::MeetingMovedHitlessCallback cb) {
  federation_->SetHitlessMigrationCallback(std::move(cb));
}

RedundancyCounters FleetTestbed::redundancy_counters() const {
  RedundancyCounters r;
  r.configured = cfg_.redundancy.enabled();
  if (!r.configured) return r;
  const core::FleetStats fs = federation_->TotalFleetStats();
  r.secondary_trees_installed = fs.secondary_trees_installed;
  r.secondary_trees_removed = fs.secondary_trees_removed;
  r.tree_flips = fs.tree_flips;
  r.hitless_migrations = fs.hitless_migrations;
  for (const Node& node : nodes_) {
    r.relay_sources += node.agent->stats().relay_sources;
    r.relay_promotions += node.agent->stats().relay_promotions;
    r.redundant_relayed += node.dp->stats().redundant_relayed;
    r.duplicates_eliminated += node.dp->stats().duplicates_eliminated;
  }
  return r;
}

BackendCounters FleetTestbed::counters() const {
  BackendCounters c;
  for (const Node& node : nodes_) {
    const auto& sw_stats = node.sw->stats();
    c.switch_packets_in += sw_stats.packets_in;
    c.switch_packets_out += sw_stats.packets_out;
    c.switch_replicas += sw_stats.replicas;
    const auto& dp_stats = node.dp->stats();
    c.seq_rewritten += dp_stats.seq_rewritten;
    c.seq_dropped += dp_stats.seq_dropped;
    c.svc_suppressed += dp_stats.svc_suppressed;
    c.remb_filtered += dp_stats.remb_filtered;
    c.remb_forwarded += dp_stats.remb_forwarded;
    const auto& agent_stats = node.agent->stats();
    c.dt_changes += agent_stats.dt_changes;
    c.filter_flips += agent_stats.filter_flips;
    c.agent_cpu_packets += agent_stats.cpu_packets;
    const auto& tree_stats = node.agent->tree_manager().stats();
    c.trees_built += tree_stats.trees_built;
    c.tree_migrations += tree_stats.migrations;
  }
  c.placements_rebalanced =
      federation_->TotalFleetStats().placements_rebalanced;
  return c;
}

CascadeCounters FleetTestbed::cascade_counters() const {
  CascadeCounters c;
  const core::FleetStats fs = federation_->TotalFleetStats();
  c.spans_installed = fs.relay_spans_installed;
  c.spans_removed = fs.relay_spans_removed;
  for (const Node& node : nodes_) {
    c.relay_packets += node.dp->stats().relay_packets;
    c.relay_bytes += node.dp->stats().relay_bytes;
    c.relay_dt_changes += node.agent->stats().relay_dt_changes;
  }
  return c;
}

ControlPlaneCounters FleetTestbed::control_counters() const {
  ControlPlaneCounters c;
  for (const Node& node : nodes_) {
    const core::ControlChannelStats s = node.channel->stats();
    c.commands_sent += s.commands_sent;
    c.commands_applied += s.commands_applied;
    c.commands_dropped += s.commands_dropped;
    c.commands_retransmitted += s.commands_retransmitted;
    c.events_sent += s.events_sent;
    c.events_delivered += s.events_delivered;
    c.events_dropped += s.events_dropped;
  }
  const core::FleetStats fs = federation_->TotalFleetStats();
  c.heartbeats_seen = fs.heartbeats_seen;
  c.heartbeats_missed = fs.heartbeats_missed;
  c.load_reports_seen = fs.load_reports_seen;
  c.switches_failed = fs.switches_failed;
  c.rebalance_migrations = fs.rebalance_migrations;
  return c;
}

FederationCounters FleetTestbed::federation_counters() const {
  FederationCounters f;
  f.configured = federation_->regions() > 1;
  if (!f.configured) return f;
  f.regions = static_cast<int>(federation_->regions());
  const core::ConduitStats& ew = federation_->east_west_stats();
  f.messages_sent = ew.sent;
  f.messages_delivered = ew.delivered;
  f.messages_dropped = ew.dropped;
  f.messages_retransmitted = ew.retransmitted;
  const core::FederationStats& fs = federation_->federation_stats();
  f.directory_lookups = fs.directory_lookups;
  f.directory_lookups_remote = fs.directory_lookups_remote;
  f.directory_announcements = fs.directory_announcements;
  f.border_spans = fs.border_spans;
  f.controller_heartbeats_seen = fs.controller_heartbeats_seen;
  f.controller_heartbeats_missed = fs.controller_heartbeats_missed;
  f.controllers_failed = fs.controllers_failed;
  f.shards_adopted = fs.shards_adopted;
  f.meetings_adopted = fs.meetings_adopted;
  return f;
}

void FleetTestbed::FailController(size_t region) {
  federation_->KillController(region);
}

std::vector<core::ParticipantId> FleetTestbed::SenderAliasesOf(
    core::MeetingId meeting, core::ParticipantId participant) const {
  std::vector<core::ParticipantId> aliases;
  for (const auto& relay : federation_->RelaysOf(meeting)) {
    if (relay.origin == participant) aliases.push_back(relay.relay_sender);
  }
  return aliases;
}

std::string FleetTestbed::TreeDesignOf(core::MeetingId meeting) const {
  auto [idx, local] = federation_->PlacementDetail(meeting);
  if (idx == SIZE_MAX) return "none";
  auto design = nodes_[idx].agent->tree_manager().CurrentDesign(local);
  return design.has_value() ? core::TreeDesignName(*design) : "none";
}

std::vector<SwitchStatus> FleetTestbed::SwitchBreakdown() const {
  std::vector<SwitchStatus> out;
  out.reserve(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    SwitchStatus s;
    s.index = static_cast<int>(i);
    s.sfu_ip = nodes_[i].ip;
    s.alive = federation_->IsAlive(i);
    s.meetings = federation_->MeetingsOn(i);
    s.participants = federation_->LoadOf(i);
    const auto& sw = nodes_[i].sw->stats();
    s.packets_in = sw.packets_in;
    s.packets_out = sw.packets_out;
    s.replicas = sw.replicas;
    out.push_back(s);
  }
  return out;
}

}  // namespace scallop::testbed
