// The conference-backend seam (SDN southbound abstraction, paper Appendix
// A): one stable interface between experiment logic (ScenarioRunner, the
// benches) and the forwarding substrate that executes it. Two substrates
// implement it today — the Scallop stack of N switches under R region
// controllers (FleetTestbed; the single-switch deployment is the fleet of
// one, ScallopTestbed) and the software-SFU baseline — and new ones
// (remote testbeds) drop in without touching experiments.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/peer.hpp"
#include "core/controller.hpp"
#include "core/placement.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"

namespace scallop::testbed {

struct TestbedConfig;

// Which substrate a ScenarioSpec runs on. Value-type so specs stay
// copyable declarative data.
struct BackendChoice {
  enum class Kind { kFleet, kSoftware };
  Kind kind = Kind::kFleet;
  // Scallop switches (each with its own data plane, agent and SFU IP)
  // under the control plane. 1 (the default) is the single-switch
  // deployment, labelled "scallop".
  int fleet_switches = 1;
  // Per-region controllers the switches are sharded across. 1 (the
  // default) is one FleetController; R > 1 federates them behind
  // east-west peering (fleet{N,R}).
  int fleet_regions = 1;

  static BackendChoice Scallop() { return Fleet(1); }
  static BackendChoice Fleet(int n_switches = 2, int regions = 1) {
    return {Kind::kFleet, n_switches, regions};
  }
  static BackendChoice Software() { return {Kind::kSoftware, 0}; }

  // "scallop" (fleet{1,1}), "fleet{3}", "fleet{6,2}" or "software".
  std::string Label() const;
  bool operator==(const BackendChoice&) const = default;
};

// Forwarding/control-plane aggregates every backend can report; fields a
// substrate has no equivalent for stay zero (e.g. seq_rewritten on the
// software SFU, which forwards exact copies).
struct BackendCounters {
  uint64_t switch_packets_in = 0;
  uint64_t switch_packets_out = 0;
  uint64_t switch_replicas = 0;
  uint64_t seq_rewritten = 0;
  uint64_t seq_dropped = 0;
  uint64_t svc_suppressed = 0;
  uint64_t remb_filtered = 0;
  uint64_t remb_forwarded = 0;
  uint64_t dt_changes = 0;
  uint64_t filter_flips = 0;
  uint64_t trees_built = 0;
  uint64_t tree_migrations = 0;
  uint64_t agent_cpu_packets = 0;
  uint64_t placements_rebalanced = 0;  // fleet meeting migrations
};

// Southbound/northbound control-plane aggregates, summed over every
// ControlChannel the substrate owns plus the fleet's telemetry loops.
// The software baseline has no southbound channel — its control plane is
// in-process, which is exactly the architectural contrast the paper draws
// — so it reports zeros.
struct ControlPlaneCounters {
  uint64_t commands_sent = 0;
  uint64_t commands_applied = 0;
  uint64_t commands_dropped = 0;
  uint64_t commands_retransmitted = 0;  // unacked reliable commands resent
  uint64_t events_sent = 0;
  uint64_t events_delivered = 0;
  uint64_t events_dropped = 0;
  uint64_t heartbeats_seen = 0;
  uint64_t heartbeats_missed = 0;
  uint64_t load_reports_seen = 0;
  uint64_t switches_failed = 0;
  uint64_t rebalance_migrations = 0;
};

// Federation (east-west) aggregates for fleet{N,R>1}: the controller-to-
// controller message plane plus directory and shard-adoption activity.
// `configured` is false on single-region substrates — the CSV federation
// section is gated on it, so fleet{N} and fleet{N,1} goldens stay
// byte-identical.
struct FederationCounters {
  bool configured = false;
  int regions = 1;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_retransmitted = 0;
  uint64_t directory_lookups = 0;
  uint64_t directory_lookups_remote = 0;
  uint64_t directory_announcements = 0;
  uint64_t border_spans = 0;
  uint64_t controller_heartbeats_seen = 0;
  uint64_t controller_heartbeats_missed = 0;
  uint64_t controllers_failed = 0;
  uint64_t shards_adopted = 0;
  uint64_t meetings_adopted = 0;
};

// Redundant dual-tree aggregates: protection chains the controller
// planned, make-before-break activity (flips, hitless migrations), and
// the data-plane's view of the second tree (copies forwarded via a
// secondary source, duplicates the (origin, seq) window ate).
// `configured` is false unless the spec opted in — the CSV redundancy
// section is gated on it, so redundancy-off goldens stay byte-identical.
struct RedundancyCounters {
  bool configured = false;
  uint64_t secondary_trees_installed = 0;
  uint64_t secondary_trees_removed = 0;
  uint64_t tree_flips = 0;
  uint64_t hitless_migrations = 0;
  uint64_t relay_sources = 0;      // secondary sources attached (agents)
  uint64_t relay_promotions = 0;   // agent-side source promotions
  uint64_t redundant_relayed = 0;  // packets arriving via a secondary tree
  uint64_t duplicates_eliminated = 0;  // cross-tree dups the window dropped
};

// Cascaded-meeting aggregates (paper Appendix A): relay spans installed
// by the controller, media crossing inter-switch relays, and decode-target
// switches applied to relay legs. Zero on single-homed substrates.
struct CascadeCounters {
  uint64_t spans_installed = 0;
  uint64_t spans_removed = 0;
  uint64_t relay_packets = 0;
  uint64_t relay_bytes = 0;
  uint64_t relay_dt_changes = 0;  // cross-switch decode-target switches
};

// One modeled inter-switch backbone link, with the control-plane view
// (latency/capacity/registered relay load) and the data-path traffic that
// actually crossed it (both directions summed).
struct TopologyLinkStatus {
  size_t a = 0;
  size_t b = 0;
  double latency_s = 0.0;
  double capacity_bps = 0.0;  // <= 0: unconstrained
  double load_bps = 0.0;      // controller-registered relay load
  double utilization = 0.0;   // load / capacity (0 when unconstrained)
  uint64_t relay_packets = 0;
  uint64_t relay_bytes = 0;
};

// The backbone view a multi-switch backend can report: per-link status,
// the relay-tree depth histogram over its meetings (index = depth,
// value = meeting count; depth 0 = single-homed, 1 = hub-and-spoke), and
// the worst link utilization. `configured` is false on backends without a
// modeled backbone — the CSV topology section is gated on it, so default
// full-mesh fleets keep their golden CSVs byte-identical.
struct TopologySnapshot {
  bool configured = false;
  std::vector<TopologyLinkStatus> links;
  std::vector<int> depth_histogram;
  size_t max_depth = 0;
  double max_utilization = 0.0;
  uint64_t relay_replans = 0;  // link-overload subtree collapses
};

// Per-switch snapshot (the runner renders it only for more than one
// switch, which keeps single-switch CSVs unchanged).
struct SwitchStatus {
  int index = 0;
  net::Ipv4 sfu_ip;
  bool alive = true;
  int meetings = 0;
  int participants = 0;
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t replicas = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string Name() const = 0;

  // Peer attachment with explicit link shapes. Host addressing and
  // per-peer seeding depend only on attachment order, never on the
  // substrate, so a spec produces the same client population everywhere.
  virtual client::Peer& AddPeer(const client::PeerConfig& base,
                                const sim::LinkConfig& up,
                                const sim::LinkConfig& down) = 0;

  virtual core::MeetingId CreateMeeting() = 0;
  // Follow-the-sun: mint the meeting in a specific fleet region (< 0: no
  // preference). Substrates without regions ignore the hint.
  virtual core::MeetingId CreateMeetingInRegion(int /*region*/) {
    return CreateMeeting();
  }
  // The signaling entry point peers Join/Leave through (the Scallop
  // control plane or the software SFU).
  virtual core::SignalingServer& signaling() = 0;
  // The signaling face a client in access region `r` enters through
  // (roaming support). Everything but the federated fleet has exactly one
  // front door.
  virtual core::SignalingServer& RegionIngress(size_t /*r*/) {
    return signaling();
  }
  // Whether a Join into `meeting` can be served now. Only a federated
  // fleet says no: between a controller's death and a peer's adoption of
  // its shard, the meeting has no live owner.
  virtual bool MeetingReachable(core::MeetingId /*meeting*/) const {
    return true;
  }

  // Advances to absolute simulation time `t_s` (no-op if already past).
  virtual void RunUntil(double t_s) = 0;

  virtual sim::Scheduler& sched() = 0;
  virtual sim::Network& network() = 0;
  virtual std::vector<std::unique_ptr<client::Peer>>& peers() = 0;

  // ---- failover protocol -------------------------------------------------
  // FailoverBegin kills a forwarding substrate instance and returns the
  // meetings that lost it; the caller tears the affected peers down (their
  // signaling died with the switch), waits out the detection/re-signaling
  // blackout, calls FailoverEnd (restart/standby bookkeeping), and
  // re-Joins the affected peers — which the backend routes to whatever
  // substrate now hosts each meeting.
  virtual std::vector<core::MeetingId> FailoverBegin() = 0;
  virtual void FailoverEnd() {}

  // Called just before the substrate migrates a live meeting between
  // switches (load rebalancing or failure detection) or collapses part of
  // its relay tree, with the ids of the members whose sessions die: the
  // harness drops and re-signals exactly those peers. Substrates that
  // never migrate ignore it.
  virtual void SetMeetingMovedCallback(
      std::function<void(core::MeetingId,
                         const std::vector<core::ParticipantId>& dropped)>) {}

  // ---- introspection for metrics ----------------------------------------
  virtual BackendCounters counters() const = 0;
  // Control-channel + telemetry-loop aggregates (zeros on substrates
  // without a southbound boundary, e.g. the software SFU).
  virtual ControlPlaneCounters control_counters() const { return {}; }
  // Replication-tree design currently serving a meeting ("none" when the
  // substrate has no tree notion, e.g. the software SFU).
  virtual std::string TreeDesignOf(core::MeetingId /*meeting*/) const {
    return "none";
  }
  virtual size_t switch_count() const { return 1; }
  // The meeting's distribution plan: home switch plus any relay spans.
  // Substrates without placement are trivially home-0 single-homed.
  virtual core::MeetingPlacement PlacementOf(core::MeetingId meeting) const {
    core::MeetingPlacement placement;
    placement.home = 0;
    placement.local_meeting = meeting;
    return placement;
  }
  // Relay-span aggregates; zeros on substrates that never cascade.
  virtual CascadeCounters cascade_counters() const { return {}; }
  // Redundant dual-tree aggregates (unconfigured unless the spec opted
  // into redundant trees / hitless migration on a fleet).
  virtual RedundancyCounters redundancy_counters() const { return {}; }
  // Called after the substrate re-homes a live meeting *without* dropping
  // its members (make-before-break). The harness measures frame
  // continuity across the move. Substrates that never migrate ignore it.
  virtual void SetMeetingMovedHitlessCallback(
      std::function<void(core::MeetingId)>) {}
  // East-west federation aggregates (unconfigured everywhere but
  // fleet{N,R>1}).
  virtual FederationCounters federation_counters() const { return {}; }
  // Kills one region's controller mid-run (its switches keep forwarding;
  // a peer adopts the orphaned shard). No-op on unfederated substrates.
  virtual void FailController(size_t /*region*/) {}
  // The modeled inter-switch backbone (empty / unconfigured on
  // single-switch substrates and default full-mesh fleets).
  virtual TopologySnapshot topology_snapshot() const { return {}; }
  // Mid-run backbone capacity change (scenario topology events): reshapes
  // the modeled link and lets the controller re-plan overloaded trees.
  // No-op on substrates without a backbone.
  virtual void SetInterSwitchLinkCapacity(size_t /*a*/, size_t /*b*/,
                                          double /*capacity_bps*/) {}
  // Ids under which a participant's stream is known on other switches
  // (the relay senders of a cascaded placement). Harness cleanup and
  // metrics treat them as the same logical sender; single-homed
  // substrates have none.
  virtual std::vector<core::ParticipantId> SenderAliasesOf(
      core::MeetingId /*meeting*/, core::ParticipantId /*participant*/) const {
    return {};
  }
  virtual std::vector<SwitchStatus> SwitchBreakdown() const { return {}; }

 protected:
  // Shared peer attachment: 10.0.x.y host addressing and seed derivation
  // in attachment order — the invariant all backends must preserve.
  static client::Peer& AttachPeer(
      sim::Scheduler& sched, sim::Network& network, uint64_t testbed_seed,
      int& next_host, std::vector<std::unique_ptr<client::Peer>>& peers,
      const client::PeerConfig& base, const sim::LinkConfig& up,
      const sim::LinkConfig& down);
};

// Builds the substrate a spec asked for from the shared testbed knobs.
std::unique_ptr<Backend> MakeBackend(const BackendChoice& choice,
                                     const TestbedConfig& cfg);

}  // namespace scallop::testbed
