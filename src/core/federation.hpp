// Federated control plane (SDN survey arXiv:1406.0440 §V: distributed
// controllers; Contrail-style peered control nodes): R per-region
// controllers, each owning a contiguous slice of the switch fleet,
// replacing the single FleetController monolith at the top of the stack.
//
// The regions share one network information base, as Onix does: the
// plane owns a single SwitchTable (one record per switch plus the one
// backbone view) and builds every regional FleetController over it. A
// switch's table index is its index everywhere: on this API, in meeting
// records, policy load vectors and trace details. Only the owning region
// watches a switch and homes meetings there; other regions reach it
// through border spans alone. A dead switch is dead for every region.
//
// Policy is set once for the whole plane, as a logically centralized
// controller sets it (paper §5, Appendix A): the plane owns one
// FleetSettings record, its setters write it, and every region reads it
// through a const reference.
//
// A region keeps only its own state: the meeting records it placed (the
// plane reads them only through their owner, or hands them over on
// adoption), its id spaces, rebalancer, detector and stats. Controllers
// peer over MessageConduits carrying the same latency/loss/ack semantics
// as the southbound ControlChannel: meeting announcements and directory
// lookups (so any region can serve a Join for a meeting it does not
// own), a synchronous border-span negotiation (two owning controllers
// agree to extend a meeting's relay tree across the region boundary,
// riding the existing RelaySpan mechanics), and controller-to-controller
// heartbeats feeding the same miss-threshold failure detector the fleet
// already points at switches — on controller death the lowest live peer
// adopts the orphaned shard (switch ownership and meeting records) and
// life goes on.
//
// Every region count runs the same code. R == 1 is the federation of one:
// its single region owns every switch, and with no peers there are no
// conduits, announcements or heartbeat tasks — byte-identical to the
// pre-federation fleet.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/control_channel.hpp"
#include "core/controller.hpp"
#include "core/fleet.hpp"
#include "core/placement.hpp"
#include "core/redundancy.hpp"

namespace scallop::core {

struct FederationConfig {
  size_t regions = 1;
  // Total switches the fleet will register (fixes the region slices:
  // contiguous, sizes differing by at most one, remainder to the first
  // regions).
  size_t switches = 0;
  // East-west conduit characteristics (typically mirrored from the
  // southbound control-plane config).
  util::DurationUs east_west_latency = 0;
  double east_west_loss = 0.0;
  uint64_t seed = 1;
  // Controller-to-controller heartbeat cadence; 0 disables peering tasks
  // (and with them failure detection/adoption).
  util::DurationUs heartbeat_interval = util::Millis(50);
};

struct FederationStats {
  uint64_t directory_lookups = 0;         // Join/Leave owner resolutions
  uint64_t directory_lookups_remote = 0;  // ... that had to ask peers
  uint64_t directory_announcements = 0;   // new-meeting adverts to peers
  uint64_t border_spans = 0;              // cross-region guest grants
  uint64_t controller_heartbeats_seen = 0;
  uint64_t controller_heartbeats_missed = 0;  // detector ticks gone stale
  uint64_t controllers_failed = 0;            // KillController calls
  uint64_t shards_adopted = 0;                // whole-shard takeovers
  uint64_t meetings_adopted = 0;              // records moved by adoption
};

// R regional FleetControllers over one shared SwitchTable, behind one
// SignalingServer face. Switch indices are the testbed's numbering
// everywhere — on this API and inside every region.
class FederatedControlPlane : public SignalingServer {
 public:
  FederatedControlPlane(sim::Scheduler& sched, const FederationConfig& cfg);
  ~FederatedControlPlane() override;

  // Registers the next switch (index = registration order) in the shared
  // table, owned by the region whose slice holds it. Returns the index.
  size_t AddSwitch(ControlChannel& channel, net::Ipv4 sfu_ip);
  // Starts east-west peering (controller heartbeats + the per-region
  // failure detectors). Call once, after every switch is registered.
  // No-op for R == 1, which has no peers.
  void Activate();

  // ---- signaling (any region can serve any meeting) ----------------------
  // Follow-the-sun placement: mints the meeting in region `r` so load
  // genuinely lands where the spec says the day currently is, and
  // announces it east-west to every live peer. An out-of-range or dead
  // `r` (SIZE_MAX: no preference) takes the region holding the globally
  // least-loaded owned live switch.
  MeetingId CreateMeetingIn(size_t r);
  MeetingId CreateMeeting() { return CreateMeetingIn(SIZE_MAX); }
  JoinResult Join(MeetingId meeting, const sdp::SessionDescription& offer,
                  SignalingClient* client) override;
  void Leave(MeetingId meeting, ParticipantId participant) override;
  // Region-pinned signaling face for roaming clients: Joins/Leaves enter
  // the federation at region `r` (their current access region) instead of
  // the round-robin ingress, resolving the owner east-west from there. A
  // dead ingress region falls back to round-robin. The reference stays
  // valid for the plane's lifetime.
  SignalingServer& ingress(size_t r);
  // Join/Leave entering at region `r`; SIZE_MAX (what plain Join/Leave
  // pass) or a dead `r` takes the round-robin ingress. JoinVia throws
  // std::out_of_range when no live region owns the meeting (see
  // HasLiveOwner); LeaveVia is quiet then.
  JoinResult JoinVia(size_t r, MeetingId meeting,
                     const sdp::SessionDescription& offer,
                     SignalingClient* client);
  void LeaveVia(size_t r, MeetingId meeting, ParticipantId participant);
  // Whether a live region holds the meeting's record. False between
  // the owning controller's death and a peer's adoption of its shard —
  // a join in that window has nowhere to go yet.
  bool HasLiveOwner(MeetingId meeting) const;

  // ---- plane-wide settings (the one FleetSettings record) ------------------
  // Builds the one placement policy every region places with; takes
  // effect for future placements.
  void SetPlacementPolicy(const PlacementPolicyConfig& policy);
  // Heterogeneous fleets: one capacity class per switch, in the shared
  // table (see SwitchTable::SetCapacity).
  void SetSwitchCapacity(size_t switch_index, double capacity_class) {
    table_.SetCapacity(switch_index, capacity_class);
  }
  // Control-plane estimate of one relayed stream's bandwidth; the policy
  // shares it, so admission and registered load always agree.
  void set_relay_stream_bps(double bps);
  // Declares a backbone link on the shared view every region plans over.
  void ConfigureInterSwitchLink(size_t a, size_t b, double latency_s,
                                double capacity_bps) {
    table_.topology().SetLink(a, b, latency_s, capacity_bps);
  }
  // Reshapes a link once, then has every live region re-plan its relays
  // off overloaded links (FleetController::OnLinkCapacityChanged).
  void SetInterSwitchLinkCapacity(size_t a, size_t b, double capacity_bps);
  // The shared link-state view: every declared link and all the relay
  // load any region registered on it.
  const InterSwitchTopology& topology() const { return table_.topology(); }
  // Stores the rebalancer config and starts every live region's own
  // rebalancer task. Throws std::invalid_argument unless the interval is
  // positive (a positive interval is what turns the rebalancer on).
  void EnableRebalancer(const RebalanceConfig& cfg);
  // Redundant dual relay trees + make-before-break migration. Off by
  // default (classic behaviour). Must be set before meetings span;
  // applies to relays installed afterwards.
  void SetRedundancy(const RedundancyConfig& cfg);
  // See MeetingMovedCallback / MeetingMovedHitlessCallback (fleet.hpp).
  void SetMigrationCallback(MeetingMovedCallback cb) {
    settings_.on_moved = std::move(cb);
  }
  void SetHitlessMigrationCallback(MeetingMovedHitlessCallback cb) {
    settings_.on_moved_hitless = std::move(cb);
  }

  // ---- fleet state ---------------------------------------------------------
  void FreezeMeetings(const std::vector<MeetingId>& meetings);
  MeetingPlacement PlacementOf(MeetingId meeting) const;
  std::pair<size_t, MeetingId> PlacementDetail(MeetingId meeting) const;
  std::vector<MeetingRelay> RelaysOf(MeetingId meeting) const;
  bool IsAlive(size_t switch_index) const { return table_[switch_index].alive; }
  void ReviveSwitch(size_t switch_index);
  // Participants and meetings on a switch, whichever region placed them.
  int LoadOf(size_t switch_index) const {
    return table_[switch_index].participants;
  }
  int MeetingsOn(size_t switch_index) const {
    return table_[switch_index].meetings;
  }
  // Sum of every region's FleetStats (dead regions included — their
  // history happened).
  FleetStats TotalFleetStats() const;

  // ---- federation control -------------------------------------------------
  // Kills region `r`'s controller: its east-west tasks stop, its
  // FleetController shuts down (southbound telemetry falls on deaf ears;
  // signaling into it throws). Switch agents keep forwarding media — a
  // controller death is not a switch death. Peers notice via missed
  // controller heartbeats and the lowest live region adopts the shard.
  void KillController(size_t r);
  bool RegionAlive(size_t r) const { return !regions_[r].dead; }
  // The region holding the meeting's record (dead or alive); SIZE_MAX
  // when unknown.
  size_t OwnerRegionOf(MeetingId meeting) const;
  size_t RegionOfSwitch(size_t switch_index) const {
    return table_[switch_index].owner;
  }

  size_t regions() const { return regions_.size(); }
  size_t switch_count() const { return table_.size(); }
  FleetController& region(size_t r) { return *regions_[r].controller; }
  const FleetController& region(size_t r) const {
    return *regions_[r].controller;
  }
  const FederationStats& federation_stats() const { return stats_; }
  // Aggregate east-west message accounting (all conduits share it).
  const ConduitStats& east_west_stats() const { return ew_stats_; }

  // Enables structured tracing across the whole plane: each region's
  // controller traces on "region:<r>", each east-west conduit on
  // "ew:<a>-<b>", and the plane's own transitions (lookups, controller
  // deaths, adoptions, border spans) on "federation". Controller
  // heartbeats stay untraced — at 20 Hz x R(R-1) they would drown the
  // command timeline the same way switch heartbeats would.
  void set_trace(obs::TraceLog* trace);

 private:
  struct Region {
    std::unique_ptr<FleetController> controller;
    bool dead = false;
    bool adopted = false;  // shard already taken over by a peer
    // Peer liveness as *this* region observes it.
    std::vector<util::TimeUs> peer_last_seen;
    std::vector<bool> peer_alive;
    // Directory cache: meeting -> owning region, learned from
    // announcements and lookups. A cache, not truth — verified against
    // the owner's shard on use.
    std::map<MeetingId, size_t> owner_cache;
    // Border guests this region (as meeting owner) negotiated:
    // meeting -> guest switch index. A dead guest is dropped on use.
    std::map<MeetingId, size_t> border_guest;
    std::unique_ptr<sim::PeriodicTask> hb_task;
    std::unique_ptr<sim::PeriodicTask> detector_task;
  };

  // The conduit between regions a and b (unordered pair; one per pair so
  // each peering link has its own RNG stream).
  MessageConduit& ConduitFor(size_t a, size_t b);
  // (region, switch index) of the owned live switch with the lowest
  // capacity-weighted load (participants, then meetings) across live
  // regions other than `skip`, scanned region by region; {SIZE_MAX,
  // SIZE_MAX} when none. New meetings go to its region; border spans
  // borrow it.
  std::pair<size_t, size_t> LeastLoadedOwnedSwitch(
      size_t skip = SIZE_MAX) const;
  // Resolves which live region holds `meeting`'s record for an ingress
  // region: own shard, then verified cache, then a peer query
  // round (two east-west messages per peer asked). SIZE_MAX when no live
  // region has it.
  size_t ResolveOwner(size_t ingress, MeetingId meeting);
  size_t NextIngress();
  // The ingress region for JoinVia/LeaveVia (see there).
  size_t IngressFor(size_t r);
  size_t LowestLiveRegion() const;
  void SendControllerHeartbeats(size_t from);
  void OnControllerHeartbeat(size_t at, size_t from);
  // Failure-detector tick for region `r`'s view of its peers; the same
  // miss-threshold semantics the fleet uses for switches, re-pointed at
  // controllers. The lowest live region performs the adoption.
  void CheckControllerPeers(size_t r);
  void AdoptRegion(size_t adopter, size_t dead);
  // Every region's switch-down handler: LoseSwitch on the owner first,
  // then on every other live region in order.
  void LoseSwitchEverywhere(size_t switch_index);
  // Owner-side border-span planning hook: a guest switch for `meeting` to
  // span onto (the least-loaded owned switch of a live peer region,
  // borrowed via a synchronous east-west negotiation); SIZE_MAX when no
  // peer can lend or the handshake is lost.
  size_t BorderGuestFor(size_t owner, MeetingId meeting);
  size_t SliceOf(size_t switch_index) const;
  // The one place the policy is bound: the shared topology, the
  // relay-stream estimate and the redundancy factor.
  void BindPolicy();

  // The region-pinned SignalingServer face behind ingress(): a thin
  // forwarder so a client object (Peer) can hold "my access region" as a
  // plain SignalingServer& without knowing about federation.
  class RegionIngress : public SignalingServer {
   public:
    RegionIngress(FederatedControlPlane& plane, size_t region)
        : plane_(plane), region_(region) {}
    JoinResult Join(MeetingId meeting, const sdp::SessionDescription& offer,
                    SignalingClient* client) override {
      return plane_.JoinVia(region_, meeting, offer, client);
    }
    void Leave(MeetingId meeting, ParticipantId participant) override {
      plane_.LeaveVia(region_, meeting, participant);
    }

   private:
    FederatedControlPlane& plane_;
    size_t region_;
  };

  sim::Scheduler& sched_;
  FederationConfig cfg_;
  SwitchTable table_;        // shared by every region; declared before them
  FleetSettings settings_;  // likewise
  std::vector<Region> regions_;
  // One facade per region, built lazily by ingress(); unique_ptrs so
  // handed-out references survive vector growth.
  std::vector<std::unique_ptr<RegionIngress>> ingress_faces_;
  // Upper-triangle pair conduits (none for R == 1), indexed a * R + b.
  std::vector<std::unique_ptr<MessageConduit>> conduits_;
  ConduitStats ew_stats_;
  size_t next_ingress_ = 0;
  FederationStats stats_;
  obs::TraceLog* trace_ = nullptr;
  // Correlation id of the death chain open for observed peer q: assigned
  // at q's first heartbeat miss, reused by the death and adoption events
  // so the whole miss -> dead -> adopted sequence reads as one chain.
  std::vector<uint64_t> death_chain_;
};

}  // namespace scallop::core
