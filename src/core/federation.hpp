// Federated control plane (SDN survey arXiv:1406.0440 §V: distributed
// controllers; Contrail-style peered control nodes): R per-region
// controllers, each owning a contiguous slice of the switch fleet,
// replacing the single FleetController monolith at the top of the stack.
//
// The split happens in two layers:
//
//   * MeetingDirectory — FleetController's meeting state (placement,
//     membership, relay wiring, rebalance hysteresis) extracted behind a
//     shardable interface. Each regional controller owns exactly the
//     directory shard for the meetings it placed; the plane never peeks
//     into a shard except through its owner (or when adopting it).
//
//   * FederatedControlPlane — the east-west layer. Controllers peer over
//     MessageConduits carrying the same latency/loss/ack semantics as
//     the southbound ControlChannel: meeting announcements and directory
//     lookups (so any region can serve a Join for a meeting it does not
//     own), a synchronous border-span negotiation (two owning
//     controllers agree to extend a meeting's relay tree across the
//     region boundary, riding the existing RelaySpan mechanics), and
//     controller-to-controller heartbeats feeding the same
//     miss-threshold failure detector the fleet already points at
//     switches — on controller death the lowest live peer adopts the
//     orphaned shard (switches, directory, relay load) and life goes on.
//
// Every region count runs the same code. R == 1 is the federation of one:
// its single region owns every switch, so slices, index maps and owner
// lookups are identities, and with no peers there are no conduits,
// announcements or heartbeat tasks — byte-identical to the
// pre-federation fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/control_channel.hpp"
#include "core/controller.hpp"
#include "core/placement.hpp"
#include "core/redundancy.hpp"

namespace scallop::core {

class FleetController;
struct FleetStats;
struct RebalanceConfig;

// One installed inter-switch relay: `origin`'s stream crossing one tree
// edge from `upstream` to `downstream`. On multi-level plans a stream
// reaches distant spans through a chain of these, one per hop.
struct MeetingRelay {
  ParticipantId origin = 0;           // the real sender being carried
  size_t upstream = SIZE_MAX;         // switch forwarding the stream
  size_t downstream = SIZE_MAX;       // switch receiving it
  ParticipantId upstream_sender = 0;  // origin or its relay sender there
  ParticipantId relay_receiver = 0;   // pseudo-receiver on upstream
  ParticipantId relay_sender = 0;     // pseudo-sender on downstream
  uint16_t upstream_port = 0;         // relay leg port (media source)
  uint16_t downstream_port = 0;       // relay uplink port (media dest)
  uint32_t video_ssrc = 0;
  uint32_t audio_ssrc = 0;
  bool sends_video = false;
  bool sends_audio = false;
  // Backbone switches the hop physically crosses (upstream..downstream
  // over the topology's shortest path) and the per-stream load estimate
  // registered on each of those links while the relay is installed.
  std::vector<size_t> backbone_path;
  double load_bps = 0.0;
};

// One hop of a secondary (protection) relay chain. Interior hops park a
// dedicated relay sender in a switch-local *protection meeting* (invisible
// to placement — it carries no members); the terminal hop attaches to the
// protected primary relay sender as an extra source instead, merging the
// two trees behind one (origin, seq) dedup window.
struct ProtectionHop {
  size_t upstream = SIZE_MAX;
  size_t downstream = SIZE_MAX;
  ParticipantId sender_on_upstream = 0;  // id the stream is known by there
  ParticipantId relay_receiver = 0;      // pseudo-receiver on upstream
  ParticipantId relay_sender = 0;  // pseudo-sender downstream (interior) or
                                   // the protected relay sender (terminal)
  uint16_t upstream_port = 0;      // relay leg port (secondary media source)
  uint16_t downstream_port = 0;
  bool terminal = false;  // attaches to the primary relay via AddRelaySource
};

// A secondary relay tree protecting one primary relay (origin's stream on
// the tree edge upstream -> downstream): a chain of ProtectionHops along a
// link-disjoint (or maximally disjoint) backbone path. `active` flips true
// when the secondary has been promoted to primary (make-before-break): its
// terminal leg then belongs to the relay record and its registered load is
// accounted under the relay's backbone path.
struct SecondaryTree {
  ParticipantId origin = 0;
  size_t upstream = SIZE_MAX;
  size_t downstream = SIZE_MAX;
  ParticipantId protected_relay = 0;  // primary relay sender at downstream
  std::vector<size_t> path;           // switch chain upstream..downstream
  std::vector<ProtectionHop> hops;
  double load_bps = 0.0;
  bool active = false;
};

// One meeting member as the controller tracks it.
struct MeetingMemberInfo {
  size_t home_switch = SIZE_MAX;
  SignalingClient* client = nullptr;
  SenderIntent intent;  // what the member sends (parsed from its offer)
};

// Everything a controller knows about one meeting: the distribution
// plan, the membership roster, the installed relay wiring, and the
// rebalancer's per-meeting hysteresis. Self-contained on purpose — a
// record can be handed from a dead controller to its adopter wholesale
// (switch indices remapped, nothing else).
struct MeetingRecord {
  MeetingPlacement placement;
  std::map<ParticipantId, MeetingMemberInfo> members;
  std::vector<MeetingRelay> relays;
  // Redundant dual relay trees: one secondary per protected relay, plus
  // the switch-local protection meetings hosting interior chain hops
  // (switch index -> switch-local meeting id). Both empty whenever
  // redundancy is off.
  std::vector<SecondaryTree> secondaries;
  std::map<size_t, MeetingId> protection_meetings;
  // Mid-renegotiation (failover blackout / migration re-signal window):
  // the rebalancer must not touch the meeting. Cleared on re-Join.
  bool frozen = false;
  // Rebalancer hysteresis: when the meeting last migrated (valid only
  // once `migrated_once` is set).
  bool migrated_once = false;
  util::TimeUs last_migrated = 0;
};

// The shardable meeting-state store. A controller owns exactly one shard
// and goes through this interface for every meeting it tracks, so the
// store's locality is an implementation detail: the local shard below is
// a plain map, and the federation hands whole shards between controllers
// on adoption without FleetController noticing.
class MeetingDirectory {
 public:
  virtual ~MeetingDirectory() = default;
  virtual MeetingRecord* Find(MeetingId id) = 0;
  virtual const MeetingRecord* Find(MeetingId id) const = 0;
  virtual MeetingRecord& Emplace(MeetingId id, MeetingRecord record) = 0;
  virtual void Erase(MeetingId id) = 0;
  virtual size_t size() const = 0;
  // Every tracked meeting id, ascending. Iteration goes through this (not
  // raw map iterators) so mutation during a sweep is safe and sharded
  // backends need not expose stable iterators.
  virtual std::vector<MeetingId> Ids() const = 0;
};

// The default single-region shard: an in-memory ordered map.
class LocalDirectoryShard : public MeetingDirectory {
 public:
  MeetingRecord* Find(MeetingId id) override {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
  }
  const MeetingRecord* Find(MeetingId id) const override {
    auto it = records_.find(id);
    return it == records_.end() ? nullptr : &it->second;
  }
  MeetingRecord& Emplace(MeetingId id, MeetingRecord record) override {
    return records_.insert_or_assign(id, std::move(record)).first->second;
  }
  void Erase(MeetingId id) override { records_.erase(id); }
  size_t size() const override { return records_.size(); }
  std::vector<MeetingId> Ids() const override {
    std::vector<MeetingId> ids;
    ids.reserve(records_.size());
    for (const auto& [id, rec] : records_) ids.push_back(id);
    return ids;
  }

 private:
  std::map<MeetingId, MeetingRecord> records_;
};

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

// R regional FleetControllers behind one SignalingServer face. All
// switch indices on this API are *global* (the testbed's numbering);
// each region privately maps its slice to controller-local indices.
class FederatedControlPlane : public SignalingServer {
 public:
  FederatedControlPlane(sim::Scheduler& sched, const FederationConfig& cfg);
  ~FederatedControlPlane() override;

  // Registers the next switch (global index = registration order) with
  // its slice's regional controller. Returns the global index.
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
  // Whether a live region's directory holds the meeting. False between
  // the owning controller's death and a peer's adoption of its shard —
  // a join in that window has nowhere to go yet.
  bool HasLiveOwner(MeetingId meeting) const;

  // ---- forwarded fleet surface (global switch indices) -------------------
  void SetPlacementPolicy(const PlacementPolicyConfig& policy);
  // Heterogeneous fleets: forwards a switch's capacity class to its
  // owning region's controller (global index; see
  // FleetController::SetSwitchCapacity).
  void SetSwitchCapacity(size_t global_switch, double capacity_class);
  void set_relay_stream_bps(double bps);
  void ConfigureInterSwitchLink(size_t a, size_t b, double latency_s,
                                double capacity_bps);
  void SetInterSwitchLinkCapacity(size_t a, size_t b, double capacity_bps);
  // The plane's global link-state view (per-region controllers keep
  // slice-local views and the relay load they placed; use LinkLoad for
  // the federated load on a link).
  const InterSwitchTopology& topology() const { return global_topology_; }
  void EnableRebalancer(const RebalanceConfig& cfg);
  // Redundant dual relay trees + make-before-break migration: forwarded
  // to every region's controller. Off by default (classic behaviour).
  void SetRedundancy(const RedundancyConfig& cfg);
  // Fired after a hitless (make-before-break) migration completes; unlike
  // the migration callback, members were never dropped. Global indices.
  void SetHitlessMigrationCallback(
      std::function<void(MeetingId, size_t, size_t)> cb);
  void SetMigrationCallback(std::function<void(MeetingId, size_t, size_t)> cb);
  void FreezeMeetings(const std::vector<MeetingId>& meetings);
  MeetingPlacement PlacementOf(MeetingId meeting) const;
  std::pair<size_t, MeetingId> PlacementDetail(MeetingId meeting) const;
  std::vector<MeetingRelay> RelaysOf(MeetingId meeting) const;
  bool IsAlive(size_t global_switch) const;
  int LoadOf(size_t global_switch) const;
  int MeetingsOn(size_t global_switch) const;
  net::Ipv4 SfuIpOf(size_t global_switch) const;
  void ReviveSwitch(size_t global_switch);
  // Relay load currently registered on backbone link a-b, summed across
  // every live region's slice-local view.
  double LinkLoad(size_t a, size_t b) const;
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
  // The region whose directory holds the meeting (dead or alive);
  // SIZE_MAX when unknown.
  size_t OwnerRegionOf(MeetingId meeting) const;
  size_t RegionOfSwitch(size_t global_switch) const {
    return owner_region_[global_switch];
  }

  size_t regions() const { return regions_.size(); }
  size_t switch_count() const { return owner_region_.size(); }
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
    // Controller-local switch index -> global index. Grows past the
    // original slice when the region borrows border guests or adopts a
    // dead peer's switches; cleared when the region's shard is adopted.
    std::vector<size_t> local_to_global;
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
    // meeting -> owner-local guest switch index.
    std::map<MeetingId, size_t> border_guest;
    std::unique_ptr<sim::PeriodicTask> hb_task;
    std::unique_ptr<sim::PeriodicTask> detector_task;
  };

  // The conduit between regions a and b (unordered pair; one per pair so
  // each peering link has its own RNG stream).
  MessageConduit& ConduitFor(size_t a, size_t b);
  // (region, controller-local index) of the owned live switch with the
  // lowest capacity-weighted load (participants, then meetings) across
  // live regions other than `skip`; {SIZE_MAX, SIZE_MAX} when none. New
  // meetings go to its region; border spans borrow it.
  std::pair<size_t, size_t> LeastLoadedOwnedSwitch(
      size_t skip = SIZE_MAX) const;
  // Resolves which live region's directory holds `meeting` for an
  // ingress region: own shard, then verified cache, then a peer query
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
  // Owner-side border-span planning hook: a guest switch for `meeting` to
  // span onto (the least-loaded owned switch of a live peer region,
  // borrowed via a synchronous east-west negotiation), as an owner-local
  // index; SIZE_MAX when no peer can lend or the handshake is lost.
  size_t BorderGuestFor(size_t owner, MeetingId meeting);
  size_t ToGlobal(size_t r, size_t local) const;
  // Controller-local index of `global_switch` within region r (owned,
  // borrowed or adopted); false when the region doesn't know the switch.
  bool ToLocal(size_t r, size_t global_switch, size_t* local) const;
  size_t SliceOf(size_t global_switch) const;

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
  std::vector<Region> regions_;
  // One facade per region, built lazily by ingress(); unique_ptrs so
  // handed-out references survive vector growth.
  std::vector<std::unique_ptr<RegionIngress>> ingress_faces_;
  // Global switch index -> owning region / owner-local index. Ownership
  // moves on adoption.
  std::vector<size_t> owner_region_;
  std::vector<size_t> owner_local_;
  // Upper-triangle pair conduits (none for R == 1), indexed a * R + b.
  std::vector<std::unique_ptr<MessageConduit>> conduits_;
  ConduitStats ew_stats_;
  // Global link-state view (per-region controllers only see their
  // slice).
  InterSwitchTopology global_topology_;
  std::function<void(MeetingId, size_t, size_t)> migration_cb_;
  std::function<void(MeetingId, size_t, size_t)> hitless_cb_;
  size_t next_ingress_ = 0;
  FederationStats stats_;
  obs::TraceLog* trace_ = nullptr;
  // Correlation id of the death chain open for observed peer q: assigned
  // at q's first heartbeat miss, reused by the death and adoption events
  // so the whole miss -> dead -> adopted sequence reads as one chain.
  std::vector<uint64_t> death_chain_;
};

}  // namespace scallop::core
