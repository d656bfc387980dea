// Fleet controller: one logical controller managing multiple Scallop
// switch data planes (paper Appendix A: "our control/data plane split has
// the potential to simplify deploying many SFU data planes under the
// management of a single controller. Our current system is already
// designed in this way").
//
// Each switch is reached through its southbound core::ControlChannel.
// The fleet is the signaling server (controller.hpp) and sends every
// command down itself: meeting records hold the one roster of each
// meeting, and each switch's id counters live in its SwitchTable record.
// The northbound telemetry stream (Heartbeat + SwitchLoadReport) flows
// back up, and on top of it the fleet runs two control loops:
//   * failure detection — a switch whose heartbeats stop for
//     `kHeartbeatMissThreshold` intervals is declared dead and its
//     meetings migrate to the least-loaded live standby (exactly once);
//   * load rebalancing (opt-in, EnableRebalancer) — when the *reported*
//     participant load of the busiest live switch exceeds the idlest by
//     the imbalance threshold, one meeting is re-homed via MigrateMeeting,
//     with a one-interval per-meeting cooldown so placements don't
//     ping-pong, skipping meetings whose members are mid-renegotiation
//     (failover blackout or a live migration's re-signaling window).
//
// Every controller is one region of a FederatedControlPlane
// (federation.hpp), which owns the two things all regions share: the
// SwitchTable and the FleetSettings record (placement policy, relay-stream
// estimate, redundancy and rebalance configs, move callbacks). A region
// reads both and keeps copies of neither.
//
// Placement is a first-class plan (core::MeetingPlacement): a pluggable
// PlacementPolicy homes each meeting and participant; when a meeting
// spans switches (CascadePolicy), the fleet programs hub-and-spoke relay
// spans over the southbound relay commands — every remote sender's
// selected stream crosses each inter-switch span exactly once, arriving
// at the downstream switch as a relay sender that local receivers (and
// the downlink filter, decode-target adaptation, NACK translation)
// treat like any uplink (paper Appendix A, cascading SFUs).
#pragma once

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

// One relay hop: a stream crossing from `upstream` to `downstream`. The
// upstream switch forwards it, known there as `upstream_sender`, over the
// leg of pseudo-receiver `relay_receiver`; the downstream switch takes it
// in as `relay_sender`. A primary relay is one hop; a standby chain is a
// sequence of them. FleetController::WireHop wires both.
struct RelayHop {
  size_t upstream = SIZE_MAX;         // switch forwarding the stream
  size_t downstream = SIZE_MAX;       // switch receiving it
  ParticipantId upstream_sender = 0;  // origin or its relay sender there
  ParticipantId relay_receiver = 0;   // pseudo-receiver on upstream
  ParticipantId relay_sender = 0;     // pseudo-sender on downstream
  uint16_t upstream_port = 0;         // relay leg port (media source)
  uint16_t downstream_port = 0;       // relay uplink port (media dest)
};

// One installed inter-switch relay: `origin`'s stream crossing one tree
// edge. On multi-level plans a stream reaches distant spans through a
// chain of these, one per hop.
struct MeetingRelay : RelayHop {
  ParticipantId origin = 0;  // the real sender being carried
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

// A secondary relay tree protecting one primary relay (origin's stream on
// the tree edge upstream -> downstream): a chain of hops along a
// link-disjoint (or maximally disjoint) backbone path. Interior hops park
// their relay senders in switch-local *protection meetings* (invisible to
// placement — they carry no members); the last hop ends at `downstream`
// and merges into the protected relay sender (that hop's `relay_sender`)
// as an extra source, behind one (origin, seq) dedup window. `active`
// flips true when the secondary has been promoted to primary
// (make-before-break): its last hop is then the relay sender's primary
// feed, and the chain's registered load is the relay's (the relay
// record's own backbone path and load are cleared).
struct SecondaryTree {
  ParticipantId origin = 0;
  size_t upstream = SIZE_MAX;
  size_t downstream = SIZE_MAX;
  std::vector<size_t> path;  // switch chain upstream..downstream
  std::vector<RelayHop> hops;
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
// plan, the membership roster (the only one: each member's legs are
// negotiated from it), the installed relay wiring, and the rebalancer's
// per-meeting hysteresis. Self-contained on purpose — every
// regional controller indexes the same switch table, so a dead
// controller's records move to its adopter unchanged.
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

struct FleetStats {
  uint64_t meetings_placed = 0;
  uint64_t placements_rebalanced = 0;  // MigrateMeeting moves + adoptions
  uint64_t rebalance_migrations = 0;   // moves made by the load rebalancer
  uint64_t heartbeats_seen = 0;
  uint64_t heartbeats_missed = 0;  // detector ticks with a stale heartbeat
  uint64_t load_reports_seen = 0;
  uint64_t switches_failed = 0;  // heartbeat-declared deaths
  uint64_t relay_spans_installed = 0;  // spans opened across switches
  uint64_t relay_spans_removed = 0;    // spans torn down (drain or failure)
  uint64_t relay_replans = 0;  // subtree collapses forced by link overload
  // Redundant dual relay trees + make-before-break migration.
  uint64_t secondary_trees_installed = 0;  // disjoint protection chains built
  uint64_t secondary_trees_removed = 0;    // protection chains torn down
  uint64_t tree_flips = 0;            // secondary promoted to primary
  uint64_t hitless_migrations = 0;    // make-before-break re-homes
};

// The switch facts the whole control plane shares, one copy of each
// (Onix-style network information base, SDN survey arXiv:1406.0440): a
// record per switch at its registration index, and the backbone
// link-state view. The FederatedControlPlane owns one and builds every
// region over it.
class SwitchTable {
 public:
  struct Record {
    ControlChannel* channel = nullptr;
    net::Ipv4 sfu_ip;
    // The switch's id counters, which stay with the switch whichever
    // region owns it: participant ids (set by Add) and switch-local
    // meeting ids.
    ParticipantId next_participant = 1;
    MeetingId next_meeting = 1;
    // The region that watches the switch and may home meetings there;
    // rewritten when a peer adopts the region's shard.
    size_t owner = 0;
    // Real participants homed here and switch-local meetings (homes, spans
    // and protection meetings), counted across every region.
    int participants = 0;
    int meetings = 0;
    double capacity_class = 1.0;  // SetCapacity
    bool alive = true;
    util::TimeUs last_heartbeat = 0;
    SwitchLoadReport last_report;
    bool report_seen = false;
  };

  // Registers a switch at the next index, owned by region `owner`. It
  // mints participant ids from index * 1'000'000 + 1, so the ranges are
  // disjoint across the whole plane. Returns the index.
  size_t Add(ControlChannel& channel, net::Ipv4 sfu_ip, size_t owner);
  // Heterogeneous fleets: declares a switch's relative forwarding
  // capacity. Placement and the rebalancer weigh every load comparison by
  // it (a class-2 switch absorbs twice the participants before looking as
  // busy as a class-1 one); the default 1.0 everywhere keeps decisions
  // byte-identical to the unweighted fleet. Must be positive.
  void SetCapacity(size_t index, double capacity_class);

  Record& operator[](size_t index) { return records_[index]; }
  const Record& operator[](size_t index) const { return records_[index]; }
  size_t size() const { return records_.size(); }
  // Every declared backbone link and all the relay load registered on it.
  InterSwitchTopology& topology() { return topology_; }
  const InterSwitchTopology& topology() const { return topology_; }

 private:
  std::vector<Record> records_;
  InterSwitchTopology topology_;
};

// Load-driven background rebalancer knobs. A positive interval turns the
// rebalancer on (FederatedControlPlane::EnableRebalancer); a meeting that
// just moved is left alone for one interval, so successive ticks cannot
// bounce it back while load reports still reflect the pre-move world.
struct RebalanceConfig {
  util::DurationUs interval = 0;  // 0: off
  // Minimum (busiest - idlest) reported participant gap before acting.
  int imbalance_threshold = 2;
};

// Invoked just before a meeting is migrated (rebalance or failure) or
// loses a collapsed span, with the ids of the members whose sessions die
// with it — every member on a migration, only those homed on the
// collapsed subtree on a span collapse — so the substrate/harness can
// drop and re-signal exactly those first.
using MeetingMovedCallback = std::function<void(
    MeetingId meeting, const std::vector<ParticipantId>& dropped)>;
// Fired after a hitless migration completes. Members keep their sessions,
// so nothing needs re-signaling; the harness uses it to measure frames
// lost during the planned move.
using MeetingMovedHitlessCallback = std::function<void(MeetingId meeting)>;

// The control-plane settings every region applies, stored once: the
// FederatedControlPlane owns the record and each region holds a const
// reference, so a region can never disagree with its plane.
struct FleetSettings {
  // Every region's placement policy (default LeastLoaded, the classic
  // single-homed behaviour), bound by FederatedControlPlane::BindPolicy.
  std::unique_ptr<PlacementPolicy> policy =
      std::make_unique<LeastLoadedPolicy>();
  // Per-stream relay bandwidth estimate registered on backbone links
  // (paper: 2.3 Mb/s mean 720p stream including audio + overhead).
  double relay_stream_bps = 2.3e6;
  // Redundant dual relay trees and/or make-before-break (hitless)
  // migration; the defaults keep the classic break-before-make fleet.
  RedundancyConfig redundancy;
  RebalanceConfig rebalance;
  MeetingMovedCallback on_moved;
  MeetingMovedHitlessCallback on_moved_hitless;
};

class FleetController : public SignalingServer,
                        public ControlChannel::EventSink {
 public:
  // Region `region` of a federation, over the plane's shared table and
  // settings record (both outlive the controller).
  FleetController(SwitchTable& table, const FleetSettings& settings,
                  size_t region);
  ~FleetController() override;

  // Registers a switch via its southbound channel at the next table
  // index, owned by this controller: it subscribes to the channel's
  // northbound telemetry and arms the heartbeat failure detector for it.
  // Every other region sees the switch through the shared table. Returns
  // the switch's index.
  size_t AddSwitch(ControlChannel& channel, net::Ipv4 sfu_ip);
  // Arms the heartbeat failure detector for `channel` if its heartbeat
  // cadence needs one and no equal-or-finer detector is already running.
  // Idempotent — AddSwitch calls it per owned channel, and shard adoption
  // re-arms it on the adopter.
  void ArmFailureDetector(const ControlChannel& channel);
  // Partitions the global id spaces for federation: this controller
  // mints meeting ids `first_meeting, first_meeting + stride, ...` and
  // relay pseudo-participant ids from `relay_id_base`.
  void ConfigureIdSpace(MeetingId first_meeting, MeetingId meeting_stride,
                        ParticipantId relay_id_base);
  // Whether this controller owns switch `switch_index`: it watches the
  // switch, and its placement policy and rebalancer may use it.
  bool OwnsSwitch(size_t switch_index) const {
    return table_[switch_index].owner == region_;
  }
  // Whether this controller holds the meeting's record.
  bool OwnsMeeting(MeetingId meeting) const {
    return meetings_.count(meeting) > 0;
  }

  // ---- federation hooks ---------------------------------------------------
  // Owner-side border-span planner: when the placement policy's budget
  // says the home switch is full and the policy has nowhere local left,
  // Join asks the provider for a guest switch (one another region owns)
  // to span onto; SIZE_MAX declines.
  void SetBorderSpanProvider(std::function<size_t(MeetingId)> provider) {
    border_provider_ = std::move(provider);
  }
  // Switch-death fan-out: once OnSwitchDown has marked a switch dead in
  // the table, `handler` has every live region LoseSwitch it.
  void SetSwitchDownHandler(std::function<void(size_t)> handler) {
    switch_down_ = std::move(handler);
  }
  // Controller death: cancels the periodic tasks and refuses new work
  // (signaling throws, telemetry is ignored). State is left intact for a
  // peer to adopt.
  void Shutdown();
  // Takes over a dead peer's shard; both controllers share the switch
  // table. First the peer's switches change owner in ascending order, each
  // re-pointing its telemetry subscription and failure detection here;
  // then its meeting records move over unchanged. Counts, liveness and
  // registered relay load already live in the table. Returns the number
  // of meeting records adopted.
  size_t AdoptShardFrom(FleetController& failed);

  // ---- inter-switch topology (backbone link-state view) ------------------
  // The switch table's one view of the whole backbone, shared by every
  // region. Default: implicit full mesh with zero latency and unlimited
  // capacity (classic hub-and-spoke plans are unchanged). Declaring a link
  // (SetLink) flips the view to an explicit backbone; relay wiring then
  // registers its estimated per-stream load along each relay's backbone
  // path, and a capacity cut that overloads a link collapses the subtrees
  // riding it so the policy re-plans them (OnLinkCapacityChanged).
  InterSwitchTopology& topology() { return table_.topology(); }
  const InterSwitchTopology& topology() const { return table_.topology(); }
  // Mid-run capacity change already written to topology(): re-plans this
  // controller's relays off overloaded links, on one causal chain.
  void OnLinkCapacityChanged(size_t a, size_t b, double capacity_bps);
  // Control-plane estimate of one relayed stream's bandwidth (the
  // plane's FleetSettings::relay_stream_bps, which the placement policy
  // shares, so admission and registered load always agree).
  double relay_stream_bps() const { return settings_.relay_stream_bps; }
  // Reconciles every meeting's protection once (ReconcileProtection), so
  // relays with a standby flip off overloaded links. Then collapses the
  // child subtree of each tree edge whose current path still crosses an
  // overloaded link, one at a time until none is left, so members
  // re-join and the policy re-plans them with the updated link-state view.
  void ReplanOverloadedLinks();

  // Creates a meeting on the switch the policy picks.
  MeetingId CreateMeeting();

  // core::SignalingServer — homes the participant per the policy (the
  // home switch or a relay span, creating the span and its relay wiring on
  // first use), then signals that switch: the uplink, an answer naming the
  // SFU, a leg each way with every member homed there (in id order), and
  // a leg toward every relay sender parked there. Leave is guarded by
  // per-meeting membership: leaving a meeting one never joined (or
  // already left) does not skew the switch's load.
  JoinResult Join(MeetingId meeting, const sdp::SessionDescription& offer,
                  SignalingClient* client) override;
  void Leave(MeetingId meeting, ParticipantId participant) override;
  // Ends the meeting everywhere (home and spans), draining any
  // still-joined members so freed capacity is visible to placement.
  void EndMeeting(MeetingId meeting);

  // ---- northbound telemetry (ControlChannel::EventSink) -----------------
  void OnHeartbeat(size_t switch_index) override;
  void OnLoadReport(size_t switch_index,
                    const SwitchLoadReport& report) override;

  // Starts this region's periodic load-driven rebalancer at the plane's
  // FleetSettings::rebalance cadence (requires at least one registered
  // switch; decisions use the latest SwitchLoadReports).
  void EnableRebalancer();

  // Marks meetings as mid-renegotiation (failover blackout): the load
  // rebalancer leaves them alone until a member re-joins. MigrateMeeting
  // freezes its meeting the same way on its own.
  void FreezeMeetings(const std::vector<MeetingId>& meetings);
  bool IsFrozen(MeetingId meeting) const;

  // ---- failure handling / migration -------------------------------------
  // Marks the switch dead in the table, then hands it to the switch-down
  // handler (LoseSwitch on every live region). Idempotent: a switch
  // already marked dead is left alone, so heartbeat detection can never
  // migrate a dead switch's meetings twice.
  void OnSwitchDown(size_t switch_index);
  // Drops this controller's stake in a switch the table marks dead.
  // Meetings homed on it (only ever on a switch it owns) migrate to the
  // least-loaded live standby it owns (no-op per meeting when none
  // exists); spans onto it collapse — their members re-join and the
  // policy re-plans them onto live switches. Members of migrated or
  // collapsed meetings are dropped with their sessions and must re-Join.
  // Then every meeting's protection is reconciled around the dead switch.
  void LoseSwitch(size_t switch_index);
  // Brings a switch back (restarted, empty). Meetings migrated away stay
  // on their standby; the revived switch only receives new placements.
  void ReviveSwitch(size_t switch_index);
  bool IsAlive(size_t switch_index) const { return table_[switch_index].alive; }
  // Re-homes one meeting onto `target_switch`: tears the meeting down
  // everywhere it currently lives (home, spans, relay wiring), creates a
  // fresh single-homed meeting on the target, and drops current members
  // (the caller re-signals them; the policy re-plans spans as they
  // arrive). Increments placements_rebalanced.
  void MigrateMeeting(MeetingId meeting, size_t target_switch);

  // Relative forwarding capacity (SwitchTable::SetCapacity).
  double CapacityClassOf(size_t switch_index) const {
    return table_[switch_index].capacity_class;
  }

  size_t switch_count() const { return table_.size(); }
  // The meeting's distribution plan (home switch + relay spans); an
  // invalid placement (home == SIZE_MAX) when unknown.
  MeetingPlacement PlacementOf(MeetingId meeting) const;
  // (home switch index, home-switch-local meeting id); {SIZE_MAX, 0} if
  // unknown.
  std::pair<size_t, MeetingId> PlacementDetail(MeetingId meeting) const;
  // Current participant load of a switch (real participants homed there,
  // by any region).
  int LoadOf(size_t switch_index) const {
    return table_[switch_index].participants;
  }
  int MeetingsOn(size_t switch_index) const {
    return table_[switch_index].meetings;
  }
  net::Ipv4 SfuIpOf(size_t switch_index) const {
    return table_[switch_index].sfu_ip;
  }
  bool IsMember(MeetingId meeting, ParticipantId participant) const;
  const FleetStats& stats() const { return stats_; }

  // Enables structured tracing of fleet-level transitions (heartbeat
  // misses, switch deaths, migrations, replans, redundancy flips) on
  // `track` ("fleet" for a plane of one region, "region:<r>" otherwise).
  // Southbound command tracing is per-channel (ControlChannel::
  // EnableTrace); this covers the control loops above the channels.
  void set_trace(obs::TraceLog* trace, std::string track) {
    trace_ = trace;
    trace_track_ = std::move(track);
  }
  obs::TraceLog* trace() const { return trace_; }

  // Relay wiring currently installed for a meeting (empty when
  // single-homed).
  std::vector<MeetingRelay> RelaysOf(MeetingId meeting) const;
  // Secondary (standby or promoted) relay chains currently planned for a
  // meeting — empty unless redundant trees are on and the meeting spans.
  std::vector<SecondaryTree> SecondariesOf(MeetingId meeting) const;

 private:
  // The meeting's record; nullptr when this controller does not hold it.
  MeetingRecord* Find(MeetingId meeting);
  const MeetingRecord* Find(MeetingId meeting) const;
  // Switch-local meeting id on `switch_index` (home or a span).
  MeetingId LocalMeetingOn(const MeetingRecord& st, size_t switch_index) const;
  std::vector<SwitchLoad> Loads() const;

  // ---- signaling one switch ------------------------------------------------
  // Opens a switch-local meeting with the switch's next local id, and
  // counts it there.
  MeetingId OpenLocalMeeting(size_t switch_index);
  // Ends the meeting's home or span meeting on `switch_index`: each member
  // homed there hears that every sender it receives there (the other
  // local senders and the relay senders parked there) left, then the
  // switch drops the meeting.
  void EndLocalMeeting(const MeetingRecord& st, size_t switch_index);
  // Opens `receiver`'s leg for media from `sender` (a member or a relay
  // sender) on `switch_index`: the client allocates a local socket, the
  // switch a port, and the client learns where the media arrives from.
  void OpenLeg(const MeetingRecord& st, size_t switch_index,
               ParticipantId receiver, SignalingClient& client,
               ParticipantId sender, uint32_t video_ssrc,
               uint32_t audio_ssrc);

  // Creates the span's switch-local meeting (parented per the policy's
  // ChooseSpanParent) and routes every existing sender's stream into it
  // along the relay tree.
  RelaySpan& EnsureSpan(MeetingRecord& st, size_t switch_index);
  // Installs (idempotently) the relay carrying `origin`'s stream onto
  // `downstream`, forwarding from `upstream` where the stream is known as
  // `upstream_sender`; wires receive legs for real members already homed
  // downstream and registers the hop's backbone load. Returns the relay
  // sender id on the downstream switch.
  ParticipantId EnsureRelay(MeetingRecord& st, size_t upstream,
                            size_t downstream, ParticipantId origin,
                            ParticipantId upstream_sender,
                            const SenderIntent& origin_intent);
  // Wires one hop carrying `stream`'s media: reserves the upstream leg's
  // port, has the downstream switch take the stream in on `down_meeting`
  // as relay sender `hop.relay_sender` (with `merge`, an extra source of
  // that existing sender at `hop.downstream_port`), then installs the
  // upstream leg on `up_meeting`.
  void WireHop(RelayHop& hop, MeetingId up_meeting, MeetingId down_meeting,
               const MeetingRelay& stream, bool merge);
  // Extends `origin`'s relay chain hop by hop along the tree path from its
  // home switch to `target_switch` (idempotent per edge); returns its
  // sender id on the target.
  ParticipantId EnsureSenderAt(MeetingRecord& st, ParticipantId origin,
                               size_t origin_switch, size_t target_switch,
                               const SenderIntent& origin_intent);
  // Routes `origin`'s stream (homed on `origin_switch`) to every other
  // switch on the plan, per hop along the relay tree — exactly one relay
  // copy per tree edge.
  void RouteSenderEverywhere(MeetingRecord& st, ParticipantId origin,
                             size_t origin_switch,
                             const SenderIntent& origin_intent);
  // Tears down every relay carrying `origin`'s stream (it left).
  void RemoveSenderRelays(MeetingRecord& st, ParticipantId origin);
  // Releases the backbone load a relay registered when it was installed.
  void UnregisterRelayLoad(const MeetingRelay& relay);
  // Tears down one span entirely — child spans (its subtree) first, then
  // relay wiring, the span-local meeting, and any members still homed
  // there (their sessions are gone).
  void TearDownSpan(MeetingRecord& st, size_t switch_index, bool switch_dead);
  void EraseParticipantFromPlacement(MeetingRecord& st, ParticipantId p);
  // Members homed on `root`'s span and every span below it in the relay
  // tree: the sessions a collapse of that subtree drops.
  std::vector<ParticipantId> SubtreeMembers(const MeetingRecord& st,
                                            size_t root) const;
  ParticipantId NextRelayId();

  // ---- redundant dual relay trees -----------------------------------------
  // The one place that decides protection (no-op unless redundant trees
  // run over an explicit backbone). A failure is a backbone link whose
  // registered load exceeds its capacity, or a switch the table marks
  // dead. One pass over the relays in plan order, reading the failures
  // afresh before each: drop its standby if a failure lands on it, plan a
  // standby if it has none, and if its current transport rides a failure
  // or is gone, flip onto the standby and plan a new one.
  void ReconcileProtection(MeetingRecord& st);
  // Plans a link-disjoint (or maximally disjoint) secondary chain for one
  // relay, avoiding its current transport, the failed links and every
  // link of a dead switch, and installs it hop by hop: interior hops are
  // relay senders in protection meetings, the last hop attaches to the
  // primary relay sender as an extra dedup'd source. Every chain leg (and
  // the primary's forwarding leg) gets its decode target pinned to full
  // quality so both trees carry identical (ssrc, seq) streams. Declines
  // (returns nullptr) when no path exists, when the best one still crosses
  // a failure or is the current transport, or when its residual capacity
  // is below one relay stream, so a standby never overloads a link.
  SecondaryTree* PlanSecondary(
      MeetingRecord& st, MeetingRelay& r,
      const std::vector<std::pair<size_t, size_t>>& failures);
  // Make-before-break promotion: the downstream merge point flips to the
  // secondary source, the old transport drains (the relay's own leg, or
  // the chain an earlier flip promoted), and the chain becomes the
  // relay's transport, its registered load with it.
  void FlipRelay(MeetingRecord& st, MeetingRelay& r, SecondaryTree& tree);
  // Removes one secondary chain's wiring and forgets the chain; returns
  // the next one. Commands to a switch the table marks dead are skipped —
  // its state died with it. An active chain keeps its last hop's merge
  // source: after a flip that is the relay sender's primary feed, which
  // dies with the relay sender itself.
  std::vector<SecondaryTree>::iterator DropSecondary(
      MeetingRecord& st, std::vector<SecondaryTree>::iterator tree);
  // Switch-local protection meeting hosting interior chain hops on
  // `switch_index` (created on first use).
  MeetingId ProtectionMeetingOn(MeetingRecord& st, size_t switch_index);
  // Ends protection meetings no remaining secondary routes through.
  void GcProtectionMeetings(MeetingRecord& st);
  // Re-homes one meeting without dropping members: spans the target, then
  // re-roots the placement tree there — the old home becomes a
  // member-carrying span that drains as members churn.
  void HitlessMigrate(MeetingRecord& st, MeetingId meeting, size_t target);

  // Failure-detector tick: declares switches with
  // kHeartbeatMissThreshold consecutive missed heartbeats dead.
  void CheckHeartbeats();
  // Rebalancer tick: at most one meeting moves per tick.
  void Rebalance();

  // A switch is declared dead after this many silent heartbeat intervals.
  static constexpr int kHeartbeatMissThreshold = 3;

  // Null-safe printf-style trace emission on the controller's track. The
  // event carries the chain id the surrounding control-loop step opened
  // (active_chain_), so nested calls (OnSwitchDown -> MigrateMeeting ->
  // TearDownSpan) stitch into one causal chain without threading ids
  // through every signature.
  void Trace(obs::Category category, const char* name, const char* fmt, ...)
      __attribute__((format(printf, 4, 5)));

  SwitchTable& table_;
  const FleetSettings& settings_;
  // This controller's region: it owns the switches whose record names it.
  size_t region_ = 0;
  // The meeting records this controller placed (or adopted): placement,
  // membership, relay wiring, rebalance hysteresis.
  std::map<MeetingId, MeetingRecord> meetings_;
  MeetingId next_meeting_ = 1;
  // Meeting ids advance by this much per CreateMeeting: R under an
  // R-region federation (region r mints r+1, r+1+R, ...).
  MeetingId meeting_stride_ = 1;
  // Relay pseudo-participant ids: a dedicated range far above any switch's
  // participant range (switch i mints from i*1'000'000 + 1), offset so
  // the 16-bit truncations used as replication/egress RIDs cannot collide
  // with real members' truncations on the same switch.
  ParticipantId next_relay_id_ = 0x4000'0000u + 60'000u;
  sim::Scheduler* sched_ = nullptr;  // from the first registered channel
  std::unique_ptr<sim::PeriodicTask> detector_task_;
  // Heartbeat interval the detector currently ticks at (0: not armed);
  // ArmFailureDetector only rebuilds the task for a strictly finer one.
  util::DurationUs detector_interval_ = 0;
  std::unique_ptr<sim::PeriodicTask> rebalance_task_;
  bool dead_ = false;  // Shutdown() called (controller crashed)
  std::function<size_t(MeetingId)> border_provider_;
  std::function<void(size_t)> switch_down_;
  FleetStats stats_;
  obs::TraceLog* trace_ = nullptr;
  std::string trace_track_;
  // Correlation id of the causal chain currently being executed (a
  // heartbeat-declared death, a link-cut replan); 0 when idle.
  uint64_t active_chain_ = 0;
};

}  // namespace scallop::core
