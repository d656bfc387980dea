// Scallop's switch agent (paper §4-§5): the control program on the switch
// CPU. It receives copies of RTCP feedback, STUN and extended dependency
// descriptors from the data plane's CPU port, and reconfigures the data
// plane: REMB best-downlink filtering (the paper's filter function f),
// per-receiver decode-target selection, sequence-rewriter provisioning,
// and replication-tree management/migration via the TreeManager.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/dataplane.hpp"
#include "core/tree_manager.hpp"
#include "rtp/rtcp.hpp"
#include "sim/scheduler.hpp"
#include "stun/stun.hpp"
#include "util/stats.hpp"

namespace scallop::core {

// selectDecodeTarget(currDT, estHist, newEst) -> newDT  (paper §5.4).
// estHist carries recent REMB estimates (bps), newest last; senderRate is
// the agent's EWMA of the sender's transmit rate from SR reports.
using SelectDecodeTargetFn = std::function<int(
    int curr_dt, const std::vector<uint64_t>& est_hist, uint64_t new_est,
    uint64_t sender_rate_bps)>;

struct AgentConfig {
  net::Ipv4 sfu_ip;
  // No automatic decode-target changes this soon after a leg is created:
  // fresh GCC estimates and SR-rate readings are unreliable.
  util::DurationUs policy_warmup = util::Seconds(3);
};

struct AgentStats {
  uint64_t cpu_packets = 0;
  uint64_t stun_handled = 0;
  uint64_t remb_processed = 0;
  uint64_t rr_processed = 0;
  uint64_t sr_processed = 0;
  uint64_t nack_seen = 0;
  uint64_t pli_seen = 0;
  uint64_t keyframe_dd_processed = 0;
  uint64_t filter_flips = 0;   // best-downlink selection changes
  uint64_t dt_changes = 0;     // decode-target reconfigurations
  uint64_t dataplane_writes = 0;
  // Cascading relays (paper Appendix A).
  uint64_t relay_senders = 0;     // remote senders registered here
  uint64_t relay_legs = 0;        // relay legs toward downstream switches
  uint64_t relay_dt_changes = 0;  // DT switches applied to relay legs
  // Redundant dual relay trees.
  uint64_t relay_sources = 0;     // secondary sources attached to relays
  uint64_t relay_promotions = 0;  // secondary-to-primary tree flips
};

class SwitchAgent {
 public:
  SwitchAgent(sim::Scheduler& sched, DataPlaneProgram& dp,
              const AgentConfig& cfg);

  // Wire this as the switch's CPU-port handler.
  void OnCpuPacket(net::PacketPtr pkt);

  // ---- controller-facing API ----
  // In the deployed system these are southbound messages; controllers
  // reach them through core::ControlChannel (which also does the RPC
  // accounting). Every SFU port is assigned on the controller side and
  // passed in as `port`, so commands stay one-way.
  void CreateMeeting(MeetingId id);
  void RemoveMeeting(MeetingId id);
  // Registers a participant's uplink on SFU port `port`; returns it.
  uint16_t AddParticipant(MeetingId meeting, ParticipantId id,
                          net::Endpoint media_src, uint32_t video_ssrc,
                          uint32_t audio_ssrc, bool sends_video,
                          bool sends_audio, uint16_t port);
  void RemoveParticipant(MeetingId meeting, ParticipantId id);
  // Creates the (receiver <- sender) leg on SFU port `port`; returns it.
  uint16_t AddRecvLeg(MeetingId meeting, ParticipantId receiver,
                      ParticipantId sender, net::Endpoint receiver_client,
                      uint16_t port);

  // ---- cascading relays (paper Appendix A) ----
  // Registers a remote sender whose media arrives from `upstream_src` (a
  // relay leg on another switch) instead of a client: it participates in
  // replication trees, legs and the downlink filter exactly like a local
  // sender, but is excluded from the reported participant load.
  uint16_t AddRelaySender(MeetingId meeting, ParticipantId id,
                          net::Endpoint upstream_src, uint32_t video_ssrc,
                          uint32_t audio_ssrc, bool sends_video,
                          bool sends_audio, uint16_t port);
  // Forwards `sender`'s selected stream to a downstream switch's SFU:
  // installs a relay pseudo-receiver (the downstream SFU's stand-in) and
  // its receive leg, so the stream crosses the inter-switch link exactly
  // once and stays seq-rewrite-continuous (the leg owns a rewriter like
  // any receiver leg). Returns the relay leg's SFU port — the endpoint the
  // downstream switch sees the stream arrive from.
  uint16_t AddRelayLeg(MeetingId meeting, ParticipantId relay_receiver,
                       ParticipantId sender, net::Endpoint downstream_sfu,
                       uint16_t port);
  // Bulk teardown of one span's relay participants on this switch (the
  // pseudo-receivers toward it, or the relay senders from it).
  void RemoveRelaySpan(MeetingId meeting,
                       const std::vector<ParticipantId>& relay_ids);

  // ---- redundant dual relay trees ----
  // Attaches a *secondary* upstream source to an existing relay sender:
  // media arriving from `secondary_src` matches the same stream state and
  // receiver legs as the primary's, and arrivals from either source pass
  // a shared (origin, seq) dedup window first, so receivers see exactly
  // one copy regardless of which tree delivered it. No-op for unknown or
  // non-relay participants (lost-command semantics); idempotent.
  void AddRelaySource(MeetingId meeting, ParticipantId id,
                      net::Endpoint secondary_src, int dedup_window);
  // Tree flip: makes an attached secondary source the relay sender's
  // primary. The old primary's stream/egress state is removed, feedback
  // legs re-aim at the new upstream, and — when no other source remains —
  // the dedup window is retired. No-op unless `new_src` was attached.
  void PromoteRelaySource(MeetingId meeting, ParticipantId id,
                          net::Endpoint new_src);
  // Detaches a secondary source (protection teardown) without touching
  // the primary path.
  void RemoveRelaySource(MeetingId meeting, ParticipantId id,
                         net::Endpoint src);

  void SetDecodeTargetPolicy(SelectDecodeTargetFn fn) {
    select_dt_ = std::move(fn);
  }
  // Forces and pins a decode target (scripted experiments, tests and
  // redundant relay chains); the automatic policy never touches the pair
  // again.
  void ForceDecodeTarget(MeetingId meeting, ParticipantId receiver,
                         ParticipantId sender, int dt);

  const AgentStats& stats() const { return stats_; }
  TreeManager& tree_manager() { return trees_; }
  const TreeManager& tree_manager() const { return trees_; }
  // Load introspection for northbound SwitchLoadReports. Relay
  // pseudo-participants are excluded: they stand in for switches, not
  // users, and must not skew placement or rebalancing decisions.
  size_t meeting_count() const { return meetings_.size(); }
  size_t participant_count() const {
    return participants_.size() - relay_count_;
  }
  size_t relay_count() const { return relay_count_; }
  size_t tree_count() const { return dp_.sw().pre().tree_count(); }
  // Current decode target of (receiver <- sender).
  int DecodeTargetOf(ParticipantId receiver, ParticipantId sender) const;
  // Currently selected best downlink for a sender (0 = none yet).
  ParticipantId BestDownlinkOf(ParticipantId sender) const;
  uint64_t SenderRateOf(ParticipantId sender) const;

 private:
  struct Leg {
    uint16_t sfu_port = 0;
    net::Endpoint client;
  };
  // Everything a receiver tracks about one sender, in a single map entry
  // (one lookup per feedback event instead of one per field). Optional
  // fields model "no entry yet"; when a sender departs, the leg-scoped
  // fields are cleared but the upgrade hold-down (last_downgrade /
  // last_upgrade / backoff) survives, so a re-joining sender doesn't get
  // a free probe.
  struct PerSender {
    std::optional<Leg> leg;
    std::optional<int> dt;
    std::optional<util::Ewma> remb_ewma;
    std::vector<uint64_t> est_hist;
    std::optional<uint32_t> rewriter_index;
    std::optional<util::TimeUs> leg_created;
    std::optional<util::TimeUs> last_downgrade;
    std::optional<util::TimeUs> last_upgrade;
    std::optional<util::DurationUs> backoff;
  };
  struct Participant {
    ParticipantId id = 0;
    MeetingId meeting = 0;
    net::Endpoint media_src;
    uint16_t uplink_port = 0;
    uint32_t video_ssrc = 0;
    uint32_t audio_ssrc = 0;
    bool sends_video = false;
    bool sends_audio = false;
    bool is_relay = false;  // stands in for another switch's SFU
    // Redundant relay: additional upstream sources (the secondary tree's
    // last hop) whose media mirrors this sender's stream/egress state.
    std::vector<net::Endpoint> extra_srcs;
    int dedup_window = 0;
    std::map<ParticipantId, PerSender> by_sender;
  };
  struct SenderRate {
    util::Ewma rate{0.3};
    uint32_t last_octets = 0;
    util::TimeUs last_time = 0;
    bool seen = false;
  };
  struct Meeting {
    std::vector<ParticipantId> members;
    std::map<ParticipantId, ParticipantId> best_downlink;  // by sender
  };

  void HandleStun(const net::Packet& pkt);
  void HandleRtcp(const net::Packet& pkt);
  void HandleKeyframeDd(const net::Packet& pkt);
  void ProcessRemb(Participant& receiver, ParticipantId sender,
                   uint64_t bitrate);
  void RunDownlinkFilter(MeetingId meeting, ParticipantId sender);
  void ApplyDecodeTarget(Participant& receiver, ParticipantId sender,
                         int new_dt);
  void RebuildMeeting(MeetingId meeting);
  // Removes the data-plane state of `receiver`'s leg toward `sender`: the
  // leg's feedback port and, while the sender is known, its media egress
  // under the sender's source and each extra source, the feedback egress
  // and the SVC entry. Freeing the leg's rewriter is left to the caller.
  void RemoveLegState(ParticipantId receiver, ParticipantId sender,
                      const Leg& leg);
  // Re-installs the secondary-source mirror state (stream entries, media
  // egress, dedup windows) for one relay sender; idempotent, called after
  // every rebuild since Reconfigure rewrites primary entries in place.
  void SyncRelaySources(Participant& p);
  int DefaultPolicy(const Participant& receiver, ParticipantId sender,
                    int curr, uint64_t new_est, uint64_t sender_rate);
  SkipCadence CadenceFor(ParticipantId sender, int dt) const;

  sim::Scheduler& sched_;
  DataPlaneProgram& dp_;
  AgentConfig cfg_;
  TreeManager trees_;
  SelectDecodeTargetFn select_dt_;

  std::map<MeetingId, Meeting> meetings_;
  std::map<ParticipantId, Participant> participants_;
  std::set<std::pair<ParticipantId, ParticipantId>> pinned_dt_;
  std::map<uint32_t, SenderRate> sender_rates_;     // by video ssrc
  std::map<ParticipantId, uint16_t> dd_anchor_;     // keyframe anchor
  std::map<uint32_t, ParticipantId> ssrc_to_sender_;
  size_t relay_count_ = 0;

  AgentStats stats_;
};

}  // namespace scallop::core
