// The southbound control channel (SDN survey arXiv:1406.0440; S2VC's
// QoE control loop, arXiv:1809.03412): the typed message boundary between
// a controller and one switch agent. Southbound, it carries the command
// vocabulary the controller programs the switch with (CreateMeeting,
// AddParticipant, AddRecvLeg, ForceDecodeTarget, ...); northbound, it
// carries the switch's telemetry stream (periodic Heartbeat and
// SwitchLoadReport events). Every message is dispatched through the
// sim::Scheduler with configurable per-message latency and iid loss, so
// control-plane delay and unreliability are first-class simulated
// quantities. The defaults (zero latency, zero loss) apply commands
// inline, which keeps the packet history of channel-driven stacks
// byte-identical to the old direct-call wiring.
//
// Resource allocation lives on the controller side of the boundary: the
// channel assigns SFU ports at send time, so commands are pure one-way
// "install this state" messages and a lost command simply never
// materializes on the switch — exactly the failure a real southbound
// channel exhibits.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/switch_agent.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "util/random.hpp"

namespace scallop::core {

struct ControlChannelConfig {
  // One-way latency applied to every southbound command and northbound
  // event. Zero means inline (synchronous) delivery.
  util::DurationUs latency = 0;
  // iid per-message loss probability (commands and events alike).
  double loss_rate = 0.0;
  uint64_t seed = 1;
  // Northbound telemetry cadence; tasks are armed once a sink subscribes.
  util::DurationUs heartbeat_interval = util::Millis(50);
  util::DurationUs load_report_interval = util::Millis(500);
};

// Periodic northbound load snapshot: absolute control-plane counts plus
// data-plane activity deltas since the previous report.
struct SwitchLoadReport {
  int meetings = 0;
  int participants = 0;
  int trees = 0;
  uint64_t cpu_packets_delta = 0;
  uint64_t dataplane_writes_delta = 0;
};

struct ControlChannelStats {
  uint64_t commands_sent = 0;     // controller -> switch sends (incl. retx)
  uint64_t commands_applied = 0;  // reached the agent
  uint64_t commands_dropped = 0;  // lost on the channel
  uint64_t commands_retransmitted = 0;  // unacked reliable commands resent
  uint64_t events_sent = 0;       // heartbeats + load reports emitted
  uint64_t events_delivered = 0;
  uint64_t events_dropped = 0;
};

// Raw accounting for one class of messages riding a MessageConduit.
struct ConduitStats {
  uint64_t sent = 0;  // includes retransmissions
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t retransmitted = 0;  // unacked reliable messages resent
};

// The transport underneath a control channel: one direction's worth of
// latency, iid loss and bounded ack/retransmission machinery, factored
// out so it can run *horizontally* too — the federation's east-west
// controller peering rides the exact same semantics the southbound
// channel has always had. One RNG per conduit; zero-loss conduits take
// no draws and latency <= 0 delivers inline, which is what keeps the
// pre-conduit packet histories byte-identical.
class MessageConduit {
 public:
  MessageConduit(sim::Scheduler& sched, util::DurationUs latency,
                 double loss_rate, uint64_t seed)
      : sched_(sched), latency_(latency), loss_rate_(loss_rate), rng_(seed) {}
  MessageConduit(const MessageConduit&) = delete;
  MessageConduit& operator=(const MessageConduit&) = delete;

  // Delivers (or schedules, or drops) one fire-and-forget message.
  // `name`, when tracing is enabled, labels the message's trace events
  // ("<name>.sent" / ".dropped" / ".applied"); nullptr leaves the message
  // untraced (e.g. telemetry heartbeats). Delayed deliveries keep the
  // pointer, so it must outlive the message: pass a string literal.
  void Send(ConduitStats& stats, std::function<void()> deliver,
            const char* name = nullptr);
  // Acknowledged send: the receiver acks a delivered message (the ack
  // rides the same lossy conduit), and a message whose ack never arrives
  // is retransmitted exactly once after the retransmit timeout. The
  // retransmission fires only while `still_wanted` (when provided) says
  // the message is still current, so a late duplicate cannot resurrect
  // state the sender already tore down.
  void SendReliable(ConduitStats& stats, std::function<void()> deliver,
                    std::function<bool()> still_wanted = nullptr,
                    const char* name = nullptr);
  // Synchronous request/response with SendReliable's loss accounting:
  // used where two controllers negotiate inside one signaling call (the
  // border-span handshake), so the outcome must be known immediately.
  // The draws and counter updates mirror SendReliable exactly; latency
  // is accounted by the caller's protocol, not simulated. Returns
  // whether the message (original or its single retransmission) got
  // through.
  bool Transact(ConduitStats& stats, const char* name = nullptr);

  // Enables structured tracing of named messages on this conduit. The
  // track labels the conduit's lane in the exported timeline ("sw:<i>"
  // southbound, "ew:<a>-<b>" east-west). Send, SendReliable and Transact
  // each have one body for both modes: their trace notes return at once
  // when tracing is off or the message is unnamed, and an unnamed message
  // never mints a correlation id, so tracing changes neither RNG draws,
  // scheduling, nor the ids the rest of the trace sees.
  void set_trace(obs::TraceLog* trace, std::string track,
                 obs::Category category) {
    trace_ = trace;
    trace_track_ = std::move(track);
    trace_category_ = category;
  }
  obs::TraceLog* trace() const { return trace_; }

  util::DurationUs latency() const { return latency_; }
  double loss_rate() const { return loss_rate_; }
  util::DurationUs retransmit_timeout() const {
    return 2 * latency_ + kRetransmitMargin;
  }

  // Retransmissions fire at most 2x latency + this margin after the
  // original send.
  static constexpr util::DurationUs kRetransmitMargin = util::Millis(20);

 private:
  // One iid loss draw; a lossless conduit draws nothing.
  bool Lost() { return loss_rate_ > 0.0 && rng_.Bernoulli(loss_rate_); }
  // Records "<name><suffix>" under `corr`; free when untraced or unnamed.
  void Note(const char* name, uint64_t corr, const char* suffix) {
    if (trace_ == nullptr || name == nullptr) return;
    trace_->Emit(sched_.now(), trace_category_, trace_track_,
                 std::string(name) + suffix, corr);
  }
  // Mints the message's correlation id and notes ".sent"; 0 (and no id
  // drawn from the shared counter) when untraced or unnamed.
  uint64_t Open(const char* name) {
    if (trace_ == nullptr || name == nullptr) return 0;
    const uint64_t corr = trace_->NextCorrelation();
    Note(name, corr, ".sent");
    return corr;
  }
  // One transmission of a message: counts it, draws its fate, then drops
  // or delivers it. Serves Send and the reliable retransmission alike.
  void Transmit(ConduitStats& stats, std::function<void()> deliver,
                const char* name, uint64_t corr);
  // Delivers a message that survived its loss draw: inline at zero
  // latency, else after the conduit latency. An lvalue `deliver` is
  // copied only when scheduled, so the caller keeps it for a resend.
  template <typename Fn>
  void Deliver(ConduitStats& stats, Fn&& deliver, const char* name,
               uint64_t corr);

  sim::Scheduler& sched_;
  util::DurationUs latency_;
  double loss_rate_;
  util::Rng rng_;
  obs::TraceLog* trace_ = nullptr;
  std::string trace_track_;
  obs::Category trace_category_ = obs::Category::kControl;
};

class ControlChannel {
 public:
  // Northbound consumer (the fleet controller). `switch_index` is the
  // identity the subscriber registered the channel under.
  class EventSink {
   public:
    virtual ~EventSink() = default;
    virtual void OnHeartbeat(size_t switch_index) = 0;
    virtual void OnLoadReport(size_t switch_index,
                              const SwitchLoadReport& report) = 0;
  };

  ControlChannel(sim::Scheduler& sched, SwitchAgent& agent,
                 const ControlChannelConfig& cfg = {});
  ~ControlChannel();
  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  // ---- southbound commands ----------------------------------------------
  void CreateMeeting(MeetingId id);
  void RemoveMeeting(MeetingId id);
  // Registers a participant's uplink. The SFU port is assigned here, on
  // the controller side, and returned immediately; the install command
  // carrying it is subject to channel latency/loss.
  uint16_t AddParticipant(MeetingId meeting, ParticipantId id,
                          net::Endpoint media_src, uint32_t video_ssrc,
                          uint32_t audio_ssrc, bool sends_video,
                          bool sends_audio);
  void RemoveParticipant(MeetingId meeting, ParticipantId id);
  // Creates the (receiver <- sender) leg; returns its assigned SFU port.
  uint16_t AddRecvLeg(MeetingId meeting, ParticipantId receiver,
                      ParticipantId sender, net::Endpoint receiver_client);
  void ForceDecodeTarget(MeetingId meeting, ParticipantId receiver,
                         ParticipantId sender, int dt);

  // ---- southbound relay commands (cascading SFUs, paper Appendix A) -----
  // Registers a remote sender whose media arrives from another switch's
  // relay leg at `upstream_src`; returns the controller-assigned relay
  // uplink port (the address the upstream switch forwards to).
  uint16_t AddRelaySender(MeetingId meeting, ParticipantId id,
                          net::Endpoint upstream_src, uint32_t video_ssrc,
                          uint32_t audio_ssrc, bool sends_video,
                          bool sends_audio);
  // Programs this switch to forward `sender`'s selected stream to a
  // downstream switch's SFU at `downstream_sfu`, exactly once. The relay
  // leg's port may be pre-assigned (`assigned_port`) when the downstream
  // side had to learn the upstream endpoint first; 0 assigns here.
  uint16_t AddRelayLeg(MeetingId meeting, ParticipantId relay_receiver,
                       ParticipantId sender, net::Endpoint downstream_sfu,
                       uint16_t assigned_port = 0);
  // Tears down one span's relay participants on this switch.
  void RemoveRelaySpan(MeetingId meeting,
                       std::vector<ParticipantId> relay_ids);

  // ---- southbound redundancy commands (redundant dual relay trees) ------
  // Attaches a secondary upstream source (the disjoint tree's terminal
  // hop) to an existing relay sender and installs its (origin, seq)
  // dedup window; rides the reliable vocabulary like the rest of the
  // relay commands.
  void AddRelaySource(MeetingId meeting, ParticipantId id,
                      net::Endpoint secondary_src, int dedup_window);
  // Tree flip: promote the attached secondary to primary.
  void PromoteRelaySource(MeetingId meeting, ParticipantId id,
                          net::Endpoint new_src);
  // Detaches a secondary source (protection teardown).
  void RemoveRelaySource(MeetingId meeting, ParticipantId id,
                         net::Endpoint src);

  // Controller-side port reservation (no command): lets the fleet break
  // the relay-setup cycle — the downstream AddRelaySender must name the
  // upstream relay leg's endpoint, whose port is reserved here and later
  // passed to AddRelayLeg as `assigned_port`.
  uint16_t AllocatePort() { return next_port_++; }
  // The first SFU port the channel assigns on its switch; later ones
  // count up from it.
  static constexpr uint16_t kFirstSfuPort = 10'000;

  // ---- northbound events ------------------------------------------------
  // Registers the telemetry consumer and starts the heartbeat/load-report
  // tasks. One sink per channel.
  void Subscribe(EventSink* sink, size_t switch_index);
  // Models the switch going dark (crash/partition): telemetry stops until
  // the link comes back. Commands still apply — the controller keeps
  // programming what it believes is there, exactly like a real southbound
  // channel writing into a restarted switch.
  void set_link_up(bool up) { link_up_ = up; }

  // Traces every southbound command on track "sw:<switch_index>".
  // Northbound telemetry (heartbeats, load reports) stays untraced — at
  // 20 Hz per switch it would drown the command timeline.
  void EnableTrace(obs::TraceLog* trace, size_t switch_index);

  sim::Scheduler& sched() { return sched_; }
  SwitchAgent& agent() { return agent_; }
  const ControlChannelConfig& config() const { return cfg_; }
  ControlChannelStats stats() const {
    return ControlChannelStats{cmd_stats_.sent,    cmd_stats_.delivered,
                               cmd_stats_.dropped, cmd_stats_.retransmitted,
                               evt_stats_.sent,    evt_stats_.delivered,
                               evt_stats_.dropped};
  }

 private:
  // Applies (or schedules, or drops) one southbound command. `name`
  // labels the command's trace span when tracing is enabled.
  void Dispatch(std::function<void()> apply, const char* name = nullptr);
  // Acknowledged dispatch for the meeting/relay vocabulary: the switch
  // acks an applied command (the ack rides the same lossy channel), and a
  // command whose ack never arrives is retransmitted exactly once after
  // 2x the channel latency plus a fixed margin. Bounded on purpose — a
  // doubly lost command is still lost, it just can no longer *silently*
  // strand a relay span on a mildly lossy control plane. Retransmission
  // means the agent may see a command twice (command delivered, ack
  // lost), so the reliable vocabulary is idempotent on the agent; and
  // because the retransmission fires after the RTO, a removal issued in
  // between must cancel it — `still_wanted` is checked at fire time so a
  // late duplicate cannot resurrect state the controller already tore
  // down (ghost meetings, leaked relay senders). Zero-loss channels take
  // no extra RNG draws and behave byte-identically to Dispatch.
  void DispatchReliable(std::function<void()> apply,
                        std::function<bool()> still_wanted = nullptr,
                        const char* name = nullptr);
  // Delivers (or schedules, or drops) one northbound event.
  void Emit(std::function<void()> deliver);
  void SendHeartbeat();
  void SendLoadReport();

  sim::Scheduler& sched_;
  SwitchAgent& agent_;
  ControlChannelConfig cfg_;
  // One conduit carries both directions so the command/event RNG draw
  // interleaving matches the original single-RNG channel exactly.
  MessageConduit conduit_;
  ConduitStats cmd_stats_;
  ConduitStats evt_stats_;
  uint16_t next_port_ = kFirstSfuPort;

  // Entities the controller has removed, stamped with removal time:
  // retransmission-cancellation state for the reliable vocabulary (ids
  // are never reused; re-creates erase their tombstone). A tombstone
  // only matters until the removed entity's own retransmission window
  // has passed, so inserts lazily prune entries older than that — the
  // maps stay bounded by recent churn, not lifetime churn.
  std::map<MeetingId, util::TimeUs> removed_meetings_;
  std::map<ParticipantId, util::TimeUs> removed_relays_;
  template <typename Id>
  void Tombstone(std::map<Id, util::TimeUs>& removed, Id id);

  EventSink* sink_ = nullptr;
  size_t switch_index_ = 0;
  bool link_up_ = true;
  std::unique_ptr<sim::PeriodicTask> heartbeat_task_;
  std::unique_ptr<sim::PeriodicTask> load_report_task_;
  // Delta baselines for the load report.
  uint64_t last_cpu_packets_ = 0;
  uint64_t last_dataplane_writes_ = 0;
};

}  // namespace scallop::core
