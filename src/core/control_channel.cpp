#include "core/control_channel.hpp"

#include <cstdio>
#include <utility>

namespace scallop::core {

template <typename Fn>
void MessageConduit::Deliver(ConduitStats& stats, Fn&& deliver,
                             const char* name, uint64_t corr) {
  if (latency_ <= 0) {
    // Inline delivery: byte-identical to the pre-channel direct call.
    ++stats.delivered;
    Note(name, corr, ".applied");
    deliver();
    return;
  }
  // Every message carries the same latency and the scheduler is FIFO
  // among equal timestamps, so messages are delayed but never reordered.
  sched_.After(latency_, [this, &stats, fn = std::forward<Fn>(deliver), name,
                          corr] {
    ++stats.delivered;
    Note(name, corr, ".applied");
    fn();
  });
}

void MessageConduit::Transmit(ConduitStats& stats,
                              std::function<void()> deliver, const char* name,
                              uint64_t corr) {
  ++stats.sent;
  if (Lost()) {
    ++stats.dropped;
    Note(name, corr, ".dropped");
    return;
  }
  Deliver(stats, std::move(deliver), name, corr);
}

void MessageConduit::Send(ConduitStats& stats, std::function<void()> deliver,
                          const char* name) {
  Transmit(stats, std::move(deliver), name, Open(name));
}

void MessageConduit::SendReliable(ConduitStats& stats,
                                  std::function<void()> deliver,
                                  std::function<bool()> still_wanted,
                                  const char* name) {
  const uint64_t corr = Open(name);
  ++stats.sent;
  // The message's and its ack's fates are decided up front (iid loss both
  // ways); no draws happen on a lossless conduit, which keeps zero-loss
  // packet histories byte-identical to plain Send.
  const bool lost = Lost();
  const bool ack_lost = Lost();
  if (lost) {
    ++stats.dropped;
    Note(name, corr, ".dropped");
  } else if (!ack_lost) {
    Deliver(stats, std::move(deliver), name, corr);
    return;  // acked in time: done
  } else {
    Deliver(stats, deliver, name, corr);  // keeps `deliver` for the resend
  }

  // Ack timeout: one bounded retransmission. The message races messages
  // sent after the original — exactly the reordering a real
  // retransmitting channel exhibits — so the reliable vocabulary is
  // idempotent on the receiver.
  sched_.After(retransmit_timeout(), [this, &stats, fn = std::move(deliver),
                                      wanted = std::move(still_wanted), name,
                                      corr]() mutable {
    // A removal issued since the original send cancels the retransmission
    // — re-delivering would resurrect state the sender tore down.
    if (wanted != nullptr && !wanted()) return;
    ++stats.retransmitted;
    Note(name, corr, ".retx");
    Transmit(stats, std::move(fn), name, corr);
  });
}

bool MessageConduit::Transact(ConduitStats& stats, const char* name) {
  const uint64_t corr = Open(name);
  ++stats.sent;
  const bool lost = Lost();
  const bool ack_lost = Lost();
  if (lost) {
    ++stats.dropped;
    Note(name, corr, ".dropped");
  } else {
    ++stats.delivered;
    Note(name, corr, ".applied");
  }
  if (!lost && !ack_lost) return true;
  ++stats.retransmitted;
  ++stats.sent;
  Note(name, corr, ".retx");
  if (Lost()) {
    ++stats.dropped;
    Note(name, corr, ".dropped");
    return !lost;
  }
  ++stats.delivered;
  Note(name, corr, ".applied");
  return true;
}

ControlChannel::ControlChannel(sim::Scheduler& sched, SwitchAgent& agent,
                               const ControlChannelConfig& cfg)
    : sched_(sched),
      agent_(agent),
      cfg_(cfg),
      conduit_(sched, cfg.latency, cfg.loss_rate, cfg.seed),
      next_port_(agent.config().first_sfu_port) {}

ControlChannel::~ControlChannel() = default;

void ControlChannel::Dispatch(std::function<void()> apply, const char* name) {
  conduit_.Send(cmd_stats_, std::move(apply), name);
}

void ControlChannel::DispatchReliable(std::function<void()> apply,
                                      std::function<bool()> still_wanted,
                                      const char* name) {
  conduit_.SendReliable(cmd_stats_, std::move(apply), std::move(still_wanted),
                        name);
}

void ControlChannel::EnableTrace(obs::TraceLog* trace, size_t switch_index) {
  char track[32];
  snprintf(track, sizeof(track), "sw:%zu", switch_index);
  conduit_.set_trace(trace, track, obs::Category::kControl);
}

template <typename Id>
void ControlChannel::Tombstone(std::map<Id, util::TimeUs>& removed, Id id) {
  if (removed.size() > 64) {
    // A tombstone older than twice the retransmission window cannot
    // cancel anything.
    const util::DurationUs window = 2 * conduit_.retransmit_timeout();
    const util::TimeUs cutoff = sched_.now() - window;
    for (auto it = removed.begin(); it != removed.end();) {
      it = it->second < cutoff ? removed.erase(it) : std::next(it);
    }
  }
  removed[id] = sched_.now();
}

void ControlChannel::Emit(std::function<void()> deliver) {
  conduit_.Send(evt_stats_, std::move(deliver));
}

void ControlChannel::CreateMeeting(MeetingId id) {
  removed_meetings_.erase(id);
  DispatchReliable([this, id] { agent_.CreateMeeting(id); },
                   [this, id] { return removed_meetings_.count(id) == 0; },
                   "create_meeting");
}

void ControlChannel::RemoveMeeting(MeetingId id) {
  Tombstone(removed_meetings_, id);
  DispatchReliable([this, id] { agent_.RemoveMeeting(id); }, nullptr,
                   "remove_meeting");
}

uint16_t ControlChannel::AddParticipant(MeetingId meeting, ParticipantId id,
                                        net::Endpoint media_src,
                                        uint32_t video_ssrc,
                                        uint32_t audio_ssrc, bool sends_video,
                                        bool sends_audio) {
  uint16_t port = next_port_++;
  Dispatch([this, meeting, id, media_src, video_ssrc, audio_ssrc, sends_video,
            sends_audio, port] {
    agent_.AddParticipant(meeting, id, media_src, video_ssrc, audio_ssrc,
                          sends_video, sends_audio, port);
  }, "add_participant");
  return port;
}

void ControlChannel::RemoveParticipant(MeetingId meeting, ParticipantId id) {
  // Relay teardown also flows through here (RemoveSenderRelays removes
  // pseudo-participants one by one); tombstone the id so a pending
  // AddRelaySender/AddRelayLeg retransmission cannot resurrect it. Ids
  // are fleet-globally unique, so tombstoning real members is harmless.
  Tombstone(removed_relays_, id);
  Dispatch([this, meeting, id] { agent_.RemoveParticipant(meeting, id); },
           "remove_participant");
}

uint16_t ControlChannel::AddRecvLeg(MeetingId meeting, ParticipantId receiver,
                                    ParticipantId sender,
                                    net::Endpoint receiver_client) {
  uint16_t port = next_port_++;
  Dispatch([this, meeting, receiver, sender, receiver_client, port] {
    agent_.AddRecvLeg(meeting, receiver, sender, receiver_client, port);
  }, "add_recv_leg");
  return port;
}

void ControlChannel::ForceDecodeTarget(MeetingId meeting,
                                       ParticipantId receiver,
                                       ParticipantId sender, int dt) {
  Dispatch([this, meeting, receiver, sender, dt] {
    agent_.ForceDecodeTarget(meeting, receiver, sender, dt);
  }, "force_decode_target");
}

uint16_t ControlChannel::AddRelaySender(MeetingId meeting, ParticipantId id,
                                        net::Endpoint upstream_src,
                                        uint32_t video_ssrc,
                                        uint32_t audio_ssrc, bool sends_video,
                                        bool sends_audio) {
  uint16_t port = next_port_++;
  removed_relays_.erase(id);
  DispatchReliable(
      [this, meeting, id, upstream_src, video_ssrc, audio_ssrc, sends_video,
       sends_audio, port] {
        agent_.AddRelaySender(meeting, id, upstream_src, video_ssrc,
                              audio_ssrc, sends_video, sends_audio, port);
      },
      [this, id, meeting] {
        return removed_relays_.count(id) == 0 &&
               removed_meetings_.count(meeting) == 0;
      },
      "add_relay_sender");
  return port;
}

uint16_t ControlChannel::AddRelayLeg(MeetingId meeting,
                                     ParticipantId relay_receiver,
                                     ParticipantId sender,
                                     net::Endpoint downstream_sfu,
                                     uint16_t assigned_port) {
  uint16_t port = assigned_port != 0 ? assigned_port : next_port_++;
  removed_relays_.erase(relay_receiver);
  DispatchReliable(
      [this, meeting, relay_receiver, sender, downstream_sfu, port] {
        agent_.AddRelayLeg(meeting, relay_receiver, sender, downstream_sfu,
                           port);
      },
      [this, relay_receiver, meeting] {
        return removed_relays_.count(relay_receiver) == 0 &&
               removed_meetings_.count(meeting) == 0;
      },
      "add_relay_leg");
  return port;
}

void ControlChannel::RemoveRelaySpan(MeetingId meeting,
                                     std::vector<ParticipantId> relay_ids) {
  for (ParticipantId id : relay_ids) Tombstone(removed_relays_, id);
  DispatchReliable([this, meeting, ids = std::move(relay_ids)] {
    agent_.RemoveRelaySpan(meeting, ids);
  }, nullptr, "remove_relay_span");
}

void ControlChannel::AddRelaySource(MeetingId meeting, ParticipantId id,
                                    net::Endpoint secondary_src,
                                    int dedup_window) {
  DispatchReliable(
      [this, meeting, id, secondary_src, dedup_window] {
        agent_.AddRelaySource(meeting, id, secondary_src, dedup_window);
      },
      [this, id, meeting] {
        return removed_relays_.count(id) == 0 &&
               removed_meetings_.count(meeting) == 0;
      },
      "add_relay_source");
}

void ControlChannel::PromoteRelaySource(MeetingId meeting, ParticipantId id,
                                        net::Endpoint new_src) {
  DispatchReliable(
      [this, meeting, id, new_src] {
        agent_.PromoteRelaySource(meeting, id, new_src);
      },
      [this, id, meeting] {
        return removed_relays_.count(id) == 0 &&
               removed_meetings_.count(meeting) == 0;
      },
      "promote_relay_source");
}

void ControlChannel::RemoveRelaySource(MeetingId meeting, ParticipantId id,
                                       net::Endpoint src) {
  DispatchReliable([this, meeting, id, src] {
    agent_.RemoveRelaySource(meeting, id, src);
  }, nullptr, "remove_relay_source");
}

void ControlChannel::Subscribe(EventSink* sink, size_t switch_index) {
  sink_ = sink;
  switch_index_ = switch_index;
  if (heartbeat_task_ == nullptr && cfg_.heartbeat_interval > 0) {
    heartbeat_task_ = std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.heartbeat_interval, [this] {
          SendHeartbeat();
          return true;
        });
  }
  if (load_report_task_ == nullptr && cfg_.load_report_interval > 0) {
    load_report_task_ = std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.load_report_interval, [this] {
          SendLoadReport();
          return true;
        });
  }
}

void ControlChannel::SendHeartbeat() {
  if (sink_ == nullptr || !link_up_) return;
  Emit([this] { sink_->OnHeartbeat(switch_index_); });
}

void ControlChannel::SendLoadReport() {
  if (sink_ == nullptr || !link_up_) return;
  const AgentStats& as = agent_.stats();
  SwitchLoadReport report;
  report.meetings = static_cast<int>(agent_.meeting_count());
  report.participants = static_cast<int>(agent_.participant_count());
  report.trees = static_cast<int>(agent_.tree_count());
  report.cpu_packets_delta = as.cpu_packets - last_cpu_packets_;
  report.dataplane_writes_delta = as.dataplane_writes - last_dataplane_writes_;
  last_cpu_packets_ = as.cpu_packets;
  last_dataplane_writes_ = as.dataplane_writes;
  Emit([this, report] { sink_->OnLoadReport(switch_index_, report); });
}

}  // namespace scallop::core
