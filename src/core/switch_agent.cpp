#include "core/switch_agent.hpp"

#include <algorithm>

#include "rtp/classifier.hpp"
#include "rtp/rtp_packet.hpp"

namespace scallop::core {

SwitchAgent::SwitchAgent(sim::Scheduler& sched, DataPlaneProgram& dp,
                         const AgentConfig& cfg)
    : sched_(sched),
      dp_(dp),
      cfg_(cfg),
      trees_(dp, dp.sw().pre()) {
  dp_.sw().SetCpuHandler([this](net::PacketPtr pkt) {
    OnCpuPacket(std::move(pkt));
  });
}

void SwitchAgent::OnCpuPacket(net::PacketPtr pkt) {
  ++stats_.cpu_packets;
  switch (rtp::Classify(pkt->payload_span())) {
    case rtp::PayloadKind::kStun:
      HandleStun(*pkt);
      return;
    case rtp::PayloadKind::kRtcp:
      HandleRtcp(*pkt);
      return;
    case rtp::PayloadKind::kRtp:
      HandleKeyframeDd(*pkt);
      return;
    default:
      return;
  }
}

void SwitchAgent::HandleStun(const net::Packet& pkt) {
  auto msg = stun::StunMessage::Parse(pkt.payload_span());
  if (!msg.has_value() || !msg->is_request()) return;
  ++stats_.stun_handled;
  stun::StunMessage resp = stun::MakeBindingResponse(*msg, pkt.src);
  auto out = net::MakePacket(pkt.dst, pkt.src, resp.Serialize());
  dp_.sw().InjectFromCpu(std::move(out));
}

void SwitchAgent::HandleRtcp(const net::Packet& pkt) {
  auto msgs = rtp::ParseCompound(pkt.payload_span());
  if (!msgs.has_value()) return;

  // Identify the leg the feedback arrived on.
  const FeedbackEntry* fb = dp_.MutableFeedback(pkt.dst.port);

  for (const auto& msg : *msgs) {
    if (const auto* sr = std::get_if<rtp::SenderReport>(&msg)) {
      ++stats_.sr_processed;
      SenderRate& sr_state = sender_rates_[sr->sender_ssrc];
      util::TimeUs now = sched_.now();
      if (sr_state.seen && now > sr_state.last_time) {
        double bits =
            8.0 * static_cast<double>(sr->octet_count - sr_state.last_octets);
        double secs = util::ToSeconds(now - sr_state.last_time);
        if (secs > 0 && bits >= 0) sr_state.rate.Add(bits / secs);
      }
      sr_state.seen = true;
      sr_state.last_octets = sr->octet_count;
      sr_state.last_time = now;
    } else if (std::get_if<rtp::ReceiverReport>(&msg)) {
      ++stats_.rr_processed;
    } else if (const auto* remb = std::get_if<rtp::Remb>(&msg)) {
      ++stats_.remb_processed;
      if (fb != nullptr && !fb->is_uplink) {
        auto pit = participants_.find(fb->receiver);
        if (pit != participants_.end()) {
          ProcessRemb(pit->second, fb->sender, remb->bitrate_bps);
        }
      }
    } else if (std::get_if<rtp::Nack>(&msg)) {
      ++stats_.nack_seen;
    } else if (std::get_if<rtp::Pli>(&msg)) {
      ++stats_.pli_seen;
    }
  }
}

void SwitchAgent::HandleKeyframeDd(const net::Packet& pkt) {
  // Extended dependency descriptor: validate the template structure and
  // re-anchor skip cadences for this sender's stream.
  auto parsed = rtp::RtpPacket::Parse(pkt.payload_span());
  if (!parsed.has_value()) return;
  const rtp::RtpExtension* ext = parsed->FindExtension(av1::kDdExtensionId);
  if (ext == nullptr) return;
  auto dd = av1::DependencyDescriptor::Parse(ext->data);
  if (!dd.has_value() || !dd->structure.has_value()) return;
  ++stats_.keyframe_dd_processed;

  auto sit = ssrc_to_sender_.find(parsed->ssrc);
  if (sit == ssrc_to_sender_.end()) return;
  ParticipantId sender = sit->second;
  uint16_t anchor = dd->frame_number;
  dd_anchor_[sender] = anchor;

  // Re-anchor every receiver's cadence for this sender.
  auto pit = participants_.find(sender);
  if (pit == participants_.end()) return;
  auto mit = meetings_.find(pit->second.meeting);
  if (mit == meetings_.end()) return;
  for (ParticipantId r : mit->second.members) {
    if (r == sender) continue;
    Participant& recv = participants_.at(r);
    auto ps = recv.by_sender.find(sender);
    if (ps == recv.by_sender.end() || !ps->second.rewriter_index) continue;
    int dt = DecodeTargetOf(r, sender);
    SkipCadence cadence = SkipCadence::ForDecodeTarget(dt, anchor);
    dp_.ConfigureRewriter(*ps->second.rewriter_index, cadence);
    SvcEntry* svc = dp_.MutableSvc(SvcKey{pit->second.video_ssrc, r});
    if (svc != nullptr) svc->cadence = cadence;
    ++stats_.dataplane_writes;
  }
}

void SwitchAgent::CreateMeeting(MeetingId id) {
  // Idempotent: the control channel may retransmit a command whose ack
  // was lost, and a duplicate create must not wipe a populated meeting.
  meetings_.try_emplace(id);
}

void SwitchAgent::RemoveMeeting(MeetingId id) {
  auto it = meetings_.find(id);
  if (it == meetings_.end()) return;
  std::vector<ParticipantId> members = it->second.members;
  for (ParticipantId p : members) RemoveParticipant(id, p);
  trees_.RemoveMeeting(id);
  meetings_.erase(id);
}

uint16_t SwitchAgent::AddParticipant(MeetingId meeting, ParticipantId id,
                                     net::Endpoint media_src,
                                     uint32_t video_ssrc, uint32_t audio_ssrc,
                                     bool sends_video, bool sends_audio,
                                     uint16_t port) {
  Participant p;
  p.id = id;
  p.meeting = meeting;
  p.media_src = media_src;
  p.uplink_port = port;
  p.video_ssrc = video_ssrc;
  p.audio_ssrc = audio_ssrc;
  p.sends_video = sends_video;
  p.sends_audio = sends_audio;
  participants_[id] = p;
  meetings_[meeting].members.push_back(id);
  if (sends_video) ssrc_to_sender_[video_ssrc] = id;
  if (sends_audio) ssrc_to_sender_[audio_ssrc] = id;

  FeedbackEntry fb;
  fb.meeting = meeting;
  fb.receiver = id;
  fb.sender = id;
  fb.is_uplink = true;
  fb.sender_rid = static_cast<uint16_t>(id);
  dp_.InstallFeedback(p.uplink_port, fb);
  ++stats_.dataplane_writes;

  RebuildMeeting(meeting);
  return p.uplink_port;
}

uint16_t SwitchAgent::AddRelaySender(MeetingId meeting, ParticipantId id,
                                     net::Endpoint upstream_src,
                                     uint32_t video_ssrc, uint32_t audio_ssrc,
                                     bool sends_video, bool sends_audio,
                                     uint16_t port) {
  // A remote sender homed on another switch: its "client endpoint" is the
  // upstream switch's relay leg, so the stream table, tree manager and
  // keyframe re-anchoring treat the relayed stream like any uplink.
  // `port` is the address relayed media is sent to.
  // Idempotent under retransmission: a duplicate install (same relay id,
  // already registered from the same upstream) must not double-count the
  // relay or re-register the participant, wiping its legs.
  auto existing = participants_.find(id);
  if (existing != participants_.end() && existing->second.is_relay &&
      existing->second.media_src == upstream_src) {
    return existing->second.uplink_port;
  }
  AddParticipant(meeting, id, upstream_src, video_ssrc, audio_ssrc,
                 sends_video, sends_audio, port);
  participants_[id].is_relay = true;
  ++relay_count_;
  ++stats_.relay_senders;
  return port;
}

uint16_t SwitchAgent::AddRelayLeg(MeetingId meeting,
                                  ParticipantId relay_receiver,
                                  ParticipantId sender,
                                  net::Endpoint downstream_sfu,
                                  uint16_t port) {
  // Lost-command semantics: a relay leg naming a sender this switch never
  // learned about (its install was lost on the channel) must be a pure
  // no-op, like any other command referencing unknown state — no orphan
  // pseudo-receiver, no stats.
  if (participants_.find(sender) == participants_.end()) return port;
  // Idempotent under retransmission: the pseudo-receiver already carrying
  // this sender's leg means the first copy landed — re-installing would
  // leak the leg's rewriter and double-count relay stats.
  auto rcv = participants_.find(relay_receiver);
  if (rcv != participants_.end()) {
    auto ps = rcv->second.by_sender.find(sender);
    if (ps != rcv->second.by_sender.end() && ps->second.leg) {
      return ps->second.leg->sfu_port;
    }
  }
  // The downstream switch's stand-in: a receive-only pseudo-participant
  // whose "client endpoint" is the downstream SFU's relay uplink. Its leg
  // is a normal receive leg — rewriter, SVC filter, REMB/NACK feedback
  // path — so the relayed stream is the sender's *selected* stream and
  // sequence rewriting stays gap-free across the hop.
  if (participants_.find(relay_receiver) == participants_.end()) {
    Participant p;
    p.id = relay_receiver;
    p.meeting = meeting;
    p.media_src = downstream_sfu;
    p.is_relay = true;
    participants_[relay_receiver] = p;
    meetings_[meeting].members.push_back(relay_receiver);
    ++relay_count_;
  }
  ++stats_.relay_legs;
  return AddRecvLeg(meeting, relay_receiver, sender, downstream_sfu, port);
}

void SwitchAgent::RemoveRelaySpan(MeetingId meeting,
                                  const std::vector<ParticipantId>& relay_ids) {
  for (ParticipantId id : relay_ids) RemoveParticipant(meeting, id);
}

void SwitchAgent::AddRelaySource(MeetingId meeting, ParticipantId id,
                                 net::Endpoint secondary_src,
                                 int dedup_window) {
  (void)meeting;
  auto it = participants_.find(id);
  if (it == participants_.end() || !it->second.is_relay) return;
  Participant& p = it->second;
  if (secondary_src == p.media_src) return;
  for (const net::Endpoint& src : p.extra_srcs) {
    if (src == secondary_src) return;  // idempotent under retransmission
  }
  p.extra_srcs.push_back(secondary_src);
  p.dedup_window = dedup_window;
  ++stats_.relay_sources;
  SyncRelaySources(p);
}

void SwitchAgent::PromoteRelaySource(MeetingId meeting, ParticipantId id,
                                     net::Endpoint new_src) {
  auto it = participants_.find(id);
  if (it == participants_.end() || !it->second.is_relay) return;
  Participant& p = it->second;
  if (p.media_src == new_src) return;
  auto src_it = std::find(p.extra_srcs.begin(), p.extra_srcs.end(), new_src);
  // Promoting a source this switch never learned about (its attach was
  // lost on the channel) is a no-op, like any command naming unknown
  // state.
  if (src_it == p.extra_srcs.end()) return;
  p.extra_srcs.erase(src_it);

  // The old primary path is dying (that is why we flip): drop its stream
  // keys outright rather than demoting it to a secondary.
  const net::Endpoint old_src = p.media_src;
  if (p.sends_video) dp_.RemoveStream(StreamKey{old_src, p.video_ssrc});
  if (p.sends_audio) dp_.RemoveStream(StreamKey{old_src, p.audio_ssrc});
  p.media_src = new_src;
  ++stats_.relay_promotions;
  ++stats_.dataplane_writes;

  auto mit = meetings_.find(meeting);
  if (mit != meetings_.end()) {
    for (ParticipantId r : mit->second.members) {
      if (r == id) continue;
      Participant& recv = participants_.at(r);
      auto ps = recv.by_sender.find(id);
      if (ps == recv.by_sender.end() || !ps->second.leg) continue;
      // Old-source media egress dies with the old tree; the new source's
      // mirror (installed at attach time) is already live, so the flip
      // never leaves a gap between removal and install.
      dp_.RemoveEgress(EgressKey{old_src, static_cast<uint16_t>(r)});
      // Re-aim the receivers' feedback path at the surviving upstream.
      EgressEntry fb_out;
      fb_out.dst = new_src;
      fb_out.sfu_src = net::Endpoint{cfg_.sfu_ip, p.uplink_port};
      fb_out.receiver = id;
      dp_.InstallEgress(
          EgressKey{ps->second.leg->client, static_cast<uint16_t>(id)},
          fb_out);
    }
  }

  if (p.extra_srcs.empty()) {
    // Sole source again: retire the dedup window so steady state after
    // the flip matches an unprotected relay.
    auto clear = [&](uint32_t ssrc) {
      dp_.RemoveDedup(ssrc);
      StreamEntry* se = dp_.MutableStream(StreamKey{p.media_src, ssrc});
      if (se != nullptr) {
        se->dedup = false;
        se->tree = 0;
      }
    };
    if (p.sends_video) clear(p.video_ssrc);
    if (p.sends_audio) clear(p.audio_ssrc);
  }
  // Reconfigure reinstalls primary stream entries under the new source
  // key (tree = 0), and SyncRelaySources re-mirrors any remaining
  // secondaries.
  RebuildMeeting(meeting);
}

void SwitchAgent::RemoveRelaySource(MeetingId meeting, ParticipantId id,
                                    net::Endpoint src) {
  auto it = participants_.find(id);
  if (it == participants_.end()) return;
  Participant& p = it->second;
  auto src_it = std::find(p.extra_srcs.begin(), p.extra_srcs.end(), src);
  if (src_it == p.extra_srcs.end()) return;
  p.extra_srcs.erase(src_it);

  if (p.sends_video) dp_.RemoveStream(StreamKey{src, p.video_ssrc});
  if (p.sends_audio) dp_.RemoveStream(StreamKey{src, p.audio_ssrc});
  auto mit = meetings_.find(meeting);
  if (mit != meetings_.end()) {
    for (ParticipantId r : mit->second.members) {
      if (r != id) dp_.RemoveEgress(EgressKey{src, static_cast<uint16_t>(r)});
    }
  }
  if (p.extra_srcs.empty()) {
    auto clear = [&](uint32_t ssrc) {
      dp_.RemoveDedup(ssrc);
      StreamEntry* se = dp_.MutableStream(StreamKey{p.media_src, ssrc});
      if (se != nullptr) se->dedup = false;
    };
    if (p.sends_video) clear(p.video_ssrc);
    if (p.sends_audio) clear(p.audio_ssrc);
  }
  ++stats_.dataplane_writes;
}

void SwitchAgent::SyncRelaySources(Participant& p) {
  if (p.extra_srcs.empty()) return;
  auto sync_ssrc = [&](uint32_t ssrc) {
    StreamEntry* primary = dp_.MutableStream(StreamKey{p.media_src, ssrc});
    if (primary == nullptr) return;
    primary->dedup = true;
    primary->tree = 0;
    dp_.InstallDedup(ssrc, p.dedup_window);
    StreamEntry mirror = *primary;
    mirror.tree = 1;
    for (const net::Endpoint& src : p.extra_srcs) {
      dp_.InstallStream(StreamKey{src, ssrc}, mirror);
    }
  };
  if (p.sends_video) sync_ssrc(p.video_ssrc);
  if (p.sends_audio) sync_ssrc(p.audio_ssrc);

  // Media egress is keyed by (original source, rid): every receiver leg
  // installed under the primary source needs a twin under each secondary
  // or the second tree's copies would die at egress lookup.
  auto mit = meetings_.find(p.meeting);
  if (mit == meetings_.end()) return;
  for (ParticipantId r : mit->second.members) {
    if (r == p.id) continue;
    const Participant& recv = participants_.at(r);
    auto ps = recv.by_sender.find(p.id);
    if (ps == recv.by_sender.end() || !ps->second.leg) continue;
    EgressEntry media_out;
    media_out.dst = ps->second.leg->client;
    media_out.sfu_src = net::Endpoint{cfg_.sfu_ip, ps->second.leg->sfu_port};
    media_out.receiver = r;
    media_out.is_relay = recv.is_relay;
    for (const net::Endpoint& src : p.extra_srcs) {
      dp_.InstallEgress(EgressKey{src, static_cast<uint16_t>(r)}, media_out);
    }
  }
  ++stats_.dataplane_writes;
}

void SwitchAgent::RemoveLegState(ParticipantId receiver, ParticipantId sender,
                                 const Leg& leg) {
  dp_.RemoveFeedback(leg.sfu_port);
  auto sit = participants_.find(sender);
  if (sit == participants_.end()) return;
  const Participant& s = sit->second;
  const auto rid = static_cast<uint16_t>(receiver);
  dp_.RemoveEgress(EgressKey{s.media_src, rid});
  for (const net::Endpoint& extra : s.extra_srcs) {
    dp_.RemoveEgress(EgressKey{extra, rid});
  }
  dp_.RemoveEgress(EgressKey{leg.client, static_cast<uint16_t>(sender)});
  dp_.RemoveSvc(SvcKey{s.video_ssrc, receiver});
}

void SwitchAgent::RemoveParticipant(MeetingId meeting, ParticipantId id) {
  auto it = participants_.find(id);
  if (it == participants_.end()) return;
  Participant& p = it->second;

  dp_.RemoveFeedback(p.uplink_port);
  for (auto& [sender, ps] : p.by_sender) {
    if (ps.leg) RemoveLegState(id, sender, *ps.leg);
  }
  // Rewriters free after every removal, in sender order: the order decides
  // which index the next leg reuses.
  for (auto& [sender, ps] : p.by_sender) {
    if (ps.rewriter_index) dp_.FreeRewriter(*ps.rewriter_index);
  }
  // Other participants' legs toward this (now removed) sender.
  for (auto& [pid, other] : participants_) {
    if (pid == id) continue;
    auto psit = other.by_sender.find(id);
    if (psit != other.by_sender.end() && psit->second.leg) {
      PerSender& ps = psit->second;
      RemoveLegState(pid, id, *ps.leg);
      if (ps.rewriter_index) {
        dp_.FreeRewriter(*ps.rewriter_index);
        ps.rewriter_index.reset();
      }
      // Clear the leg-scoped fields; the hold-down state stays (see the
      // PerSender comment).
      ps.leg.reset();
      ps.dt.reset();
      ps.remb_ewma.reset();
      ps.est_hist.clear();
    }
  }
  if (p.sends_video) ssrc_to_sender_.erase(p.video_ssrc);
  if (p.sends_audio) ssrc_to_sender_.erase(p.audio_ssrc);
  for (const net::Endpoint& extra : p.extra_srcs) {
    if (p.sends_video) dp_.RemoveStream(StreamKey{extra, p.video_ssrc});
    if (p.sends_audio) dp_.RemoveStream(StreamKey{extra, p.audio_ssrc});
  }
  if (!p.extra_srcs.empty()) {
    if (p.sends_video) dp_.RemoveDedup(p.video_ssrc);
    if (p.sends_audio) dp_.RemoveDedup(p.audio_ssrc);
  }
  if (p.is_relay && relay_count_ > 0) --relay_count_;
  stats_.dataplane_writes += 4;

  auto& members = meetings_[meeting].members;
  members.erase(std::remove(members.begin(), members.end(), id),
                members.end());
  // Scrub the filter state: entries where the departed participant was the
  // sender *or* the currently selected best receiver.
  auto& best = meetings_[meeting].best_downlink;
  best.erase(id);
  for (auto bit = best.begin(); bit != best.end();) {
    if (bit->second == id) {
      bit = best.erase(bit);
    } else {
      ++bit;
    }
  }
  participants_.erase(it);
  if (members.empty()) {
    trees_.RemoveMeeting(meeting);
  } else {
    RebuildMeeting(meeting);
  }
}

uint16_t SwitchAgent::AddRecvLeg(MeetingId meeting, ParticipantId receiver,
                                 ParticipantId sender,
                                 net::Endpoint receiver_client,
                                 uint16_t port) {
  // A leg referencing a participant this switch never learned about (its
  // AddParticipant was lost on the control channel) is ignored, like a
  // flow rule naming an unknown group in a real switch.
  auto rit = participants_.find(receiver);
  auto sit = participants_.find(sender);
  if (rit == participants_.end() || sit == participants_.end()) return port;
  Participant& recv = rit->second;
  Participant& send = sit->second;

  Leg leg;
  leg.sfu_port = port;
  leg.client = receiver_client;
  PerSender& ps = recv.by_sender[sender];
  ps.leg = leg;
  ps.dt = 2;
  ps.leg_created = sched_.now();

  // Media path: sender's packets, replica rid = receiver.
  EgressEntry media_out;
  media_out.dst = receiver_client;
  media_out.sfu_src = net::Endpoint{cfg_.sfu_ip, leg.sfu_port};
  media_out.receiver = receiver;
  media_out.is_relay = recv.is_relay;  // leaves for a downstream switch
  dp_.InstallEgress(
      EgressKey{send.media_src, static_cast<uint16_t>(receiver)}, media_out);

  // Feedback path: receiver's RTCP toward the sender.
  EgressEntry fb_out;
  fb_out.dst = send.media_src;
  fb_out.sfu_src = net::Endpoint{cfg_.sfu_ip, send.uplink_port};
  fb_out.receiver = sender;
  dp_.InstallEgress(EgressKey{receiver_client, static_cast<uint16_t>(sender)},
                    fb_out);

  FeedbackEntry fb;
  fb.meeting = meeting;
  fb.receiver = receiver;
  fb.sender = sender;
  fb.sender_rid = static_cast<uint16_t>(sender);
  fb.video_ssrc = send.video_ssrc;
  // The first leg created for a sender is the initial REMB pass-through.
  auto& best = meetings_[meeting].best_downlink;
  if (best.find(sender) == best.end()) {
    best[sender] = receiver;
    fb.remb_allowed = true;
  }
  dp_.InstallFeedback(leg.sfu_port, fb);
  stats_.dataplane_writes += 3;

  RebuildMeeting(meeting);
  return leg.sfu_port;
}

namespace {

constexpr double kRembEwmaAlpha = 0.3;
// Default decode-target policy: per-target bitrate fractions of the
// sender rate (L1T3 layer weights). A target is *kept* while the
// estimate covers kDownMargin x its rate; an *upgrade* additionally
// requires kUpMargin headroom. The asymmetry matters because at
// equilibrium the receiver-driven estimate sits right at the sender
// rate for the best downlink.
constexpr double kLayerRateFraction[3] = {0.48, 0.71, 1.00};
constexpr double kDownMargin = 0.95;
constexpr double kUpMargin = 1.15;
// Upgrade hold-down after a downgrade; doubles (up to the max) when an
// upgrade probe fails quickly, so capacity-boundary receivers settle
// instead of flapping.
constexpr util::DurationUs kUpgradeHoldDown = util::Seconds(8);
constexpr util::DurationUs kUpgradeHoldDownMax = util::Seconds(120);
constexpr util::DurationUs kFailedProbeWindow = util::Seconds(15);

}  // namespace

void SwitchAgent::ProcessRemb(Participant& receiver, ParticipantId sender,
                              uint64_t bitrate) {
  PerSender& ps = receiver.by_sender[sender];
  if (!ps.remb_ewma) ps.remb_ewma.emplace(kRembEwmaAlpha);
  ps.remb_ewma->Add(static_cast<double>(bitrate));
  auto& hist = ps.est_hist;
  hist.push_back(bitrate);
  if (hist.size() > 32) hist.erase(hist.begin());

  RunDownlinkFilter(receiver.meeting, sender);

  // Decode-target selection (paper §5.4). Pinned pairs are not touched,
  // and the policy waits out the noisy startup estimates (key-frame
  // bursts skew both GCC and the SR-based sender rate).
  if (pinned_dt_.count({receiver.id, sender}) > 0) return;
  if (hist.size() < 5) return;
  if (ps.leg_created && sched_.now() - *ps.leg_created < cfg_.policy_warmup) {
    return;
  }
  uint64_t sender_rate = SenderRateOf(sender);
  int curr = DecodeTargetOf(receiver.id, sender);
  int next;
  if (select_dt_) {
    next = select_dt_(curr, hist, bitrate, sender_rate);
  } else {
    next = DefaultPolicy(receiver, sender, curr, bitrate, sender_rate);
    if (next < curr && hist.size() >= 2) {
      uint64_t prev_est = hist[hist.size() - 2];
      // Debounce: the previous estimate must agree, so a single transient
      // dip cannot halve a healthy stream.
      int prev = DefaultPolicy(receiver, sender, curr, prev_est, sender_rate);
      if (prev >= curr) next = curr;
      // And never downgrade while the estimate is still climbing: the
      // sender is ramping with the best downlink's REMB and younger legs'
      // estimates simply lag behind (not congestion).
      if (bitrate > prev_est) next = curr;
    }
  }
  next = std::clamp(next, 0, 2);
  if (next != curr) {
    util::TimeUs now = sched_.now();
    if (next < curr) {
      ps.last_downgrade = now;
      // A downgrade shortly after an upgrade = failed probe: back off.
      bool had_backoff = ps.backoff.has_value();
      if (!had_backoff) ps.backoff = kUpgradeHoldDown;
      if (ps.last_upgrade &&
          now - *ps.last_upgrade < kFailedProbeWindow) {
        ps.backoff = std::min<util::DurationUs>(*ps.backoff * 2,
                                                kUpgradeHoldDownMax);
      } else if (had_backoff) {
        ps.backoff = kUpgradeHoldDown;  // organic downgrade: reset
      }
    } else {
      ps.last_upgrade = now;
    }
    ApplyDecodeTarget(receiver, sender, next);
  }
}

int SwitchAgent::DefaultPolicy(const Participant& receiver,
                               ParticipantId sender, int curr,
                               uint64_t new_est, uint64_t sender_rate) {
  if (sender_rate == 0) return curr;  // no SR seen yet: hold
  double est = static_cast<double>(new_est);
  double rate = static_cast<double>(sender_rate);

  // Keep the current target while the estimate still covers it.
  bool current_fits =
      est >= kDownMargin * kLayerRateFraction[curr] * rate;

  // Downgrade: highest target the estimate covers (DT0 is the floor).
  if (!current_fits) {
    int target = 0;
    for (int k = curr - 1; k >= 1; --k) {
      if (est >= kDownMargin * kLayerRateFraction[k] * rate) {
        target = k;
        break;
      }
    }
    return target;
  }

  // Upgrade: needs headroom plus an expired (possibly backed-off)
  // hold-down since the last downgrade.
  if (curr < 2 &&
      est >= kUpMargin * kLayerRateFraction[curr + 1] * rate) {
    auto ps = receiver.by_sender.find(sender);
    if (ps != receiver.by_sender.end() && ps->second.last_downgrade) {
      util::DurationUs hold =
          ps->second.backoff.value_or(kUpgradeHoldDown);
      if (sched_.now() - *ps->second.last_downgrade < hold) return curr;
    }
    return curr + 1;
  }
  return curr;
}

void SwitchAgent::RunDownlinkFilter(MeetingId meeting, ParticipantId sender) {
  // f(receivers' EWMAs) -> best downlink; only that receiver's REMB is
  // forwarded to the sender (paper §5.3).
  auto mit = meetings_.find(meeting);
  if (mit == meetings_.end()) return;
  Meeting& m = mit->second;

  ParticipantId best = 0;
  double best_val = -1.0;
  double current_val = -1.0;
  auto cur = m.best_downlink.find(sender);
  for (ParticipantId r : m.members) {
    if (r == sender) continue;
    const Participant& p = participants_.at(r);
    auto e = p.by_sender.find(sender);
    if (e == p.by_sender.end() || !e->second.remb_ewma ||
        !e->second.remb_ewma->has_value()) {
      continue;
    }
    double val = e->second.remb_ewma->value();
    if (val > best_val) {
      best_val = val;
      best = r;
    }
    if (cur != m.best_downlink.end() && cur->second == r) {
      current_val = val;
    }
  }
  if (best == 0) return;
  if (cur != m.best_downlink.end() && cur->second == best) return;
  // Hysteresis: switching the forwarded REMB between near-equal downlinks
  // would churn data-plane rules for no benefit.
  if (current_val > 0 && best_val < 1.10 * current_val) return;

  // Flip the data-plane REMB pass-through flags.
  if (cur != m.best_downlink.end()) {
    auto old_it = participants_.find(cur->second);
    if (old_it != participants_.end()) {
      auto old_ps = old_it->second.by_sender.find(sender);
      if (old_ps != old_it->second.by_sender.end() && old_ps->second.leg) {
        FeedbackEntry* fb = dp_.MutableFeedback(old_ps->second.leg->sfu_port);
        if (fb != nullptr) fb->remb_allowed = false;
        ++stats_.dataplane_writes;
      }
    }
  }
  const Participant& new_p = participants_.at(best);
  auto new_ps = new_p.by_sender.find(sender);
  if (new_ps != new_p.by_sender.end() && new_ps->second.leg) {
    FeedbackEntry* fb = dp_.MutableFeedback(new_ps->second.leg->sfu_port);
    if (fb != nullptr) fb->remb_allowed = true;
    ++stats_.dataplane_writes;
  }
  m.best_downlink[sender] = best;
  ++stats_.filter_flips;
}

SkipCadence SwitchAgent::CadenceFor(ParticipantId sender, int dt) const {
  auto a = dd_anchor_.find(sender);
  uint16_t anchor = a == dd_anchor_.end() ? 1 : a->second;
  return SkipCadence::ForDecodeTarget(dt, anchor);
}

void SwitchAgent::ApplyDecodeTarget(Participant& receiver,
                                    ParticipantId sender, int new_dt) {
  ++stats_.dt_changes;
  // A relay leg's decode target switching = the stream crossing the
  // inter-switch link changed layers (driven by the downstream switch's
  // forwarded REMB) — the cascade's cross-switch adaptation events.
  if (receiver.is_relay) ++stats_.relay_dt_changes;
  receiver.by_sender[sender].dt = new_dt;
  Participant& send = participants_.at(sender);

  SkipCadence cadence = CadenceFor(sender, new_dt);
  SvcKey key{send.video_ssrc, receiver.id};
  SvcEntry* svc = dp_.MutableSvc(key);
  if (svc == nullptr) {
    SvcEntry fresh;
    fresh.decode_target = new_dt;
    fresh.cadence = cadence;
    fresh.rewriter_index = dp_.AllocateRewriter(cadence);
    receiver.by_sender[sender].rewriter_index = fresh.rewriter_index;
    dp_.InstallSvc(key, fresh);
    svc = dp_.MutableSvc(key);
  } else {
    svc->decode_target = new_dt;
    svc->cadence = cadence;
    if (svc->rewriter_index != UINT32_MAX) {
      dp_.ConfigureRewriter(svc->rewriter_index, cadence);
    }
  }
  ++stats_.dataplane_writes;

  RebuildMeeting(receiver.meeting);

  // Two-party meetings filter by template in the egress pipeline (no tree).
  auto design = trees_.CurrentDesign(receiver.meeting);
  if (svc != nullptr) {
    svc->filter_in_egress =
        design.has_value() && *design == TreeDesign::kTwoParty;
  }
}

void SwitchAgent::RebuildMeeting(MeetingId meeting) {
  auto mit = meetings_.find(meeting);
  if (mit == meetings_.end() || mit->second.members.empty()) return;
  MeetingSpec spec;
  spec.id = meeting;
  for (ParticipantId pid : mit->second.members) {
    const Participant& p = participants_.at(pid);
    MemberSpec m;
    m.id = p.id;
    m.media_src = p.media_src;
    m.video_ssrc = p.video_ssrc;
    m.audio_ssrc = p.audio_ssrc;
    m.sends_video = p.sends_video;
    m.sends_audio = p.sends_audio;
    for (const auto& [sender, ps] : p.by_sender) {
      if (ps.dt) m.decode_targets.emplace(sender, *ps.dt);
    }
    spec.members.push_back(std::move(m));
  }
  TreeDesign design = trees_.Reconfigure(spec);
  ++stats_.dataplane_writes;

  // Keep egress-filter flags consistent with the design in effect.
  for (ParticipantId pid : mit->second.members) {
    Participant& p = participants_.at(pid);
    for (auto& [sender, ps] : p.by_sender) {
      if (!ps.dt) continue;
      const Participant& s = participants_.at(sender);
      SvcEntry* svc = dp_.MutableSvc(SvcKey{s.video_ssrc, pid});
      if (svc != nullptr) {
        svc->filter_in_egress = design == TreeDesign::kTwoParty;
      }
    }
  }
  // Reconfigure rewrote primary stream entries in place, wiping the
  // dedup flags; re-mirror any redundant relay sources against the fresh
  // state.
  for (ParticipantId pid : mit->second.members) {
    Participant& p = participants_.at(pid);
    if (!p.extra_srcs.empty()) SyncRelaySources(p);
  }
}

void SwitchAgent::ForceDecodeTarget(MeetingId meeting, ParticipantId receiver,
                                    ParticipantId sender, int dt) {
  (void)meeting;
  auto it = participants_.find(receiver);
  if (it == participants_.end()) return;
  pinned_dt_.insert({receiver, sender});
  ApplyDecodeTarget(it->second, sender, std::clamp(dt, 0, 2));
}

int SwitchAgent::DecodeTargetOf(ParticipantId receiver,
                                ParticipantId sender) const {
  auto it = participants_.find(receiver);
  if (it == participants_.end()) return 2;
  auto ps = it->second.by_sender.find(sender);
  if (ps == it->second.by_sender.end() || !ps->second.dt) return 2;
  return *ps->second.dt;
}

ParticipantId SwitchAgent::BestDownlinkOf(ParticipantId sender) const {
  auto pit = participants_.find(sender);
  if (pit == participants_.end()) return 0;
  auto mit = meetings_.find(pit->second.meeting);
  if (mit == meetings_.end()) return 0;
  auto b = mit->second.best_downlink.find(sender);
  return b == mit->second.best_downlink.end() ? 0 : b->second;
}

uint64_t SwitchAgent::SenderRateOf(ParticipantId sender) const {
  auto pit = participants_.find(sender);
  if (pit == participants_.end()) return 0;
  auto rit = sender_rates_.find(pit->second.video_ssrc);
  if (rit == sender_rates_.end() || !rit->second.rate.has_value()) return 0;
  return static_cast<uint64_t>(rit->second.rate.value());
}

}  // namespace scallop::core
