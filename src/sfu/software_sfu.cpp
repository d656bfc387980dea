#include "sfu/software_sfu.hpp"

#include <algorithm>
#include <cmath>

#include "rtp/classifier.hpp"
#include "rtp/rtp_packet.hpp"
#include "stun/stun.hpp"

namespace scallop::sfu {

SoftwareSfu::SoftwareSfu(sim::Scheduler& sched, sim::Network& network,
                         const SoftwareSfuConfig& cfg)
    : sched_(sched),
      network_(network),
      cfg_(cfg),
      rng_(cfg.seed),
      next_port_(cfg.first_port),
      core_free_(static_cast<size_t>(cfg.cores), 0) {
  remb_task_ = std::make_unique<sim::PeriodicTask>(
      sched_, cfg_.remb_aggregate_interval, [this] {
        AggregateRemb();
        return true;
      });
}

core::MeetingId SoftwareSfu::CreateMeeting() {
  core::MeetingId id = next_meeting_++;
  meetings_[id] = {};
  return id;
}

SoftwareSfu::JoinResult SoftwareSfu::Join(core::MeetingId meeting,
                                          const sdp::SessionDescription& offer,
                                          core::SignalingClient* client) {
  Participant p;
  p.id = next_participant_++;
  p.meeting = meeting;
  p.client = client;
  // What the participant sends and from where — the same parse the
  // Scallop controllers use.
  const core::SenderIntent intent = core::ParseSenderIntent(offer);
  p.media_src = intent.media_src;
  p.video_ssrc = intent.video_ssrc;
  p.audio_ssrc = intent.audio_ssrc;
  p.sends_video = intent.sends_video;
  p.sends_audio = intent.sends_audio;
  p.uplink_port = next_port_++;
  port_owner_[p.uplink_port] = p.id;

  JoinResult result;
  result.participant = p.id;
  result.uplink_sfu = net::Endpoint{cfg_.address, p.uplink_port};
  result.answer = sdp::MakeAnswer(offer, result.uplink_sfu,
                                  "sw" + std::to_string(p.id), "pwd");

  auto& members = meetings_[meeting];
  core::ParticipantId new_id = p.id;
  participants_[new_id] = p;

  for (core::ParticipantId other_id : members) {
    Participant& other = participants_.at(other_id);
    // New participant receives from existing senders.
    if (other.sends_video || other.sends_audio) {
      net::Endpoint local = client->AllocateLocalLeg(other_id);
      Leg leg{next_port_++, local};
      leg_ports_[leg.sfu_port] = {new_id, other_id};
      participants_.at(new_id).recv_legs[other_id] = leg;
      client->OnRemoteLegReady(other_id, other.video_ssrc, other.audio_ssrc,
                               net::Endpoint{cfg_.address, leg.sfu_port});
    }
    // Existing participants receive from the new sender.
    if (p.sends_video || p.sends_audio) {
      net::Endpoint local = other.client->AllocateLocalLeg(new_id);
      Leg leg{next_port_++, local};
      leg_ports_[leg.sfu_port] = {other_id, new_id};
      other.recv_legs[new_id] = leg;
      other.client->OnRemoteLegReady(new_id, p.video_ssrc, p.audio_ssrc,
                                     net::Endpoint{cfg_.address, leg.sfu_port});
    }
  }
  members.push_back(new_id);
  return result;
}

void SoftwareSfu::Leave(core::MeetingId meeting,
                        core::ParticipantId participant) {
  auto it = participants_.find(participant);
  if (it == participants_.end()) return;
  Participant& p = it->second;
  port_owner_.erase(p.uplink_port);
  for (auto& [sender, leg] : p.recv_legs) leg_ports_.erase(leg.sfu_port);
  caches_.erase(p.video_ssrc);
  auto& members = meetings_[meeting];
  members.erase(std::remove(members.begin(), members.end(), participant),
                members.end());
  for (core::ParticipantId other_id : members) {
    Participant& other = participants_.at(other_id);
    auto leg = other.recv_legs.find(participant);
    if (leg != other.recv_legs.end()) {
      leg_ports_.erase(leg->second.sfu_port);
      other.recv_legs.erase(leg);
    }
    other.remb.erase(participant);
    other.client->OnRemoteSenderLeft(participant);
  }
  participants_.erase(it);
}

util::DurationUs SoftwareSfu::EnqueueWork(double replicas) {
  // Pick the earliest-free core (SO_REUSEPORT-style sharding).
  auto core = std::min_element(core_free_.begin(), core_free_.end());
  util::TimeUs now = sched_.now();
  util::TimeUs start = std::max(now, *core);
  if (start - now > cfg_.max_queue_delay) {
    return -1;  // socket buffer overflow
  }
  double service = cfg_.base_service_us + cfg_.per_replica_us * replicas;
  // Scheduler wakeup applies when the core has to be woken for this packet
  // (idle at arrival); packets already queued behind others ride the same
  // wakeup (epoll batching).
  if (start == now) {
    service += cfg_.wakeup_median_us * rng_.LogNormal(0.0, cfg_.wakeup_sigma);
  }
  util::TimeUs done = start + static_cast<util::DurationUs>(service);
  *core = done;
  stats_.cpu_busy_us += service;
  return done - now;
}

double SoftwareSfu::CpuUtilization(util::TimeUs now) const {
  if (now <= 0) return 0.0;
  return stats_.cpu_busy_us /
         (static_cast<double>(now) * static_cast<double>(cfg_.cores));
}

void SoftwareSfu::OnPacket(net::PacketPtr pkt) {
  ++stats_.packets_in;
  stats_.bytes_in += pkt->wire_size();

  // Estimate the replica count for the service-time model.
  double replicas = 1.0;
  auto kind = rtp::Classify(pkt->payload_span());
  if (kind == rtp::PayloadKind::kRtp) {
    auto owner = port_owner_.find(pkt->dst.port);
    if (owner != port_owner_.end()) {
      const Participant& p = participants_.at(owner->second);
      auto m = meetings_.find(p.meeting);
      if (m != meetings_.end() && m->second.size() > 1) {
        replicas = static_cast<double>(m->second.size() - 1);
      }
    }
  }

  util::DurationUs delay = EnqueueWork(replicas);
  if (delay < 0) {
    ++stats_.packets_dropped;
    return;
  }
  latency_us_.Add(static_cast<double>(delay));
  sched_.Post(sched_.now() + delay, *this, parked_.Put(std::move(pkt)));
}

void SoftwareSfu::Fire(uint64_t token) {
  Process(parked_.Take(static_cast<uint32_t>(token)));
}

void SoftwareSfu::Process(net::PacketPtr pkt) {
  switch (rtp::Classify(pkt->payload_span())) {
    case rtp::PayloadKind::kStun: {
      auto msg = stun::StunMessage::Parse(pkt->payload_span());
      if (msg.has_value() && msg->is_request()) {
        auto resp = stun::MakeBindingResponse(*msg, pkt->src);
        ++stats_.packets_out;
        network_.Send(net::MakePacket(pkt->dst, pkt->src, resp.Serialize()));
      }
      return;
    }
    case rtp::PayloadKind::kRtp: {
      auto owner = port_owner_.find(pkt->dst.port);
      if (owner == port_owner_.end()) return;
      Participant& sender = participants_.at(owner->second);
      // Cache video packets for NACK termination.
      auto ssrc = rtp::PeekSsrc(pkt->payload_span());
      if (ssrc.has_value() && *ssrc == sender.video_ssrc) {
        auto seq = rtp::PeekSequenceNumber(pkt->payload_span());
        if (seq.has_value()) {
          StreamCache& cache = caches_[*ssrc];
          if (cache.packets.emplace(*seq, pkt->payload).second) {
            cache.order.push_back(*seq);
            while (cache.order.size() > cfg_.nack_cache_packets) {
              cache.packets.erase(cache.order.front());
              cache.order.pop_front();
            }
          }
        }
      }
      ForwardMedia(sender, *pkt, 0);
      return;
    }
    case rtp::PayloadKind::kRtcp: {
      uint8_t first = pkt->payload.size() >= 2 ? pkt->payload[1] : 0;
      if (first == rtp::kRtcpSr || first == rtp::kRtcpSdes) {
        auto owner = port_owner_.find(pkt->dst.port);
        if (owner == port_owner_.end()) return;
        ForwardMedia(participants_.at(owner->second), *pkt, 0);
      } else {
        HandleFeedback(*pkt);
      }
      return;
    }
    default:
      return;
  }
}

void SoftwareSfu::ForwardMedia(const Participant& sender,
                               const net::Packet& pkt, size_t) {
  auto m = meetings_.find(sender.meeting);
  if (m == meetings_.end()) return;
  for (core::ParticipantId rid : m->second) {
    if (rid == sender.id) continue;
    const Participant& receiver = participants_.at(rid);
    auto leg = receiver.recv_legs.find(sender.id);
    if (leg == receiver.recv_legs.end()) continue;
    auto copy = net::ClonePacket(pkt);
    copy->src = net::Endpoint{cfg_.address, leg->second.sfu_port};
    copy->dst = leg->second.client;
    ++stats_.packets_out;
    stats_.bytes_out += copy->wire_size();
    network_.Send(std::move(copy));
  }
}

void SoftwareSfu::HandleFeedback(const net::Packet& pkt) {
  auto leg_it = leg_ports_.find(pkt.dst.port);
  if (leg_it == leg_ports_.end()) return;
  auto [receiver_id, sender_id] = leg_it->second;
  Participant& receiver = participants_.at(receiver_id);
  Participant& sender = participants_.at(sender_id);

  auto msgs = rtp::ParseCompound(pkt.payload_span());
  if (!msgs.has_value()) return;
  for (const auto& msg : *msgs) {
    if (const auto* remb = std::get_if<rtp::Remb>(&msg)) {
      // Terminated at the SFU: folded into the per-sender aggregate.
      receiver.remb[sender_id] = static_cast<double>(remb->bitrate_bps);
      ++stats_.rembs_aggregated;
    } else if (const auto* nack = std::get_if<rtp::Nack>(&msg)) {
      // Serve from the cache where possible; forward the rest upstream.
      auto cache = caches_.find(sender.video_ssrc);
      std::vector<uint16_t> missing;
      for (uint16_t s : nack->sequence_numbers) {
        if (cache != caches_.end()) {
          auto hit = cache->second.packets.find(s);
          if (hit != cache->second.packets.end()) {
            auto retx = net::MakePacket(
                net::Endpoint{cfg_.address,
                              receiver.recv_legs.at(sender_id).sfu_port},
                receiver.recv_legs.at(sender_id).client, hit->second);
            ++stats_.packets_out;
            ++stats_.nacks_served_from_cache;
            network_.Send(std::move(retx));
            continue;
          }
        }
        missing.push_back(s);
      }
      if (!missing.empty()) {
        rtp::Nack upstream = *nack;
        upstream.sequence_numbers = std::move(missing);
        ++stats_.nacks_forwarded;
        ++stats_.packets_out;
        network_.Send(net::MakePacket(
            net::Endpoint{cfg_.address, sender.uplink_port}, sender.media_src,
            rtp::Serialize(rtp::RtcpMessage{upstream})));
      }
    } else if (const auto* pli = std::get_if<rtp::Pli>(&msg)) {
      // PLI passes through to the sender.
      (void)pli;
      ++stats_.packets_out;
      network_.Send(net::MakePacket(
          net::Endpoint{cfg_.address, sender.uplink_port}, sender.media_src,
          pkt.payload));
    }
  }
}

void SoftwareSfu::AggregateRemb() {
  // min over receivers: the split-proxy control loop the paper contrasts
  // with Scallop's best-downlink filter (all senders converge to the
  // weakest receiver).
  for (auto& [meeting, members] : meetings_) {
    for (core::ParticipantId sender_id : members) {
      Participant& sender = participants_.at(sender_id);
      if (!sender.sends_video) continue;
      double min_est = -1.0;
      for (core::ParticipantId rid : members) {
        if (rid == sender_id) continue;
        const Participant& r = participants_.at(rid);
        auto est = r.remb.find(sender_id);
        if (est == r.remb.end()) continue;
        if (min_est < 0 || est->second < min_est) min_est = est->second;
      }
      if (min_est <= 0) continue;
      rtp::Remb remb;
      remb.sender_ssrc = 0x5F500000 | sender_id;
      remb.bitrate_bps = static_cast<uint64_t>(min_est);
      remb.media_ssrcs = {sender.video_ssrc};
      ++stats_.packets_out;
      network_.Send(net::MakePacket(
          net::Endpoint{cfg_.address, sender.uplink_port}, sender.media_src,
          rtp::Serialize(rtp::RtcpMessage{remb})));
    }
  }
}

}  // namespace scallop::sfu
