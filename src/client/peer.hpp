// WebRTC client endpoint model: what a browser tab runs in the paper's
// testbed. One Peer owns an SVC video encoder + packetizer, an audio
// source, per-remote-sender receive pipelines with GCC bandwidth
// estimation, RTCP generation (SR/SDES, RR+REMB, NACK, PLI), a
// retransmission history, and STUN keepalives. It implements the
// controller's SignalingClient interface so the per-participant stream
// split (paper §5.3) is negotiated exactly as in Scallop.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "bwe/estimator.hpp"
#include "core/controller.hpp"
#include "media/audio.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "net/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "stun/stun.hpp"

namespace scallop::client {

struct PeerConfig {
  PeerConfig() {
    // Allow upgrade probing: the estimate may exceed the throttled
    // incoming rate by 2x, so a receiver recovering from an SFU-side
    // downgrade can signal headroom (WebRTC solves this with padding
    // probes; the cap plays that role here).
    bwe.aimd.max_rate_multiplier = 2.0;
  }

  net::Ipv4 address;
  uint16_t base_port = 40'000;
  bool send_video = true;
  bool send_audio = true;
  media::SvcEncoderConfig encoder;
  // RTCP cadences calibrated against the paper's Table 1.
  util::DurationUs sr_interval = util::Millis(350);
  util::DurationUs remb_interval = util::Millis(220);
  util::DurationUs rr_interval = util::Seconds(5);
  util::DurationUs stun_interval = util::Millis(2500);
  util::DurationUs tick_interval = util::Millis(50);
  bwe::EstimatorConfig bwe;
  size_t retransmit_history = 1024;  // packets; at most 65,536 are kept
  uint64_t seed = 1;
  // Observability: called for every received media packet with the
  // sender-stamped send time (abs-send-time) and the arrival time.
  std::function<void(uint32_t ssrc, util::TimeUs send_time,
                     util::TimeUs arrival)>
      media_tap;
};

struct PeerStats {
  uint64_t rtp_sent = 0;
  uint64_t rtcp_sent = 0;
  uint64_t stun_sent = 0;
  uint64_t retransmissions_sent = 0;
  uint64_t keyframes_on_pli = 0;
  uint64_t remb_received = 0;
  uint64_t nack_received = 0;
  uint64_t pli_received = 0;
  uint64_t stun_rtt_samples = 0;
  double last_stun_rtt_ms = 0.0;
};

// Retransmission history: the last `capacity` video packets of a session,
// in a ring looked up by sequence number. A session's seqs are
// consecutive, so a seq's distance behind the newest locates its slot.
// A slot keeps the RTP header and extension bytes, and the payload as a
// (length, byte) run when it is one repeated byte — every packetizer
// payload is — or verbatim otherwise; Rebuild writes the exact wire bytes
// back. Slots keep their buffers across laps, so a warm history stores
// and serves without allocating. The ring grows to its capacity as
// packets are sent; at most 65,536 (one per seq) are kept.
class SendHistory {
 public:
  explicit SendHistory(size_t capacity);
  // Keeps `wire`, an RTP packet whose payload starts at `payload_offset`
  // and runs to the end (no padding).
  void Store(uint16_t seq, std::span<const uint8_t> wire,
             size_t payload_offset);
  // Writes the wire bytes of `seq` over `out`; false (and `out`
  // untouched) unless `seq` is one of the last `capacity` packets stored.
  bool Rebuild(uint16_t seq, std::vector<uint8_t>& out) const;
  // Forgets every packet (the buffers stay for reuse).
  void Clear() { stored_ = 0; }

 private:
  struct Slot {
    std::vector<uint8_t> head;  // header + extensions, or the whole packet
    uint32_t run_length = 0;    // payload bytes after `head`, all run_byte
    uint8_t run_byte = 0;
  };

  size_t capacity_;
  std::vector<Slot> slots_;
  size_t next_ = 0;    // slot the next Store writes
  size_t stored_ = 0;  // packets held, at most capacity_
  uint16_t newest_seq_ = 0;
};

class Peer : public sim::Host, public core::SignalingClient {
 public:
  Peer(sim::Scheduler& sched, sim::Network& network, const PeerConfig& cfg);
  ~Peer() override;

  // Joins a meeting through a signaling server (SDP offer/answer + legs);
  // works against both Scallop's controller and the software SFU.
  void Join(core::SignalingServer& server, core::MeetingId meeting);
  void Leave();

  // sim::Host
  void OnPacket(net::PacketPtr pkt) override;

  // core::SignalingClient
  net::Endpoint AllocateLocalLeg(core::ParticipantId sender) override;
  void OnRemoteLegReady(core::ParticipantId sender, uint32_t video_ssrc,
                        uint32_t audio_ssrc,
                        net::Endpoint sfu_endpoint) override;
  void OnRemoteSenderLeft(core::ParticipantId sender) override;

  core::ParticipantId id() const { return id_; }
  net::Ipv4 address() const { return cfg_.address; }
  uint32_t video_ssrc() const { return video_ssrc_; }
  uint32_t audio_ssrc() const { return audio_ssrc_; }
  const PeerStats& stats() const { return stats_; }
  media::SvcEncoder* encoder() { return encoder_.get(); }

  // Receive pipeline for a remote sender (nullptr if none).
  const media::VideoReceiver* video_receiver(core::ParticipantId sender) const;
  const media::AudioReceiver* audio_receiver(core::ParticipantId sender) const;
  const bwe::ReceiverBandwidthEstimator* bwe_for(
      core::ParticipantId sender) const;
  // All remote senders currently known.
  std::vector<core::ParticipantId> remote_senders() const;

 private:
  struct RemoteLeg {
    core::ParticipantId sender = 0;
    net::Endpoint local;       // our endpoint for this leg
    net::Endpoint sfu;         // SFU endpoint for this leg
    uint32_t video_ssrc = 0;
    uint32_t audio_ssrc = 0;
    std::unique_ptr<media::VideoReceiver> video;
    std::unique_ptr<media::AudioReceiver> audio;
    std::unique_ptr<bwe::ReceiverBandwidthEstimator> bwe;
    uint32_t highest_video_seq_ext = 0;  // for RR report blocks
    uint64_t video_packets = 0;
    util::TimeUs last_rr = 0;  // standalone receiver reports
  };

  void StartMedia();
  void SendVideoFrame();
  void SendAudioFrame();
  void SendSenderReports();
  void SendReceiverFeedback(RemoteLeg& leg, bool include_remb);
  void SendStun();
  void Tick();
  void HandleMediaPacket(RemoteLeg& leg, const rtp::RtpView& pkt,
                         util::TimeUs arrival, size_t wire_bytes);
  void HandleRtcp(RemoteLeg* leg, std::span<const uint8_t> payload);
  void HandleNack(const rtp::Nack& nack);
  // `pkt` serialized straight into a pooled packet addressed uplink.
  net::PacketPtr UplinkPacket(const rtp::RtpPacket& pkt);
  // Copies `payload` into a pooled packet, keeping that packet's buffer.
  void Transmit(net::Endpoint from, net::Endpoint to,
                std::span<const uint8_t> payload);
  RemoteLeg* LegByLocalPort(uint16_t port);

  sim::Scheduler& sched_;
  sim::Network& network_;
  PeerConfig cfg_;
  core::SignalingServer* server_ = nullptr;
  core::MeetingId meeting_ = 0;
  core::ParticipantId id_ = 0;

  net::Endpoint media_local_;  // uplink leg, local side
  net::Endpoint uplink_sfu_;   // uplink leg, SFU side
  uint16_t next_local_port_;
  uint32_t video_ssrc_ = 0;
  uint32_t audio_ssrc_ = 0;

  std::unique_ptr<media::SvcEncoder> encoder_;
  std::unique_ptr<media::Packetizer> packetizer_;
  std::unique_ptr<media::AudioSource> audio_source_;
  uint32_t video_packet_count_ = 0;
  uint32_t video_octet_count_ = 0;
  uint32_t audio_packet_count_ = 0;
  uint32_t audio_octet_count_ = 0;

  std::map<core::ParticipantId, RemoteLeg> legs_;          // by sender
  // Direct port -> leg index for the per-packet receive path (legs_ is
  // node-based, so RemoteLeg addresses are stable).
  std::unordered_map<uint16_t, RemoteLeg*> port_to_leg_;

  SendHistory history_;

  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
  std::map<uint64_t, util::TimeUs> stun_inflight_;  // tid hash -> send time
  uint64_t stun_counter_ = 0;

  PeerStats stats_;
};

}  // namespace scallop::client
