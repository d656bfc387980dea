// Client (Peer) unit tests: signaling flow, media cadences calibrated to
// Table 1, REMB-driven encoder control, NACK retransmission from history,
// PLI-triggered key frames with structure refresh, and STUN RTT probing.
#include <gtest/gtest.h>

#include <map>

#include "rtp/classifier.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "testbed/testbed.hpp"

namespace scallop::client {
namespace {

client::PeerConfig QuietPeer() {
  client::PeerConfig pc;
  pc.encoder.start_bitrate_bps = 700'000;
  pc.encoder.max_bitrate_bps = 900'000;
  pc.encoder.key_frame_interval = util::Seconds(100);  // only PLI keys
  return pc;
}

TEST(PeerTest, JoinNegotiatesLegsBothWays) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  EXPECT_TRUE(a.remote_senders().empty());
  b.Join(bed.signaling(), meeting);
  EXPECT_EQ(a.remote_senders().size(), 1u);
  EXPECT_EQ(b.remote_senders().size(), 1u);
  c.Join(bed.signaling(), meeting);
  EXPECT_EQ(a.remote_senders().size(), 2u);
  EXPECT_EQ(c.remote_senders().size(), 2u);
}

TEST(PeerTest, EndMeetingNotifiesRemainingMembers) {
  // Ending a meeting must tell every remaining member about every peer
  // sender's departure — otherwise clients keep stale receive legs toward
  // SFU ports that no longer exist and never learn the meeting ended.
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  c.Join(bed.signaling(), meeting);
  bed.RunFor(2.0);
  ASSERT_EQ(a.remote_senders().size(), 2u);

  bed.fleet().EndMeeting(meeting);
  EXPECT_TRUE(a.remote_senders().empty());
  EXPECT_TRUE(b.remote_senders().empty());
  EXPECT_TRUE(c.remote_senders().empty());
  EXPECT_EQ(a.video_receiver(b.id()), nullptr);
  // The switch-side state went with it.
  EXPECT_EQ(bed.agent().meeting_count(), 0u);
  EXPECT_EQ(bed.agent().participant_count(), 0u);
}

TEST(PeerTest, MediaCadencesMatchTable1) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  // 2.2 Mb/s 720p-equivalent video, as in the paper's Table 1 trace.
  cfg.peer.encoder.start_bitrate_bps = 2'200'000;
  cfg.peer.encoder.max_bitrate_bps = 2'300'000;
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(20.0);

  double rtp_per_s = static_cast<double>(a.stats().rtp_sent) / 20.0;
  double rtcp_per_s = static_cast<double>(a.stats().rtcp_sent) / 20.0;
  double stun_per_s = static_cast<double>(a.stats().stun_sent) / 20.0;
  // Paper: ~285 RTP/s (235 video + 50 audio), a few RTCP/s, ~1 STUN/s.
  EXPECT_NEAR(rtp_per_s, 285.0, 45.0);
  EXPECT_GT(rtcp_per_s, 4.0);
  EXPECT_LT(rtcp_per_s, 15.0);
  EXPECT_NEAR(stun_per_s, 0.8, 0.5);
}

TEST(PeerTest, RembControlsEncoderTarget) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(10.0);
  // The forwarded REMB from B raised A's target toward B's estimate.
  EXPECT_GT(a.stats().remb_received, 5u);
  EXPECT_GE(a.encoder()->target_bitrate(), 700'000u);
}

TEST(PeerTest, PliTriggersKeyFrameWithStructure) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  // Heavy loss on B's downlink forces freezes -> PLI -> key frames.
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  sim::LinkConfig lossy = cfg.client_downlink;
  lossy.loss_rate = 0.30;
  Peer& b = bed.AddPeer(cfg.client_uplink, lossy);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(20.0);

  EXPECT_GT(a.stats().pli_received, 0u);
  EXPECT_GT(a.stats().keyframes_on_pli, 0u);
  // Refresh key frames re-announce the SVC structure to the agent.
  EXPECT_GT(bed.agent().stats().keyframe_dd_processed, 1u);
}

TEST(PeerTest, RetransmitsFromHistoryOnNack) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  sim::LinkConfig lossy = cfg.client_downlink;
  lossy.loss_rate = 0.05;
  Peer& b = bed.AddPeer(cfg.client_uplink, lossy);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(15.0);
  EXPECT_GT(a.stats().nack_received, 0u);
  EXPECT_GT(a.stats().retransmissions_sent, 0u);
  EXPECT_GT(b.video_receiver(a.id())->stats().recovered_packets, 5u);
}

TEST(PeerTest, LeaveTearsDownLegsEverywhere) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  c.Join(bed.signaling(), meeting);
  bed.RunFor(5.0);
  c.Leave();
  bed.RunFor(2.0);
  EXPECT_EQ(a.remote_senders().size(), 1u);
  EXPECT_EQ(b.remote_senders().size(), 1u);
  // Meeting migrated back to the two-party fast path.
  EXPECT_EQ(*bed.agent().tree_manager().CurrentDesign(meeting),
            core::TreeDesign::kTwoParty);
  // Media between A and B still flows.
  uint64_t before = b.video_receiver(a.id())->stats().frames_decoded;
  bed.RunFor(4.0);
  EXPECT_GT(b.video_receiver(a.id())->stats().frames_decoded, before + 90);
}

TEST(PeerTest, RejoinAfterLeaveRestartsCleanMedia) {
  // Leave + re-Join must renegotiate fresh legs on both sides and resume
  // media without sequence-space corruption. With QuietPeer (no periodic
  // key frames) the rejoiner's new receive legs depend entirely on the
  // cold-start PLI to obtain key frames mid-stream.
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  Peer& b = bed.AddPeer();
  Peer& c = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  c.Join(bed.signaling(), meeting);
  bed.RunFor(5.0);

  c.Leave();
  EXPECT_TRUE(c.remote_senders().empty());  // decoders torn down
  bed.RunFor(2.0);
  c.Join(bed.signaling(), meeting);
  bed.RunFor(8.0);

  // The rejoiner decodes everyone again (fresh legs, PLI-driven resync).
  for (Peer* sender : {&a, &b}) {
    const auto* rx = c.video_receiver(sender->id());
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->stats().frames_decoded, 120u);
    EXPECT_EQ(rx->stats().decoder_breaks, 0u);
    EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
  }
  // And everyone decodes the rejoiner's restarted stream (note: a re-join
  // assigns a fresh participant id).
  for (Peer* receiver : {&a, &b}) {
    const auto* rx = receiver->video_receiver(c.id());
    ASSERT_NE(rx, nullptr);
    EXPECT_GT(rx->stats().frames_decoded, 150u);
    EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
  }
}

// ---------- Retransmission history ----------

// Stands in for the SFU: answers Join with its own endpoint and records a
// digest of every video packet the peer sends it, by seq.
class SfuSink : public sim::Host, public core::SignalingServer {
 public:
  static constexpr net::Endpoint kEndpoint{net::Ipv4(100, 64, 0, 1), 3478};

  JoinResult Join(core::MeetingId, const sdp::SessionDescription&,
                  core::SignalingClient*) override {
    return JoinResult{.participant = 7, .answer = {}, .uplink_sfu = kEndpoint};
  }
  void Leave(core::MeetingId, core::ParticipantId) override {}

  void OnPacket(net::PacketPtr pkt) override {
    if (rtp::Classify(pkt->payload_span()) != rtp::PayloadKind::kRtp ||
        rtp::PeekSsrc(pkt->payload_span()) != video_ssrc) {
      return;
    }
    uint16_t seq = *rtp::PeekSequenceNumber(pkt->payload_span());
    newest_seq = seq;
    uint64_t digest = 1469598103934665603ull;  // FNV-1a
    for (uint8_t b : pkt->payload) digest = (digest ^ b) * 1099511628211ull;
    sent[seq].push_back(digest);
  }

  uint32_t video_ssrc = 0;
  uint16_t newest_seq = 0;
  std::map<uint16_t, std::vector<uint64_t>> sent;
};

class HistoryBed {
 public:
  explicit HistoryBed(size_t history,
                      uint64_t video_bps = media::SvcEncoderConfig{}
                                               .start_bitrate_bps)
      : net_(sched_, 3) {
    client::PeerConfig pc;
    pc.address = net::Ipv4(10, 0, 0, 1);
    pc.retransmit_history = history;
    pc.send_audio = false;
    pc.encoder.start_bitrate_bps = video_bps;
    peer_ = std::make_unique<Peer>(sched_, net_, pc);
    net_.Attach(pc.address, peer_.get(), {}, {});
    net_.Attach(SfuSink::kEndpoint.addr, &sfu_, {}, {});
    sfu_.video_ssrc = peer_->video_ssrc();
  }

  // Runs until the peer has sent more than `packets` RTP packets.
  void SendAtLeast(size_t packets) {
    while (peer_->stats().rtp_sent <= packets) {
      sched_.RunUntil(sched_.now() + util::Millis(10));
    }
  }

  // Delivers a NACK for `seq` straight to the peer; true if it answered
  // with a retransmission.
  bool Nack(uint16_t seq) {
    rtp::Nack nack;
    nack.sender_ssrc = 99;
    nack.media_ssrc = peer_->video_ssrc();
    nack.sequence_numbers = {seq};
    const uint64_t before = peer_->stats().retransmissions_sent;
    net::PacketPtr pkt =
        net::MakePacket(SfuSink::kEndpoint, {net::Ipv4(10, 0, 0, 1), 40'000},
                        rtp::Serialize(rtp::RtcpMessage{nack}));
    pkt->arrival = sched_.now();
    peer_->OnPacket(std::move(pkt));
    return peer_->stats().retransmissions_sent == before + 1;
  }

  sim::Scheduler sched_;
  sim::Network net_;
  SfuSink sfu_;
  std::unique_ptr<Peer> peer_;
};

TEST(PeerHistory, ServesExactlyTheLastRetransmitHistoryPackets) {
  for (size_t history : {size_t{16}, client::PeerConfig{}.retransmit_history}) {
    HistoryBed bed(history);
    bed.peer_->Join(bed.sfu_, 1);
    bed.SendAtLeast(history + 10);
    const uint16_t newest = bed.sfu_.newest_seq;
    const auto oldest = static_cast<uint16_t>(newest - (history - 1));
    EXPECT_FALSE(bed.Nack(static_cast<uint16_t>(oldest - 1))) << history;
    EXPECT_TRUE(bed.Nack(oldest)) << history;
    EXPECT_TRUE(bed.Nack(newest)) << history;
    EXPECT_FALSE(bed.Nack(static_cast<uint16_t>(newest + 1))) << history;

    // The retransmissions carry the original wire bytes.
    bed.sched_.RunUntil(bed.sched_.now() + util::Millis(1));
    for (uint16_t seq : {oldest, newest}) {
      const auto& copies = bed.sfu_.sent[seq];
      ASSERT_GE(copies.size(), 2u) << seq;
      EXPECT_EQ(copies.front(), copies.back()) << seq;
    }
  }
}

TEST(PeerHistory, FullSequenceSpaceServesEverySeqAcrossTheWrap) {
  // 65,536 packets: every seq is retained, each holding its newest lap.
  // Small frames keep the history's footprint down.
  HistoryBed bed(size_t{1} << 16, media::SvcEncoderConfig{}.min_bitrate_bps);
  bed.peer_->Join(bed.sfu_, 1);
  bed.SendAtLeast((size_t{1} << 16) + 100);
  const uint16_t newest = bed.sfu_.newest_seq;
  for (uint16_t seq : {newest, static_cast<uint16_t>(newest + 1),
                       static_cast<uint16_t>(newest - 50)}) {
    EXPECT_TRUE(bed.Nack(seq)) << seq;
  }
  bed.sched_.RunUntil(bed.sched_.now() + util::Millis(1));
  const auto& copies = bed.sfu_.sent[newest];
  ASSERT_GE(copies.size(), 3u);  // two laps, then the retransmission
  EXPECT_EQ(copies.back(), copies[copies.size() - 2]);
  EXPECT_NE(copies.back(), copies.front());
}

TEST(PeerHistory, NothingIsServedAfterLeaveAndRejoin) {
  HistoryBed bed(64);
  bed.peer_->Join(bed.sfu_, 1);
  bed.SendAtLeast(100);
  const uint16_t newest = bed.sfu_.newest_seq;
  ASSERT_GT(newest, 90);
  bed.peer_->Leave();
  EXPECT_FALSE(bed.Nack(newest));
  bed.peer_->Join(bed.sfu_, 1);
  EXPECT_FALSE(bed.Nack(newest));
  EXPECT_FALSE(bed.Nack(1));

  // The new session restarts at seq 1: only its own packets are served.
  const uint64_t sent_before = bed.peer_->stats().rtp_sent;
  bed.SendAtLeast(sent_before + 5);
  EXPECT_TRUE(bed.Nack(1));
  EXPECT_FALSE(bed.Nack(newest));
}

TEST(PeerHistory, RebuildsEveryPayloadShapeByteForByte) {
  // The packetizer's payloads are one repeated byte, which the history
  // keeps as a run; any other payload is kept verbatim.
  rtp::RtpPacket pkt;
  pkt.payload_type = 96;
  pkt.ssrc = 0x1234;
  pkt.SetExtension(3, {0xAA, 0xBB, 0xCC});
  SendHistory history(4);
  std::vector<std::vector<uint8_t>> wires;
  const std::vector<std::vector<uint8_t>> payloads = {
      {1, 2, 3, 4, 5, 6, 7, 8},    // no run at all
      std::vector<uint8_t>(900, 0x42),
      {7, 7, 7, 7, 7, 7, 7, 9},    // a run broken by its last byte
      {9, 7, 7, 7, 7, 7, 7, 7},    // ... and by its first
      {},                          // header only
      {0x42}};
  for (size_t i = 0; i < payloads.size(); ++i) {
    pkt.sequence_number = static_cast<uint16_t>(65'533 + i);  // wraps
    pkt.payload = payloads[i];
    wires.push_back(pkt.Serialize());
    history.Store(pkt.sequence_number, wires.back(),
                  wires.back().size() - pkt.payload.size());
  }
  // Capacity 4: the first two laps' slots now hold the last four packets.
  std::vector<uint8_t> out = {0xEE};
  EXPECT_FALSE(history.Rebuild(65'533, out));
  EXPECT_FALSE(history.Rebuild(65'534, out));
  EXPECT_EQ(out, std::vector<uint8_t>{0xEE});  // a miss writes nothing
  for (size_t i = 2; i < payloads.size(); ++i) {
    const auto seq = static_cast<uint16_t>(65'533 + i);
    ASSERT_TRUE(history.Rebuild(seq, out)) << i;
    EXPECT_EQ(out, wires[i]) << i;
  }
}

TEST(PeerTest, AudioOnlyParticipant) {
  testbed::TestbedConfig cfg;
  cfg.peer = QuietPeer();
  testbed::ScallopTestbed bed(cfg);
  Peer& a = bed.AddPeer();
  client::PeerConfig listener = QuietPeer();
  listener.send_video = false;
  Peer& b = bed.AddPeer(listener, cfg.client_uplink, cfg.client_downlink);
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(8.0);
  // B receives A's video; A receives only audio from B.
  EXPECT_GT(b.video_receiver(a.id())->stats().frames_decoded, 200u);
  EXPECT_GT(a.audio_receiver(b.id())->packets_received(), 300u);
  EXPECT_EQ(a.video_receiver(b.id())->stats().packets_received, 0u);
}

}  // namespace
}  // namespace scallop::client
