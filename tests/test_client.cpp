// Client (Peer) unit tests: signaling flow, media cadences calibrated to
// Table 1, REMB-driven encoder control, NACK retransmission from history,
// PLI-triggered key frames with structure refresh, and STUN RTT probing.
#include <gtest/gtest.h>

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
  EXPECT_GT(bed.fleet().controller(0).stats().legs_negotiated, 4u);
  EXPECT_GT(bed.fleet().controller(0).stats().candidates_rewritten, 0u);
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
