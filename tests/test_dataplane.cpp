// Data-plane unit tests: packet classification, table-driven forwarding,
// REMB filtering, NACK translation and rewriter provisioning — exercised
// by injecting crafted packets directly into the switch.
#include <gtest/gtest.h>

#include "av1/dependency_descriptor.hpp"
#include "core/dataplane.hpp"
#include "media/packetizer.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "sim/network.hpp"
#include "stun/stun.hpp"

namespace scallop::core {
namespace {

class SinkHost : public sim::Host {
 public:
  void OnPacket(net::PacketPtr pkt) override {
    packets.push_back(std::move(pkt));
  }
  std::vector<net::PacketPtr> packets;
};

class DataPlaneTest : public ::testing::Test {
 protected:
  DataPlaneTest()
      : net_(sched_, 5),
        sw_(sched_, net_, {.address = net::Ipv4(100, 64, 0, 1)}),
        dp_(sw_, {}) {
    net_.Attach(sw_.address(), &sw_, {}, {});
    net_.Attach(client_a_.addr, &host_a_, {}, {});
    net_.Attach(client_b_.addr, &host_b_, {}, {});
    sw_.SetCpuHandler([this](net::PacketPtr pkt) {
      cpu_packets_.push_back(std::move(pkt));
    });
  }

  // Installs a minimal two-party forwarding setup: A sends to B.
  void InstallTwoParty(uint32_t ssrc, bool with_svc, int dt) {
    StreamEntry stream;
    stream.meeting = 1;
    stream.sender = 1;
    stream.is_video = true;
    stream.design = TreeDesign::kTwoParty;
    stream.peer_egress = 2;  // receiver id
    dp_.InstallStream(StreamKey{client_a_, ssrc}, stream);

    EgressEntry out;
    out.dst = client_b_;
    out.sfu_src = net::Endpoint{sw_.address(), 10'001};
    out.receiver = 2;
    dp_.InstallEgress(EgressKey{client_a_, 2}, out);

    if (with_svc) {
      SvcEntry svc;
      svc.decode_target = dt;
      svc.cadence = SkipCadence::ForDecodeTarget(dt, 1);
      svc.rewriter_index = dp_.AllocateRewriter(svc.cadence);
      svc.filter_in_egress = true;
      dp_.InstallSvc(SvcKey{ssrc, 2}, svc);
    }
  }

  net::PacketPtr VideoPacket(uint32_t ssrc, uint16_t seq, uint16_t frame,
                             uint8_t template_id, bool extended = false) {
    rtp::RtpPacket pkt;
    pkt.payload_type = 96;
    pkt.sequence_number = seq;
    pkt.ssrc = ssrc;
    av1::DependencyDescriptor dd;
    dd.template_id = template_id;
    dd.frame_number = frame;
    if (extended) dd.structure = av1::TemplateStructure::L1T3();
    pkt.SetExtension(av1::kDdExtensionId, dd.Serialize());
    pkt.payload.assign(100, 0x42);
    return net::MakePacket(client_a_, net::Endpoint{sw_.address(), 10'000},
                           pkt.Serialize());
  }

  sim::Scheduler sched_;
  sim::Network net_;
  switchsim::Switch sw_;
  DataPlaneProgram dp_;
  net::Endpoint client_a_{net::Ipv4(10, 0, 0, 1), 40'000};
  net::Endpoint client_b_{net::Ipv4(10, 0, 0, 2), 41'000};
  SinkHost host_a_;
  SinkHost host_b_;
  std::vector<net::PacketPtr> cpu_packets_;
};

TEST_F(DataPlaneTest, UnknownStreamDropped) {
  sw_.OnPacket(VideoPacket(0xAAAA, 1, 1, 0));
  sched_.RunAll();
  EXPECT_EQ(dp_.stats().stream_misses, 1u);
  EXPECT_TRUE(host_b_.packets.empty());
}

TEST_F(DataPlaneTest, TwoPartyForwardingRewritesAddresses) {
  InstallTwoParty(0xAAAA, false, 2);
  sw_.OnPacket(VideoPacket(0xAAAA, 1, 1, 0));
  sched_.RunAll();
  ASSERT_EQ(host_b_.packets.size(), 1u);
  EXPECT_EQ(host_b_.packets[0]->src,
            (net::Endpoint{sw_.address(), 10'001}));
  EXPECT_EQ(host_b_.packets[0]->dst, client_b_);
  // The payload (including the SSRC) is untouched — true proxy semantics.
  EXPECT_EQ(rtp::PeekSsrc(host_b_.packets[0]->payload_span()), 0xAAAAu);
}

TEST_F(DataPlaneTest, StunGoesToCpuOnly) {
  stun::StunMessage req;
  req.type = stun::MessageType::kBindingRequest;
  sw_.OnPacket(net::MakePacket(client_a_,
                               net::Endpoint{sw_.address(), 10'000},
                               req.Serialize()));
  sched_.RunAll();
  EXPECT_EQ(cpu_packets_.size(), 1u);
  EXPECT_TRUE(host_b_.packets.empty());
  EXPECT_EQ(dp_.stats().stun_in, 1u);
}

TEST_F(DataPlaneTest, SvcFilterDropsUpperLayersAndRewritesSeq) {
  InstallTwoParty(0xAAAA, true, /*dt=*/1);  // keep TL0+TL1
  // L1T3 pattern frames 1..5 with templates 0,3,2,4,1; one packet each.
  uint16_t seq = 1;
  uint8_t templates[] = {0, 3, 2, 4, 1};
  for (int f = 1; f <= 5; ++f) {
    sw_.OnPacket(VideoPacket(0xAAAA, seq, static_cast<uint16_t>(f),
                             templates[f - 1]));
    ++seq;
  }
  sched_.RunAll();
  // TL2 frames (templates 3 and 4) suppressed: 3 of 5 packets delivered.
  ASSERT_EQ(host_b_.packets.size(), 3u);
  EXPECT_EQ(dp_.stats().svc_suppressed, 2u);
  // Sequence numbers rewritten gaplessly: 1,2,3.
  for (size_t i = 0; i < host_b_.packets.size(); ++i) {
    EXPECT_EQ(rtp::PeekSequenceNumber(host_b_.packets[i]->payload_span()),
              static_cast<uint16_t>(i + 1));
  }
}

TEST_F(DataPlaneTest, RefusedReplicasLeaveTheNextOneUntouched) {
  // One fan-out, in PRE order: rid 11 has no egress entry and rid 12 (DT0)
  // suppresses TL1, then rid 13 (DT1) forwards it with its seq rewritten;
  // rid 14 (DT0) suppresses it again before rid 15, which has no SVC
  // entry, forwards it untouched. A refused replica's copy goes on to the
  // next one, so a write before a refusal would show in 13's or 15's copy.
  constexpr uint32_t kSsrc = 0xAAAA;
  const net::Endpoint client_c{net::Ipv4(10, 0, 0, 3), 42'000};
  const net::Endpoint client_d{net::Ipv4(10, 0, 0, 4), 43'000};
  SinkHost host_c;
  SinkHost host_d;
  net_.Attach(client_c.addr, &host_c, {}, {});
  net_.Attach(client_d.addr, &host_d, {}, {});

  StreamEntry stream;
  stream.is_video = true;
  stream.design = TreeDesign::kNRA;
  stream.mgid_base = 1;
  dp_.InstallStream(StreamKey{client_a_, kSsrc}, stream);
  ASSERT_TRUE(sw_.pre().CreateTree(1));
  for (uint16_t rid : {11, 12, 13, 14, 15}) {
    ASSERT_TRUE(sw_.pre().AddNode(1, switchsim::L1Node{.node_id = rid,
                                                       .rid = rid,
                                                       .ports = {rid}}));
  }
  auto egress = [&](uint16_t rid, net::Endpoint dst) {
    EgressEntry out;
    out.dst = dst;
    out.sfu_src = net::Endpoint{sw_.address(), rid};
    out.receiver = rid;
    dp_.InstallEgress(EgressKey{client_a_, rid}, out);
  };
  auto svc = [&](uint16_t rid, int dt) {
    SvcEntry entry;
    entry.decode_target = dt;
    entry.cadence = SkipCadence::ForDecodeTarget(dt, 1);
    entry.rewriter_index = dp_.AllocateRewriter(entry.cadence);
    entry.filter_in_egress = true;
    dp_.InstallSvc(SvcKey{kSsrc, rid}, entry);
  };
  egress(12, client_b_);
  svc(12, /*dt=*/0);
  egress(13, client_c);
  svc(13, /*dt=*/1);
  egress(14, client_b_);
  svc(14, /*dt=*/0);
  egress(15, client_d);

  // Key frame, then a TL2 frame that every rewriting leg drops (rid 13's
  // rewriter now closes a one-seq gap), then the TL1 frame under test.
  sw_.OnPacket(VideoPacket(kSsrc, 1, 1, /*template_id=*/0));
  sw_.OnPacket(VideoPacket(kSsrc, 2, 2, /*template_id=*/3));
  net::PacketPtr tl1 = VideoPacket(kSsrc, 3, 3, /*template_id=*/2);
  const std::vector<uint8_t> sent = tl1->payload;
  sw_.OnPacket(std::move(tl1));
  sched_.RunAll();

  ASSERT_EQ(host_b_.packets.size(), 2u);  // the key frame, once per leg
  ASSERT_EQ(host_c.packets.size(), 2u);
  ASSERT_EQ(host_d.packets.size(), 3u);
  const net::Packet& rewritten = *host_c.packets[1];
  EXPECT_EQ(rewritten.src, (net::Endpoint{sw_.address(), 13}));
  EXPECT_EQ(rewritten.dst, client_c);
  std::vector<uint8_t> want = sent;
  ASSERT_TRUE(rtp::PatchSequenceNumber(want, 2));
  EXPECT_EQ(rewritten.payload, want);
  const net::Packet& untouched = *host_d.packets[2];
  EXPECT_EQ(untouched.src, (net::Endpoint{sw_.address(), 15}));
  EXPECT_EQ(untouched.dst, client_d);
  EXPECT_EQ(untouched.payload, sent);
  EXPECT_EQ(dp_.stats().svc_suppressed, 5u);  // TL2 on 12-14, TL1 on 12, 14
  EXPECT_EQ(dp_.stats().seq_rewritten, 4u);   // key on 12-14, TL1 on 13
}

TEST_F(DataPlaneTest, ExtendedDdCopiedToCpu) {
  InstallTwoParty(0xAAAA, false, 2);
  sw_.OnPacket(VideoPacket(0xAAAA, 1, 1, 0, /*extended=*/true));
  sched_.RunAll();
  EXPECT_EQ(dp_.stats().keyframe_dd_to_cpu, 1u);
  EXPECT_EQ(cpu_packets_.size(), 1u);
  // Still forwarded in the data plane.
  EXPECT_EQ(host_b_.packets.size(), 1u);
}

TEST_F(DataPlaneTest, RembFilteredUnlessAllowed) {
  // Feedback leg: B reports on A's stream via SFU port 10'002.
  FeedbackEntry fb;
  fb.meeting = 1;
  fb.receiver = 2;
  fb.sender = 1;
  fb.sender_rid = 1;
  fb.video_ssrc = 0xAAAA;
  fb.remb_allowed = false;
  dp_.InstallFeedback(10'002, fb);
  // Egress entry for the feedback path toward A.
  EgressEntry out;
  out.dst = client_a_;
  out.sfu_src = net::Endpoint{sw_.address(), 10'000};
  out.receiver = 1;
  dp_.InstallEgress(EgressKey{client_b_, 1}, out);

  rtp::Remb remb;
  remb.sender_ssrc = 0xBBBB;
  remb.bitrate_bps = 500'000;
  remb.media_ssrcs = {0xAAAA};
  auto remb_wire = rtp::Serialize(rtp::RtcpMessage{remb});

  sw_.OnPacket(net::MakePacket(client_b_,
                               net::Endpoint{sw_.address(), 10'002},
                               remb_wire));
  sched_.RunAll();
  EXPECT_EQ(dp_.stats().remb_filtered, 1u);
  EXPECT_TRUE(host_a_.packets.empty());
  EXPECT_EQ(cpu_packets_.size(), 1u);  // agent still sees the copy

  // Allow it: now it reaches the sender.
  dp_.MutableFeedback(10'002)->remb_allowed = true;
  sw_.OnPacket(net::MakePacket(client_b_,
                               net::Endpoint{sw_.address(), 10'002},
                               remb_wire));
  sched_.RunAll();
  EXPECT_EQ(dp_.stats().remb_forwarded, 1u);
  ASSERT_EQ(host_a_.packets.size(), 1u);
  EXPECT_EQ(host_a_.packets[0]->dst, client_a_);
}

TEST_F(DataPlaneTest, NackTranslatedBackToSenderSpace) {
  InstallTwoParty(0xAAAA, true, 1);
  // Run some packets through to advance the rewriter's offset: frames
  // 1..5, TL2 frames suppressed -> offset 2.
  uint16_t seq = 1;
  uint8_t templates[] = {0, 3, 2, 4, 1};
  for (int f = 1; f <= 5; ++f) {
    sw_.OnPacket(VideoPacket(0xAAAA, seq++, static_cast<uint16_t>(f),
                             templates[f - 1]));
  }
  sched_.RunAll();

  FeedbackEntry fb;
  fb.meeting = 1;
  fb.receiver = 2;
  fb.sender = 1;
  fb.sender_rid = 1;
  fb.video_ssrc = 0xAAAA;
  fb.remb_allowed = true;
  dp_.InstallFeedback(10'002, fb);
  EgressEntry out;
  out.dst = client_a_;
  out.sfu_src = net::Endpoint{sw_.address(), 10'000};
  out.receiver = 1;
  dp_.InstallEgress(EgressKey{client_b_, 1}, out);

  // B NACKs rewritten seq 3 (original 5: two suppressed packets before it).
  rtp::Nack nack;
  nack.sender_ssrc = 0xBBBB;
  nack.media_ssrc = 0xAAAA;
  nack.sequence_numbers = {3};
  sw_.OnPacket(net::MakePacket(client_b_,
                               net::Endpoint{sw_.address(), 10'002},
                               rtp::Serialize(rtp::RtcpMessage{nack})));
  sched_.RunAll();
  ASSERT_EQ(host_a_.packets.size(), 1u);
  auto msgs = rtp::ParseCompound(host_a_.packets[0]->payload_span());
  ASSERT_TRUE(msgs.has_value());
  const auto& out_nack = std::get<rtp::Nack>((*msgs)[0]);
  EXPECT_EQ(out_nack.sequence_numbers, (std::vector<uint16_t>{5}));
  EXPECT_EQ(dp_.stats().nack_translated, 1u);
}

TEST_F(DataPlaneTest, RewriterPoolExhaustionAndReuse) {
  DataPlaneConfig small;
  small.rewriter_cells = 2;
  switchsim::Switch sw2(sched_, net_, {.address = net::Ipv4(100, 64, 0, 2)});
  DataPlaneProgram dp2(sw2, small);
  // The resource model sees the rewriter cells as one S-LR footprint
  // whose occupancy follows the rewriters in use.
  auto tracker = [&sw2] {
    for (const auto& t : sw2.resources().Report(1.0, 0, 0).tables) {
      if (t.name == "stream_tracker") return t;
    }
    ADD_FAILURE() << "no stream_tracker footprint";
    return switchsim::TableFootprint{};
  };
  EXPECT_EQ(tracker().capacity, 2u);
  EXPECT_EQ(tracker().allocated_bits(), 2u * 160u);
  EXPECT_EQ(tracker().occupied, 0u);
  SkipCadence cadence;
  uint32_t a = dp2.AllocateRewriter(cadence);
  uint32_t b = dp2.AllocateRewriter(cadence);
  EXPECT_NE(a, UINT32_MAX);
  EXPECT_NE(b, UINT32_MAX);
  EXPECT_EQ(tracker().occupied, 2u);
  // Register memory exhausted: the hardware bound the capacity model uses.
  EXPECT_EQ(dp2.AllocateRewriter(cadence), UINT32_MAX);
  EXPECT_EQ(tracker().occupied, 2u);
  dp2.FreeRewriter(a);
  EXPECT_EQ(dp2.rewriters_in_use(), 1u);
  EXPECT_EQ(tracker().occupied, 1u);
  EXPECT_NE(dp2.AllocateRewriter(cadence), UINT32_MAX);
  EXPECT_EQ(tracker().occupied, 2u);
}

TEST_F(DataPlaneTest, CompoundHelpers) {
  rtp::ReceiverReport rr;
  rtp::Remb remb;
  remb.bitrate_bps = 1'000'000;
  std::vector<rtp::RtcpMessage> with_remb{rr, remb};
  std::vector<rtp::RtcpMessage> without{rr};
  EXPECT_TRUE(CompoundContainsRemb(rtp::SerializeCompound(with_remb)));
  EXPECT_FALSE(CompoundContainsRemb(rtp::SerializeCompound(without)));
  EXPECT_EQ(CompoundFirstType(rtp::SerializeCompound(with_remb)),
            rtp::kRtcpRr);
}

}  // namespace
}  // namespace scallop::core
