// Switch-agent unit tests: REMB best-downlink filter (hysteresis, flips),
// decode-target policy (margins, debounce, warmup, upgrade backoff), STUN
// handling and SR-based sender-rate tracking — via direct CPU-packet
// injection rather than full clients.
#include <gtest/gtest.h>

#include "core/federation.hpp"
#include "core/switch_agent.hpp"
#include "rtp/rtcp.hpp"
#include "sim/network.hpp"
#include "stun/stun.hpp"

namespace scallop::core {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  AgentTest()
      : net_(sched_, 3),
        sw_(sched_, net_, {.address = net::Ipv4(100, 64, 0, 1)}),
        dp_(sw_, {}),
        agent_(sched_, dp_, MakeConfig()) {
    net_.Attach(sw_.address(), &sw_, {}, {});
  }

  static AgentConfig MakeConfig() {
    AgentConfig cfg;
    cfg.sfu_ip = net::Ipv4(100, 64, 0, 1);
    cfg.policy_warmup = 0;  // exercised explicitly in one test
    return cfg;
  }

  // SFU ports the tests assign: participant p's uplink, and receiver r's
  // leg about sender s (both 1-indexed).
  static uint16_t UplinkPort(uint32_t p) {
    return static_cast<uint16_t>(10'000 + p - 1);
  }
  static uint16_t LegPort(uint32_t r, uint32_t s) {
    return static_cast<uint16_t>(11'000 + 10 * r + s);
  }

  // Builds a 3-participant meeting with legs, returns sfu leg ports:
  // port[r][s] = receiver r's feedback port about sender s (1-indexed).
  void SetupMeeting() {
    agent_.CreateMeeting(1);
    for (uint32_t p = 1; p <= 3; ++p) {
      net::Endpoint media{net::Ipv4(10, 0, 0, static_cast<uint8_t>(p)),
                          40'000};
      agent_.AddParticipant(1, p, media, p * 16 + 1, p * 16 + 2, true, true,
                            UplinkPort(p));
    }
    for (uint32_t r = 1; r <= 3; ++r) {
      for (uint32_t s = 1; s <= 3; ++s) {
        if (r == s) continue;
        net::Endpoint local{net::Ipv4(10, 0, 0, static_cast<uint8_t>(r)),
                            static_cast<uint16_t>(41'000 + s)};
        leg_port_[r][s] = agent_.AddRecvLeg(1, r, s, local, LegPort(r, s));
      }
    }
  }

  // Delivers a REMB from receiver r about sender s at the given bitrate.
  void Remb(uint32_t r, uint32_t s, uint64_t bitrate) {
    rtp::Remb remb;
    remb.sender_ssrc = r * 16 + 1;
    remb.bitrate_bps = bitrate;
    remb.media_ssrcs = {s * 16 + 1};
    auto pkt = net::MakePacket(
        net::Endpoint{net::Ipv4(10, 0, 0, static_cast<uint8_t>(r)),
                      static_cast<uint16_t>(41'000 + s)},
        net::Endpoint{sw_.address(), leg_port_[r][s]},
        rtp::Serialize(rtp::RtcpMessage{remb}));
    agent_.OnCpuPacket(std::move(pkt));
  }

  // Feeds two SRs so the agent derives the sender's rate.
  void SenderRate(uint32_t s, uint64_t bps) {
    for (int i = 0; i < 2; ++i) {
      rtp::SenderReport sr;
      sr.sender_ssrc = s * 16 + 1;
      sr.octet_count =
          static_cast<uint32_t>(static_cast<uint64_t>(i + 1) * bps / 8);
      auto pkt = net::MakePacket(
          net::Endpoint{net::Ipv4(10, 0, 0, static_cast<uint8_t>(s)), 40'000},
          net::Endpoint{sw_.address(), 10'000},
          rtp::Serialize(rtp::RtcpMessage{sr}));
      agent_.OnCpuPacket(std::move(pkt));
      sched_.RunUntil(sched_.now() + util::Seconds(1));
    }
  }

  sim::Scheduler sched_;
  sim::Network net_;
  switchsim::Switch sw_;
  DataPlaneProgram dp_;
  SwitchAgent agent_;
  uint16_t leg_port_[4][4] = {};
};

TEST_F(AgentTest, BestDownlinkTracksMaxEwma) {
  SetupMeeting();
  // Receivers 2 and 3 report on sender 1: receiver 2 is clearly stronger.
  for (int i = 0; i < 6; ++i) {
    Remb(2, 1, 2'000'000);
    Remb(3, 1, 400'000);
  }
  EXPECT_EQ(agent_.BestDownlinkOf(1), 2u);
  // Only receiver 2's leg has pass-through enabled.
  EXPECT_TRUE(dp_.MutableFeedback(leg_port_[2][1])->remb_allowed);
  EXPECT_FALSE(dp_.MutableFeedback(leg_port_[3][1])->remb_allowed);
}

TEST_F(AgentTest, FilterHysteresisIgnoresNearTies) {
  SetupMeeting();
  for (int i = 0; i < 6; ++i) {
    Remb(2, 1, 1'000'000);
    Remb(3, 1, 990'000);
  }
  uint64_t flips_before = agent_.stats().filter_flips;
  // 3 creeps 5% above 2: inside the 10% hysteresis band -> no flip.
  for (int i = 0; i < 6; ++i) {
    Remb(2, 1, 1'000'000);
    Remb(3, 1, 1'050'000);
  }
  EXPECT_EQ(agent_.stats().filter_flips, flips_before);
  // 3 jumps 50% above: flips.
  for (int i = 0; i < 8; ++i) {
    Remb(2, 1, 1'000'000);
    Remb(3, 1, 1'500'000);
  }
  EXPECT_EQ(agent_.BestDownlinkOf(1), 3u);
}

TEST_F(AgentTest, PolicyDowngradesOnSustainedLowEstimate) {
  SetupMeeting();
  SenderRate(1, 1'000'000);
  // Warm the history with healthy estimates, then a sustained drop.
  for (int i = 0; i < 6; ++i) Remb(3, 1, 1'200'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
  for (int i = 0; i < 3; ++i) Remb(3, 1, 680'000);  // ~0.68x rate
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 1);  // DT1 (0.71x) still fits
  for (int i = 0; i < 3; ++i) Remb(3, 1, 300'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 0);
}

TEST_F(AgentTest, SingleDipDebounced) {
  SetupMeeting();
  SenderRate(1, 1'000'000);
  for (int i = 0; i < 6; ++i) Remb(3, 1, 1'200'000);
  Remb(3, 1, 400'000);  // one transient dip
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
  Remb(3, 1, 1'200'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
}

TEST_F(AgentTest, GrowingEstimateNeverDowngrades) {
  SetupMeeting();
  SenderRate(1, 2'000'000);
  // Ramping estimates below the keep-threshold but strictly growing.
  for (uint64_t est = 500'000; est <= 1'400'000; est += 100'000) {
    Remb(3, 1, est);
  }
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
}

TEST_F(AgentTest, UpgradeWaitsOutHoldDown) {
  SetupMeeting();
  SenderRate(1, 1'000'000);
  for (int i = 0; i < 6; ++i) Remb(3, 1, 1'200'000);
  for (int i = 0; i < 3; ++i) Remb(3, 1, 680'000);
  ASSERT_EQ(agent_.DecodeTargetOf(3, 1), 1);
  // Estimate recovers immediately, but the hold-down blocks the upgrade.
  for (int i = 0; i < 3; ++i) Remb(3, 1, 1'300'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 1);
  sched_.RunUntil(sched_.now() + util::Seconds(9));
  Remb(3, 1, 1'300'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
}

TEST_F(AgentTest, FailedProbeDoublesBackoff) {
  SetupMeeting();
  SenderRate(1, 1'000'000);
  for (int i = 0; i < 6; ++i) Remb(3, 1, 1'200'000);
  auto cycle = [&] {
    // Down, wait out hold-down, up (probe), immediately down again.
    for (int i = 0; i < 3; ++i) Remb(3, 1, 680'000);
    sched_.RunUntil(sched_.now() + util::Seconds(10));
    for (int i = 0; i < 2; ++i) Remb(3, 1, 1'300'000);
  };
  cycle();
  ASSERT_EQ(agent_.DecodeTargetOf(3, 1), 2);  // probe upgraded
  for (int i = 0; i < 3; ++i) Remb(3, 1, 680'000);  // probe fails fast
  ASSERT_EQ(agent_.DecodeTargetOf(3, 1), 1);
  // Backoff doubled to 16 s: an upgrade attempt at +10 s stays blocked.
  sched_.RunUntil(sched_.now() + util::Seconds(10));
  for (int i = 0; i < 2; ++i) Remb(3, 1, 1'300'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 1);
  sched_.RunUntil(sched_.now() + util::Seconds(8));
  for (int i = 0; i < 2; ++i) Remb(3, 1, 1'300'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
}

TEST_F(AgentTest, WarmupBlocksEarlyChanges) {
  AgentConfig cfg = MakeConfig();
  cfg.policy_warmup = util::Seconds(3);
  SwitchAgent agent2(sched_, dp_, cfg);
  agent2.CreateMeeting(5);
  for (uint32_t p = 1; p <= 3; ++p) {
    agent2.AddParticipant(
        5, p + 10,
        net::Endpoint{net::Ipv4(10, 0, 1, static_cast<uint8_t>(p)), 40'000},
        (p + 10) * 16 + 1, (p + 10) * 16 + 2, true, true, UplinkPort(p));
  }
  net::Endpoint local{net::Ipv4(10, 0, 1, 3), 41'001};
  uint16_t port = agent2.AddRecvLeg(5, 13, 11, local, LegPort(3, 1));

  rtp::SenderReport sr;
  sr.sender_ssrc = 11 * 16 + 1;
  sr.octet_count = 250'000;
  agent2.OnCpuPacket(net::MakePacket(
      net::Endpoint{net::Ipv4(10, 0, 1, 1), 40'000},
      net::Endpoint{net::Ipv4(100, 64, 0, 1), 10'000},
      rtp::Serialize(rtp::RtcpMessage{sr})));
  sched_.RunUntil(sched_.now() + util::Seconds(1));
  sr.octet_count = 500'000;
  agent2.OnCpuPacket(net::MakePacket(
      net::Endpoint{net::Ipv4(10, 0, 1, 1), 40'000},
      net::Endpoint{net::Ipv4(100, 64, 0, 1), 10'000},
      rtp::Serialize(rtp::RtcpMessage{sr})));

  // Low estimates right after the leg was created: ignored during warmup.
  for (int i = 0; i < 8; ++i) {
    rtp::Remb remb;
    remb.sender_ssrc = 13 * 16 + 1;
    remb.bitrate_bps = 200'000;
    remb.media_ssrcs = {11 * 16 + 1};
    agent2.OnCpuPacket(net::MakePacket(
        local, net::Endpoint{net::Ipv4(100, 64, 0, 1), port},
        rtp::Serialize(rtp::RtcpMessage{remb})));
  }
  EXPECT_EQ(agent2.DecodeTargetOf(13, 11), 2);
}

TEST_F(AgentTest, StunRequestAnswered) {
  SetupMeeting();
  stun::StunMessage req;
  req.type = stun::MessageType::kBindingRequest;
  req.transaction_id = stun::MakeTransactionId(7, 8);
  agent_.OnCpuPacket(net::MakePacket(
      net::Endpoint{net::Ipv4(10, 0, 0, 1), 40'000},
      net::Endpoint{sw_.address(), 10'000}, req.Serialize()));
  EXPECT_EQ(agent_.stats().stun_handled, 1u);
  // The response left via the switch (counted as an egress packet).
  sched_.RunAll();
  EXPECT_GE(sw_.stats().packets_out, 1u);
}

TEST_F(AgentTest, SenderRateFromSrDeltas) {
  SetupMeeting();
  SenderRate(1, 800'000);
  EXPECT_NEAR(static_cast<double>(agent_.SenderRateOf(1)), 800'000, 80'000);
}

TEST_F(AgentTest, CustomPolicyHookUsed) {
  SetupMeeting();
  SenderRate(1, 1'000'000);
  int calls = 0;
  agent_.SetDecodeTargetPolicy(
      [&calls](int curr, const std::vector<uint64_t>& hist, uint64_t est,
               uint64_t rate) {
        ++calls;
        (void)hist;
        (void)rate;
        return est < 500'000 ? 0 : curr;
      });
  for (int i = 0; i < 6; ++i) Remb(3, 1, 900'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);
  Remb(3, 1, 400'000);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 0);
  EXPECT_GT(calls, 0);
}

TEST_F(AgentTest, RemoveParticipantCleansState) {
  SetupMeeting();
  agent_.RemoveParticipant(1, 3);
  EXPECT_EQ(agent_.DecodeTargetOf(3, 1), 2);  // defaults after removal
  // Remaining two-party meeting migrates to the fast path.
  EXPECT_EQ(*agent_.tree_manager().CurrentDesign(1), TreeDesign::kTwoParty);
}

// The agent's API used to hand-increment stats_.rpc_calls at its five
// entry points (CreateMeeting, RemoveMeeting, AddParticipant,
// RemoveParticipant, AddRecvLeg); that accounting now happens once, at
// ControlChannel dispatch. This pins the equivalence: for a controller-
// driven call pattern (a one-region control plane over one switch),
// commands_sent counts exactly what the five increments counted.
TEST(ControlChannelAccounting, CommandCountMatchesOldRpcAccounting) {
  struct FakeClient : public SignalingClient {
    net::Endpoint ep;
    net::Endpoint AllocateLocalLeg(ParticipantId) override { return ep; }
    void OnRemoteLegReady(ParticipantId, uint32_t, uint32_t,
                          net::Endpoint) override {}
    void OnRemoteSenderLeft(ParticipantId) override {}
  };

  sim::Scheduler sched;
  sim::Network net(sched, 1);
  switchsim::Switch sw(sched, net, {.address = net::Ipv4(100, 64, 0, 1)});
  DataPlaneProgram dp(sw, {});
  AgentConfig agent_cfg;
  agent_cfg.sfu_ip = sw.address();
  SwitchAgent agent(sched, dp, agent_cfg);
  net.Attach(sw.address(), &sw, {}, {});
  ControlChannel channel(sched, agent);
  FederatedControlPlane plane(sched, {.regions = 1, .switches = 1});
  plane.AddSwitch(channel, sw.address());

  auto offer_for = [](uint8_t host, uint32_t ssrc_base) {
    sdp::SessionDescription offer;
    sdp::MediaSection video;
    video.type = sdp::MediaType::kVideo;
    video.ssrc = ssrc_base + 1;
    video.candidates.push_back(
        {.endpoint = net::Endpoint{net::Ipv4(10, 0, 0, host), 40'000}});
    sdp::MediaSection audio;
    audio.type = sdp::MediaType::kAudio;
    audio.ssrc = ssrc_base + 2;
    offer.media = {video, audio};
    return offer;
  };

  FakeClient clients[3];
  MeetingId meeting = plane.CreateMeeting();  // 1 CreateMeeting
  std::vector<ParticipantId> ids;
  for (uint8_t i = 0; i < 3; ++i) {
    clients[i].ep = net::Endpoint{net::Ipv4(10, 0, 0, i),
                                  static_cast<uint16_t>(41'000 + i)};
    ids.push_back(
        plane.Join(meeting, offer_for(i, 16u * (i + 1)), &clients[i])
            .participant);
  }
  // 3 joins: 3 AddParticipant + (0 + 2 + 4) AddRecvLeg = 9.
  plane.Leave(meeting, ids[1]);             // 1 RemoveParticipant
  plane.region(0).EndMeeting(meeting);      // 1 RemoveMeeting
  const uint64_t expected = 1 + 3 + 6 + 1 + 1;
  EXPECT_EQ(channel.stats().commands_sent, expected);
  EXPECT_EQ(channel.stats().commands_applied, expected);
  EXPECT_EQ(channel.stats().commands_dropped, 0u);
}

}  // namespace
}  // namespace scallop::core
