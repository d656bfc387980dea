// Scenario-matrix regression: a grid of ScenarioSpec points (loss, churn,
// asymmetric links, constrained downlinks, multi-meeting, switch failover)
// that every change to the stack must keep green. The whole grid runs on
// both the single-switch scallop backend and the multi-switch fleet
// backend — selected purely through ScenarioSpec::backend, with no
// per-test special-casing — and each point asserts the two invariants the
// paper's design guarantees end-to-end:
//   1. no peer starves (every active receive leg decodes video), and
//   2. sequence rewriting stays gap-free (no decoder breaks, no
//      conflicting duplicates at any receiver).
#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace scallop::harness {
namespace {

client::PeerConfig FastStartPeer() {
  client::PeerConfig pc;
  pc.encoder.start_bitrate_bps = 700'000;
  pc.encoder.max_bitrate_bps = 1'500'000;
  pc.encoder.key_frame_interval = util::Seconds(4);
  return pc;
}

class ScenarioMatrix
    : public ::testing::TestWithParam<testbed::BackendChoice> {
 protected:
  ScenarioSpec BaseSpec(std::string name, int meetings, int participants,
                        double duration_s) {
    ScenarioSpec spec =
        ScenarioSpec::Uniform(std::move(name), meetings, participants,
                              duration_s);
    spec.base.peer = FastStartPeer();
    spec.backend = GetParam();
    return spec;
  }
};

// Shared invariant check: delivery floor (scaled to ~30 fps video) and
// gap-free rewriting.
void ExpectHealthy(const ScenarioMetrics& m, uint64_t min_floor_frames) {
  EXPECT_GE(m.WorstDeliveryFloor(), min_floor_frames)
      << "a peer starved:\n"
      << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u) << "sequence rewriting broke:\n"
                                       << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.blackholed, 0u);
}

TEST_P(ScenarioMatrix, BaselineThreeParty) {
  ScenarioRunner runner(BaseSpec("baseline-3p", 1, 3, 12.0));
  const ScenarioMetrics& m = runner.Run();
  // ~30 fps for ~12 s on every one of the 6 streams.
  ExpectHealthy(m, 300);
  ASSERT_EQ(m.meetings.size(), 1u);
  EXPECT_STREQ(m.meetings[0].final_design.c_str(), "NRA");
  EXPECT_EQ(m.streams.size(), 6u);
}

TEST_P(ScenarioMatrix, LossyDownlinkRecoversViaNack) {
  ScenarioSpec spec = BaseSpec("lossy-3pct", 1, 2, 15.0);
  spec.WithLink(0, 1, LinkProfile::Lossy(0.03));
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  ExpectHealthy(m, 350);
  // The lossy receiver actually exercised the NACK path.
  uint64_t nacks = 0, recovered = 0;
  for (const auto& s : m.streams) {
    nacks += s.nacks_sent;
    recovered += s.recovered_packets;
  }
  EXPECT_GT(nacks, 5u);
  EXPECT_GT(recovered, 10u);
}

TEST_P(ScenarioMatrix, ConstrainedDownlinkAdaptsNotCollapses) {
  // Fig. 14 shape as a grid point: mid-run the third participant's
  // downlink shrinks below aggregate full-rate media; the agent must
  // reduce a decode target rather than let the streams collapse.
  ScenarioSpec spec = BaseSpec("constrained-midrun", 1, 3, 40.0);
  spec.base.peer.encoder.max_bitrate_bps = 800'000;
  spec.WithLinkEvent({.at_s = 10.0,
                      .meeting = 0,
                      .participant = 2,
                      .rate_bps = 1.5e6});
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  ExpectHealthy(m, 400);  // even the throttled receiver keeps >10 fps avg
  EXPECT_GT(m.dt_changes, 0u) << "no adaptation events fired";
  // Layer filtering in the tree designs shows up as sequence rewriting
  // (dropped layers leave gaps the rewriter closes), not svc_suppressed.
  EXPECT_GT(m.seq_rewritten, 500u) << "layer filter never engaged";
}

TEST_P(ScenarioMatrix, AsymmetricUplinkLimitsOnlyThatSender) {
  // ADSL-style participant: 1.0 Mb/s up, 16 Mb/s down. Their uplink
  // constrains what they can send, but nobody starves and the two
  // well-provisioned peers still exchange full-rate video.
  ScenarioSpec spec = BaseSpec("asymmetric-adsl", 1, 3, 15.0);
  spec.WithLink(0, 2, LinkProfile::Asymmetric(1.0e6, 16e6));
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  ExpectHealthy(m, 250);
  // Streams between the two default peers kept ~30 fps.
  for (const auto& s : m.streams) {
    if (s.receiver_id == m.peers[2].id || s.sender_id == m.peers[2].id) {
      continue;
    }
    EXPECT_GT(s.recent_fps, 24.0)
        << s.receiver_id << " <- " << s.sender_id;
  }
}

TEST_P(ScenarioMatrix, ChurnJoinLeaveRejoin) {
  // 4-party meeting with staggered joins, a mid-call leave and a rejoin.
  ScenarioSpec spec = BaseSpec("churn", 1, 4, 20.0);
  spec.WithJoin(0, 3, 5.0);             // late joiner
  spec.WithLeave(0, 1, 8.0, 13.0);      // leaves, comes back
  spec.WithLeave(0, 2, 16.0);           // leaves for good
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  // The rejoiner's legs are ~7 s old at collection; keep the floor
  // proportional.
  ExpectHealthy(m, 120);
  EXPECT_FALSE(m.peers[2].present_at_end);
  EXPECT_TRUE(m.peers[1].present_at_end);
  EXPECT_NEAR(m.peers[2].seconds_in_meeting, 16.0, 0.1);
  EXPECT_NEAR(m.peers[1].seconds_in_meeting, 8.0 + 7.0, 0.1);
  // The timeline stays cumulative even though churn tears legs down.
  for (size_t i = 1; i < m.timeline.size(); ++i) {
    EXPECT_GE(m.timeline[i].frames_decoded_total,
              m.timeline[i - 1].frames_decoded_total);
  }
}

TEST_P(ScenarioMatrix, SwitchFailoverRecovers) {
  ScenarioSpec spec = BaseSpec("failover", 1, 3, 18.0);
  spec.WithFailover(8.0);
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  // Post-failover legs are 10 s old: everyone re-established and decoded
  // fresh video through the rebuilt trees.
  ExpectHealthy(m, 220);
  // The rebuild re-created replication trees.
  EXPECT_GE(m.trees_built, 2u);
}

TEST_P(ScenarioMatrix, TwoMeetingsShareTheFabric) {
  ScenarioSpec spec = BaseSpec("two-meetings", 2, 3, 12.0);
  spec.WithLink(1, 0, LinkProfile::Lossy(0.02));
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  ExpectHealthy(m, 280);
  ASSERT_EQ(m.meetings.size(), 2u);
  EXPECT_EQ(m.meetings[0].participants_at_end, 3);
  EXPECT_EQ(m.meetings[1].participants_at_end, 3);
  EXPECT_EQ(m.streams.size(), 12u);  // 6 per meeting, no cross-talk
}

TEST_P(ScenarioMatrix, KitchenSink) {
  // Everything at once: two meetings, loss, a constrained mid-run link,
  // churn and a failover — the grid point closest to "a real bad day".
  ScenarioSpec spec = BaseSpec("kitchen-sink", 2, 3, 30.0);
  spec.WithLink(0, 1, LinkProfile::Lossy(0.02))
      .WithLink(1, 2, LinkProfile::Asymmetric(2.0e6, 16e6))
      .WithJoin(1, 1, 4.0)
      .WithLeave(0, 2, 12.0, 18.0)
      .WithLinkEvent({.at_s = 10.0,
                      .meeting = 1,
                      .participant = 0,
                      .rate_bps = 2.5e6})
      .WithFailover(21.0);
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  // Legs are at most 9 s old after the failover.
  ExpectHealthy(m, 150);
  EXPECT_EQ(m.meetings[0].participants_at_end, 3);
  EXPECT_EQ(m.meetings[1].participants_at_end, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ScenarioMatrix,
    ::testing::Values(testbed::BackendChoice::Scallop(),
                      testbed::BackendChoice::Fleet(2)),
    [](const ::testing::TestParamInfo<testbed::BackendChoice>& info) {
      return info.param == testbed::BackendChoice::Scallop()
                 ? "scallop"
                 : "fleet" + std::to_string(info.param.fleet_switches);
    });

}  // namespace
}  // namespace scallop::harness
