// Workload generator + fingerprint subsystem tests: compile determinism
// (same WorkloadSpec + seed => byte-identical ScenarioSpec and identical
// fingerprint), spec validation for the new planet-scale knobs, and the
// end-to-end behavior of each generator family — roaming re-homings,
// heterogeneous placement skew, follow-the-sun region pins, correlated
// backbone failures riding the replan path.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/federation.hpp"
#include "harness/fingerprint.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "testbed/fleet_testbed.hpp"

namespace scallop::harness {
namespace {

WorkloadSpec PlanetDay(uint64_t seed) {
  WorkloadSpec w;
  w.name = "planet-day";
  w.seed = seed;
  w.duration_s = 4.0;
  w.sample_interval_s = 0.5;
  w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithGrid(4, 4)
      .WithDiurnal(6.0, 12.0, 0.4, 0.4)
      .WithFlashCrowd(1, 5)
      .WithFollowTheSun()
      .WithRoaming(2, 0.6)
      .WithCapacityClasses({2.0, 1.0, 1.0, 1.0, 2.0, 1.0})
      .WithControlPlane(0.001);
  return w;
}

TEST(Workload, CompileIsDeterministic) {
  // The tentpole determinism pin: compiling the same workload twice must
  // yield byte-identical specs — and running both, identical fingerprints.
  const ScenarioSpec a = PlanetDay(77).Compile();
  const ScenarioSpec b = PlanetDay(77).Compile();
  EXPECT_EQ(DescribeSpec(a), DescribeSpec(b));
  EXPECT_EQ(ScenarioFingerprint::Fold(DescribeSpec(a)),
            ScenarioFingerprint::Fold(DescribeSpec(b)));
  EXPECT_EQ(ScenarioFingerprint::OfSpec(a), ScenarioFingerprint::OfSpec(b));
  // A different seed reshapes the schedule.
  EXPECT_NE(DescribeSpec(a), DescribeSpec(PlanetDay(78).Compile()));
}

TEST(Workload, DiurnalJoinsLandInTheJoinWindow) {
  WorkloadSpec w;
  w.duration_s = 10.0;
  w.WithGrid(3, 6).WithDiurnal(6.0, 12.0, 0.5, 0.5);
  const ScenarioSpec spec = w.Compile();
  ASSERT_EQ(spec.meetings.size(), 3u);
  for (const MeetingSpec& m : spec.meetings) {
    ASSERT_EQ(m.participants.size(), 6u);
    for (size_t pi = 0; pi < m.participants.size(); ++pi) {
      const ParticipantSpec& p = m.participants[pi];
      EXPECT_GE(p.join_at_s, 0.0);
      EXPECT_LE(p.join_at_s, 0.5 * w.duration_s);
      if (pi < 2) {
        // Anchors (the roaming candidates) never churn out.
        EXPECT_LT(p.leave_at_s, 0.0);
      } else if (p.leave_at_s >= 0.0) {
        EXPECT_GT(p.leave_at_s, p.join_at_s);
        EXPECT_LE(p.leave_at_s, 0.95 * w.duration_s);
      }
    }
  }
}

TEST(Workload, FlashCrowdSwellsOneMeeting) {
  WorkloadSpec w;
  w.duration_s = 10.0;
  w.WithGrid(2, 3).WithFlashCrowd(1, 8, 0.4, 0.05);
  const ScenarioSpec spec = w.Compile();
  EXPECT_EQ(spec.meetings[0].participants.size(), 3u);
  ASSERT_EQ(spec.meetings[1].participants.size(), 11u);
  for (size_t pi = 3; pi < 11; ++pi) {
    const double join = spec.meetings[1].participants[pi].join_at_s;
    EXPECT_GE(join, 0.3 * w.duration_s);
    EXPECT_LE(join, 0.5 * w.duration_s);
  }
}

TEST(Workload, ValidationRejectsBadKnobs) {
  // Roams need a federated fleet...
  ScenarioSpec roam_scallop = ScenarioSpec::Uniform("wl-roam-scallop", 1, 2, 2.0);
  roam_scallop.WithRoam(0, 0, 1.0, 1);
  EXPECT_THROW({ ScenarioRunner r(roam_scallop); }, std::invalid_argument);
  // ...an in-range region...
  ScenarioSpec roam_badregion = ScenarioSpec::Uniform("wl-roam-region", 1, 2, 2.0);
  roam_badregion.WithBackend(testbed::BackendChoice::Fleet(6, 2));
  roam_badregion.WithRoam(0, 0, 1.0, 5);
  EXPECT_THROW({ ScenarioRunner r(roam_badregion); }, std::out_of_range);
  // ...and a roam moment inside the run.
  ScenarioSpec roam_late = ScenarioSpec::Uniform("wl-roam-late", 1, 2, 2.0);
  roam_late.WithBackend(testbed::BackendChoice::Fleet(6, 2));
  roam_late.WithRoam(0, 0, 3.0, 1);
  EXPECT_THROW({ ScenarioRunner r(roam_late); }, std::invalid_argument);

  // Correlated failures may only cut declared backbone links.
  ScenarioSpec cut_undeclared = ScenarioSpec::Uniform("wl-cut", 1, 2, 2.0);
  cut_undeclared.WithBackend(testbed::BackendChoice::Fleet(3));
  cut_undeclared.WithInterSwitchLink(0, 1, 0.001);
  cut_undeclared.WithCorrelatedFailure(1.0, {{1, 2}});
  EXPECT_THROW({ ScenarioRunner r(cut_undeclared); }, std::out_of_range);
  ScenarioSpec cut_nothing = ScenarioSpec::Uniform("wl-cut-empty", 1, 2, 2.0);
  cut_nothing.WithBackend(testbed::BackendChoice::Fleet(3));
  cut_nothing.WithInterSwitchLink(0, 1, 0.001);
  cut_nothing.WithCorrelatedFailure(1.0, {});
  EXPECT_THROW({ ScenarioRunner r(cut_nothing); }, std::invalid_argument);

  // Capacity classes: fleet-only, in range, positive.
  ScenarioSpec cls_software = ScenarioSpec::Uniform("wl-cls-sw", 1, 2, 2.0);
  cls_software.WithBackend(testbed::BackendChoice::Software());
  cls_software.WithSwitchCapacity(0, 2.0);
  EXPECT_THROW({ ScenarioRunner r(cls_software); }, std::invalid_argument);
  ScenarioSpec cls_range = ScenarioSpec::Uniform("wl-cls-range", 1, 2, 2.0);
  cls_range.WithBackend(testbed::BackendChoice::Fleet(3));
  cls_range.WithSwitchCapacity(3, 2.0);
  EXPECT_THROW({ ScenarioRunner r(cls_range); }, std::out_of_range);
  ScenarioSpec cls_zero = ScenarioSpec::Uniform("wl-cls-zero", 1, 2, 2.0);
  cls_zero.WithBackend(testbed::BackendChoice::Fleet(3));
  cls_zero.WithSwitchCapacity(0, 0.0);
  EXPECT_THROW({ ScenarioRunner r(cls_zero); }, std::invalid_argument);

  // Follow-the-sun pins need a federated fleet and an in-range region.
  ScenarioSpec pin_mono = ScenarioSpec::Uniform("wl-pin-mono", 1, 2, 2.0);
  pin_mono.WithBackend(testbed::BackendChoice::Fleet(3));
  pin_mono.WithMeetingRegion(0, 0);
  EXPECT_THROW({ ScenarioRunner r(pin_mono); }, std::invalid_argument);
  ScenarioSpec pin_range = ScenarioSpec::Uniform("wl-pin-range", 1, 2, 2.0);
  pin_range.WithBackend(testbed::BackendChoice::Fleet(6, 2));
  pin_range.WithMeetingRegion(0, 2);
  EXPECT_THROW({ ScenarioRunner r(pin_range); }, std::out_of_range);
}

TEST(Workload, RoamReHomesOntoTheNewRegion) {
  ScenarioSpec spec = ScenarioSpec::Uniform("wl-roam", 1, 3, 4.0, 5);
  spec.sample_interval_s = 0.5;
  spec.WithBackend(testbed::BackendChoice::Fleet(6, 2));
  spec.WithControlPlane(0.001);
  spec.WithRoam(0, 1, 2.0, 1);
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();
  EXPECT_EQ(m.roams_executed, 1u);
  EXPECT_EQ(m.roam_rehomings, 1u);
  EXPECT_TRUE(r.present(0, 1));
  EXPECT_NE(m.ToCsv().find("workload,roams_executed,1,roam_rehomings,1"),
            std::string::npos);
  // The roamer's re-join resolved the meeting east-west through region
  // 1's ingress — the directory had to answer at least one lookup.
  EXPECT_GT(m.federation.directory_lookups, 0u);
}

TEST(Workload, HeterogeneousFleetSkewsPlacementTowardBigSwitches) {
  // fleet{3} with one 4x-capacity switch: six single-participant meetings
  // placed by weighted least-load land 4 on the big switch, 1 on each
  // small one.
  WorkloadSpec w;
  w.name = "wl-hetero";
  w.duration_s = 2.0;
  w.WithBackend(testbed::BackendChoice::Fleet(3))
      .WithGrid(6, 1)
      .WithCapacityClasses({4.0, 1.0, 1.0});
  ScenarioRunner r(w.Compile());
  r.Run();
  core::FederatedControlPlane& fed = r.fleet().federation();
  EXPECT_EQ(fed.MeetingsOn(0), 4);
  EXPECT_EQ(fed.MeetingsOn(1), 1);
  EXPECT_EQ(fed.MeetingsOn(2), 1);
}

TEST(Workload, FollowTheSunPinsMeetingsAcrossRegions) {
  WorkloadSpec w;
  w.name = "wl-sun";
  w.duration_s = 2.0;
  w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithGrid(4, 2)
      .WithFollowTheSun();
  const ScenarioSpec spec = w.Compile();
  EXPECT_EQ(spec.meetings[0].region, 0);
  EXPECT_EQ(spec.meetings[1].region, 0);
  EXPECT_EQ(spec.meetings[2].region, 1);
  EXPECT_EQ(spec.meetings[3].region, 1);
  ScenarioRunner r(spec);
  r.Run();
  core::FederatedControlPlane& fed = r.fleet().federation();
  for (int mi = 0; mi < 4; ++mi) {
    EXPECT_EQ(fed.OwnerRegionOf(r.meeting_id(mi)),
              static_cast<size_t>(spec.meetings[mi].region))
        << "meeting " << mi;
  }
}

TEST(Workload, CorrelatedFailureReplansRelaysOffTheCutLinks) {
  // Triangle backbone, topology-aware relay planning; cutting two of the
  // three links at once forces the relay subtrees onto the survivor via
  // the overload replan path — the same machinery a single-link
  // TopologyEvent exercises, now fired as one correlated event.
  WorkloadSpec w;
  w.name = "wl-corrfail";
  w.seed = 5;
  w.duration_s = 12.0;
  w.WithBackend(testbed::BackendChoice::Fleet(3))
      .WithGrid(1, 3)
      .WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1))
      .WithBackboneLink(0, 1, 0.001, 20e6)
      .WithBackboneLink(1, 2, 0.001, 20e6)
      .WithBackboneLink(0, 2, 0.005, 20e6)
      .WithCorrelatedFailure(1.0 / 3.0, {{1, 2}, {0, 2}});
  ScenarioSpec spec = w.Compile();
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.max_bitrate_bps = 1'500'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();
  EXPECT_GT(m.topology.relay_replans, 0u);
}

TEST(Workload, SummaryNamesSpecAndSeed) {
  // CI fingerprint mismatches must be diagnosable from the log alone:
  // the summary leads with the spec label, backend and seed.
  WorkloadSpec w = PlanetDay(9);
  w.duration_s = 2.0;
  ScenarioRunner r(w.Compile());
  const ScenarioMetrics& m = r.Run();
  const std::string summary = m.Summary();
  EXPECT_NE(summary.find("planet-day"), std::string::npos);
  EXPECT_NE(summary.find("fleet{6,2}"), std::string::npos);
  EXPECT_NE(summary.find("seed=9"), std::string::npos);
  EXPECT_NE(summary.find("roams_executed"), std::string::npos);
}

}  // namespace
}  // namespace scallop::harness
