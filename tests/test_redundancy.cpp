// Redundant dual relay trees + make-before-break migration (ISSUE 9):
// the DedupWindow primitive, link-disjoint standby chain planning, the
// flip on a backbone cut (zero frame gap), and hitless MigrateMeeting
// (zero frames lost across the move). Exercised at the unit level and
// end-to-end through the fleet backend behind the ScenarioRunner.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "core/redundancy.hpp"
#include "fingerprint_points.hpp"
#include "harness/fingerprint.hpp"
#include "harness/runner.hpp"
#include "testbed/fleet_testbed.hpp"

namespace scallop {
namespace {

// ---------------------------------------------------------------------
// DedupWindow: the (origin, seq) elimination primitive at merge switches.

TEST(DedupWindow, ForwardsFirstArrivalAndDropsTheTwin) {
  core::DedupWindow w(64);
  for (uint16_t s = 100; s < 110; ++s) {
    EXPECT_FALSE(w.Observe(s)) << "first copy of seq " << s;
  }
  for (uint16_t s = 100; s < 110; ++s) {
    EXPECT_TRUE(w.Observe(s)) << "second tree's copy of seq " << s;
  }
  EXPECT_EQ(w.duplicates(), 10u);
}

TEST(DedupWindow, ReorderedCrossTreeDuplicatesStillEliminated) {
  // The two trees race: the fast tree runs ahead while the slow tree's
  // copies trickle in out of order. Every slow copy is in-window and must
  // be dropped, in whatever order it lands.
  core::DedupWindow w(128);
  for (uint16_t s = 0; s < 40; ++s) EXPECT_FALSE(w.Observe(s));
  const uint16_t reordered[] = {7, 3, 39, 0, 21, 38, 5};
  for (uint16_t s : reordered) {
    EXPECT_TRUE(w.Observe(s)) << "late copy of seq " << s;
  }
  // A genuinely new packet interleaved with the stragglers forwards.
  EXPECT_FALSE(w.Observe(40));
}

TEST(DedupWindow, EvictsBeyondTheWindowAcrossSeqWrap) {
  // Window 64, sequence numbers straddling the 16-bit wrap. A repeat
  // inside the window is a duplicate even across the wrap; a straggler
  // older than the window was evicted and forwards (bounded memory).
  core::DedupWindow w(64);
  for (uint32_t s = 65500; s < 65536u + 40; ++s) {
    EXPECT_FALSE(w.Observe(static_cast<uint16_t>(s)));
  }
  // 65530 is 45 behind the head (39) — in-window, duplicate, despite the
  // wrap between the copies.
  EXPECT_TRUE(w.Observe(static_cast<uint16_t>(65530)));
  // 65500 is 75 behind the head — evicted, so it forwards unrecorded...
  EXPECT_FALSE(w.Observe(static_cast<uint16_t>(65500)));
  // ...every time (it is never re-admitted to the history).
  EXPECT_FALSE(w.Observe(static_cast<uint16_t>(65500)));
}

TEST(DedupWindow, WindowNeverMistakesProgressForDuplicates) {
  // Long monotone runs (the steady state) must observe zero duplicates
  // through several wraps.
  core::DedupWindow w(512);
  uint16_t s = 60000;
  for (int i = 0; i < 200000; ++i) EXPECT_FALSE(w.Observe(s++));
  EXPECT_EQ(w.duplicates(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end: fleet{4} ring backbone with redundant trees.

// 4 switches in a ring, one 4-strong meeting spread one-per-switch by
// the topology-aware planner, generous link capacity so both trees fit.
harness::ScenarioSpec RingSpec(const char* name, double duration_s) {
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform(name, 1, 4, duration_s);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(4));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
  spec.WithInterSwitchLink(0, 1, 0.001, 100e6)
      .WithInterSwitchLink(1, 2, 0.001, 100e6)
      .WithInterSwitchLink(2, 3, 0.001, 100e6)
      .WithInterSwitchLink(3, 0, 0.001, 100e6);
  return spec;
}

TEST(RedundantTrees, PlansLinkDisjointStandbysAndDeduplicates) {
  harness::ScenarioSpec spec = RingSpec("ring-redundant", 8.0);
  spec.WithRedundantTrees();
  harness::ScenarioRunner runner(spec);
  const harness::ScenarioMetrics& m = runner.Run();

  const core::MeetingId id = runner.meeting_id(0);
  const auto relays = runner.fleet().fleet().RelaysOf(id);
  const auto secondaries = runner.fleet().fleet().SecondariesOf(id);
  ASSERT_FALSE(relays.empty());
  ASSERT_FALSE(secondaries.empty());

  // Every relay has a standby, and each standby's path shares no link
  // with its protected relay's primary path.
  auto links_of = [](const std::vector<size_t>& path) {
    std::set<std::pair<size_t, size_t>> links;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      links.insert({std::min(path[i], path[i + 1]),
                    std::max(path[i], path[i + 1])});
    }
    return links;
  };
  for (const auto& r : relays) {
    const core::SecondaryTree* standby = nullptr;
    for (const auto& t : secondaries) {
      if (t.origin == r.origin && t.upstream == r.upstream &&
          t.downstream == r.downstream && !t.active) {
        standby = &t;
      }
    }
    ASSERT_NE(standby, nullptr)
        << "relay " << r.upstream << "->" << r.downstream << " unprotected";
    const auto primary = links_of(r.backbone_path);
    for (const auto& l : links_of(standby->path)) {
      EXPECT_EQ(primary.count(l), 0u)
          << "standby shares link (" << l.first << "," << l.second
          << ") with the primary";
    }
  }

  // The second copies flowed and the merge switches ate them: dedup did
  // real work, and not one duplicate leaked into a decoder.
  ASSERT_TRUE(m.redundancy.configured);
  EXPECT_GT(m.redundancy.secondary_trees_installed, 0u);
  EXPECT_GT(m.redundancy.redundant_relayed, 0u);
  EXPECT_GT(m.redundancy.duplicates_eliminated, 0u);
  EXPECT_EQ(m.redundancy.tree_flips, 0u) << "nothing was cut";
  EXPECT_GE(m.WorstDeliveryFloor(), 150u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u) << m.ToCsv();
  EXPECT_NE(m.ToCsv().find("redundancy,"), std::string::npos);
}

TEST(RedundantTrees, SurvivesPrimaryLinkCutWithZeroFrameGap) {
  // Control run: same ring, same seed, no cut.
  harness::ScenarioSpec control_spec = RingSpec("ring-cut", 10.0);
  control_spec.WithRedundantTrees();
  harness::ScenarioRunner control(control_spec);
  const harness::ScenarioMetrics& undisturbed = control.Run();
  ASSERT_GT(undisturbed.WorstDeliveryFloor(), 0u);

  // Probe runs: at 3 s, cut a backbone link a live primary path crosses,
  // down to a sliver (<= 0 means unconstrained, and the overload
  // re-planner only reacts to finite capacities) or to room for two of
  // the seven streams that ride it.
  for (const double cut_bps : {1.0, 5e6}) {
    SCOPED_TRACE(testing::Message() << "cut to " << cut_bps << " b/s");
    harness::ScenarioSpec spec = RingSpec("ring-cut", 10.0);
    spec.WithRedundantTrees();
    harness::ScenarioRunner runner(spec);
    runner.RunUntil(2.9);
    const auto relays =
        runner.fleet().fleet().RelaysOf(runner.meeting_id(0));
    ASSERT_FALSE(relays.empty());
    ASSERT_GE(relays.front().backbone_path.size(), 2u);
    const size_t cut_a = relays.front().backbone_path[0];
    const size_t cut_b = relays.front().backbone_path[1];
    runner.backend().sched().At(util::Seconds(3.0), [&] {
      runner.fleet().SetInterSwitchLinkCapacity(cut_a, cut_b, cut_bps);
    });
    const harness::ScenarioMetrics& m = runner.Run();

    // The cut flipped every relay riding that link onto its standby chain
    // and planned fresh standbys around the new primaries, none of them
    // over a link without room.
    EXPECT_GE(m.redundancy.tree_flips, 1u) << m.Summary();
    EXPECT_GT(m.redundancy.duplicates_eliminated, 0u);
    EXPECT_EQ(m.RewriteViolations(), 0u) << m.ToCsv();
    EXPECT_LE(m.topology.max_utilization, 1.0) << m.Summary();

    // Zero frame gap: the second tree was already delivering copies when
    // the primary died, so the worst peer decodes as much as in the
    // undisturbed run (a small in-flight allowance covers the packets
    // that died on the cut link itself).
    EXPECT_GE(m.WorstDeliveryFloor() + 3, undisturbed.WorstDeliveryFloor())
        << "the cut opened a frame gap despite the standby tree\n"
        << m.Summary() << undisturbed.Summary();
  }
}

// Whether relay `r` has a chain on its tree edge: a standby (`active`
// false) or the promoted chain carrying it (`active` true).
bool HasChain(const std::vector<core::SecondaryTree>& chains,
              const core::MeetingRelay& r, bool active) {
  return std::any_of(chains.begin(), chains.end(), [&](const auto& t) {
    return t.active == active && t.origin == r.origin &&
           t.upstream == r.upstream && t.downstream == r.downstream;
  });
}

// The fingerprint grid's cut points must reach the paths they pin: one
// cut flips relays onto standbys, and a second cut on a promoted chain
// flips a relay a second time (retiring the chain it rode). No planned
// chain may overload a link, and on the full mesh every relay ends with a
// standby again (a standby a cut lands on is planned anew).
TEST(RedundantTrees, FingerprintCutPointsFlipOnceAndTwice) {
  struct Wanted {
    const char* key;
    uint64_t min_flips;
    bool all_protected;
  };
  const Wanted wanted[] = {{"redundantcut/fleet4/s6", 1, false},
                           {"redundantrecut/fleet4/s6", 2, true}};
  for (const Wanted& w : wanted) {
    bool found = false;
    for (const auto& p : harness::AllFingerprintPoints()) {
      if (p.key != w.key) continue;
      found = true;
      harness::ScenarioRunner runner(p.spec);
      const harness::ScenarioMetrics& m = runner.Run();
      EXPECT_GE(m.redundancy.tree_flips, w.min_flips) << w.key << m.Summary();
      EXPECT_EQ(m.RewriteViolations(), 0u) << w.key;
      EXPECT_LE(m.topology.max_utilization, 1.0) << w.key << m.Summary();
      if (w.all_protected) {
        const core::FleetController& fleet = runner.fleet().fleet();
        const auto chains = fleet.SecondariesOf(runner.meeting_id(0));
        for (const auto& r : fleet.RelaysOf(runner.meeting_id(0))) {
          EXPECT_TRUE(HasChain(chains, r, /*active=*/false))
              << w.key << ": relay of " << r.origin << " " << r.upstream
              << "->" << r.downstream << " has no standby";
        }
      }
    }
    EXPECT_TRUE(found) << "no fingerprint point " << w.key;
  }
}

// A switch dies that a promoted chain transits but that hosts neither
// end of the relay it carries. Full mesh fleet{4}, one 3-party meeting on
// switches 0..2, so switch 3 hosts nothing of the meeting. At 1.2 s a cut
// on link 0-1 flips the 0<->1 relays onto chains through switch 3; at
// 1.5 s switch 3's control link goes dark and its heartbeat detector
// declares it dead. The relays transiting it flip onto standbys that
// avoid it (a second flip, retiring the chain through 3), and the
// standbys through it are dropped with the dead switch's commands
// skipped and planned again around it. The digest and counts are
// pinned: any drift means the failover's commands or bookkeeping
// changed.
TEST(RedundantTrees, TransitSwitchDeathFlipsAndDropsStandbys) {
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("mesh-transit-death", 1, 3, 3.0, 6);
  spec.sample_interval_s = 0.5;
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithBackend(testbed::BackendChoice::Fleet(4));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      spec.WithInterSwitchLink(a, b, 0.001, 100e6);
    }
  }
  spec.WithRedundantTrees();
  spec.WithInterSwitchLinkEvent(1.2, 0, 1, 1.0);
  harness::ScenarioRunner runner(spec);
  runner.backend().sched().At(util::Seconds(1.5), [&runner] {
    runner.fleet().channel(3).set_link_up(false);
  });

  runner.RunUntil(1.4);
  const core::MeetingId id = runner.meeting_id(0);
  const core::MeetingPlacement placement = runner.fleet().PlacementOf(id);
  ASSERT_NE(placement.home, 3u);
  ASSERT_EQ(placement.SpanOn(3), nullptr);
  size_t transits = 0;
  for (const auto& t : runner.fleet().fleet().SecondariesOf(id)) {
    if (t.active && t.path.size() == 3 && t.path[1] == 3) ++transits;
  }
  ASSERT_GE(transits, 1u) << "no promoted chain transits switch 3";

  const harness::ScenarioMetrics& m = runner.Run();
  EXPECT_EQ(m.control.switches_failed, 1u);
  for (const auto& t : runner.fleet().fleet().SecondariesOf(id)) {
    for (size_t sw : t.path) EXPECT_NE(sw, 3u) << "a chain still uses 3";
  }
  EXPECT_EQ(m.redundancy.tree_flips, 5u);
  EXPECT_EQ(m.redundancy.secondary_trees_installed, 10u);
  EXPECT_EQ(m.redundancy.secondary_trees_removed, 7u);
  EXPECT_EQ(m.RewriteViolations(), 0u) << m.ToCsv();
  EXPECT_EQ(harness::ScenarioFingerprint::Hex(
                harness::ScenarioFingerprint::Of(m)),
            "0x8c3f138760f27cca")
      << m.Summary();
}

// A relay added after a cut must not ride the cut link unprotected. Full
// mesh fleet{4}, one 4-party meeting spread one member per switch; at
// 1.2 s link 0-1 is cut, and at 1.5 s switch 2's control link goes dark,
// so its span collapses and its member re-joins elsewhere. The relay that
// re-join adds over the cut link flips onto a chain around it at once,
// so every receiver keeps decoding every stream. A cut that leaves room
// for one stream takes no standby it cannot carry: no link ends over its
// capacity.
TEST(RedundantTrees, RelayAddedAfterCutIsProtected) {
  for (const double cut_bps : {1.0, 3e6}) {
    SCOPED_TRACE(testing::Message() << "cut to " << cut_bps << " b/s");
    harness::ScenarioSpec spec =
        harness::ScenarioSpec::Uniform("mesh-late-relay", 1, 4, 3.0, 6);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.WithBackend(testbed::BackendChoice::Fleet(4));
    spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        spec.WithInterSwitchLink(a, b, 0.001, 100e6);
      }
    }
    spec.WithRedundantTrees();
    spec.WithInterSwitchLinkEvent(1.2, 0, 1, cut_bps);
    harness::ScenarioRunner runner(spec);
    runner.backend().sched().At(util::Seconds(1.5), [&runner] {
      runner.fleet().channel(2).set_link_up(false);
    });

    const harness::ScenarioMetrics& m = runner.Run();
    EXPECT_EQ(m.control.switches_failed, 1u);
    for (const auto& p : m.peers) {
      if (!p.present_at_end || p.active_streams == 0) continue;
      EXPECT_GT(p.min_frames_decoded, 0u)
          << "peer " << p.id << " decodes nothing on one of its streams\n"
          << m.ToCsv();
    }
    EXPECT_LE(m.topology.max_utilization, 1.0) << m.Summary();
    EXPECT_EQ(m.RewriteViolations(), 0u) << m.ToCsv();
    // The collapse of span 2 dropped chains that earlier flips promoted
    // through switch 2; each relay they carried flips onto its standby,
    // so every relay keeps a transport of its own.
    const core::MeetingId id = runner.meeting_id(0);
    const auto chains = runner.fleet().fleet().SecondariesOf(id);
    for (const auto& r : runner.fleet().fleet().RelaysOf(id)) {
      EXPECT_TRUE(!r.backbone_path.empty() ||
                  HasChain(chains, r, /*active=*/true))
          << "relay of " << r.origin << " " << r.upstream << "->"
          << r.downstream << " has no transport";
    }
  }
}

TEST(RedundantTrees, StandbySurvivesWhenConfiguredOffByteIdentical) {
  // Null case: the same scenario with redundancy off renders no
  // redundancy section and behaves exactly as the unprotected fleet.
  harness::ScenarioSpec spec = RingSpec("ring-plain", 6.0);
  harness::ScenarioRunner runner(spec);
  const harness::ScenarioMetrics& m = runner.Run();
  EXPECT_FALSE(m.redundancy.configured);
  EXPECT_EQ(m.ToCsv().find("redundancy,"), std::string::npos);
  EXPECT_TRUE(runner.fleet().fleet().SecondariesOf(runner.meeting_id(0))
                  .empty());
}

// ---------------------------------------------------------------------
// Make-before-break migration.

TEST(HitlessMigration, PlannedMoveLosesZeroFrames) {
  // Single-homed 3-party meeting on a 2-switch fleet; at 3 s the
  // controller re-homes it. With hitless migration on, members keep
  // their sessions (nobody re-signals) and the runner's audit sees every
  // receiver decode everything its sender produced across the flip.
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("hitless-move", 1, 3, 8.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  spec.WithHitlessMigration();
  harness::ScenarioRunner runner(spec);

  runner.RunUntil(3.0);
  const core::MeetingId id = runner.meeting_id(0);
  const size_t source = runner.fleet().PlacementOf(id).home;
  ASSERT_NE(source, SIZE_MAX);
  const size_t target = source == 0 ? 1 : 0;
  runner.fleet().fleet().MigrateMeeting(id, target);

  const harness::ScenarioMetrics& m = runner.Run();
  EXPECT_EQ(runner.fleet().PlacementOf(id).home, target);
  ASSERT_TRUE(m.redundancy.configured);
  EXPECT_EQ(m.redundancy.hitless_migrations, 1u);
  EXPECT_EQ(m.hitless_moves_measured, 1u);
  EXPECT_EQ(m.hitless_frames_lost, 0u)
      << "frames lost during a planned migration\n"
      << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u) << m.ToCsv();
  // Nobody re-signaled: every peer was present the whole run.
  for (const auto& p : m.peers) {
    EXPECT_TRUE(p.present_at_end);
    EXPECT_NEAR(p.seconds_in_meeting, 8.0, 0.01)
        << "peer " << p.index << " was torn down by the move";
  }
}

TEST(HitlessMigration, ClassicMoveStillResignalsWhenOff) {
  // Contrast: with hitless migration off the same move freezes the
  // meeting and the members re-join onto the target — sessions break.
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("classic-move", 1, 3, 8.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  harness::ScenarioRunner runner(spec);

  runner.RunUntil(3.0);
  const core::MeetingId id = runner.meeting_id(0);
  const size_t source = runner.fleet().PlacementOf(id).home;
  ASSERT_NE(source, SIZE_MAX);
  runner.fleet().fleet().MigrateMeeting(id, source == 0 ? 1 : 0);

  const harness::ScenarioMetrics& m = runner.Run();
  EXPECT_FALSE(m.redundancy.configured);
  double total_presence = 0.0;
  for (const auto& p : m.peers) total_presence += p.seconds_in_meeting;
  EXPECT_LT(total_presence, 3 * 8.0 - 0.1)
      << "the classic move must cost re-signaling downtime";
}

// ---------------------------------------------------------------------
// Spec validation.

TEST(RedundancySpec, ValidatesBackendAndWindow) {
  harness::ScenarioSpec on_scallop =
      harness::ScenarioSpec::Uniform("r-scallop", 1, 2, 1.0);
  on_scallop.WithRedundantTrees();
  EXPECT_THROW(harness::ScenarioRunner{on_scallop}, std::invalid_argument);

  harness::ScenarioSpec no_backbone =
      harness::ScenarioSpec::Uniform("r-mesh", 1, 2, 1.0);
  no_backbone.WithBackend(testbed::BackendChoice::Fleet(2));
  no_backbone.WithRedundantTrees();
  EXPECT_THROW(harness::ScenarioRunner{no_backbone}, std::invalid_argument);

  harness::ScenarioSpec bad_window = RingSpec("r-window", 1.0);
  bad_window.WithRedundantTrees(0);
  EXPECT_THROW(harness::ScenarioRunner{bad_window}, std::invalid_argument);

  harness::ScenarioSpec hitless_software =
      harness::ScenarioSpec::Uniform("h-software", 1, 2, 1.0);
  hitless_software.WithBackend(testbed::BackendChoice::Software());
  hitless_software.WithHitlessMigration();
  EXPECT_THROW(harness::ScenarioRunner{hitless_software},
               std::invalid_argument);
}

}  // namespace
}  // namespace scallop
