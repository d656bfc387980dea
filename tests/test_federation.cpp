// Federated control plane (fleet{N,R}): per-region controllers, each
// holding the records of the meetings it placed, peered east-west for
// directory lookups, cross-region border spans and controller-death
// shard adoption. The plane with R = 1 must be byte-identical to the
// classic single-FleetController fleet; everything federated is
// exercised at R > 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace scallop::harness {
namespace {

// Shared invariant check: delivery floor and gap-free rewriting (the same
// bar test_scenarios.cpp holds every backend to).
void ExpectHealthy(const ScenarioMetrics& m, uint64_t min_floor_frames) {
  EXPECT_GE(m.WorstDeliveryFloor(), min_floor_frames)
      << "a peer starved:\n"
      << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u) << "sequence rewriting broke:\n"
                                       << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.blackholed, 0u);
}

ScenarioSpec FederatedSpec(std::string name, int switches, int regions,
                           int meetings, int participants,
                           double duration_s) {
  ScenarioSpec spec = ScenarioSpec::Uniform(std::move(name), meetings,
                                            participants, duration_s);
  spec.WithBackend(testbed::BackendChoice::Fleet(switches, regions));
  return spec;
}

TEST(Federation, SpecValidationRejectsBadRegionCounts) {
  // R = 0 and R > N both leave some region without a switch (or the
  // switches without a controller) — rejected up front with the offending
  // shape in the message, not discovered mid-run.
  ScenarioSpec zero = FederatedSpec("fed-r0", 4, 0, 1, 2, 1.0);
  EXPECT_THROW({ ScenarioRunner r(zero); }, std::invalid_argument);
  ScenarioSpec over = FederatedSpec("fed-r5", 4, 5, 1, 2, 1.0);
  EXPECT_THROW({ ScenarioRunner r(over); }, std::invalid_argument);
  EXPECT_THROW(testbed::FleetTestbed({}, 4, 5), std::invalid_argument);

  // A controller-failure drill needs a federated fleet, an in-range
  // region, and heartbeats to detect the death with.
  ScenarioSpec mono = ScenarioSpec::Uniform("fed-mono", 1, 2, 1.0);
  mono.WithBackend(testbed::BackendChoice::Fleet(2))
      .WithControllerFailure(0.5);
  EXPECT_THROW({ ScenarioRunner r(mono); }, std::invalid_argument);
  ScenarioSpec badregion = FederatedSpec("fed-badregion", 4, 2, 1, 2, 1.0);
  badregion.WithControllerFailure(0.5, 7);
  EXPECT_THROW({ ScenarioRunner r(badregion); }, std::out_of_range);
  ScenarioSpec late = FederatedSpec("fed-late", 4, 2, 1, 2, 1.0);
  late.WithControllerFailure(5.0, 1);
  EXPECT_THROW({ ScenarioRunner r(late); }, std::invalid_argument);
}

TEST(Federation, SingleRegionIsByteIdenticalToClassicFleet) {
  // fleet{N,R=1} is the refactor's null case: the plane forwards straight
  // to one FleetController and the CSV — label included — must be
  // byte-for-byte what fleet{N} produced before federation existed.
  EXPECT_EQ(testbed::BackendChoice::Fleet(2, 1).Label(), "fleet{2}");
  ScenarioSpec classic = ScenarioSpec::Uniform("fed-null", 2, 3, 5.0);
  classic.WithBackend(testbed::BackendChoice::Fleet(2))
      .WithControlPlane(0.002, 0.0);
  ScenarioSpec viaplane = classic;
  viaplane.WithBackend(testbed::BackendChoice::Fleet(2, 1));
  ScenarioRunner a(classic);
  ScenarioRunner b(viaplane);
  const std::string csv_a = a.Run().ToCsv();
  const std::string csv_b = b.Run().ToCsv();
  EXPECT_EQ(csv_a, csv_b);
  EXPECT_EQ(csv_a.find("federation,"), std::string::npos);
}

TEST(Federation, DeterministicCsvUnderEastWestImpairment) {
  // Same spec, same seed, twice — with east-west latency AND loss in
  // play. Every federated code path (announcements, lookups, heartbeats)
  // draws from seeded per-pair conduits, so the CSV must be identical.
  ScenarioSpec spec = FederatedSpec("fed-det", 4, 2, 2, 3, 6.0);
  spec.WithControlPlane(0.002, 0.01);
  ScenarioRunner a(spec);
  ScenarioRunner b(spec);
  const ScenarioMetrics& ma = a.Run();
  const std::string csv_a = ma.ToCsv();
  const std::string csv_b = b.Run().ToCsv();
  EXPECT_EQ(csv_a, csv_b);

  // The federation is actually alive: the CSV gained its section and the
  // east-west plane carried heartbeats + meeting announcements.
  EXPECT_NE(csv_a.find("federation,regions,"), std::string::npos);
  EXPECT_TRUE(ma.federation.configured);
  EXPECT_EQ(ma.federation.regions, 2);
  EXPECT_GT(ma.federation.messages_sent, 0u);
  EXPECT_GT(ma.federation.controller_heartbeats_seen, 0u);
  EXPECT_GT(ma.federation.directory_announcements, 0u);
  EXPECT_GT(ma.federation.directory_lookups, 0u);
  // 1% iid loss over hundreds of heartbeats: some drops are expected.
  // Delivered + dropped can trail sent by whatever is still in flight at
  // collection time, but never exceed it.
  EXPECT_GT(ma.federation.messages_dropped, 0u);
  EXPECT_LE(ma.federation.messages_delivered + ma.federation.messages_dropped,
            ma.federation.messages_sent);
  ExpectHealthy(ma, 10);
}

TEST(Federation, BorderSpanCarriesCrossRegionOverflow) {
  // Cascade(1) fills each switch with one participant. Region A owns 2 of
  // the 4 switches, so a 4-party meeting overflows its region: the third
  // join has no local switch left, the border planner borrows the
  // least-loaded switch from region B, and the span rides the existing
  // relay-tree mechanics across the region boundary.
  ScenarioSpec spec = FederatedSpec("fed-border", 4, 2, 1, 4, 6.0);
  spec.WithControlPlane(0.001, 0.0);
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();
  EXPECT_GE(m.federation.border_spans, 1u);

  // The placement really crosses regions: some span switch lives in a
  // different region than the home switch.
  auto& fed = r.fleet().federation();
  core::MeetingPlacement placement =
      fed.PlacementOf(r.meeting_id(0));
  ASSERT_TRUE(placement.valid());
  const size_t home_region = fed.RegionOfSwitch(placement.home);
  bool crossed = false;
  for (const core::RelaySpan& span : placement.spans) {
    if (fed.RegionOfSwitch(span.switch_index) != home_region) crossed = true;
  }
  EXPECT_TRUE(crossed);
  // Media actually flowed over the borrowed span's relays.
  EXPECT_GT(m.cascade.relay_packets, 0u);
  ExpectHealthy(m, 10);
}

// The border planner ranks lender switches the way new meetings are
// placed: load divided by capacity class. Region 1 hosts a 1-party
// meeting on switch 2 (class 1) and a 2-party one on switch 3 (class 4),
// so switch 3 is the idler lender (2/4 < 1/1) although it carries more
// raw load. Meeting 0's fifth joiner overflows region 0's two Cascade(2)
// switches and must be spanned onto switch 3.
ScenarioSpec BorderCapacitySpec(std::string name, double duration_s) {
  ScenarioSpec spec = FederatedSpec(std::move(name), 4, 2, 3, 1, duration_s);
  spec.meetings[0].participants.resize(6);
  spec.meetings[2].participants.resize(2);
  for (int k = 0; k < 6; ++k) spec.WithJoin(0, k, 0.5 + 0.1 * k);
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2))
      .WithMeetingRegion(0, 0)
      .WithMeetingRegion(1, 1)
      .WithMeetingRegion(2, 1)
      .WithSwitchCapacity(3, 4.0);
  return spec;
}

TEST(Federation, BorderSpanLendsTheCapacityWeightedLeastLoadedSwitch) {
  ScenarioRunner r(BorderCapacitySpec("fed-border-capacity", 3.0));
  const ScenarioMetrics& m = r.Run();
  ASSERT_GE(m.federation.border_spans, 1u);

  auto& fed = r.fleet().federation();
  ASSERT_EQ(fed.PlacementOf(r.meeting_id(1)).home, 2u);
  ASSERT_EQ(fed.PlacementOf(r.meeting_id(2)).home, 3u);
  const core::MeetingPlacement placement = fed.PlacementOf(r.meeting_id(0));
  ASSERT_TRUE(placement.valid());
  EXPECT_NE(placement.SpanOn(3), nullptr) << m.ToCsv();
  EXPECT_EQ(placement.SpanOn(2), nullptr) << m.ToCsv();
  ExpectHealthy(m, 10);
}

TEST(Federation, AdoptedBorderGuestKeepsItsCapacityClass) {
  // Regression: region 0 borrows switch 3 (class 4) as a border guest,
  // then adopts it with region 1's shard when that controller dies. The
  // takeover used to land in the borrowed slot without the switch's
  // capacity class, so the adopter weighed it at 1.0 from then on.
  ScenarioSpec spec = BorderCapacitySpec("fed-border-adopt", 4.0);
  spec.WithControllerFailure(2.0, 1);
  ScenarioRunner r(spec);
  r.RunUntil(2.0);
  auto& fed = r.fleet().federation();
  ASSERT_GE(fed.federation_stats().border_spans, 1u);
  std::vector<core::MeetingPlacement> before;
  for (int mi = 0; mi < 3; ++mi) {
    before.push_back(fed.PlacementOf(r.meeting_id(mi)));
  }

  const ScenarioMetrics& m = r.Run();
  ASSERT_EQ(m.federation.shards_adopted, 1u);
  EXPECT_EQ(fed.region(0).CapacityClassOf(3), 4.0);
  // Adoption moves records, never re-plans them.
  for (int mi = 0; mi < 3; ++mi) {
    EXPECT_EQ(fed.PlacementOf(r.meeting_id(mi)), before[mi])
        << "meeting " << mi;
  }
  ExpectHealthy(m, 10);
  for (const auto& p : m.peers) EXPECT_TRUE(p.present_at_end);
}

TEST(Federation, EveryRegionSeesTheSameSwitchState) {
  // One switch table serves every region: whichever region asks, a
  // switch's load, meeting count, liveness and capacity class are the
  // plane's — including region 0's border member on region 1's switch 3,
  // and across region 1's death and adoption.
  ScenarioSpec spec = BorderCapacitySpec("fed-same-state", 4.0);
  spec.WithControllerFailure(2.0, 1);
  ScenarioRunner r(spec);
  auto& fed = r.fleet().federation();
  auto expect_same_state = [&](const char* when) {
    for (size_t i = 0; i < fed.switch_count(); ++i) {
      const double cls = i == 3 ? 4.0 : 1.0;
      for (size_t reg = 0; reg < fed.regions(); ++reg) {
        if (!fed.RegionAlive(reg)) continue;
        const core::FleetController& fc = fed.region(reg);
        EXPECT_EQ(fc.LoadOf(i), fed.LoadOf(i))
            << when << " switch " << i << " region " << reg;
        EXPECT_EQ(fc.MeetingsOn(i), fed.MeetingsOn(i))
            << when << " switch " << i << " region " << reg;
        EXPECT_EQ(fc.IsAlive(i), fed.IsAlive(i))
            << when << " switch " << i << " region " << reg;
        EXPECT_EQ(fc.CapacityClassOf(i), cls)
            << when << " switch " << i << " region " << reg;
      }
    }
  };
  r.RunUntil(1.5);
  ASSERT_GE(fed.federation_stats().border_spans, 1u);
  ASSERT_NE(fed.PlacementOf(r.meeting_id(0)).SpanOn(3), nullptr);
  expect_same_state("at 1.5 s");

  const ScenarioMetrics& m = r.Run();
  ASSERT_EQ(m.federation.shards_adopted, 1u);
  expect_same_state("at the end");
  ExpectHealthy(m, 10);
}

TEST(Federation, BorrowerDropsADeadBorderGuest) {
  // Cascade(1) puts one member per switch: region 0's 4-party meeting
  // borrows a region 1 switch for its third joiner. That guest's control
  // link goes dark at 1 s. Its owner declares it dead; the borrower must
  // see the death too, collapse its span there, and never home the
  // fourth joiner (2 s) on the dead guest.
  ScenarioSpec spec = FederatedSpec("fed-dead-guest", 4, 2, 1, 4, 4.0);
  spec.WithControlPlane(0.001, 0.0);
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
  spec.WithMeetingRegion(0, 0);
  const double joins[] = {0.2, 0.3, 0.4, 2.0};
  for (int k = 0; k < 4; ++k) spec.WithJoin(0, k, joins[k]);
  ScenarioRunner r(spec);
  auto& fed = r.fleet().federation();
  const core::MeetingId meeting = r.meeting_id(0);

  r.RunUntil(1.0);
  size_t guest = SIZE_MAX;
  for (const core::RelaySpan& span : fed.PlacementOf(meeting).spans) {
    if (fed.RegionOfSwitch(span.switch_index) != 0) guest = span.switch_index;
  }
  ASSERT_NE(guest, SIZE_MAX) << "no border span by 1 s";
  r.fleet().channel(guest).set_link_up(false);

  r.RunUntil(1.9);
  EXPECT_FALSE(fed.IsAlive(guest));
  EXPECT_FALSE(fed.region(0).IsAlive(guest));

  const ScenarioMetrics& m = r.Run();
  const core::MeetingPlacement placement = fed.PlacementOf(meeting);
  ASSERT_TRUE(placement.valid());
  EXPECT_NE(placement.home, guest);
  EXPECT_EQ(placement.SpanOn(guest), nullptr) << m.ToCsv();
  EXPECT_EQ(fed.LoadOf(guest), 0);
  ExpectHealthy(m, 10);
}

// A 3-party meeting minted in region 1 on a linear 0-1-2-3 backbone:
// Cascade(1) homes it on switch 2, spans switch 3, and borrows region 0's
// switch 0 for the third member, so relays cross the region border.
// Region 1's controller dies at 1 s and region 0 adopts the shard.
ScenarioSpec BackboneAdoptSpec(std::string name, uint64_t seed) {
  ScenarioSpec spec = FederatedSpec(std::move(name), 4, 2, 1, 3, 2.0);
  spec.seed = seed;
  spec.WithControlPlane(0.001, 0.0);
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
  spec.WithInterSwitchLink(0, 1, 0.001, 20e6)
      .WithInterSwitchLink(1, 2, 0.001, 20e6)
      .WithInterSwitchLink(2, 3, 0.001, 20e6);
  spec.WithMeetingRegion(0, 1).WithControllerFailure(1.0, 1);
  return spec;
}

TEST(Federation, AdopterKeepsTheDeadRegionsBackboneLoad) {
  ScenarioRunner r(BackboneAdoptSpec("fed-backbone-adopt", 1));
  auto& fed = r.fleet().federation();
  const core::MeetingId meeting = r.meeting_id(0);
  // Every backbone link carries exactly the load of the relays whose path
  // crosses it — cross-region relays included, whoever holds the record.
  auto expect_link_loads_match_relays = [&](const char* when) {
    const std::vector<core::MeetingRelay> relays = fed.RelaysOf(meeting);
    ASSERT_FALSE(relays.empty()) << when;
    for (const core::MeetingRelay& relay : relays) {
      EXPECT_FALSE(relay.backbone_path.empty())
          << when << " relay " << relay.upstream << "->" << relay.downstream;
    }
    for (const auto& link : fed.topology().links()) {
      double expected = 0.0;
      for (const core::MeetingRelay& relay : relays) {
        const std::vector<size_t>& path = relay.backbone_path;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          if (std::min(path[i], path[i + 1]) == link.a &&
              std::max(path[i], path[i + 1]) == link.b) {
            expected += relay.load_bps;
          }
        }
      }
      EXPECT_DOUBLE_EQ(fed.topology().LoadOf(link.a, link.b), expected)
          << when << " link " << link.a << "-" << link.b;
    }
  };

  r.RunUntil(0.9);
  ASSERT_EQ(fed.OwnerRegionOf(meeting), 1u);
  expect_link_loads_match_relays("at 0.9 s");

  const ScenarioMetrics& m = r.Run();
  ASSERT_EQ(m.federation.shards_adopted, 1u);
  ASSERT_EQ(fed.OwnerRegionOf(meeting), 0u);
  expect_link_loads_match_relays("after the adoption");
  EXPECT_EQ(fed.region(0).topology().RelayPath(2, 3),
            (std::vector<size_t>{2, 3}));
  ExpectHealthy(m, 10);
}

TEST(Federation, ControllerDeathShardAdoption) {
  // fleet{6,2}: region 1's controller dies mid-run. Its switches keep
  // forwarding; region 0 notices via east-west heartbeat loss, adopts the
  // orphaned shard, and every meeting ends owned by a live controller
  // with zero starved peers.
  ScenarioSpec spec = FederatedSpec("fed-adopt", 6, 2, 4, 2, 8.0);
  spec.WithControlPlane(0.001, 0.0);
  spec.WithRebalance(1.0);
  spec.WithControllerFailure(2.0, 1);
  ScenarioRunner r(spec);
  const ScenarioMetrics& m = r.Run();

  EXPECT_EQ(m.federation.controllers_failed, 1u);
  EXPECT_EQ(m.federation.shards_adopted, 1u);
  EXPECT_GE(m.federation.meetings_adopted, 1u);
  // Adoption re-homes each taken-over meeting to the surviving
  // controller; the fleet-wide rebalance counter carries those moves.
  EXPECT_GE(m.placements_rebalanced, m.federation.meetings_adopted);

  auto& fed = r.fleet().federation();
  EXPECT_FALSE(fed.RegionAlive(1));
  ASSERT_TRUE(fed.RegionAlive(0));
  std::set<size_t> owners;
  for (int mi = 0; mi < 4; ++mi) {
    const size_t owner = fed.OwnerRegionOf(r.meeting_id(mi));
    ASSERT_NE(owner, SIZE_MAX);
    EXPECT_TRUE(fed.RegionAlive(owner));
    owners.insert(owner);
  }
  EXPECT_EQ(owners, std::set<size_t>{0});
  // No peer starved across the takeover.
  ExpectHealthy(m, 10);
  for (const auto& p : m.peers) EXPECT_TRUE(p.present_at_end);
}

TEST(Federation, JoinIntoOwnerlessMeetingRetriesUntilAdoption) {
  // Regression: a join or re-signal reaching a meeting whose owning
  // controller had died, before a peer adopted its shard, threw
  // std::out_of_range out of FederatedControlPlane::Join and aborted the
  // run. Joins spread to 0.6 x duration with the death at half time put
  // joins and rebalance re-signals inside that window; they now retry one
  // controller heartbeat later.
  const double duration_s = 20.0;
  WorkloadSpec w;
  w.name = "fed-ownerless-join";
  w.seed = 3;
  w.duration_s = duration_s;
  w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithGrid(6, 5)
      .WithDiurnal(6.0, 12.0, 0.6, 0.4)
      .WithFollowTheSun()
      .WithRoaming(4, 0.6)
      .WithFlashCrowd(1, 3)
      .WithControlPlane(0.001, 0.0)
      .WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(4));
  ScenarioSpec spec = w.Compile();
  spec.WithRebalance(2.0, 2).WithControllerFailure(0.5 * duration_s, 1);
  ScenarioRunner r(spec);
  ScenarioMetrics m;
  ASSERT_NO_THROW(m = r.Run());

  EXPECT_EQ(m.federation.shards_adopted, 1u);
  ExpectHealthy(m, 10);
  // Every peer the spec keeps in its meeting to the end got there.
  for (const auto& p : m.peers) {
    const ParticipantSpec& ps =
        spec.meetings[static_cast<size_t>(p.meeting)]
            .participants[static_cast<size_t>(p.index)];
    const bool left = ps.leave_at_s >= 0.0 && ps.rejoin_at_s < 0.0;
    EXPECT_EQ(p.present_at_end, !left)
        << "meeting " << p.meeting << " peer " << p.index;
  }
}

}  // namespace
}  // namespace scallop::harness

namespace scallop::core {
namespace {

// Regression: AddSwitch used to arm the heartbeat failure detector only
// for the *first* switch's channel. With heartbeats disabled there (a
// perfectly valid channel config), a later switch with heartbeats enabled
// was never watched — its death went undetected forever. Arming is now
// explicit and idempotent per channel.
TEST(Federation, DetectorArmsPerChannelNotJustFirst) {
  sim::Scheduler sched;
  sim::Network net(sched, 99);
  switchsim::Switch sw1(sched, net, {.address = net::Ipv4(100, 64, 0, 1)});
  switchsim::Switch sw2(sched, net, {.address = net::Ipv4(100, 64, 0, 2)});
  DataPlaneProgram dp1(sw1, {}), dp2(sw2, {});
  AgentConfig ac1, ac2;
  ac1.sfu_ip = sw1.address();
  ac2.sfu_ip = sw2.address();
  SwitchAgent agent1(sched, dp1, ac1), agent2(sched, dp2, ac2);
  ControlChannelConfig cc1, cc2;
  cc1.seed = 7;
  cc1.heartbeat_interval = 0;  // first channel: heartbeats off
  cc2.seed = 8;
  cc2.heartbeat_interval = util::Millis(50);
  ControlChannel ch1(sched, agent1, cc1), ch2(sched, agent2, cc2);
  sim::LinkConfig dc{.rate_bps = 0, .prop_delay = util::Millis(1)};
  net.Attach(sw1.address(), &sw1, dc, dc);
  net.Attach(sw2.address(), &sw2, dc, dc);

  FleetController fleet;
  fleet.AddSwitch(ch1, sw1.address());
  fleet.AddSwitch(ch2, sw2.address());
  // Re-arming for an already-covered cadence is a no-op, not a duplicate
  // detector.
  fleet.ArmFailureDetector(ch2);

  sched.RunUntil(util::Seconds(1.0));
  EXPECT_TRUE(fleet.IsAlive(0));
  EXPECT_TRUE(fleet.IsAlive(1));

  // Kill switch 2's control link: its heartbeats stop and the detector —
  // armed by the *second* AddSwitch — must declare it dead. Switch 1,
  // with heartbeats configured off, is exempt from detection.
  ch2.set_link_up(false);
  sched.RunUntil(util::Seconds(2.0));
  EXPECT_TRUE(fleet.IsAlive(0));
  EXPECT_FALSE(fleet.IsAlive(1));
  EXPECT_GE(fleet.stats().switches_failed, 1u);
}

}  // namespace
}  // namespace scallop::core
