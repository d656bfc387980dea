// Fleet controller (cascading-SFU groundwork, paper Appendix A): one
// controller managing several switch data planes with load-aware meeting
// placement, membership-guarded load accounting, and switch-failure
// migration to a live standby. Exercised both directly and through the
// FleetTestbed backend behind the ScenarioRunner.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "harness/runner.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace scallop::core {
namespace {

// Two hand-wired switches under a one-region control plane; `fleet` is
// the plane's only regional controller.
struct FleetBed {
  explicit FleetBed(uint64_t seed = 1)
      : net(sched, seed),
        sw1(sched, net, {.address = net::Ipv4(100, 64, 0, 1)}),
        sw2(sched, net, {.address = net::Ipv4(100, 64, 0, 2)}),
        dp1(sw1, {}),
        dp2(sw2, {}),
        agent1(sched, dp1, Cfg(net::Ipv4(100, 64, 0, 1))),
        agent2(sched, dp2, Cfg(net::Ipv4(100, 64, 0, 2))),
        ch1(sched, agent1, {.seed = seed * 2 + 1}),
        ch2(sched, agent2, {.seed = seed * 2 + 2}) {
    sim::LinkConfig dc{.rate_bps = 0, .prop_delay = util::Millis(1)};
    net.Attach(sw1.address(), &sw1, dc, dc);
    net.Attach(sw2.address(), &sw2, dc, dc);
    plane.AddSwitch(ch1, sw1.address());
    plane.AddSwitch(ch2, sw2.address());
  }

  static AgentConfig Cfg(net::Ipv4 ip) {
    AgentConfig cfg;
    cfg.sfu_ip = ip;
    return cfg;
  }

  client::Peer& AddPeer(int idx) {
    client::PeerConfig pc;
    pc.address = net::Ipv4(10, 0, 0, static_cast<uint8_t>(idx));
    pc.seed = static_cast<uint64_t>(idx);
    pc.encoder.start_bitrate_bps = 600'000;
    auto peer = std::make_unique<client::Peer>(sched, net, pc);
    sim::LinkConfig access{.rate_bps = 20e6, .prop_delay = util::Millis(5)};
    net.Attach(pc.address, peer.get(), access, access);
    peers.push_back(std::move(peer));
    return *peers.back();
  }

  sim::Scheduler sched;
  sim::Network net;
  switchsim::Switch sw1, sw2;
  DataPlaneProgram dp1, dp2;
  SwitchAgent agent1, agent2;
  ControlChannel ch1, ch2;
  FederatedControlPlane plane{sched, {.regions = 1, .switches = 2}};
  FleetController& fleet = plane.region(0);
  std::vector<std::unique_ptr<client::Peer>> peers;
};

TEST(Fleet, BalancesMeetingsAcrossSwitches) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  auto m2 = bed.fleet.CreateMeeting();
  auto m3 = bed.fleet.CreateMeeting();
  auto m4 = bed.fleet.CreateMeeting();
  // Round-robin while empty.
  EXPECT_NE(bed.fleet.PlacementOf(m1).home, bed.fleet.PlacementOf(m2).home);
  EXPECT_NE(bed.fleet.PlacementOf(m3).home, bed.fleet.PlacementOf(m4).home);
  EXPECT_EQ(bed.fleet.stats().meetings_placed, 4u);
}

TEST(Fleet, PlacementFollowsParticipantLoad) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  // Load 4 participants onto m1's switch.
  for (int i = 1; i <= 4; ++i) bed.AddPeer(i).Join(bed.fleet, m1);
  size_t busy = bed.fleet.PlacementOf(m1).home;
  // The next meetings go to the other switch until loads even out.
  auto m2 = bed.fleet.CreateMeeting();
  EXPECT_NE(bed.fleet.PlacementOf(m2).home, busy);
  EXPECT_EQ(bed.fleet.LoadOf(busy), 4);
}

TEST(Fleet, CallsRunIndependentlyPerSwitch) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  auto m2 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  client::Peer& b = bed.AddPeer(2);
  client::Peer& c = bed.AddPeer(3);
  client::Peer& d = bed.AddPeer(4);
  a.Join(bed.fleet, m1);
  b.Join(bed.fleet, m1);
  c.Join(bed.fleet, m2);
  d.Join(bed.fleet, m2);
  bed.sched.RunUntil(util::Seconds(8));

  EXPECT_GT(b.video_receiver(a.id())->stats().frames_decoded, 200u);
  EXPECT_GT(d.video_receiver(c.id())->stats().frames_decoded, 200u);
  // Both switches carried media.
  EXPECT_GT(bed.sw1.stats().packets_in, 1'000u);
  EXPECT_GT(bed.sw2.stats().packets_in, 1'000u);
}

TEST(Fleet, LeaveAndEndMeetingReleaseLoad) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  client::Peer& b = bed.AddPeer(2);
  a.Join(bed.fleet, m1);
  b.Join(bed.fleet, m1);
  size_t idx = bed.fleet.PlacementOf(m1).home;
  EXPECT_EQ(bed.fleet.LoadOf(idx), 2);
  a.Leave();
  EXPECT_EQ(bed.fleet.LoadOf(idx), 1);
  bed.fleet.EndMeeting(m1);
  EXPECT_EQ(bed.fleet.PlacementOf(m1).home, SIZE_MAX);
}

TEST(Fleet, DoubleLeaveDoesNotSkewLoad) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  a.Join(bed.fleet, m1);
  size_t idx = bed.fleet.PlacementOf(m1).home;
  EXPECT_EQ(bed.fleet.LoadOf(idx), 1);
  a.Leave();
  EXPECT_EQ(bed.fleet.LoadOf(idx), 0);
  // A second leave for the same participant (stale client retry) and a
  // leave for someone who never joined must not drive the load negative —
  // that would permanently bias LeastLoaded toward this switch.
  bed.fleet.Leave(m1, 1);
  bed.fleet.Leave(m1, 77);
  EXPECT_EQ(bed.fleet.LoadOf(idx), 0);
}

TEST(Fleet, EndMeetingDrainsStillJoinedMembers) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  auto m2 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  client::Peer& b = bed.AddPeer(2);
  a.Join(bed.fleet, m1);
  b.Join(bed.fleet, m1);
  size_t idx = bed.fleet.PlacementOf(m1).home;
  EXPECT_EQ(bed.fleet.LoadOf(idx), 2);
  // Nobody left before the meeting ended: the drain must free both.
  bed.fleet.EndMeeting(m1);
  EXPECT_EQ(bed.fleet.LoadOf(idx), 0);
  // The freed switch is attractive again: the next meeting lands on it
  // (m2's switch carries one meeting, this one none).
  auto m3 = bed.fleet.CreateMeeting();
  EXPECT_EQ(bed.fleet.PlacementOf(m3).home, idx);
  (void)m2;
}

TEST(Fleet, MigrateMeetingMovesPlacementAndCountsRebalance) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  client::Peer& b = bed.AddPeer(2);
  a.Join(bed.fleet, m1);
  b.Join(bed.fleet, m1);
  size_t from = bed.fleet.PlacementOf(m1).home;
  size_t to = 1 - from;
  bed.fleet.MigrateMeeting(m1, to);
  EXPECT_EQ(bed.fleet.PlacementOf(m1).home, to);
  EXPECT_EQ(bed.fleet.stats().placements_rebalanced, 1u);
  // Members' sessions died with the old placement; their load drains and
  // they are no longer members until they re-Join.
  EXPECT_EQ(bed.fleet.LoadOf(from), 0);
  EXPECT_FALSE(bed.fleet.IsMember(m1, a.id()));
  // Re-signaling lands on the new placement: a stale Leave is absorbed by
  // the membership guard and the re-Join counts on the target switch.
  a.Leave();
  EXPECT_EQ(bed.fleet.LoadOf(to), 0);
  a.Join(bed.fleet, m1);
  EXPECT_EQ(bed.fleet.LoadOf(to), 1);
  EXPECT_TRUE(bed.fleet.IsMember(m1, a.id()));
}

TEST(Fleet, StaleLeaveAfterMigrationCannotKickNewMembers) {
  // Switches mint participant ids from disjoint ranges, so a stale Leave
  // carrying an id minted by the dead switch can never name a live member
  // on the standby.
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  a.Join(bed.fleet, m1);
  ParticipantId stale_id = a.id();
  size_t from = bed.fleet.PlacementOf(m1).home;
  bed.fleet.OnSwitchDown(from);
  size_t to = bed.fleet.PlacementOf(m1).home;
  ASSERT_NE(to, from);

  client::Peer& b = bed.AddPeer(2);
  b.Join(bed.fleet, m1);
  EXPECT_NE(b.id(), stale_id);  // disjoint id spaces across switches
  EXPECT_EQ(bed.fleet.LoadOf(to), 1);
  // The stale client's retry names the old id: absorbed, not misapplied.
  bed.fleet.Leave(m1, stale_id);
  EXPECT_TRUE(bed.fleet.IsMember(m1, b.id()));
  EXPECT_EQ(bed.fleet.LoadOf(to), 1);
}

TEST(Fleet, OnSwitchDownMigratesToLiveStandby) {
  FleetBed bed;
  auto m1 = bed.fleet.CreateMeeting();
  client::Peer& a = bed.AddPeer(1);
  a.Join(bed.fleet, m1);
  size_t victim = bed.fleet.PlacementOf(m1).home;
  bed.fleet.OnSwitchDown(victim);
  EXPECT_FALSE(bed.fleet.IsAlive(victim));
  EXPECT_EQ(bed.fleet.PlacementOf(m1).home, 1 - victim);
  EXPECT_EQ(bed.fleet.stats().placements_rebalanced, 1u);
  // New meetings avoid the dead switch until it is revived.
  auto m2 = bed.fleet.CreateMeeting();
  EXPECT_EQ(bed.fleet.PlacementOf(m2).home, 1 - victim);
  bed.fleet.ReviveSwitch(victim);
  EXPECT_TRUE(bed.fleet.IsAlive(victim));
  auto m3 = bed.fleet.CreateMeeting();
  EXPECT_EQ(bed.fleet.PlacementOf(m3).home, victim);  // restarted and empty
}

// ---- FleetTestbed: the multi-switch backend behind the runner ----------

testbed::TestbedConfig FastStartConfig() {
  testbed::TestbedConfig cfg;
  cfg.peer.encoder.start_bitrate_bps = 700'000;
  cfg.peer.encoder.key_frame_interval = util::Seconds(4);
  return cfg;
}

TEST(FleetTestbed, LeastLoadedSpreadsMeetingsAcrossThreeSwitches) {
  testbed::FleetTestbed bed(FastStartConfig(), 3);
  auto m1 = bed.CreateMeeting();
  auto m2 = bed.CreateMeeting();
  auto m3 = bed.CreateMeeting();
  std::set<size_t> placements{bed.PlacementOf(m1).home, bed.PlacementOf(m2).home,
                              bed.PlacementOf(m3).home};
  EXPECT_EQ(placements.size(), 3u) << "3 empty switches must get 1 each";
  // Each switch advertises its own SFU IP.
  EXPECT_NE(bed.fleet().SfuIpOf(0), bed.fleet().SfuIpOf(1));
  EXPECT_NE(bed.fleet().SfuIpOf(1), bed.fleet().SfuIpOf(2));
}

TEST(FleetTestbed, PlacementIsStableAcrossJoinsAndTime) {
  testbed::FleetTestbed bed(FastStartConfig(), 3);
  auto m1 = bed.CreateMeeting();
  size_t placed = bed.PlacementOf(m1).home;
  for (int i = 0; i < 3; ++i) {
    bed.AddPeer().Join(bed.signaling(), m1);
    EXPECT_EQ(bed.PlacementOf(m1).home, placed);
  }
  bed.RunFor(5.0);
  EXPECT_EQ(bed.PlacementOf(m1).home, placed);
  EXPECT_EQ(bed.fleet().LoadOf(placed), 3);
  // Media flowed through the hosting switch only.
  EXPECT_GT(bed.sw(placed).stats().packets_in, 1'000u);
  for (size_t i = 0; i < bed.switch_count(); ++i) {
    if (i != placed) EXPECT_EQ(bed.sw(i).stats().packets_in, 0u);
  }
}

TEST(FleetTestbed, EndMeetingFreesCapacityForPlacement) {
  testbed::FleetTestbed bed(FastStartConfig(), 3);
  auto m1 = bed.CreateMeeting();
  size_t placed = bed.PlacementOf(m1).home;
  client::Peer& a = bed.AddPeer();
  client::Peer& b = bed.AddPeer();
  a.Join(bed.signaling(), m1);
  b.Join(bed.signaling(), m1);
  bed.fleet().EndMeeting(m1);
  EXPECT_EQ(bed.fleet().LoadOf(placed), 0);
  EXPECT_EQ(bed.PlacementOf(m1).home, SIZE_MAX);
}

// ---- cascaded placements (paper Appendix A) -----------------------------

testbed::TestbedConfig CascadeConfig(int max_per_switch) {
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.placement = PlacementPolicyConfig::Cascade(max_per_switch);
  return cfg;
}

TEST(Cascade, PolicySplitsLargeMeetingsAcrossSwitches) {
  testbed::FleetTestbed bed(CascadeConfig(2), 3);
  auto m1 = bed.CreateMeeting();
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  MeetingPlacement placement = bed.PlacementOf(m1);
  ASSERT_TRUE(placement.valid());
  ASSERT_EQ(placement.spans.size(), 1u);
  EXPECT_EQ(placement.home_participants.size(), 2u);
  EXPECT_EQ(placement.spans[0].participants.size(), 2u);
  EXPECT_NE(placement.spans[0].switch_index, placement.home);
  // Load accounting follows the homing, not the meeting.
  EXPECT_EQ(bed.fleet().LoadOf(placement.home), 2);
  EXPECT_EQ(bed.fleet().LoadOf(placement.spans[0].switch_index), 2);
  // Each remote sender's media crosses the inter-switch relay exactly
  // once per span: one relay per (origin, downstream switch) pair — two
  // home senders relayed down, two span senders relayed up, no dupes.
  auto relays = bed.fleet().RelaysOf(m1);
  ASSERT_EQ(relays.size(), 4u);
  std::set<std::pair<ParticipantId, size_t>> unique;
  for (const auto& r : relays) unique.insert({r.origin, r.downstream});
  EXPECT_EQ(unique.size(), relays.size());
  EXPECT_EQ(bed.fleet().stats().relay_spans_installed, 1u);
}

TEST(Cascade, LeastLoadedDefaultNeverSpans) {
  testbed::FleetTestbed bed(FastStartConfig(), 3);
  auto m1 = bed.CreateMeeting();
  for (int i = 0; i < 5; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  MeetingPlacement placement = bed.PlacementOf(m1);
  EXPECT_TRUE(placement.spans.empty());
  EXPECT_EQ(placement.home_participants.size(), 5u);
  EXPECT_TRUE(bed.fleet().RelaysOf(m1).empty());
  EXPECT_EQ(bed.cascade_counters().spans_installed, 0u);
}

TEST(Cascade, CascadedMeetingDeliversAcrossTheRelay) {
  testbed::FleetTestbed bed(CascadeConfig(2), 2);
  auto m1 = bed.CreateMeeting();
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  bed.RunFor(8.0);
  // Every peer sees 3 remote senders — switch-local peers under their
  // real ids, cross-switch peers under relay-sender ids — and decodes
  // all of them with gap-free sequence rewriting across the relay hop.
  for (auto& peer : bed.peers()) {
    auto senders = peer->remote_senders();
    ASSERT_EQ(senders.size(), 3u);
    for (auto s : senders) {
      const auto* rx = peer->video_receiver(s);
      ASSERT_NE(rx, nullptr);
      EXPECT_GT(rx->stats().frames_decoded, 100u);
      EXPECT_EQ(rx->stats().decoder_breaks, 0u);
      EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
      ASSERT_NE(peer->audio_receiver(s), nullptr);
      EXPECT_GT(peer->audio_receiver(s)->packets_received(), 100u);
    }
  }
  // Media actually crossed the inter-switch relay, and both switches
  // carried traffic.
  testbed::CascadeCounters cc = bed.cascade_counters();
  EXPECT_EQ(cc.spans_installed, 1u);
  EXPECT_GT(cc.relay_packets, 1'000u);
  EXPECT_GT(cc.relay_bytes, cc.relay_packets);  // > 1 byte per packet
  EXPECT_GT(bed.sw(0).stats().packets_in, 1'000u);
  EXPECT_GT(bed.sw(1).stats().packets_in, 1'000u);
}

TEST(Cascade, EndMeetingNotifiesSpanMembersOfRelayedSenders) {
  // Ending a cascaded meeting with everyone still joined: span members'
  // clients must learn that the relayed (cross-switch) senders are gone
  // too — their switch-local controller never knew those senders, so the
  // fleet delivers the notification. Without it they keep stale receive
  // legs toward SFU ports that no longer exist.
  testbed::FleetTestbed bed(CascadeConfig(2), 2);
  auto m1 = bed.CreateMeeting();
  std::vector<client::Peer*> peers;
  for (int i = 0; i < 4; ++i) {
    peers.push_back(&bed.AddPeer());
    peers.back()->Join(bed.signaling(), m1);
  }
  bed.RunFor(1.0);
  ASSERT_EQ(bed.PlacementOf(m1).spans.size(), 1u);
  for (auto* p : peers) ASSERT_EQ(p->remote_senders().size(), 3u);

  bed.fleet().EndMeeting(m1);
  for (auto* p : peers) {
    EXPECT_TRUE(p->remote_senders().empty())
        << "peer " << p->id() << " kept stale legs after EndMeeting";
  }
  EXPECT_EQ(bed.PlacementOf(m1).home, SIZE_MAX);
  EXPECT_EQ(bed.fleet().LoadOf(0), 0);
  EXPECT_EQ(bed.fleet().LoadOf(1), 0);
}

TEST(Cascade, SpanDrainsWhenItsMembersLeave) {
  testbed::FleetTestbed bed(CascadeConfig(2), 2);
  auto m1 = bed.CreateMeeting();
  std::vector<client::Peer*> peers;
  for (int i = 0; i < 4; ++i) {
    peers.push_back(&bed.AddPeer());
    peers.back()->Join(bed.signaling(), m1);
  }
  bed.RunFor(2.0);
  ASSERT_EQ(bed.PlacementOf(m1).spans.size(), 1u);
  // The span's two members leave: the relay wiring and the span itself
  // drain, and the home pair's legs toward the relayed senders are gone.
  peers[2]->Leave();
  peers[3]->Leave();
  MeetingPlacement placement = bed.PlacementOf(m1);
  EXPECT_TRUE(placement.spans.empty());
  EXPECT_TRUE(bed.fleet().RelaysOf(m1).empty());
  EXPECT_EQ(bed.fleet().stats().relay_spans_removed, 1u);
  EXPECT_EQ(bed.fleet().LoadOf(placement.home), 2);
  bed.RunFor(2.0);
  EXPECT_EQ(peers[0]->remote_senders().size(), 1u);
  EXPECT_GT(peers[0]->video_receiver(peers[1]->id())->stats().frames_decoded,
            100u);
}

// ---- topology-aware relay trees (ISSUE 5) -------------------------------

// A linear backbone A—B—C—D: adjacent switches 2 ms apart with a 12 Mb/s
// relay budget per link; one participant per switch.
testbed::TestbedConfig LinearBackboneConfig(double capacity_bps = 12e6) {
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.placement = PlacementPolicyConfig::TopologyAware(1);
  cfg.inter_switch_links = {
      {0, 1, 0.002, capacity_bps},
      {1, 2, 0.002, capacity_bps},
      {2, 3, 0.002, capacity_bps},
  };
  return cfg;
}

TEST(TopologyTree, LinearBackboneGrowsADepth3Chain) {
  testbed::FleetTestbed bed(LinearBackboneConfig(), 4);
  auto m1 = bed.CreateMeeting();
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m1);

  MeetingPlacement placement = bed.PlacementOf(m1);
  ASSERT_TRUE(placement.valid());
  ASSERT_EQ(placement.spans.size(), 3u);
  EXPECT_EQ(placement.TreeDepth(), 3u) << "chain, not hub-and-spoke";
  // Each span hangs off the previous switch in the chain.
  EXPECT_EQ(placement.ParentOf(1), placement.home);
  EXPECT_EQ(placement.ParentOf(2), 1u);
  EXPECT_EQ(placement.ParentOf(3), 2u);

  // Exactly one relay copy per (origin, tree edge): 4 origins x 3 edges,
  // every hop an adjacent pair of the chain, no duplicates.
  auto relays = bed.fleet().RelaysOf(m1);
  ASSERT_EQ(relays.size(), 12u);
  std::set<std::tuple<ParticipantId, size_t, size_t>> unique;
  for (const auto& r : relays) {
    EXPECT_EQ(r.upstream > r.downstream ? r.upstream - r.downstream
                                        : r.downstream - r.upstream,
              1u)
        << "relay " << r.upstream << "->" << r.downstream
        << " skips a backbone hop";
    unique.insert({r.origin, r.upstream, r.downstream});
  }
  EXPECT_EQ(unique.size(), relays.size());

  // The control-plane load view: 4 origins cross every link once.
  const InterSwitchTopology& topo = bed.fleet().topology();
  const double per_stream = bed.fleet().relay_stream_bps();
  for (size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_DOUBLE_EQ(topo.LoadOf(i, i + 1), 4 * per_stream);
    EXPECT_LE(topo.LoadOf(i, i + 1), 12e6) << "planner overshot capacity";
  }

  // Delivery works across the 3-hop chain: every peer decodes all three
  // remote streams with gap-free rewriting.
  bed.RunFor(8.0);
  for (auto& peer : bed.peers()) {
    auto senders = peer->remote_senders();
    ASSERT_EQ(senders.size(), 3u);
    for (auto s : senders) {
      const auto* rx = peer->video_receiver(s);
      ASSERT_NE(rx, nullptr);
      EXPECT_GT(rx->stats().frames_decoded, 100u);
      EXPECT_EQ(rx->stats().decoder_breaks, 0u);
      EXPECT_EQ(rx->stats().conflicting_duplicates, 0u);
    }
  }
  // The modeled backbone carried the relay traffic.
  testbed::TopologySnapshot snap = bed.topology_snapshot();
  ASSERT_TRUE(snap.configured);
  ASSERT_EQ(snap.links.size(), 3u);
  for (const auto& l : snap.links) {
    EXPECT_GT(l.relay_packets, 500u)
        << "link " << l.a << "-" << l.b << " saw no relay media";
  }
  EXPECT_EQ(snap.max_depth, 3u);
}

TEST(TopologyTree, SpanSwitchDeathCollapsesOnlyItsSubtree) {
  testbed::FleetTestbed bed(LinearBackboneConfig(), 4);
  auto m1 = bed.CreateMeeting();
  std::vector<client::Peer*> peers;
  for (int i = 0; i < 4; ++i) {
    peers.push_back(&bed.AddPeer());
    peers.back()->Join(bed.signaling(), m1);
  }
  bed.RunFor(1.0);
  ASSERT_EQ(bed.PlacementOf(m1).TreeDepth(), 3u);

  // Kill the interior span C (switch 2): its subtree (C and D) collapses;
  // the home switch and span B survive untouched.
  bed.fleet().OnSwitchDown(2);
  MeetingPlacement placement = bed.PlacementOf(m1);
  ASSERT_EQ(placement.spans.size(), 1u);
  EXPECT_EQ(placement.spans[0].switch_index, 1u);
  EXPECT_EQ(placement.home_participants.size(), 1u);
  EXPECT_EQ(placement.spans[0].participants.size(), 1u);
  EXPECT_EQ(bed.fleet().LoadOf(2), 0);
  EXPECT_EQ(bed.fleet().LoadOf(3), 0);
  EXPECT_EQ(bed.fleet().stats().relay_spans_removed, 2u);
  // Only the surviving pair's relays remain: one per direction of A—B.
  auto relays = bed.fleet().RelaysOf(m1);
  ASSERT_EQ(relays.size(), 2u);
  for (const auto& r : relays) {
    EXPECT_TRUE((r.upstream == 0 && r.downstream == 1) ||
                (r.upstream == 1 && r.downstream == 0));
  }
  // The survivors keep talking across the intact A—B relay.
  bed.RunFor(3.0);
  auto senders = peers[1]->remote_senders();
  ASSERT_EQ(senders.size(), 1u) << "span member sees only the home peer now";
  EXPECT_GT(peers[1]->video_receiver(senders[0])->stats().frames_decoded,
            60u);
}

TEST(TopologyTree, CapacityCutForcesAReparentingReplan) {
  // Triangle: A—B (1 ms), B—C (1 ms), A—C (5 ms), all 20 Mb/s. The
  // cheapest tree chains C behind B; cutting B—C's capacity must re-plan
  // C's span onto the (slower but empty) direct A—C link.
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.placement = PlacementPolicyConfig::TopologyAware(1);
  cfg.inter_switch_links = {
      {0, 1, 0.001, 20e6},
      {1, 2, 0.001, 20e6},
      {0, 2, 0.005, 20e6},
  };
  testbed::FleetTestbed bed(cfg, 3);
  auto m1 = bed.CreateMeeting();
  std::vector<client::Peer*> peers;
  for (int i = 0; i < 3; ++i) {
    peers.push_back(&bed.AddPeer());
    peers.back()->Join(bed.signaling(), m1);
  }
  bed.RunFor(1.0);
  MeetingPlacement before = bed.PlacementOf(m1);
  ASSERT_EQ(before.spans.size(), 2u);
  EXPECT_EQ(before.ParentOf(1), before.home);
  EXPECT_EQ(before.ParentOf(2), 1u) << "C chains behind B pre-cut";
  EXPECT_EQ(before.TreeDepth(), 2u);

  // The capacity event overloads B—C (it carries 3 relay streams), which
  // collapses C's span; its member re-signals and the planner re-parents
  // C onto the direct A—C link, which still has room.
  bed.SetInterSwitchLinkCapacity(1, 2, 1e6);
  EXPECT_GT(bed.fleet().stats().relay_replans, 0u);
  MeetingPlacement mid = bed.PlacementOf(m1);
  EXPECT_EQ(mid.spans.size(), 1u) << "C's span collapsed";

  peers[2]->Leave();  // stale session died with the span; absorbed
  // Renegotiation gap before the re-join (the harness inserts the same
  // delay): in-flight pre-collapse media must drain before fresh legs
  // reuse the clients' leg ports.
  bed.RunFor(0.15);
  peers[2]->Join(bed.signaling(), m1);
  MeetingPlacement after = bed.PlacementOf(m1);
  ASSERT_EQ(after.spans.size(), 2u);
  EXPECT_EQ(after.ParentOf(2), after.home)
      << "re-plan must route C around the cut link";
  EXPECT_EQ(after.TreeDepth(), 1u);
  // And the overloaded link carries no registered relay load any more.
  EXPECT_DOUBLE_EQ(bed.fleet().topology().LoadOf(1, 2), 0.0);

  bed.RunFor(4.0);
  for (auto* peer : peers) {
    for (auto s : peer->remote_senders()) {
      ASSERT_NE(peer->video_receiver(s), nullptr);
      EXPECT_EQ(peer->video_receiver(s)->stats().decoder_breaks, 0u);
    }
  }
}

TEST(TopologyTree, AdmissionRefusesASpanItsAttachmentLinkCannotCarry) {
  // A—B and B—C links carry 12 Mb/s, but C—D only 5 Mb/s. A span on D
  // would put every member's stream — 4 x ~2.3 Mb/s — on that last hop;
  // the planner must refuse it and absorb the 4th member on the home
  // switch instead (the joiner's fan-out across the *existing* edges
  // happens wherever it homes, so the refused edge is the only one a
  // span decision can protect — and it stays clean).
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.placement = PlacementPolicyConfig::TopologyAware(1);
  cfg.inter_switch_links = {
      {0, 1, 0.002, 12e6},
      {1, 2, 0.002, 12e6},
      {2, 3, 0.002, 5e6},
  };
  testbed::FleetTestbed bed(cfg, 4);
  auto m1 = bed.CreateMeeting();
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m1);

  MeetingPlacement placement = bed.PlacementOf(m1);
  ASSERT_EQ(placement.spans.size(), 2u) << "no span on D";
  EXPECT_EQ(placement.SpanOn(3), nullptr);
  EXPECT_EQ(placement.home_participants.size(), 2u)
      << "the un-spannable member overflows onto the home switch";
  const InterSwitchTopology& topo = bed.fleet().topology();
  EXPECT_TRUE(topo.OverloadedLinks().empty());
  EXPECT_DOUBLE_EQ(topo.LoadOf(2, 3), 0.0) << "refused edge stays unloaded";
  EXPECT_LE(topo.LoadOf(0, 1), 12e6);
  EXPECT_LE(topo.LoadOf(1, 2), 12e6);
}

TEST(TopologyTree, InteriorSpanSurvivesDrainWhileItHasChildren) {
  testbed::FleetTestbed bed(LinearBackboneConfig(), 4);
  auto m1 = bed.CreateMeeting();
  std::vector<client::Peer*> peers;
  for (int i = 0; i < 4; ++i) {
    peers.push_back(&bed.AddPeer());
    peers.back()->Join(bed.signaling(), m1);
  }
  bed.RunFor(1.0);
  // C's only member leaves. C is an interior relay hop for D, so the span
  // must stay (memberless) rather than strand D's subtree.
  peers[2]->Leave();
  MeetingPlacement placement = bed.PlacementOf(m1);
  ASSERT_EQ(placement.spans.size(), 3u);
  const RelaySpan* span_c = placement.SpanOn(2);
  ASSERT_NE(span_c, nullptr);
  EXPECT_TRUE(span_c->participants.empty());
  bed.RunFor(2.0);
  // D still receives everyone through the memberless hop.
  auto senders = peers[3]->remote_senders();
  ASSERT_EQ(senders.size(), 2u);
  for (auto s : senders) {
    EXPECT_GT(peers[3]->video_receiver(s)->stats().frames_decoded, 40u);
  }
  // When D's member leaves too, the leaf drains and the drain cascades
  // up through the now-childless memberless C.
  peers[3]->Leave();
  placement = bed.PlacementOf(m1);
  EXPECT_EQ(placement.spans.size(), 1u) << "C and D both drained";
  EXPECT_EQ(placement.SpanOn(1)->participants.size(), 1u);
}

}  // namespace
}  // namespace scallop::core

namespace scallop::harness {
namespace {

// Acceptance scenario: on the fleet backend, WithFailover kills the
// hosting switch and the meeting must land on a *different live* switch —
// peers re-signal to the standby's SFU IP, placements_rebalanced counts
// the move, and nobody starves after the blackout.
TEST(FleetScenario, FailoverMigratesMeetingToStandby) {
  ScenarioSpec spec = ScenarioSpec::Uniform("fleet-failover", 1, 3, 18.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.max_bitrate_bps = 1'500'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.backend = testbed::BackendChoice::Fleet(2);
  spec.WithFailover(8.0);

  ScenarioRunner runner(spec);
  core::MeetingId meeting = runner.meeting_id(0);

  runner.RunUntil(7.9);
  size_t before = runner.fleet().PlacementOf(meeting).home;
  ASSERT_NE(before, SIZE_MAX);

  const ScenarioMetrics& m = runner.Run();
  size_t after = runner.fleet().PlacementOf(meeting).home;
  ASSERT_NE(after, SIZE_MAX);
  EXPECT_NE(after, before) << "meeting must move off the failed switch";
  EXPECT_TRUE(runner.fleet().fleet().IsAlive(before)) << "victim restarted";
  EXPECT_GT(m.placements_rebalanced, 0u);

  // Post-failover delivery recovered: ~10 s of fresh legs on the standby,
  // nobody starves, rewriting stays gap-free.
  EXPECT_GE(m.WorstDeliveryFloor(), 220u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
  EXPECT_EQ(m.blackholed, 0u);

  // The standby actually carried the post-failover media.
  EXPECT_GT(runner.fleet().sw(after).stats().packets_in, 1'000u);

  // Metrics expose the fleet view: per-switch rows and the placement map.
  ASSERT_EQ(m.switches.size(), 2u);
  EXPECT_EQ(m.meetings[0].placement, static_cast<int>(after));
  EXPECT_NE(m.ToCsv().find("fleet,backend,fleet{2}"), std::string::npos);
}

// Acceptance scenario (ISSUE 4): a fleet{3} with the cascade policy splits
// one 4-party meeting across 2 switches — every peer delivers with no
// rewrite violations, and each remote sender's media crosses the
// inter-switch relay exactly once per span.
TEST(CascadeScenario, Fleet3CascadedMeetingDeliversEverywhere) {
  ScenarioSpec spec = ScenarioSpec::Uniform("cascade-split", 1, 4, 12.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();

  // The plan: home + one relay span, 2 participants each, third switch
  // untouched.
  core::MeetingPlacement placement =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  ASSERT_TRUE(placement.valid());
  ASSERT_EQ(placement.spans.size(), 1u);
  EXPECT_EQ(placement.home_participants.size(), 2u);
  EXPECT_EQ(placement.spans[0].participants.size(), 2u);
  EXPECT_EQ(m.meetings[0].spans, 1);

  // Everyone delivers, and rewriting stays gap-free across the relay hop.
  EXPECT_GE(m.WorstDeliveryFloor(), 250u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
  EXPECT_EQ(m.blackholed, 0u);

  // Each remote sender's media crosses the inter-switch relay exactly
  // once per span: one relay per (origin, downstream switch) pair.
  auto relays = runner.fleet().fleet().RelaysOf(runner.meeting_id(0));
  ASSERT_EQ(relays.size(), 4u);
  std::set<std::pair<core::ParticipantId, size_t>> unique;
  for (const auto& r : relays) unique.insert({r.origin, r.downstream});
  EXPECT_EQ(unique.size(), relays.size());

  // The cascade section reports the crossing traffic, and only the two
  // spanned switches carried media.
  EXPECT_EQ(m.cascade.spans_installed, 1u);
  EXPECT_GT(m.cascade.relay_packets, 1'000u);
  EXPECT_NE(m.ToCsv().find("cascade,spans_installed"), std::string::npos);
  ASSERT_EQ(m.switches.size(), 3u);
  int idle_switches = 0;
  for (const auto& s : m.switches) {
    if (s.participants == 0) {
      ++idle_switches;
      EXPECT_EQ(s.packets_in, 0u);
    } else {
      EXPECT_EQ(s.participants, 2);
      EXPECT_GT(s.packets_in, 1'000u);
    }
  }
  EXPECT_EQ(idle_switches, 1);
}

// Churn on a cascaded meeting: a span member and a home member each
// leave and rejoin mid-run. Legs toward relayed senders (known under
// relay-sender aliases on the far switch) are torn down and renegotiated,
// the timeline stays monotone (alias banking), and nobody starves.
TEST(CascadeScenario, ChurnOnSpanAndHomeMembersRecovers) {
  ScenarioSpec spec = ScenarioSpec::Uniform("cascade-churn", 1, 4, 14.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
  spec.WithLeave(0, 3, 5.0, 8.0);  // span member churns
  spec.WithLeave(0, 1, 6.0, 9.0);  // home member churns
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();

  EXPECT_GE(m.WorstDeliveryFloor(), 100u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
  for (size_t i = 1; i < m.timeline.size(); ++i) {
    EXPECT_GE(m.timeline[i].frames_decoded_total,
              m.timeline[i - 1].frames_decoded_total)
        << "cumulative frames dipped at sample " << i
        << " — cross-switch legs not banked on churn";
  }
  // The rejoiners landed back on the plan: 2 + 2 across home and span.
  core::MeetingPlacement placement =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  ASSERT_EQ(placement.spans.size(), 1u);
  EXPECT_EQ(placement.home_participants.size(), 2u);
  EXPECT_EQ(placement.spans[0].participants.size(), 2u);
}

// Failover on a cascaded meeting: the home (hub) switch dies, the fleet
// collapses the plan onto a standby, and the policy re-spans the meeting
// as its members re-join — delivery recovers everywhere.
TEST(CascadeScenario, FailoverReplansSpans) {
  ScenarioSpec spec = ScenarioSpec::Uniform("cascade-failover", 1, 4, 18.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.max_bitrate_bps = 1'500'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
  spec.WithFailover(8.0);

  ScenarioRunner runner(spec);
  runner.RunUntil(7.9);
  size_t home_before = runner.fleet().PlacementOf(runner.meeting_id(0)).home;
  ASSERT_NE(home_before, SIZE_MAX);

  const ScenarioMetrics& m = runner.Run();
  core::MeetingPlacement after =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  ASSERT_TRUE(after.valid());
  EXPECT_NE(after.home, home_before) << "hub must move off the dead switch";
  // Re-joined 4-strong under max 2 per switch: the plan spans again.
  ASSERT_EQ(after.spans.size(), 1u);
  EXPECT_EQ(runner.fleet().fleet().RelaysOf(runner.meeting_id(0)).size(), 4u);
  // The old spans were torn down and fresh ones installed.
  EXPECT_GE(m.cascade.spans_installed, 2u);
  EXPECT_GE(m.cascade.spans_removed, 1u);

  EXPECT_GE(m.WorstDeliveryFloor(), 200u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
}

// Acceptance (ISSUE 5): a fleet{4} meeting over a linear backbone
// A—B—C—D is planned as a depth-3 relay tree with exactly one relay copy
// per (origin, tree edge); every peer reaches its delivery floor with no
// rewrite violations; and the tree's total inter-switch relay bytes are
// strictly lower than the hub-and-spoke plan for the same scenario.
TEST(TopologyScenario, LinearBackboneTreeBeatsHubAndSpoke) {
  auto backbone_spec = [](const char* name,
                          core::PlacementPolicyConfig policy) {
    ScenarioSpec spec = ScenarioSpec::Uniform(name, 1, 4, 10.0);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
    spec.WithBackend(testbed::BackendChoice::Fleet(4));
    spec.WithPlacementPolicy(policy);
    // Unconstrained capacity: the comparison isolates path efficiency,
    // not queueing (2 ms per adjacent hop either way).
    spec.WithInterSwitchLink(0, 1, 0.002)
        .WithInterSwitchLink(1, 2, 0.002)
        .WithInterSwitchLink(2, 3, 0.002);
    return spec;
  };

  auto backbone_bytes = [](const ScenarioMetrics& m) {
    uint64_t total = 0;
    for (const auto& l : m.topology.links) total += l.relay_bytes;
    return total;
  };

  ScenarioSpec tree_spec = backbone_spec(
      "backbone-tree", core::PlacementPolicyConfig::TopologyAware(1));
  ScenarioRunner tree_runner(tree_spec);
  const ScenarioMetrics& tree = tree_runner.Run();

  core::MeetingPlacement placement =
      tree_runner.fleet().PlacementOf(tree_runner.meeting_id(0));
  ASSERT_TRUE(placement.valid());
  EXPECT_EQ(placement.TreeDepth(), 3u);
  auto relays =
      tree_runner.fleet().fleet().RelaysOf(tree_runner.meeting_id(0));
  ASSERT_EQ(relays.size(), 12u);
  std::set<std::tuple<core::ParticipantId, size_t, size_t>> unique;
  for (const auto& r : relays) unique.insert({r.origin, r.upstream,
                                              r.downstream});
  EXPECT_EQ(unique.size(), relays.size())
      << "duplicate relay copy on a tree edge";
  EXPECT_GE(tree.WorstDeliveryFloor(), 150u) << tree.Summary() << tree.ToCsv();
  EXPECT_EQ(tree.RewriteViolations(), 0u);
  ASSERT_TRUE(tree.topology.configured);
  EXPECT_EQ(tree.topology.max_depth, 3u);
  EXPECT_NE(tree.ToCsv().find("topology,links,3"), std::string::npos);
  EXPECT_NE(tree.ToCsv().find("treedepth,3,1"), std::string::npos);

  ScenarioSpec hub_spec = backbone_spec(
      "backbone-hub", core::PlacementPolicyConfig::Cascade(1));
  ScenarioRunner hub_runner(hub_spec);
  const ScenarioMetrics& hub = hub_runner.Run();
  EXPECT_EQ(
      hub_runner.fleet().PlacementOf(hub_runner.meeting_id(0)).TreeDepth(),
      1u)
      << "the contrast plan must be hub-and-spoke";
  EXPECT_GE(hub.WorstDeliveryFloor(), 150u) << hub.Summary();
  EXPECT_EQ(hub.RewriteViolations(), 0u);

  const uint64_t tree_bytes = backbone_bytes(tree);
  const uint64_t hub_bytes = backbone_bytes(hub);
  ASSERT_GT(tree_bytes, 0u);
  EXPECT_LT(tree_bytes, hub_bytes)
      << "the relay tree must spend strictly less backbone bandwidth than "
         "star-homing every span on the hub (tree="
      << tree_bytes << " hub=" << hub_bytes << ")";
}

TEST(TopologyScenario, MidRunCapacityEventReplansThroughTheHarness) {
  // Triangle backbone; the 4 s capacity event overloads B—C, the fleet
  // collapses C's span and the runner re-signals its member, after which
  // the plan routes C over the direct A—C link. Delivery recovers.
  ScenarioSpec spec = ScenarioSpec::Uniform("backbone-event", 1, 3, 12.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
  spec.WithInterSwitchLink(0, 1, 0.001, 20e6)
      .WithInterSwitchLink(1, 2, 0.001, 20e6)
      .WithInterSwitchLink(0, 2, 0.005, 20e6)
      .WithInterSwitchLinkEvent(4.0, 1, 2, 1e6);
  ScenarioRunner runner(spec);

  runner.RunUntil(3.9);
  core::MeetingPlacement before =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  EXPECT_EQ(before.ParentOf(2), 1u) << "pre-event: C chains behind B";

  const ScenarioMetrics& m = runner.Run();
  core::MeetingPlacement after =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  ASSERT_EQ(after.spans.size(), 2u);
  EXPECT_EQ(after.ParentOf(2), after.home)
      << "post-event: C re-parented around the cut link";
  EXPECT_GT(m.topology.relay_replans, 0u);
  EXPECT_GE(m.WorstDeliveryFloor(), 100u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
}

}  // namespace
}  // namespace scallop::harness
