// Southbound control-channel tests: command dispatch semantics (inline at
// zero latency, delayed-but-ordered at nonzero latency, dropped under
// loss), northbound telemetry (heartbeats, load reports), the fleet's
// heartbeat-miss failure detector, and the load-driven background
// rebalancer with its hysteresis — plus the harness-level acceptance
// scenario: live rebalancing under skewed join load with no failover.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "core/control_channel.hpp"
#include "core/controller.hpp"
#include "harness/runner.hpp"
#include "testbed/fleet_testbed.hpp"

namespace scallop::core {
namespace {

// One switch stack (switch + data plane + agent) and a channel to it.
struct ChannelBed {
  explicit ChannelBed(const ControlChannelConfig& ctrl = {})
      : net(sched, 1),
        sw(sched, net, {.address = net::Ipv4(100, 64, 0, 1)}),
        dp(sw, {}),
        agent(sched, dp, Cfg()),
        channel(sched, agent, ctrl) {
    net.Attach(sw.address(), &sw, {}, {});
  }

  static AgentConfig Cfg() {
    AgentConfig cfg;
    cfg.sfu_ip = net::Ipv4(100, 64, 0, 1);
    return cfg;
  }

  static net::Endpoint Client(uint8_t host, uint16_t port) {
    return net::Endpoint{net::Ipv4(10, 0, 0, host), port};
  }

  sim::Scheduler sched;
  sim::Network net;
  switchsim::Switch sw;
  DataPlaneProgram dp;
  SwitchAgent agent;
  ControlChannel channel;
};

TEST(ControlChannel, ZeroLatencyAppliesInline) {
  ChannelBed bed;
  bed.channel.CreateMeeting(1);
  uint16_t up = bed.channel.AddParticipant(1, 1, ChannelBed::Client(1, 40'000),
                                           17, 18, true, true);
  EXPECT_EQ(bed.agent.meeting_count(), 1u);
  EXPECT_EQ(bed.agent.participant_count(), 1u);
  // The controller-assigned port matches the agent's allocation scheme.
  EXPECT_EQ(up, bed.agent.config().first_sfu_port);
  EXPECT_EQ(bed.channel.stats().commands_sent, 2u);
  EXPECT_EQ(bed.channel.stats().commands_applied, 2u);
  EXPECT_EQ(bed.channel.stats().commands_dropped, 0u);
}

TEST(ControlChannel, LatencyDelaysButNeverReordersCommands) {
  ChannelBed bed({.latency = util::Millis(50)});
  bed.channel.CreateMeeting(1);
  uint16_t up1 = bed.channel.AddParticipant(
      1, 1, ChannelBed::Client(1, 40'000), 17, 18, true, true);
  uint16_t up2 = bed.channel.AddParticipant(
      1, 2, ChannelBed::Client(2, 40'000), 33, 34, true, true);
  uint16_t leg = bed.channel.AddRecvLeg(1, 2, 1, ChannelBed::Client(2, 41'001));

  // Ports are assigned on the controller side at send time...
  EXPECT_EQ(up1, bed.agent.config().first_sfu_port);
  EXPECT_EQ(up2, up1 + 1);
  EXPECT_EQ(leg, up1 + 2);
  // ...but nothing has reached the switch yet.
  EXPECT_EQ(bed.agent.meeting_count(), 0u);
  EXPECT_EQ(bed.channel.stats().commands_sent, 4u);
  EXPECT_EQ(bed.channel.stats().commands_applied, 0u);

  // After one latency, every command applied — in issue order, so the
  // dependent ones (AddRecvLeg needs both participants) succeeded and the
  // installed ports are exactly the pre-assigned ones.
  bed.sched.RunUntil(util::Seconds(0.06));
  EXPECT_EQ(bed.agent.meeting_count(), 1u);
  EXPECT_EQ(bed.agent.participant_count(), 2u);
  EXPECT_EQ(bed.channel.stats().commands_applied, 4u);
  EXPECT_NE(bed.dp.MutableFeedback(up1), nullptr);
  EXPECT_NE(bed.dp.MutableFeedback(up2), nullptr);
  FeedbackEntry* fb = bed.dp.MutableFeedback(leg);
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(fb->receiver, 2u);
  EXPECT_EQ(fb->sender, 1u);
}

TEST(ControlChannel, InterleavedCommandBatchesStayOrdered) {
  // Two bursts separated in time: the second burst must not overtake the
  // tail of the first (same per-message latency + FIFO scheduler).
  ChannelBed bed({.latency = util::Millis(20)});
  bed.channel.CreateMeeting(1);
  bed.channel.AddParticipant(1, 1, ChannelBed::Client(1, 40'000), 17, 18,
                             true, true);
  bed.sched.RunUntil(util::Seconds(0.01));  // first burst still in flight
  bed.channel.AddParticipant(1, 2, ChannelBed::Client(2, 40'000), 33, 34,
                             true, true);
  bed.channel.RemoveParticipant(1, 1);

  bed.sched.RunUntil(util::Seconds(0.021));
  // First burst landed, second still in flight.
  EXPECT_EQ(bed.agent.participant_count(), 1u);
  bed.sched.RunUntil(util::Seconds(0.031));
  // Second burst landed in order: add 2, then remove 1.
  EXPECT_EQ(bed.agent.participant_count(), 1u);
  EXPECT_EQ(bed.agent.meeting_count(), 1u);
  EXPECT_EQ(bed.channel.stats().commands_applied, 4u);
}

TEST(ControlChannel, LossDropsCommands) {
  ChannelBed bed({.loss_rate = 1.0, .seed = 7});
  bed.channel.CreateMeeting(1);
  bed.channel.AddParticipant(1, 1, ChannelBed::Client(1, 40'000), 17, 18,
                             true, true);
  bed.sched.RunUntil(util::Seconds(1));
  EXPECT_EQ(bed.agent.meeting_count(), 0u);
  // CreateMeeting is a reliable (acked) command: the unacked original is
  // retransmitted exactly once, and on a fully lossy channel both copies
  // drop. AddParticipant stays fire-and-forget (re-signaling covers it).
  EXPECT_EQ(bed.channel.stats().commands_sent, 3u);
  EXPECT_EQ(bed.channel.stats().commands_dropped, 3u);
  EXPECT_EQ(bed.channel.stats().commands_retransmitted, 1u);
  EXPECT_EQ(bed.channel.stats().commands_applied, 0u);
}

TEST(ControlChannel, RetransmissionRescuesDroppedReliableCommands) {
  // loss = 0.2: some reliable commands lose their first copy; the single
  // bounded retransmission (20 ms ack timeout) must land them anyway.
  // With this seed at least one CreateMeeting needs its retransmission,
  // and every meeting nevertheless materializes on the agent. (The
  // retransmission is bounded: a doubly lost command stays lost, so this
  // pins "rescued", not "guaranteed".)
  ChannelBed bed({.loss_rate = 0.2, .seed = 3});
  for (MeetingId m = 1; m <= 12; ++m) bed.channel.CreateMeeting(m);
  bed.sched.RunUntil(util::Seconds(1));
  EXPECT_EQ(bed.agent.meeting_count(), 12u);
  EXPECT_GT(bed.channel.stats().commands_retransmitted, 0u);
  EXPECT_GT(bed.channel.stats().commands_dropped, 0u);
}

TEST(ControlChannel, RemovalCancelsAPendingRetransmission) {
  // seed 7 at loss 0.5: CreateMeeting's first copy is delivered but its
  // ack is lost, scheduling a retransmission at the 20 ms RTO. The
  // controller removes the meeting before the RTO fires; the
  // retransmission must be cancelled — a late duplicate create would
  // resurrect a ghost meeting the controller no longer knows about.
  ChannelBed bed({.loss_rate = 0.5, .seed = 7});
  bed.channel.CreateMeeting(1);
  EXPECT_EQ(bed.agent.meeting_count(), 1u);
  bed.channel.RemoveMeeting(1);
  bed.sched.RunUntil(util::Seconds(1));
  EXPECT_EQ(bed.agent.meeting_count(), 0u)
      << "retransmitted create resurrected a removed meeting";
  EXPECT_EQ(bed.channel.stats().commands_retransmitted, 0u);
}

TEST(ControlChannel, ReliableVocabularyIsIdempotentUnderDuplicates) {
  // A delivered command whose ack was lost is retransmitted, so the agent
  // can legitimately see the same install twice. Duplicates must not wipe
  // or double-count state.
  ChannelBed bed;
  bed.channel.CreateMeeting(1);
  bed.channel.AddParticipant(1, 1, ChannelBed::Client(1, 40'000), 17, 18,
                             true, true);
  // Duplicate CreateMeeting must not wipe the populated meeting.
  bed.agent.CreateMeeting(1);
  EXPECT_EQ(bed.agent.participant_count(), 1u);

  // Duplicate AddRelaySender: same id and upstream endpoint — one relay.
  uint16_t p1 = bed.agent.AddRelaySender(1, 900'001,
                                         ChannelBed::Client(9, 50'000), 33,
                                         34, true, true, 45'000);
  uint16_t p2 = bed.agent.AddRelaySender(1, 900'001,
                                         ChannelBed::Client(9, 50'000), 33,
                                         34, true, true, 45'000);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(bed.agent.relay_count(), 1u);
  EXPECT_EQ(bed.agent.stats().relay_senders, 1u);

  // Duplicate AddRelayLeg toward the same (receiver, sender): one leg.
  uint16_t l1 = bed.agent.AddRelayLeg(1, 900'002, 1,
                                      ChannelBed::Client(9, 50'001), 46'000);
  uint16_t l2 = bed.agent.AddRelayLeg(1, 900'002, 1,
                                      ChannelBed::Client(9, 50'001), 46'001);
  EXPECT_EQ(l1, l2);
  EXPECT_EQ(bed.agent.stats().relay_legs, 1u);
}

TEST(ControlChannel, RelayLegNamingUnknownSenderIsAPureNoOp) {
  // Lost-command semantics for the relay vocabulary: if the upstream
  // sender's install was dropped on the channel, a later AddRelayLeg
  // naming it must leave no trace — no orphan pseudo-receiver in the
  // meeting, no relay stats.
  ChannelBed bed;
  bed.channel.CreateMeeting(1);
  bed.agent.AddRelayLeg(1, /*relay_receiver=*/900'001, /*sender=*/77,
                        ChannelBed::Client(9, 50'000));
  EXPECT_EQ(bed.agent.participant_count(), 0u);
  EXPECT_EQ(bed.agent.relay_count(), 0u);
  EXPECT_EQ(bed.agent.stats().relay_legs, 0u);

  // With the sender known, the same command installs the relay leg.
  bed.channel.AddParticipant(1, 77, ChannelBed::Client(1, 40'000), 17, 18,
                             true, true);
  uint16_t port = bed.agent.AddRelayLeg(1, 900'001, 77,
                                        ChannelBed::Client(9, 50'000));
  EXPECT_EQ(bed.agent.relay_count(), 1u);
  EXPECT_EQ(bed.agent.stats().relay_legs, 1u);
  EXPECT_NE(bed.dp.MutableFeedback(port), nullptr);
}

// ---- MessageConduit: one body for traced and untraced runs ---------------

// Everything a conduit run shows its users: which message arrived when,
// each Transact outcome, and the accounting.
struct ConduitRun {
  std::vector<std::pair<int, util::TimeUs>> deliveries;
  std::vector<bool> transacts;
  ConduitStats stats;
};

// Message i of DriveConduit is: a named Send (i % 4 == 0), an unnamed
// Send like telemetry (1), a named SendReliable whose retransmission is
// cancelled when i % 3 == 0 (2), or a named Transact (3).
constexpr int kConduitMessages = 80;
constexpr int kNamedConduitMessages = kConduitMessages * 3 / 4;

ConduitRun DriveConduit(obs::TraceLog* trace) {
  sim::Scheduler sched;
  MessageConduit conduit(sched, util::Millis(5), /*loss_rate=*/0.3,
                         /*seed=*/42);
  if (trace != nullptr) {
    conduit.set_trace(trace, "c", obs::Category::kControl);
  }
  ConduitRun run;
  for (int i = 0; i < kConduitMessages; ++i) {
    // 1 ms apart: later sends overlap earlier deliveries and resends.
    sched.At(util::Millis(i), [&run, &sched, &conduit, i] {
      auto record = [&run, &sched, i] {
        run.deliveries.emplace_back(i, sched.now());
      };
      switch (i % 4) {
        case 0: conduit.Send(run.stats, record, "cmd"); break;
        case 1: conduit.Send(run.stats, record); break;
        case 2:
          conduit.SendReliable(run.stats, record,
                               [i] { return i % 3 != 0; }, "rel");
          break;
        default: run.transacts.push_back(conduit.Transact(run.stats, "tx"));
      }
    });
  }
  sched.RunUntil(util::Seconds(1));
  return run;
}

TEST(MessageConduit, TracingChangesNothingObservable) {
  const ConduitRun plain = DriveConduit(nullptr);
  obs::TraceLog trace;
  const ConduitRun traced = DriveConduit(&trace);

  // The run exercised the lossy paths: drops, resends, failed transacts.
  EXPECT_GT(plain.stats.dropped, 0u);
  EXPECT_GT(plain.stats.retransmitted, 0u);
  EXPECT_FALSE(plain.deliveries.empty());
  EXPECT_NE(std::count(plain.transacts.begin(), plain.transacts.end(), false),
            0);

  EXPECT_EQ(traced.deliveries, plain.deliveries);
  EXPECT_EQ(traced.transacts, plain.transacts);
  EXPECT_EQ(traced.stats.sent, plain.stats.sent);
  EXPECT_EQ(traced.stats.delivered, plain.stats.delivered);
  EXPECT_EQ(traced.stats.dropped, plain.stats.dropped);
  EXPECT_EQ(traced.stats.retransmitted, plain.stats.retransmitted);
}

TEST(MessageConduit, TraceFollowsSentThenOutcomeUnderOneId) {
  obs::TraceLog trace;
  DriveConduit(&trace);

  // Per correlation id, in log order: "sent (dropped|applied)" with an
  // optional "retx (dropped|applied)" — the resend shares the command's id.
  std::map<uint64_t, std::vector<std::string>> by_corr;
  for (const obs::TraceEvent& e : trace.events()) {
    ASSERT_NE(e.corr, 0u) << e.name;
    const size_t dot = e.name.rfind('.');
    ASSERT_NE(dot, std::string::npos) << e.name;
    by_corr[e.corr].push_back(e.name.substr(dot + 1));
    const std::string base = e.name.substr(0, dot);
    EXPECT_TRUE(base == "cmd" || base == "rel" || base == "tx") << e.name;
  }
  for (const auto& [corr, steps] : by_corr) {
    ASSERT_TRUE(steps.size() == 2 || steps.size() == 4) << "corr " << corr;
    EXPECT_EQ(steps[0], "sent") << "corr " << corr;
    EXPECT_TRUE(steps[1] == "dropped" || steps[1] == "applied");
    if (steps.size() == 4) {
      EXPECT_EQ(steps[2], "retx") << "corr " << corr;
      EXPECT_TRUE(steps[3] == "dropped" || steps[3] == "applied");
    }
  }
  // Only named messages draw ids, so they are exactly 1..named: an
  // unnamed send would have shifted every later id.
  ASSERT_EQ(by_corr.size(), static_cast<size_t>(kNamedConduitMessages));
  EXPECT_EQ(by_corr.begin()->first, 1u);
  EXPECT_EQ(by_corr.rbegin()->first,
            static_cast<uint64_t>(kNamedConduitMessages));
}

// ---- fleet failure detection over heartbeats ----------------------------

testbed::TestbedConfig FastStartConfig() {
  testbed::TestbedConfig cfg;
  cfg.peer.encoder.start_bitrate_bps = 700'000;
  cfg.peer.encoder.key_frame_interval = util::Seconds(4);
  return cfg;
}

TEST(FleetHeartbeat, TelemetryFlowsNorthbound) {
  testbed::FleetTestbed bed(FastStartConfig(), 2);
  bed.RunFor(2.0);
  const FleetStats& fs = bed.fleet().stats();
  // 50 ms heartbeats + 500 ms load reports from both switches.
  EXPECT_GE(fs.heartbeats_seen, 2 * 35u);
  EXPECT_GE(fs.load_reports_seen, 2 * 3u);
  EXPECT_EQ(fs.heartbeats_missed, 0u);
  EXPECT_EQ(fs.switches_failed, 0u);
}

TEST(FleetHeartbeat, HighControlLatencyDoesNotFalselyKillSwitches) {
  // Control latency above two heartbeat intervals: the first heartbeat
  // cannot arrive before the naive 3-misses deadline, so the detector
  // must fold the channel latency into its grace period or it bricks the
  // whole fleet at startup.
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.control.latency = util::Millis(120);
  testbed::FleetTestbed bed(cfg, 2);
  bed.RunFor(3.0);
  EXPECT_TRUE(bed.fleet().IsAlive(0));
  EXPECT_TRUE(bed.fleet().IsAlive(1));
  EXPECT_EQ(bed.fleet().stats().switches_failed, 0u);
  EXPECT_EQ(bed.fleet().stats().heartbeats_missed, 0u);
  EXPECT_GT(bed.fleet().stats().heartbeats_seen, 0u);
}

TEST(FleetHeartbeat, MissDetectionMigratesExactlyOncePerDeadSwitch) {
  testbed::FleetTestbed bed(FastStartConfig(), 2);
  auto m1 = bed.CreateMeeting();
  auto m2 = bed.CreateMeeting();
  bed.AddPeer().Join(bed.signaling(), m1);
  bed.AddPeer().Join(bed.signaling(), m2);
  bed.RunFor(1.0);

  size_t victim = bed.PlacementOf(m1).home;
  bed.channel(victim).set_link_up(false);
  bed.RunFor(1.0);

  // Declared dead by missed heartbeats, and its meeting migrated to the
  // standby exactly once.
  EXPECT_FALSE(bed.fleet().IsAlive(victim));
  EXPECT_EQ(bed.fleet().stats().switches_failed, 1u);
  EXPECT_GT(bed.fleet().stats().heartbeats_missed, 0u);
  EXPECT_EQ(bed.PlacementOf(m1).home, 1 - victim);
  EXPECT_EQ(bed.PlacementOf(m2).home, 1 - victim);
  EXPECT_EQ(bed.fleet().stats().placements_rebalanced, 1u);

  // More silent intervals must not re-declare or re-migrate.
  bed.RunFor(2.0);
  EXPECT_EQ(bed.fleet().stats().switches_failed, 1u);
  EXPECT_EQ(bed.fleet().stats().placements_rebalanced, 1u);

  // Telemetry resumes + revive: the switch stays up (no instant re-kill
  // from the stale liveness clock).
  bed.channel(victim).set_link_up(true);
  bed.fleet().ReviveSwitch(victim);
  bed.RunFor(1.0);
  EXPECT_TRUE(bed.fleet().IsAlive(victim));
  EXPECT_EQ(bed.fleet().stats().switches_failed, 1u);
}

TEST(FleetHeartbeat, DetectionTimeScalesWithHeartbeatCadence) {
  // Failure-detection timing is a function of the heartbeat cadence (3
  // silent intervals + a detector tick): at the default 50 ms a dead
  // switch is declared within ~0.25 s, at 200 ms it must take ~4x longer.
  testbed::TestbedConfig slow_cfg = FastStartConfig();
  slow_cfg.control.heartbeat_interval = util::Millis(200);
  testbed::FleetTestbed slow(slow_cfg, 2);
  auto m1 = slow.CreateMeeting();
  slow.AddPeer().Join(slow.signaling(), m1);
  slow.RunFor(1.0);
  size_t victim = slow.PlacementOf(m1).home;
  slow.channel(victim).set_link_up(false);
  // 0.3 s of silence: under a 200 ms cadence nothing is even late yet.
  slow.RunFor(0.3);
  EXPECT_TRUE(slow.fleet().IsAlive(victim));
  EXPECT_EQ(slow.fleet().stats().switches_failed, 0u);
  // After 3 intervals + a tick it is dead and its meeting migrated.
  slow.RunFor(0.7);
  EXPECT_FALSE(slow.fleet().IsAlive(victim));
  EXPECT_EQ(slow.PlacementOf(m1).home, 1 - victim);

  // The default cadence declares death well inside those first 0.3 s.
  testbed::FleetTestbed fast(FastStartConfig(), 2);
  auto m2 = fast.CreateMeeting();
  fast.AddPeer().Join(fast.signaling(), m2);
  fast.RunFor(1.0);
  size_t fast_victim = fast.PlacementOf(m2).home;
  fast.channel(fast_victim).set_link_up(false);
  fast.RunFor(0.3);
  EXPECT_FALSE(fast.fleet().IsAlive(fast_victim));
  EXPECT_EQ(fast.fleet().stats().switches_failed, 1u);
}

// ---- load-driven rebalancer ---------------------------------------------

TEST(FleetRebalance, MovesMeetingsOffTheOverloadedSwitch) {
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.rebalance.interval = util::Seconds(1);
  cfg.rebalance.imbalance_threshold = 2;
  testbed::FleetTestbed bed(cfg, 2);

  // Two meetings land on different switches (round-robin while empty);
  // load them 4 vs 1, then park a third, idle meeting on the loaded
  // switch — the rebalancer should move the small meeting across.
  auto m1 = bed.CreateMeeting();
  auto m2 = bed.CreateMeeting();
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  bed.AddPeer().Join(bed.signaling(), m2);
  size_t busy = bed.PlacementOf(m1).home;
  auto m3 = bed.CreateMeeting();
  ASSERT_EQ(bed.PlacementOf(m3).home, 1 - busy);  // least-loaded at creation
  bed.AddPeer().Join(bed.signaling(), m3);
  // Re-home m3's single peer onto the busy switch by migrating manually,
  // then re-joining — simplest way to craft a 5-vs-1 split.
  bed.fleet().MigrateMeeting(m3, busy);
  client::Peer& mover = *bed.peers().back();
  mover.Leave();
  mover.Join(bed.signaling(), m3);
  ASSERT_EQ(bed.fleet().LoadOf(busy), 5);
  ASSERT_EQ(bed.fleet().LoadOf(1 - busy), 1);
  uint64_t manual_moves = bed.fleet().stats().placements_rebalanced;

  bed.RunFor(3.0);
  const FleetStats& fs = bed.fleet().stats();
  EXPECT_GT(fs.rebalance_migrations, 0u);
  EXPECT_GT(fs.placements_rebalanced, manual_moves);
  // The small meeting moved off the overloaded switch.
  EXPECT_EQ(bed.PlacementOf(m3).home, 1 - busy);
  EXPECT_EQ(bed.PlacementOf(m1).home, busy);
}

TEST(FleetRebalance, HysteresisNoMeetingMovesTwiceWithinOneInterval) {
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.rebalance.interval = util::Seconds(1);
  cfg.rebalance.imbalance_threshold = 1;  // eager: worst case for flapping
  testbed::FleetTestbed bed(cfg, 2);

  std::map<core::MeetingId, std::vector<double>> moves;
  bed.SetMeetingMovedCallback([&](core::MeetingId m,
                                  const std::vector<ParticipantId>&) {
    moves[m].push_back(util::ToSeconds(bed.sched().now()));
  });

  // m1 (2 peers) and m3 (1 peer) both live on switch 0; m2 (empty) on
  // switch 1 — a 3-vs-0 split the eager rebalancer starts chewing on.
  auto m1 = bed.CreateMeeting();
  auto m2 = bed.CreateMeeting();
  auto m3 = bed.CreateMeeting();
  ASSERT_EQ(bed.PlacementOf(m1).home, bed.PlacementOf(m3).home);
  for (int i = 0; i < 2; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  bed.AddPeer().Join(bed.signaling(), m3);
  bed.RunFor(6.0);
  (void)m2;

  // Something moved, and nothing ping-ponged: each meeting's consecutive
  // migrations are at least one rebalance interval apart.
  EXPECT_FALSE(moves.empty()) << "rebalancer never acted";
  for (const auto& [meeting, times] : moves) {
    for (size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE(times[i] - times[i - 1], 1.0 - 1e-9)
          << "meeting " << meeting << " migrated twice within one interval";
    }
  }
}

TEST(FleetRebalance, RejectsANonPositiveInterval) {
  // A positive interval is what turns the rebalancer on; asking for one
  // without it is a caller bug, not a silent no-op.
  sim::Scheduler sched;
  FederatedControlPlane plane(sched, {.regions = 1, .switches = 1});
  EXPECT_THROW(plane.EnableRebalancer(RebalanceConfig{}),
               std::invalid_argument);
  EXPECT_THROW(plane.EnableRebalancer({.interval = -util::Seconds(1)}),
               std::invalid_argument);
}

TEST(FleetRebalance, SkipsMeetingsInsideRenegotiationWindows) {
  // Regression (ISSUE 4 satellite): a meeting whose members are down —
  // failover blackout or a live migration's re-signal window — must not
  // be picked by the rebalancer, even when it is otherwise the best
  // candidate. Before the frozen-meeting guard, only the per-meeting
  // cooldown protected it, which a blackout can outlive.
  testbed::TestbedConfig cfg = FastStartConfig();
  cfg.rebalance.interval = util::Seconds(1);
  cfg.rebalance.imbalance_threshold = 2;
  testbed::FleetTestbed bed(cfg, 2);

  // m1 (2 peers) and m3 (4 peers) on switch 0, m2 (1 peer) on switch 1:
  // a 6-vs-1 split where m1 is the smallest candidate — the one the
  // rebalancer would normally move first.
  auto m1 = bed.CreateMeeting();
  auto m2 = bed.CreateMeeting();
  auto m3 = bed.CreateMeeting();
  ASSERT_EQ(bed.PlacementOf(m1).home, bed.PlacementOf(m3).home);
  size_t busy = bed.PlacementOf(m1).home;
  for (int i = 0; i < 2; ++i) bed.AddPeer().Join(bed.signaling(), m1);
  bed.AddPeer().Join(bed.signaling(), m2);
  for (int i = 0; i < 4; ++i) bed.AddPeer().Join(bed.signaling(), m3);
  bed.RunFor(0.6);  // let the first load reports land

  // m1 enters a blackout (what FailoverBegin does for affected meetings).
  bed.fleet().FreezeMeetings({m1});
  ASSERT_TRUE(bed.fleet().IsFrozen(m1));

  bed.RunFor(3.0);
  // The rebalancer acted — but around the frozen meeting: m1 stayed put
  // and the larger m3 moved instead.
  EXPECT_GT(bed.fleet().stats().rebalance_migrations, 0u);
  EXPECT_EQ(bed.PlacementOf(m1).home, busy) << "frozen meeting was migrated";
  EXPECT_EQ(bed.PlacementOf(m3).home, 1 - busy);

  // A member (re-)joining thaws the meeting.
  client::Peer& late = bed.AddPeer();
  late.Join(bed.signaling(), m1);
  EXPECT_FALSE(bed.fleet().IsFrozen(m1));
}

}  // namespace
}  // namespace scallop::core

namespace scallop::harness {
namespace {

// Acceptance scenario (ISSUE 3): a 3-switch fleet under skewed join load
// with the background rebalancer on — live migrations happen (and peers
// re-signal onto the new placements) without any failover.
TEST(RebalanceScenario, SkewedJoinsRebalanceWithoutFailover) {
  // Six meetings round-robin across three switches, so switch 0 hosts
  // meetings 0 and 3. The skew: those two meetings get 3 participants
  // each, everyone else gets 1 — switch 0 carries 6 of 10 participants
  // until the rebalancer spreads the load.
  ScenarioSpec spec = ScenarioSpec::Uniform("rebalance-skew", 6, 1, 16.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.meetings[0].participants.resize(3);
  spec.meetings[3].participants.resize(3);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithRebalance(/*interval_s=*/2.0, /*imbalance_threshold=*/2);

  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();

  EXPECT_GT(m.placements_rebalanced, 0u) << m.Summary() << m.ToCsv();
  EXPECT_GT(m.control.rebalance_migrations, 0u);
  EXPECT_EQ(m.control.switches_failed, 0u) << "no failover in this scenario";
  EXPECT_EQ(m.control.heartbeats_missed, 0u);

  // Load ended up spread: no switch holds more than half the peers, and
  // every switch hosts something.
  ASSERT_EQ(m.switches.size(), 3u);
  for (const auto& s : m.switches) {
    EXPECT_TRUE(s.alive);
    EXPECT_LE(s.participants, 5);
    EXPECT_GE(s.meetings, 1);
  }

  // Migrated peers re-signaled and kept decoding on the new placement;
  // rewriting stayed gap-free through the live moves.
  EXPECT_GE(m.WorstDeliveryFloor(), 150u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);

  // The control-plane section is part of the fleet CSV.
  EXPECT_NE(m.ToCsv().find("control,commands_sent"), std::string::npos);
}

// Nonzero control latency end-to-end: the whole scenario still works (all
// commands arrive, just later), and the CSV grows the control section even
// on the single-switch backend once WithControlPlane is configured.
TEST(ControlPlaneScenario, LatencyAndCsvSectionOnScallop) {
  ScenarioSpec spec = ScenarioSpec::Uniform("ctrl-latency", 1, 3, 10.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithControlPlane(/*latency_s=*/0.02);
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();

  EXPECT_GT(m.control.commands_sent, 0u);
  EXPECT_EQ(m.control.commands_sent, m.control.commands_applied);
  EXPECT_EQ(m.control.commands_dropped, 0u);
  EXPECT_NE(m.ToCsv().find("control,commands_sent"), std::string::npos);
  // 20 ms of signaling delay must not break the call itself.
  EXPECT_GE(m.WorstDeliveryFloor(), 200u) << m.Summary();
  EXPECT_EQ(m.RewriteViolations(), 0u);
}

// A fleet failover drill whose blackout cannot cover heartbeat-miss
// detection would revive the victim before it was ever declared dead and
// silently test nothing; the runner rejects it up front.
TEST(ControlPlaneScenario, RejectsBlackoutShorterThanDetectionTime) {
  ScenarioSpec spec = ScenarioSpec::Uniform("bad-blackout", 1, 2, 5.0);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  // Worst-case detection = 4 x 50 ms + 2 x 50 ms = 0.3 s > 0.25 s default.
  spec.WithControlPlane(/*latency_s=*/0.05);
  spec.WithFailover(2.0);
  EXPECT_THROW(ScenarioRunner runner(spec), std::invalid_argument);
  // A blackout that covers detection is accepted.
  spec.failover_blackout_s = 0.4;
  EXPECT_NO_THROW(ScenarioRunner runner(spec));
}

// The heartbeat-cadence knob reaches the fleet: slower heartbeats mean
// slower failure detection, and the runner's blackout validation scales
// with the configured interval rather than assuming 50 ms.
TEST(ControlPlaneScenario, HeartbeatCadenceKnobScalesDetection) {
  ScenarioSpec spec = ScenarioSpec::Uniform("hb-knob", 1, 2, 6.0);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  spec.WithControlPlane(/*latency_s=*/0.0, /*loss=*/0.0,
                        /*heartbeat_s=*/0.2, /*load_report_s=*/0.5);
  spec.WithFailover(2.0);
  // Worst-case detection is now 4 x 200 ms: the default 0.25 s blackout
  // cannot cover it.
  EXPECT_THROW(ScenarioRunner runner(spec), std::invalid_argument);
  spec.failover_blackout_s = 1.0;
  EXPECT_NO_THROW(ScenarioRunner runner(spec));

  // Disabling heartbeats entirely makes the drill undetectable — the
  // runner rejects that outright rather than passing vacuously.
  ScenarioSpec off = ScenarioSpec::Uniform("hb-off", 1, 2, 6.0);
  off.WithBackend(testbed::BackendChoice::Fleet(2));
  off.WithControlPlane(0.0, 0.0, /*heartbeat_s=*/0.0);
  off.WithFailover(2.0);
  EXPECT_THROW(ScenarioRunner runner(off), std::invalid_argument);

  // And a faster cadence tightens the requirement instead: a blackout
  // that was too short at 50 ms heartbeats is fine at 20 ms.
  ScenarioSpec fast = ScenarioSpec::Uniform("hb-knob-fast", 1, 2, 6.0);
  fast.WithBackend(testbed::BackendChoice::Fleet(2));
  fast.WithControlPlane(0.0, 0.0, /*heartbeat_s=*/0.02, /*load_report_s=*/0.2);
  fast.WithFailover(2.0);
  fast.failover_blackout_s = 0.1;
  EXPECT_NO_THROW(ScenarioRunner runner(fast));
}

// Regression (ISSUE 4 satellite): WithFailover overlapping WithRebalance.
// During the blackout the affected meetings are frozen — the rebalancer
// must leave them alone while their members are down — and the drill
// still recovers everyone afterwards.
TEST(ControlPlaneScenario, FailoverOverlappingRebalanceLeavesVictimsAlone) {
  ScenarioSpec spec = ScenarioSpec::Uniform("failover-x-rebalance", 6, 1,
                                            16.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.meetings[0].participants.resize(3);
  spec.meetings[3].participants.resize(3);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithRebalance(/*interval_s=*/0.45, /*imbalance_threshold=*/2);
  spec.WithFailover(8.03);  // blackout 8.03 .. 8.28; rebalance tick at 8.10

  ScenarioRunner runner(spec);
  runner.RunUntil(8.1);  // inside the blackout, before heartbeat death
  core::FleetController& fleet = runner.fleet().fleet();
  // FailoverBegin froze every meeting touching the victim.
  int frozen = 0;
  for (int mi = 0; mi < 6; ++mi) {
    if (fleet.IsFrozen(runner.meeting_id(mi))) ++frozen;
  }
  EXPECT_GT(frozen, 0) << "blackout must freeze the affected meetings";

  const ScenarioMetrics& m = runner.Run();
  // The overlap resolved cleanly: the failover migrated the victim's
  // meetings, the rebalancer kept working elsewhere, nobody starved and
  // rewriting stayed gap-free through both kinds of migration.
  EXPECT_EQ(m.control.switches_failed, 1u) << m.Summary();
  EXPECT_GT(m.placements_rebalanced, 0u);
  EXPECT_GE(m.WorstDeliveryFloor(), 100u) << m.Summary() << m.ToCsv();
  EXPECT_EQ(m.RewriteViolations(), 0u);
}

// Command loss on the southbound channel degrades but is visible: dropped
// commands are counted, and the run still completes deterministically.
TEST(ControlPlaneScenario, LossyChannelCountsDrops) {
  ScenarioSpec spec = ScenarioSpec::Uniform("ctrl-loss", 1, 3, 6.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithControlPlane(/*latency_s=*/0.005, /*loss=*/0.3);
  std::string first, second;
  {
    ScenarioRunner runner(spec);
    const ScenarioMetrics& m = runner.Run();
    EXPECT_GT(m.control.commands_dropped, 0u);
    EXPECT_EQ(m.control.commands_sent,
              m.control.commands_applied + m.control.commands_dropped);
    first = m.ToCsv();
  }
  {
    ScenarioRunner runner(spec);
    second = runner.Run().ToCsv();
  }
  EXPECT_EQ(first, second) << "lossy control plane broke determinism";
}

// Satellite acceptance (ISSUE 5): on a lossy control plane, the acked +
// retransmitted meeting/relay vocabulary keeps cascaded meetings from
// being silently stranded — the spans materialize, media crosses the
// relays, and the retransmissions are visible in the control counters
// and as the extra `commands_retransmitted` CSV column (which lossless
// runs omit, keeping the golden pins byte-identical).
TEST(ControlPlaneScenario, LossyChannelCannotSilentlyStrandRelaySpans) {
  ScenarioSpec spec = ScenarioSpec::Uniform("ctrl-loss-cascade", 1, 5, 6.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
  spec.WithControlPlane(/*latency_s=*/0.002, /*loss=*/0.1);
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();

  EXPECT_GT(m.control.commands_dropped, 0u) << "loss must actually bite";
  EXPECT_GT(m.control.commands_retransmitted, 0u);
  // Every span the policy planned exists and carries media: before the
  // ack/retransmission satellite a single lost AddRelaySender/AddRelayLeg
  // could leave a span installed on paper but dark on the wire.
  core::MeetingPlacement placement =
      runner.fleet().PlacementOf(runner.meeting_id(0));
  ASSERT_EQ(placement.spans.size(), 2u);
  EXPECT_GT(m.cascade.relay_packets, 500u);
  EXPECT_NE(m.ToCsv().find(",commands_retransmitted"), std::string::npos);
}

}  // namespace
}  // namespace scallop::harness
