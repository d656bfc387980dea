// Migration demo in two acts.
//
// Act 1 — replication trees: one meeting is walked through all four
// forwarding designs (two-party -> NRA -> RA-R -> RA-SR and back) by
// joining participants and changing decode targets; the tree manager
// migrates make-before-break and the media never stops (paper §6.1). The
// decode-target pins travel over the southbound control channel, like
// every other controller -> switch command.
//
// Act 2 — live meeting migration: a 3-switch fleet under skewed join load
// with the background rebalancer on. The fleet notices the imbalance
// through northbound SwitchLoadReports, re-homes meetings from the
// overloaded switch to idle ones via MigrateMeeting, the affected peers
// re-signal to the new switch's SFU IP, and nobody fails over.
#include <cstdio>

#include "harness/runner.hpp"
#include "testbed/fleet_testbed.hpp"

using namespace scallop;

namespace {

const char* Design(harness::ScenarioRunner& runner, core::MeetingId meeting) {
  auto d = runner.scallop().agent().tree_manager().CurrentDesign(meeting);
  return d.has_value() ? core::TreeDesignName(*d) : "none";
}

void Report(harness::ScenarioRunner& runner, core::MeetingId meeting,
            const char* stage) {
  testbed::ScallopTestbed& bed = runner.scallop();
  std::printf("%-44s design=%-9s trees=%zu nodes=%zu migrations=%lu\n",
              stage, Design(runner, meeting), bed.sw().pre().tree_count(),
              bed.sw().pre().node_count(),
              static_cast<unsigned long>(
                  bed.agent().tree_manager().stats().migrations));
}

void TreeMigrationDemo() {
  std::printf("=== Act 1: replication-tree migration ===\n");
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("migration-demo", 1, 4, 24.0);
  spec.base.peer.encoder.start_bitrate_bps = 600'000;
  // A and B are present from the start; C and D arrive later, each join
  // migrating the meeting to a richer forwarding design. Joins sit
  // between the report times (4/8/12 s) so each stage is observed first.
  spec.WithJoin(0, 2, 4.5).WithJoin(0, 3, 8.5);

  harness::ScenarioRunner runner(spec);
  client::Peer& a = runner.peer(0, 0);
  client::Peer& b = runner.peer(0, 1);
  client::Peer& c = runner.peer(0, 2);
  client::Peer& d = runner.peer(0, 3);
  // The switch's agent and its channel number meetings switch-locally.
  const core::MeetingId meeting =
      runner.fleet().fleet().PlacementDetail(runner.meeting_id(0)).second;
  core::ControlChannel& channel = runner.scallop().channel();

  runner.RunUntil(4.0);
  Report(runner, meeting, "2 participants (unicast fast path):");

  runner.RunUntil(8.0);
  Report(runner, meeting, "3rd joins (no adaptation):");

  runner.RunUntil(12.0);
  Report(runner, meeting, "4th joins:");

  // Receiver-uniform adaptation: C wants 15 fps from everyone -> RA-R.
  // The pins go controller -> control channel -> agent, southbound.
  for (client::Peer* sender : {&a, &b, &d}) {
    channel.ForceDecodeTarget(meeting, c.id(), sender->id(), 1);
  }
  runner.RunUntil(16.0);
  Report(runner, meeting, "C at 15 fps from all senders:");

  // Sender-specific: C wants full rate from A only -> RA-SR.
  channel.ForceDecodeTarget(meeting, c.id(), a.id(), 2);
  runner.RunUntil(20.0);
  Report(runner, meeting, "C full rate from A, 15 fps from B/D:");

  // Back to full rate for everyone -> NRA again.
  for (client::Peer* sender : {&a, &b, &d}) {
    channel.ForceDecodeTarget(meeting, c.id(), sender->id(), 2);
  }
  runner.RunUntil(24.0);
  Report(runner, meeting, "everyone full rate again:");

  // Media survived every migration.
  std::printf("\nContinuity through migrations:\n");
  for (client::Peer* rx_peer : {&b, &c, &d}) {
    const auto* rx = rx_peer->video_receiver(a.id());
    std::printf("  peer %u <- A: %lu frames decoded, %lu decoder breaks, "
                "%.0f ms frozen\n",
                rx_peer->id(),
                static_cast<unsigned long>(rx->stats().frames_decoded),
                static_cast<unsigned long>(rx->stats().decoder_breaks),
                rx->stats().total_freeze_ms);
  }
}

void PrintFleetLoads(harness::ScenarioRunner& runner, const char* stage) {
  core::FleetController& fleet = runner.fleet().fleet();
  std::printf("%-28s load:", stage);
  for (size_t i = 0; i < fleet.switch_count(); ++i) {
    std::printf(" s%zu=%d(%dm)", i, fleet.LoadOf(i), fleet.MeetingsOn(i));
  }
  std::printf("  rebalanced=%lu\n",
              static_cast<unsigned long>(fleet.stats().placements_rebalanced));
}

void LiveRebalanceDemo() {
  std::printf("\n=== Act 2: live meeting migration (fleet rebalancer) ===\n");
  // Six 1-person meetings round-robin across 3 switches; meetings 0 and 3
  // (both on switch 0) then grow to 3 participants each — switch 0 ends up
  // with 6 of the 10 peers until the rebalancer spreads them.
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform("live-rebalance", 6, 1, 16.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.meetings[0].participants.resize(3);
  spec.meetings[3].participants.resize(3);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithRebalance(/*interval_s=*/2.0, /*imbalance_threshold=*/2);

  harness::ScenarioRunner runner(spec);
  runner.RunUntil(1.0);
  PrintFleetLoads(runner, "skewed joins (t=1s):");
  runner.RunUntil(5.0);
  PrintFleetLoads(runner, "after 2 rebalance ticks:");
  const harness::ScenarioMetrics& m = runner.Run();
  PrintFleetLoads(runner, "end of run (t=16s):");

  std::printf("\nControl plane: %lu commands, %lu heartbeats (%lu missed), "
              "%lu load reports, %lu rebalance moves, %lu switch failures\n",
              static_cast<unsigned long>(m.control.commands_sent),
              static_cast<unsigned long>(m.control.heartbeats_seen),
              static_cast<unsigned long>(m.control.heartbeats_missed),
              static_cast<unsigned long>(m.control.load_reports_seen),
              static_cast<unsigned long>(m.control.rebalance_migrations),
              static_cast<unsigned long>(m.control.switches_failed));
  std::printf("Delivery floor through the live moves: %lu frames, "
              "%lu rewrite violations\n",
              static_cast<unsigned long>(m.WorstDeliveryFloor()),
              static_cast<unsigned long>(m.RewriteViolations()));
}

}  // namespace

int main() {
  TreeMigrationDemo();
  LiveRebalanceDemo();
  return 0;
}
