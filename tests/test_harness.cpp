// Harness-level unit tests: the ScenarioSpec vocabulary itself, the
// runner's event scheduling (joins, churn, link events), and the core
// guarantee everything else builds on — a ScenarioSpec plus a seed is
// a complete, reproducible description of an experiment, down to
// byte-identical metric output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hpp"
#include "obs/stats_registry.hpp"
#include "testbed/testbed.hpp"

namespace scallop::harness {
namespace {

ScenarioSpec DemandingSpec(uint64_t seed) {
  // Touches every spec feature so determinism is checked across the whole
  // metric surface: loss, asymmetry, churn, a mid-run link change and a
  // failover.
  ScenarioSpec spec = ScenarioSpec::Uniform("determinism", 2, 3, 14.0, seed);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithLink(0, 1, LinkProfile::Lossy(0.03))
      .WithLink(1, 0, LinkProfile::Asymmetric(2.0e6, 16e6))
      .WithJoin(0, 2, 3.0)
      .WithLeave(1, 2, 6.0, 9.0)
      .WithLinkEvent(
          {.at_s = 5.0, .meeting = 0, .participant = 0, .rate_bps = 3.0e6})
      .WithFailover(10.0);
  return spec;
}

TEST(ScenarioSpec, UniformBuildsTheGrid) {
  ScenarioSpec spec = ScenarioSpec::Uniform("grid", 3, 4, 10.0, 7);
  EXPECT_EQ(spec.meetings.size(), 3u);
  EXPECT_EQ(spec.meetings[2].participants.size(), 4u);
  EXPECT_EQ(spec.TotalParticipants(), 12);
  EXPECT_EQ(spec.seed, 7u);
  // Everyone present from t=0 by default.
  for (const auto& m : spec.meetings) {
    for (const auto& p : m.participants) {
      EXPECT_EQ(p.join_at_s, 0.0);
      EXPECT_LT(p.leave_at_s, 0.0);
    }
  }
}

TEST(ScenarioSpec, FluentHelpersTargetTheRightSlot) {
  ScenarioSpec spec = ScenarioSpec::Uniform("fluent", 2, 3, 10.0);
  spec.WithLink(1, 2, LinkProfile::Constrained(1.2e6))
      .WithLeave(0, 1, 4.0, 7.0)
      .WithFailover(8.0);
  EXPECT_EQ(spec.meetings[1].participants[2].link.name, "constrained");
  EXPECT_EQ(spec.meetings[1].participants[2].link.down.rate_bps, 1.2e6);
  EXPECT_EQ(spec.meetings[0].participants[1].leave_at_s, 4.0);
  EXPECT_EQ(spec.meetings[0].participants[1].rejoin_at_s, 7.0);
  EXPECT_EQ(spec.failover_at_s, 8.0);
  EXPECT_THROW(spec.WithLink(5, 0, LinkProfile::Default()),
               std::out_of_range);
}

TEST(ScenarioRunner, LinkProfilesAreAppliedToTheNetwork) {
  ScenarioSpec spec = ScenarioSpec::Uniform("links", 1, 2, 2.0);
  spec.WithLink(0, 1, LinkProfile::Asymmetric(1.5e6, 12e6));
  ScenarioRunner runner(spec);
  net::Ipv4 addr = runner.peer(0, 1).address();
  ASSERT_NE(runner.backend().network().uplink(addr), nullptr);
  EXPECT_EQ(runner.backend().network().uplink(addr)->config().rate_bps, 1.5e6);
  EXPECT_EQ(runner.backend().network().downlink(addr)->config().rate_bps, 12e6);
}

TEST(ScenarioRunner, ChurnScheduleDrivesPresence) {
  ScenarioSpec spec = ScenarioSpec::Uniform("presence", 1, 3, 12.0);
  spec.WithJoin(0, 1, 4.0);
  spec.WithLeave(0, 2, 6.0, 9.0);
  ScenarioRunner runner(spec);

  runner.RunUntil(1.0);
  EXPECT_TRUE(runner.present(0, 0));
  EXPECT_FALSE(runner.present(0, 1));  // joins at 4
  EXPECT_TRUE(runner.present(0, 2));
  runner.RunUntil(5.0);
  EXPECT_TRUE(runner.present(0, 1));
  runner.RunUntil(7.0);
  EXPECT_FALSE(runner.present(0, 2));  // left at 6
  runner.RunUntil(10.0);
  EXPECT_TRUE(runner.present(0, 2));  // rejoined at 9
}

TEST(ScenarioRunner, RejectsLinkEventOutsideTheGrid) {
  ScenarioSpec spec = ScenarioSpec::Uniform("bad-event", 1, 3, 5.0);
  spec.WithLinkEvent(
      {.at_s = 1.0, .meeting = 0, .participant = 5, .rate_bps = 1e6});
  EXPECT_THROW(ScenarioRunner runner(spec), std::out_of_range);
}

TEST(ScenarioRunner, FailoverDoesNotResurrectDepartedParticipants) {
  // The third participant's permanent leave falls inside the failover
  // blackout; recovery must not rejoin them.
  ScenarioSpec spec = ScenarioSpec::Uniform("failover-leave-race", 1, 3, 12.0);
  spec.WithLeave(0, 2, 8.1);
  spec.WithFailover(8.0);  // blackout 8.0 .. 8.25
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  EXPECT_FALSE(runner.present(0, 2));
  EXPECT_TRUE(runner.present(0, 0));
  EXPECT_TRUE(runner.present(0, 1));
  EXPECT_FALSE(m.peers[2].present_at_end);
  EXPECT_EQ(m.meetings[0].participants_at_end, 2);
}

TEST(ScenarioRunner, MidRunLinkEventTakesEffect) {
  ScenarioSpec spec = ScenarioSpec::Uniform("degrade", 1, 2, 6.0);
  spec.WithLinkEvent({.at_s = 3.0,
                      .meeting = 0,
                      .participant = 1,
                      .rate_bps = 2.0e6,
                      .loss_rate = 0.05});
  ScenarioRunner runner(spec);
  net::Ipv4 addr = runner.peer(0, 1).address();
  runner.RunUntil(2.0);
  EXPECT_EQ(runner.backend().network().downlink(addr)->config().rate_bps, 20e6);
  runner.RunUntil(4.0);
  EXPECT_EQ(runner.backend().network().downlink(addr)->config().rate_bps, 2.0e6);
  EXPECT_EQ(runner.backend().network().downlink(addr)->config().loss_rate, 0.05);
}

TEST(ScenarioRunner, TimelineSamplesAtTheConfiguredCadence) {
  ScenarioSpec spec = ScenarioSpec::Uniform("sampling", 1, 2, 5.0);
  spec.sample_interval_s = 1.0;
  int hook_calls = 0;
  ScenarioRunner runner(spec);
  runner.set_sample_hook([&](double, ScenarioRunner&) { ++hook_calls; });
  const ScenarioMetrics& m = runner.Run();
  EXPECT_EQ(m.timeline.size(), 5u);
  EXPECT_EQ(hook_calls, 5);
  EXPECT_NEAR(m.timeline.back().t_s, 5.0, 1e-6);
  // Samples are cumulative and monotone.
  for (size_t i = 1; i < m.timeline.size(); ++i) {
    EXPECT_GE(m.timeline[i].frames_decoded_total,
              m.timeline[i - 1].frames_decoded_total);
  }
}

TEST(ScenarioSpec, BackendDefaultsToScallopAndIsFluent) {
  ScenarioSpec spec = ScenarioSpec::Uniform("backends", 1, 2, 2.0);
  EXPECT_EQ(spec.backend, testbed::BackendChoice::Scallop());
  EXPECT_EQ(spec.backend.Label(), "scallop");
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  EXPECT_EQ(spec.backend.kind, testbed::BackendChoice::Kind::kFleet);
  EXPECT_EQ(spec.backend.Label(), "fleet{3}");
  EXPECT_EQ(testbed::BackendChoice::Software().Label(), "software");
}

TEST(ScenarioRunner, BackendAccessorsMatchTheChosenSubstrate) {
  ScenarioSpec spec = ScenarioSpec::Uniform("accessors", 1, 2, 1.0);
  {
    // The single switch is a fleet of one: both views reach it.
    ScenarioRunner runner(spec);
    EXPECT_EQ(runner.backend().Name(), "scallop");
    EXPECT_EQ(runner.backend().switch_count(), 1u);
    EXPECT_NO_THROW(runner.scallop());
    EXPECT_EQ(&runner.scallop().sw(), &runner.fleet().sw(0));
  }
  {
    spec.WithBackend(testbed::BackendChoice::Fleet(2));
    ScenarioRunner runner(spec);
    EXPECT_EQ(runner.backend().Name(), "fleet{2}");
    EXPECT_EQ(runner.backend().switch_count(), 2u);
    EXPECT_NO_THROW(runner.fleet());
    EXPECT_THROW(runner.scallop(), std::logic_error);
  }
  {
    spec.WithBackend(testbed::BackendChoice::Software());
    ScenarioRunner runner(spec);
    EXPECT_THROW(runner.scallop(), std::logic_error);
    EXPECT_THROW(runner.fleet(), std::logic_error);
  }
}

// The single switch is a fleet of one. The repo benchmark reaches every
// switch of a Scallop backend through one FleetTestbed cast, and a scallop
// CSV keeps its single-switch shape.
TEST(ScenarioRunner, SingleSwitchIsAFleetOfOne) {
  EXPECT_EQ(testbed::BackendChoice::Scallop(),
            testbed::BackendChoice::Fleet(1));
  EXPECT_EQ(testbed::BackendChoice::Fleet(1).Label(), "scallop");

  // The backends of the repo benchmark's four workloads, with their switch
  // counts (0: no Scallop switch at all).
  const std::pair<testbed::BackendChoice, size_t> workloads[] = {
      {testbed::BackendChoice::Scallop(), 1},
      {testbed::BackendChoice::Software(), 0},
      {testbed::BackendChoice::Fleet(12), 12},
      {testbed::BackendChoice::Fleet(6, 2), 6},
  };
  for (const auto& [choice, switches] : workloads) {
    ScenarioSpec spec = ScenarioSpec::Uniform("seam", 1, 2, 1.0);
    spec.WithBackend(choice);
    ScenarioRunner runner(spec);
    auto* fleet = dynamic_cast<testbed::FleetTestbed*>(&runner.backend());
    if (switches == 0) {
      EXPECT_EQ(fleet, nullptr) << choice.Label();
      continue;
    }
    ASSERT_NE(fleet, nullptr) << choice.Label();
    EXPECT_EQ(fleet->switch_count(), switches) << choice.Label();
  }

  ScenarioSpec spec = ScenarioSpec::Uniform("fleet-of-one", 1, 3, 2.0);
  {
    ScenarioRunner runner(spec);
    EXPECT_EQ(&runner.scallop().sw(), &runner.fleet().sw(0));
    const std::string csv = runner.Run().ToCsv();
    for (const char* row : {"fleet,", "switch,", "placement,", "cascade,"}) {
      EXPECT_EQ(csv.find(std::string("\n") + row), std::string::npos)
          << row << " row on a single switch:\n"
          << csv;
    }
  }
  {
    // The switch's telemetry feeds the control row like any fleet's.
    spec.WithControlPlane(0.001);
    ScenarioRunner runner(spec);
    const ScenarioMetrics& m = runner.Run();
    EXPECT_NE(m.ToCsv().find("\ncontrol,"), std::string::npos);
    EXPECT_GT(m.control.heartbeats_seen, 0u);
  }

  // One signaling door: at R = 1 a Join into a meeting no region owns
  // still fails loudly.
  testbed::ScallopTestbed bed;
  client::Peer& peer = bed.AddPeer();
  const core::MeetingId unknown = bed.CreateMeeting() + 100;
  EXPECT_THROW(peer.Join(bed.signaling(), unknown), std::out_of_range);
}

TEST(ScenarioSpec, InterSwitchLinksValidateTheirEndpoints) {
  ScenarioSpec spec = ScenarioSpec::Uniform("backbone", 1, 2, 2.0);
  EXPECT_THROW(spec.WithInterSwitchLink(0, 0, 0.001), std::invalid_argument);
  EXPECT_THROW(spec.WithInterSwitchLink(-1, 1, 0.001),
               std::invalid_argument);
  // Links model a fleet backbone: other backends reject them.
  spec.WithInterSwitchLink(0, 1, 0.002, 10e6);
  EXPECT_THROW(ScenarioRunner runner(spec), std::invalid_argument);
  // A link naming a switch outside the fleet is a spec bug.
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  spec.WithInterSwitchLink(1, 5, 0.002);
  EXPECT_THROW(ScenarioRunner runner(spec), std::out_of_range);
}

TEST(ScenarioSpec, TopologyEventsMustNameADeclaredLink) {
  // A capacity event on an undeclared pair would either test nothing or
  // grow a phantom controller-side link no sim link backs; the runner
  // rejects it up front.
  ScenarioSpec spec = ScenarioSpec::Uniform("backbone-event-typo", 1, 2, 2.0);
  spec.WithBackend(testbed::BackendChoice::Fleet(3));
  spec.WithInterSwitchLink(0, 1, 0.002, 10e6)
      .WithInterSwitchLink(1, 2, 0.002, 10e6);
  spec.WithInterSwitchLinkEvent(1.0, 0, 2, 1e6);  // pair never declared
  EXPECT_THROW(ScenarioRunner runner(spec), std::out_of_range);
}

TEST(ScenarioRunner, TopologySectionRendersOnlyWhenConfigured) {
  ScenarioSpec spec = ScenarioSpec::Uniform("backbone-csv", 1, 2, 2.0);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  {
    ScenarioRunner runner(spec);
    const std::string csv = runner.Run().ToCsv();
    EXPECT_EQ(csv.find("topology,"), std::string::npos)
        << "default full-mesh fleets must keep the pre-topology CSV shape";
  }
  spec.WithInterSwitchLink(0, 1, 0.002, 10e6);
  {
    ScenarioRunner runner(spec);
    const ScenarioMetrics& m = runner.Run();
    ASSERT_TRUE(m.topology.configured);
    const std::string csv = m.ToCsv();
    EXPECT_NE(csv.find("topology,links,1"), std::string::npos);
    EXPECT_NE(csv.find("toplink,0,1,2.00,10000000"), std::string::npos);
    EXPECT_NE(csv.find("treedepth,0,1"), std::string::npos)
        << "a single-homed meeting is a depth-0 tree";
  }
}

// The backend seam must not perturb the scallop substrate: the CSV for the
// CI smoke scenario is pinned byte-for-byte against the output captured
// from the pre-redesign (PR 1) runner, which held a concrete
// ScallopTestbed. If this fails, the redesign changed scallop behaviour —
// not just determinism but the actual packet history.
TEST(Determinism, ScallopCsvMatchesPreRedesignPin) {
  const char* kPreRedesignCsv =
      R"(scenario,bench-smoke,seed,1,duration_s,2.00
aggregate,switch_in,switch_out,replicas,seq_rewritten,seq_dropped,svc_suppressed,remb_filtered,remb_forwarded,dt_changes,filter_flips,trees_built,migrations,cpu_packets,blackholed
aggregate,1115,2166,2146,0,0,0,22,20,0,1,1,1,75,0
meeting,index,id,final_design,participants_at_end
meeting,0,1,NRA,3
peer,meeting,index,id,profile,present,seconds,frames_sent,audio_rx,min_frames,max_frames,streams,breaks,conflicts
peer,0,0,1,default,1,2.00,60,198,59,59,2,0,0
peer,0,1,2,default,1,2.00,60,198,59,59,2,0,0
peer,0,2,3,default,1,2.00,60,198,59,59,2,0,0
stream,meeting,receiver,receiver_id,sender_id,packets,bytes,decoded,undecodable,breaks,conflicts,nacks,recovered,freeze_ms,fps
stream,0,0,1,2,252,261455,59,0,0,0,0,11,0.00,19.67
stream,0,0,1,3,248,258354,59,0,0,0,0,14,0.00,19.67
stream,0,1,2,1,246,251110,59,0,0,0,0,17,0.00,19.67
stream,0,1,2,3,248,258354,59,0,0,0,0,16,0.00,19.67
stream,0,2,3,1,246,251110,59,0,0,0,0,13,0.00,19.67
stream,0,2,3,2,252,261455,59,0,0,0,0,11,0.00,19.67
sample,t_s,frames_decoded,seq_rewritten,dt_changes,migrations
sample,0.50,84,0,0,1
sample,1.00,174,0,0,1
sample,1.50,264,0,0,1
sample,2.00,354,0,0,1
)";
  // The bench_smoke scenario, verbatim.
  ScenarioSpec spec = ScenarioSpec::Uniform("bench-smoke", 1, 3, 2.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.sample_interval_s = 0.5;
  ScenarioRunner runner(spec);
  EXPECT_EQ(runner.Run().ToCsv(), kPreRedesignCsv);
}

// The fleet sections — per-switch rows, the placement map (with span
// counts), the cascade and control sections — are pinned byte-for-byte
// for the same smoke scenario on a 2-switch fleet with the default
// LeastLoaded policy. If this fails, fleet placement, the control plane
// or the cascade accounting silently drifted.
TEST(Determinism, Fleet2CsvMatchesGoldenPin) {
  const char* kFleetGoldenCsv =
      R"(scenario,bench-smoke,seed,1,duration_s,2.00
aggregate,switch_in,switch_out,replicas,seq_rewritten,seq_dropped,svc_suppressed,remb_filtered,remb_forwarded,dt_changes,filter_flips,trees_built,migrations,cpu_packets,blackholed
aggregate,1121,2179,2158,0,0,0,21,21,0,0,1,1,75,0
fleet,backend,fleet{2},placements_rebalanced,0
switch,index,alive,meetings,participants,packets_in,packets_out,replicas
switch,0,1,1,3,1121,2179,2158
switch,1,1,0,0,0,0,0
placement,meeting_index,switch,spans
placement,0,0,0
cascade,spans_installed,spans_removed,relay_packets,relay_bytes,relay_dt_changes
cascade,0,0,0,0,0
control,commands_sent,commands_applied,commands_dropped,events_sent,events_delivered,events_dropped,heartbeats_seen,heartbeats_missed,load_reports,switches_failed,rebalance_migrations
control,10,10,0,88,88,0,80,0,8,0,0
meeting,index,id,final_design,participants_at_end
meeting,0,1,NRA,3
peer,meeting,index,id,profile,present,seconds,frames_sent,audio_rx,min_frames,max_frames,streams,breaks,conflicts
peer,0,0,1,default,1,2.00,60,198,59,59,2,0,0
peer,0,1,2,default,1,2.00,60,198,59,59,2,0,0
peer,0,2,3,default,1,2.00,60,198,59,59,2,0,0
stream,meeting,receiver,receiver_id,sender_id,packets,bytes,decoded,undecodable,breaks,conflicts,nacks,recovered,freeze_ms,fps
stream,0,0,1,2,252,261456,59,0,0,0,0,17,0.00,19.67
stream,0,0,1,3,248,258355,59,0,0,0,0,10,0.00,19.67
stream,0,1,2,1,252,261794,59,0,0,0,0,9,0.00,19.67
stream,0,1,2,3,248,258355,59,0,0,0,0,11,0.00,19.67
stream,0,2,3,1,252,261794,59,0,0,0,0,10,0.00,19.67
stream,0,2,3,2,252,261456,59,0,0,0,0,17,0.00,19.67
sample,t_s,frames_decoded,seq_rewritten,dt_changes,migrations
sample,0.50,84,0,0,1
sample,1.00,174,0,0,1
sample,1.50,264,0,0,1
sample,2.00,354,0,0,1
)";
  // The bench_smoke scenario on the 2-switch fleet backend, verbatim.
  ScenarioSpec spec = ScenarioSpec::Uniform("bench-smoke", 1, 3, 2.0);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.sample_interval_s = 0.5;
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  ScenarioRunner runner(spec);
  EXPECT_EQ(runner.Run().ToCsv(), kFleetGoldenCsv);
}

TEST(Determinism, SameSpecAndSeedIsByteIdentical) {
  ScenarioSpec spec = DemandingSpec(42);
  std::string first, second;
  {
    ScenarioRunner runner(spec);
    first = runner.Run().ToCsv();
  }
  {
    ScenarioRunner runner(spec);
    second = runner.Run().ToCsv();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "two runs of the same spec+seed diverged";
}

TEST(Determinism, FleetBackendIsByteIdenticalToo) {
  // The reproducibility guarantee is a property of the harness, not of
  // one substrate: the same demanding spec on the fleet backend (churn,
  // loss, link events, a real standby failover) pins down byte-identical
  // output as well — including the fleet section of the CSV.
  ScenarioSpec spec = DemandingSpec(42);
  spec.WithBackend(testbed::BackendChoice::Fleet(2));
  std::string first, second;
  {
    ScenarioRunner runner(spec);
    first = runner.Run().ToCsv();
  }
  {
    ScenarioRunner runner(spec);
    second = runner.Run().ToCsv();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "two fleet runs of the same spec+seed diverged";
  EXPECT_NE(first.find("fleet,backend,fleet{2}"), std::string::npos);
  EXPECT_NE(first.find("placement,"), std::string::npos);
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Loss and jitter draws are seeded per link from the scenario seed, so
  // a different seed must produce a different packet history.
  std::string a, b;
  {
    ScenarioRunner runner(DemandingSpec(1));
    a = runner.Run().ToCsv();
  }
  {
    ScenarioRunner runner(DemandingSpec(2));
    b = runner.Run().ToCsv();
  }
  EXPECT_NE(a, b);
}

TEST(Metrics, RegistryAndSummaryCoverEveryRenderedCsvScalar) {
  // fleet{6,2} with every gated section switched on: declared backbone
  // (topology), roaming (workload), hitless moves (redundancy), tracing
  // (obs), plus the fleet/cascade/control/federation sections a federated
  // fleet always renders.
  ScenarioSpec spec = ScenarioSpec::Uniform("metrics-all", 2, 3, 3.0, 4);
  spec.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithControlPlane(0.001)
      .WithInterSwitchLink(0, 1, 0.001)
      .WithRoam(0, 0, 1.5, 1)
      .WithHitlessMigration()
      .WithTrace();
  ScenarioRunner runner(spec);
  const ScenarioMetrics& m = runner.Run();
  // The backend label "fleet{6,2}" carries a comma of its own; mask it so
  // the cells split.
  std::string csv = m.ToCsv();
  for (size_t at; (at = csv.find(m.backend)) != std::string::npos;) {
    csv.replace(at, m.backend.size(), "fleet{6;2}");
  }
  const std::string summary = m.Summary();
  obs::StatsRegistry registry;
  m.RegisterInto(registry);

  const char* kSections[] = {"aggregate", "fleet",    "cascade",
                             "topology",  "control",  "federation",
                             "workload",  "redundancy", "obs"};
  std::vector<std::string> labels;  // non-numeric cells
  for (const char* section : kSections) {
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
      std::vector<std::string> cells;
      std::istringstream split(line);
      std::string cell;
      while (std::getline(split, cell, ',')) cells.push_back(cell);
      if (cells[0] == section) {
        rows.emplace_back(cells.begin() + 1, cells.end());
      }
    }
    // Every section rendered, as a header + value row or one key,value row.
    ASSERT_TRUE(rows.size() == 1 || rows.size() == 2) << section;
    std::vector<std::pair<std::string, std::string>> scalars;
    if (rows.size() == 2) {
      ASSERT_EQ(rows[0].size(), rows[1].size()) << section;
      for (size_t i = 0; i < rows[0].size(); ++i) {
        scalars.emplace_back(rows[0][i], rows[1][i]);
      }
    } else {
      ASSERT_EQ(rows[0].size() % 2, 0u) << section;
      for (size_t i = 0; i < rows[0].size(); i += 2) {
        scalars.emplace_back(rows[0][i], rows[0][i + 1]);
      }
    }
    // The Summary shows the section, and the registry every numeric cell.
    EXPECT_NE(summary.find("    " + std::string(section) + ":"),
              std::string::npos)
        << section << "\n" << summary;
    for (const auto& [column, text] : scalars) {
      const std::string key = std::string(section) + "." + column;
      char* end = nullptr;
      const double value = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') {
        labels.push_back(key);
        continue;
      }
      const auto& entries = registry.entries();
      const auto it = std::find_if(entries.begin(), entries.end(),
                                   [&](const auto& e) { return e.first == key; });
      ASSERT_NE(it, entries.end()) << key << " missing from the registry";
      EXPECT_NEAR(it->second, value, 1e-4) << key;
    }
  }
  // The backend label is the only text cell; it has no registry value.
  EXPECT_EQ(labels, std::vector<std::string>{"fleet.backend"});

  // No Summary line for a section the CSV left out: a plain scallop run
  // renders only the aggregate section, and its Summary agrees.
  ScenarioRunner plain(ScenarioSpec::Uniform("metrics-plain", 1, 2, 1.0, 4));
  const ScenarioMetrics& pm = plain.Run();
  const std::string plain_summary = pm.Summary();
  for (const char* section : kSections) {
    const bool in_csv =
        pm.ToCsv().find("\n" + std::string(section) + ",") != std::string::npos;
    const bool in_summary =
        plain_summary.find("    " + std::string(section) + ":") !=
        std::string::npos;
    EXPECT_EQ(in_csv, in_summary) << section << "\n" << plain_summary;
  }
}

}  // namespace
}  // namespace scallop::harness
