#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/fingerprint.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "obs/stats_registry.hpp"
#include "obs/trace.hpp"
#include "testbed/fleet_testbed.hpp"
#include "trace/campus.hpp"

namespace scallop::trace {
namespace {

class CampusTest : public ::testing::Test {
 protected:
  static const CampusModel& Model() {
    static CampusModel model;  // default config: full 19,704 meetings
    return model;
  }
};

TEST_F(CampusTest, GeneratesConfiguredMeetingCount) {
  EXPECT_EQ(Model().meetings().size(), 19'704u);
}

TEST_F(CampusTest, MeetingSizeDistribution) {
  int two_party = 0, single = 0, large = 0;
  for (const auto& m : Model().meetings()) {
    ASSERT_GE(m.participants, 1);
    ASSERT_LE(m.participants, 300);
    if (m.participants == 1) ++single;
    if (m.participants == 2) ++two_party;
    if (m.participants >= 25) ++large;
  }
  double n = static_cast<double>(Model().meetings().size());
  // Paper: ~60% two-party.
  EXPECT_NEAR(two_party / n, 0.58, 0.03);
  EXPECT_GT(single, 0);
  EXPECT_GT(large, 10);  // classroom-sized meetings exist (Fig. 2 reaches 25)
}

TEST_F(CampusTest, StreamCountsRespectComposition) {
  for (const auto& m : Model().meetings()) {
    EXPECT_LE(m.audio_streams, m.participants);
    EXPECT_LE(m.video_streams, m.participants);
    EXPECT_EQ(m.SfuStreams(), m.SourceStreams() * m.participants);
  }
}

TEST_F(CampusTest, Figure2ShapeHolds) {
  auto rows = Model().StreamsPerMeetingSize(25);
  ASSERT_GE(rows.size(), 10u);
  for (const auto& r : rows) {
    EXPECT_EQ(r.theoretical_bound, 2 * r.participants * r.participants);
    // Audio+video streams stay within the 2N^2 envelope; screen shares can
    // exceed it (the paper observes the same).
    EXPECT_LE(r.median_streams,
              static_cast<double>(r.theoretical_bound) * 1.2);
    EXPECT_GE(r.min_streams, 0);
    EXPECT_LE(r.min_streams, r.max_streams);
  }
  // Paper call-out: 10-party meetings reach ~200 streams.
  auto ten = std::find_if(rows.begin(), rows.end(),
                          [](const auto& r) { return r.participants == 10; });
  ASSERT_NE(ten, rows.end());
  EXPECT_GT(ten->max_streams, 150);
  EXPECT_LE(ten->max_streams, 240);
}

TEST_F(CampusTest, DiurnalPattern) {
  auto series = Model().ConcurrentMeetings(1.0);
  // Tuesday 14:00 (day 1) much busier than Tuesday 03:00 and Sunday 14:00.
  int day_peak = series[24 + 14].second;
  int night = series[24 + 3].second;
  int weekend = series[5 * 24 + 14].second;
  EXPECT_GT(day_peak, 4 * std::max(night, 1));
  EXPECT_GT(day_peak, 2 * std::max(weekend, 1));
}

TEST_F(CampusTest, ConcurrencyPeaksNearPaper) {
  int peak_m = 0, peak_p = 0;
  for (auto& [t, v] : Model().ConcurrentMeetings(0.25)) {
    peak_m = std::max(peak_m, v);
  }
  for (auto& [t, v] : Model().ConcurrentParticipants(0.25)) {
    peak_p = std::max(peak_p, v);
  }
  EXPECT_GT(peak_m, 180);  // paper ~300
  EXPECT_LT(peak_m, 450);
  EXPECT_GT(peak_p, 400);  // paper ~500
  EXPECT_LT(peak_p, 950);
}

TEST_F(CampusTest, ByteRatesTrackControlFraction) {
  auto rates = Model().ByteRates(6.0);
  ASSERT_FALSE(rates.empty());
  for (const auto& p : rates) {
    if (p.software_bps > 0) {
      EXPECT_NEAR(p.agent_bps / p.software_bps, 0.0035, 1e-9);
    }
  }
}

TEST_F(CampusTest, CaptureSummaryRegime) {
  auto s = Model().Summarize(12.0);
  EXPECT_DOUBLE_EQ(s.hours, 12.0);
  // Same order of magnitude as the paper's capture (which spans a larger
  // population — all campus Zoom traffic).
  EXPECT_GT(s.packets_per_second, 20'000);
  EXPECT_LT(s.packets_per_second, 200'000);
  EXPECT_GT(s.avg_mbps, 100.0);
  EXPECT_LT(s.avg_mbps, 900.0);
  EXPECT_GT(s.flows, 1'000u);
  EXPECT_GT(s.rtp_streams, 1'000u);
}

TEST(CampusConfigTest, SmallConfigsWork) {
  CampusConfig cfg;
  cfg.total_meetings = 100;
  cfg.days = 2;
  CampusModel model(cfg);
  EXPECT_EQ(model.meetings().size(), 100u);
  EXPECT_FALSE(model.StreamsPerMeetingSize(10).empty());
}

TEST(CampusConfigTest, DeterministicForSeed) {
  CampusConfig cfg;
  cfg.total_meetings = 500;
  CampusModel a(cfg), b(cfg);
  for (size_t i = 0; i < a.meetings().size(); ++i) {
    EXPECT_EQ(a.meetings()[i].participants, b.meetings()[i].participants);
    EXPECT_DOUBLE_EQ(a.meetings()[i].start_h, b.meetings()[i].start_h);
  }
}

}  // namespace
}  // namespace scallop::trace

// Structured event tracing (src/obs): the deterministic trace log, the
// Chrome exporter, the flight-recorder ring and the stats registry.
namespace scallop::harness {
namespace {

// The federated drill every acceptance check runs: fleet{6,2} with a
// controller failure mid-run, meetings pinned so the dying region owns
// one (otherwise adoption would carry nothing).
ScenarioSpec FederatedFailureSpec() {
  ScenarioSpec spec = ScenarioSpec::Uniform("trace-fed", 2, 3, 8.0, 7);
  spec.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithControlPlane(0.002)
      .WithMeetingRegion(0, 0)
      .WithMeetingRegion(1, 1)
      .WithControllerFailure(4.0, 1)
      .WithTrace();
  return spec;
}

// Extracts the correlation id of the first trace-text line whose event
// name matches, or 0 when none does. Text lines are
// "<t> <category> <track> <name> corr=<n>[ <detail>]".
uint64_t CorrOfFirst(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string t, category, track, event, corr;
    fields >> t >> category >> track >> event >> corr;
    if (event == name && corr.rfind("corr=", 0) == 0) {
      return std::stoull(corr.substr(5));
    }
  }
  return 0;
}

bool HasEventWithCorr(const std::string& text, const std::string& name,
                      uint64_t corr) {
  return corr != 0 &&
         text.find(name + " corr=" + std::to_string(corr)) != std::string::npos;
}

TEST(ObsTrace, DeterministicOnScallop) {
  ScenarioSpec spec = ScenarioSpec::Uniform("trace-det", 1, 3, 3.0, 5);
  spec.WithControlPlane(0.001).WithTrace();
  ScenarioRunner a(spec);
  a.Run();
  ScenarioRunner b(spec);
  b.Run();
  ASSERT_NE(a.trace(), nullptr);
  EXPECT_GT(a.trace()->size(), 0u);
  EXPECT_EQ(a.trace()->ToText(), b.trace()->ToText());
  EXPECT_EQ(a.trace()->ToChromeJson(), b.trace()->ToChromeJson());
}

TEST(ObsTrace, DeterministicOnFederatedFleet) {
  const ScenarioSpec spec = FederatedFailureSpec();
  ScenarioRunner a(spec);
  a.Run();
  ScenarioRunner b(spec);
  b.Run();
  ASSERT_NE(a.trace(), nullptr);
  EXPECT_GT(a.trace()->size(), 0u);
  EXPECT_EQ(a.trace()->ToText(), b.trace()->ToText());
}

// Pins the southbound command stream itself, not only its determinism:
// each traced spec's full trace text folds to a committed digest, next to
// its event count. Between them the specs create meetings, open and drain
// a relay span, collapse a span on a switch death, migrate a meeting,
// open and collect protection meetings, and join into an adopted shard,
// so a command reordered, added or dropped on any of those paths fails
// here even when the media it carries comes out the same. An intentional
// control-plane change updates these pins together with
// tests/fingerprint_table.inc.
struct TracePin {
  std::string name;
  ScenarioSpec spec;
  // Events the spec exists to exercise; each must appear in the trace.
  std::vector<std::string> must_see;
  std::string digest;
  uint64_t events = 0;
  // When >= 0, that switch's control link goes dark at `dark_at_s`, and
  // its owner's heartbeat detector declares it dead.
  int dark_switch = -1;
  double dark_at_s = 0.0;
};

std::vector<TracePin> TracePins() {
  using testbed::BackendChoice;
  std::vector<TracePin> pins;

  // A ring backbone spread one member per switch, with redundant trees:
  // every standby chain runs the long way round through protection
  // meetings. Member 3 leaves, draining its span and the chains protecting
  // its stream, then rejoins and the span opens again.
  ScenarioSpec ring = ScenarioSpec::Uniform("pin-ring", 1, 4, 2.5, 3);
  ring.WithBackend(BackendChoice::Fleet(4))
      .WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1))
      .WithInterSwitchLink(0, 1, 0.001, 100e6)
      .WithInterSwitchLink(1, 2, 0.001, 100e6)
      .WithInterSwitchLink(2, 3, 0.001, 100e6)
      .WithInterSwitchLink(3, 0, 0.001, 100e6)
      .WithRedundantTrees()
      .WithLeave(0, 3, 1.0, /*rejoin_at_s=*/1.6)
      .WithTrace();
  pins.push_back({"ring", ring,
                  {"placement.meeting_placed", "placement.span_installed",
                   "redundancy.secondary_planned", "remove_meeting.sent"},
                  "0xe97e1aa62d229a7e", 823});

  // Cascaded meetings on fleet{3} through the death of switch 0: the
  // meeting homed there migrates, its members rejoin on the standby, and
  // the span another meeting has there collapses.
  ScenarioSpec death = ScenarioSpec::Uniform("pin-death", 3, 3, 3.0, 5);
  death.WithBackend(BackendChoice::Fleet(3))
      .WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2))
      .WithTrace();
  pins.push_back({"death", death,
                  {"switch.dead", "meeting.migrate", "span.collapsed"},
                  "0x3c9b8dbf5d03331f", 206, /*dark_switch=*/0,
                  /*dark_at_s=*/1.0});

  // fleet{6,2} loses region 1's controller; region 0 adopts its shard,
  // and members then leave, rejoin and join late into the adopted
  // meeting.
  ScenarioSpec adopt = ScenarioSpec::Uniform("pin-adopt", 2, 3, 3.0, 7);
  adopt.WithBackend(BackendChoice::Fleet(6, 2))
      .WithControlPlane(0.002)
      .WithMeetingRegion(0, 0)
      .WithMeetingRegion(1, 1)
      .WithControllerFailure(1.0, 1)
      .WithLeave(1, 0, 1.8, /*rejoin_at_s=*/2.2)
      .WithJoin(1, 2, 2.0)
      .WithTrace();
  pins.push_back({"adopt", adopt,
                  {"controller.adopted", "fleet.shard_adopted"},
                  "0xddebc35d25ad5482", 72});
  return pins;
}

TEST(ObsTrace, CommandStreamPinned) {
  for (const TracePin& pin : TracePins()) {
    SCOPED_TRACE(pin.name);
    ScenarioRunner runner(pin.spec);
    if (pin.dark_switch >= 0) {
      runner.backend().sched().At(
          util::Seconds(pin.dark_at_s), [&runner, &pin] {
            runner.fleet().channel(pin.dark_switch).set_link_up(false);
          });
    }
    runner.Run();
    ASSERT_NE(runner.trace(), nullptr);
    const obs::TraceLog& trace = *runner.trace();
    ASSERT_EQ(trace.evicted(), 0u);
    const std::string text = trace.ToText();
    for (const std::string& event : pin.must_see) {
      EXPECT_NE(text.find(" " + event + " "), std::string::npos) << event;
    }
    EXPECT_EQ(ScenarioFingerprint::Hex(ScenarioFingerprint::Fold(text)),
              pin.digest);
    EXPECT_EQ(trace.size(), pin.events);
  }
}

TEST(ObsTrace, RegionTracksNameGlobalSwitchIds) {
  // Every region numbers switches the way the testbed, the CSV and the
  // sw:<i> command tracks do, so each region's placements name switches
  // in its own slice of fleet{6,2}: {0,1,2} for region 0, {3,4,5} for
  // region 1.
  ScenarioRunner runner(FederatedFailureSpec());
  runner.Run();
  ASSERT_NE(runner.trace(), nullptr);
  std::istringstream in(runner.trace()->ToText());
  std::string line;
  std::set<size_t> placing_regions;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string t, category, track, event, corr, meeting, sw;
    fields >> t >> category >> track >> event >> corr >> meeting >> sw;
    if (event != "placement.meeting_placed") continue;
    ASSERT_EQ(track.rfind("region:", 0), 0u) << line;
    ASSERT_EQ(sw.rfind("switch=", 0), 0u) << line;
    const size_t region = std::stoul(track.substr(7));
    EXPECT_EQ(std::stoul(sw.substr(7)) / 3, region) << line;
    placing_regions.insert(region);
  }
  EXPECT_EQ(placing_regions, (std::set<size_t>{0, 1}));
}

TEST(ObsTrace, TracingOffKeepsCsvByteIdentical) {
  // The traced run's CSV must equal the untraced run's byte-for-byte once
  // the gated obs section is removed: enabling tracing may add its own
  // section but must not perturb a single behavioral counter.
  ScenarioSpec spec = ScenarioSpec::Uniform("trace-gate", 2, 3, 4.0, 11);
  spec.WithBackend(testbed::BackendChoice::Fleet(3)).WithControlPlane(0.002);
  ScenarioRunner off(spec);
  const std::string untraced = off.Run().ToCsv();

  ScenarioSpec traced_spec = spec;
  traced_spec.WithTrace();
  ScenarioRunner on(traced_spec);
  const std::string traced = on.Run().ToCsv();

  std::string traced_stripped;
  std::istringstream in(traced);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("obs,", 0) == 0) continue;
    traced_stripped += line + "\n";
  }
  EXPECT_NE(traced, untraced) << "traced CSV should carry an obs section";
  EXPECT_EQ(traced_stripped, untraced);
  EXPECT_GT(on.trace()->size(), 0u);
}

TEST(ObsTrace, ChromeExportWellFormedWithSpansAndChains) {
  ScenarioRunner runner(FederatedFailureSpec());
  const ScenarioMetrics& m = runner.Run();
  ASSERT_NE(runner.trace(), nullptr);

  obs::StatsRegistry registry;
  m.RegisterInto(registry);
  const std::string json = runner.trace()->ToChromeJson(&registry);
  std::string error;
  EXPECT_TRUE(obs::TraceLog::ValidateChromeTrace(json, &error)) << error;
  // At least one command completed as a .sent -> .applied span.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // One track per switch plus the federation/region/east-west tracks.
  EXPECT_NE(json.find("\"sw:0\""), std::string::npos);
  EXPECT_NE(json.find("\"region:1\""), std::string::npos);
  // The registry rides along as a metadata record.
  EXPECT_NE(json.find("\"stats\""), std::string::npos);
  EXPECT_NE(json.find("aggregate.switch_in"), std::string::npos);

  // The causal chain the drill exists for: the east-west heartbeat miss
  // that began the death carries the same correlation id through to the
  // shard adoption.
  const std::string text = runner.trace()->ToText();
  const uint64_t chain = CorrOfFirst(text, "controller.heartbeat_miss");
  ASSERT_NE(chain, 0u);
  EXPECT_TRUE(HasEventWithCorr(text, "controller.dead", chain)) << text;
  EXPECT_TRUE(HasEventWithCorr(text, "controller.adopted", chain));
  // And a complete command span: the first create_meeting's .sent has a
  // matching .applied under the same correlation id.
  const uint64_t cmd = CorrOfFirst(text, "create_meeting.sent");
  ASSERT_NE(cmd, 0u);
  EXPECT_TRUE(HasEventWithCorr(text, "create_meeting.applied", cmd));
}

TEST(ObsTrace, ValidatorRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(obs::TraceLog::ValidateChromeTrace("{\"nope\":[]}", &error));
  EXPECT_FALSE(
      obs::TraceLog::ValidateChromeTrace("{\"traceEvents\":[", &error));
}

TEST(ObsTrace, RingEvictsOldest) {
  obs::TraceLog log(4);
  for (int i = 0; i < 6; ++i) {
    log.Emit(i, obs::Category::kControl, "t", "e" + std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_emitted(), 6u);
  EXPECT_EQ(log.evicted(), 2u);
  EXPECT_EQ(log.events().front().name, "e2");
  EXPECT_EQ(log.events().back().name, "e5");
}

TEST(ObsTrace, FlightRecorderDumpsOnForcedInvariantFailure) {
  ScenarioSpec spec = ScenarioSpec::Uniform("trace-fr", 1, 2, 2.0, 3);
  spec.WithTrace(64);
  ScenarioRunner runner(spec);
  ScenarioMetrics m = runner.Run();
  // The clean run trips nothing.
  EXPECT_EQ(runner.FlightRecorderDump(m), "");
  // Force a rewrite violation into a copy of the metrics: the recorder
  // must dump its ring with a header naming the violated invariant.
  ASSERT_FALSE(m.streams.empty());
  m.streams[0].decoder_breaks = 1;
  const std::string dump = runner.FlightRecorderDump(m);
  ASSERT_NE(dump, "");
  EXPECT_NE(dump.find("flight recorder"), std::string::npos);
  EXPECT_NE(dump.find("rewrite_violations=1"), std::string::npos);
  EXPECT_NE(dump.find("corr="), std::string::npos);  // carries trace text
}

TEST(ObsStatsRegistry, InsertionOrderedUpdateInPlace) {
  obs::StatsRegistry registry;
  registry.Set("b", 2);
  registry.Set("a", 1);
  registry.Set("b", 5);
  EXPECT_EQ(registry.Get("b"), 5u);
  EXPECT_EQ(registry.Get("a"), 1u);
  EXPECT_EQ(registry.Get("missing"), 0u);
  ASSERT_EQ(registry.entries().size(), 2u);
  EXPECT_EQ(registry.entries()[0].first, "b");
  EXPECT_EQ(registry.ToText(), "b=5\na=1\n");
}

}  // namespace
}  // namespace scallop::harness
