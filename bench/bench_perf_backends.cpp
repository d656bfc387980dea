// End-to-end backend benchmark -> BENCH_backends.json. Runs the same
// 8-meeting x 5-peer, 10-sim-second scenario on all three conference
// backends and reports simulated seconds per wall second for each — the
// repo's headline "how fast does the whole simulator go" number. (The
// southbound command rate is bench_perf_control's.)
#include <cstdio>

#include "bench_common.hpp"
#include "harness/runner.hpp"
#include "perf_report.hpp"

namespace {

using namespace scallop;

// Simulated seconds per wall second for one backend.
double BackendRate(const testbed::BackendChoice& choice, int meetings,
                   int peers, double duration_s, bool* ok) {
  harness::ScenarioSpec spec = harness::ScenarioSpec::Uniform(
      "perf-backends", meetings, peers, duration_s);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
  spec.sample_interval_s = 1.0;
  spec.backend = choice;
  harness::ScenarioRunner runner(spec);
  scallop::bench::WallTimer timer;
  const harness::ScenarioMetrics& m = runner.Run();
  double wall = timer.Seconds();
  if (m.switch_packets_in == 0 || m.WorstDeliveryFloor() < 10) {
    std::printf("FAIL: backend %s delivered no media\n",
                choice.Label().c_str());
    *ok = false;
  }
  return duration_s / wall;
}

}  // namespace

int main() {
  bench::Header("Perf: backend sim-s/wall-s");

  const bool full = bench::FullScale();
  const int meetings = 8;
  const int peers = 5;
  const double duration_s = full ? 30.0 : 10.0;

  bool ok = true;
  double scallop_rate =
      BackendRate(testbed::BackendChoice::Scallop(), meetings, peers,
                  duration_s, &ok);
  double fleet_rate = BackendRate(testbed::BackendChoice::Fleet(4), meetings,
                                  peers, duration_s, &ok);
  double software_rate =
      BackendRate(testbed::BackendChoice::Software(), meetings, peers,
                  duration_s, &ok);
  if (!ok) return 1;

  std::printf("scallop: %.3g sim-s/wall-s   fleet{4}: %.3g   software: %.3g\n",
              scallop_rate, fleet_rate, software_rate);

  scallop::bench::PerfReport report("backends");
  report.AddMetric("sim_s_per_wall_s_scallop", scallop_rate, "sim-s/wall-s");
  report.AddMetric("sim_s_per_wall_s_fleet", fleet_rate, "sim-s/wall-s");
  report.AddMetric("sim_s_per_wall_s_software", software_rate,
                   "sim-s/wall-s");
  report.AddParam("meetings", meetings);
  report.AddParam("peers_per_meeting", peers);
  report.AddParam("duration_s", duration_s);
  report.AddParam("fleet_switches", 4);
  report.WriteJson();
  return 0;
}
