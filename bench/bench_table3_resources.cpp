// Table 3: Tofino resource usage of the Scallop data plane. Pipeline
// structure rows (parse depth, stages, PHV, xbars, ...) are constants of
// the compiled P4 program carried from the paper; capacity rows (SRAM,
// TCAM, PRE, egress throughput) are reported live from the simulator's
// allocations under a campus-peak-style load.
#include <cstdio>

#include "bench_common.hpp"
#include "core/capacity.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace scallop;
  bench::Header("Table 3: Tofino data-plane resource usage");

  testbed::TestbedConfig cfg;
  cfg.peer.encoder.start_bitrate_bps = 700'000;
  testbed::ScallopTestbed bed(cfg);

  // Campus-peak-style load (scaled): several concurrent meetings of
  // different sizes, all media flowing through the data plane.
  const int kMeetings = bench::FullScale() ? 12 : 5;
  for (int m = 0; m < kMeetings; ++m) {
    auto meeting = bed.CreateMeeting();
    int size = 2 + m % 3;  // mix of 2-4 party meetings
    for (int p = 0; p < size; ++p) {
      bed.AddPeer().Join(bed.signaling(), meeting);
    }
  }
  double seconds = bench::FullScale() ? 60.0 : 15.0;
  bed.RunFor(seconds);

  auto report = bed.sw().resources().Report(
      seconds, bed.sw().pre().tree_count(), bed.sw().pre().node_count());
  std::printf("%s\n", bed.sw().resources().FormatTable3(report).c_str());

  std::printf("Installed tables:\n");
  for (const auto& t : report.tables) {
    std::printf("  %-16s %8zu / %8zu entries (%s, %zu bits/entry)\n",
                t.name.c_str(), t.occupied, t.capacity,
                t.tcam ? "TCAM" : "SRAM", t.entry_bits);
  }

  // Max-utilization egress throughput from the capacity model (quadratic
  // growth; paper reports 197 Gb/s at max utilization).
  core::CapacityModel model;
  auto b = model.Evaluate(core::Workload{10, 10, 2});
  double max_meetings = b.ScallopWorst();
  double max_tput_gbps =
      max_meetings * 10 * 9 * model.hardware().stream_bitrate_bps / 1e9;
  std::printf("\nEgress throughput at max RA-SR utilization (model): "
              "%.0f Gb/s (paper: 197 Gb/s)\n",
              max_tput_gbps);
  return 0;
}
