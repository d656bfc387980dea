// Figure 19: per-packet RTP round-trip time in a two-party call, Scallop's
// hardware data plane vs the software split-proxy SFU.
// Paper: Scallop cuts median latency 26.8x and p99 8.5x.
// RTT here = 2x the one-way path latency of each media packet (send
// timestamp from the abs-send-time extension vs arrival), which includes
// the access links plus one SFU traversal — the same quantity for both
// systems, so only the SFU stage differs.
#include <cstdio>

#include "bench_common.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace scallop;

// The paper's testbed connects clients to the SFU over a direct 1 Gbit/s
// link, so per-packet latency is dominated by the SFU stage rather than
// access-link serialization. Mirror that here.
sim::LinkConfig TestbedLink() {
  sim::LinkConfig link;
  link.rate_bps = 1e9;
  link.prop_delay = util::Millis(0.2);
  link.jitter_stddev = 4;  // NIC/kernel noise on the client side
  // Rare host-side latency spikes (interrupt coalescing, GC pauses on the
  // measurement harness) — identical for both systems under test.
  link.reorder_rate = 0.015;
  link.reorder_delay = util::Millis(0.06);
  return link;
}

util::SampleSet RunScallop(double seconds) {
  testbed::TestbedConfig cfg;
  cfg.client_uplink = TestbedLink();
  cfg.client_downlink = TestbedLink();
  // Audio-only probe streams: one constant-size packet per 20 ms, so the
  // per-packet latency isolates the SFU stage (video bursts would add
  // identical serialization queueing to both systems and drown it).
  cfg.peer.send_video = false;
  util::SampleSet rtt_ms;
  cfg.peer.media_tap = [&rtt_ms](uint32_t, util::TimeUs send,
                                 util::TimeUs arrival) {
    rtt_ms.Add(2.0 * util::ToMillis(arrival - send));
  };
  testbed::ScallopTestbed bed(cfg);
  client::Peer& a = bed.AddPeer();
  client::Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.signaling(), meeting);
  b.Join(bed.signaling(), meeting);
  bed.RunFor(seconds);
  return rtt_ms;
}

util::SampleSet RunSoftware(double seconds) {
  testbed::TestbedConfig cfg;
  cfg.client_uplink = TestbedLink();
  cfg.client_downlink = TestbedLink();
  cfg.peer.send_video = false;
  util::SampleSet rtt_ms;
  cfg.peer.media_tap = [&rtt_ms](uint32_t, util::TimeUs send,
                                 util::TimeUs arrival) {
    rtt_ms.Add(2.0 * util::ToMillis(arrival - send));
  };
  testbed::SoftwareTestbed bed(cfg);
  client::Peer& a = bed.AddPeer();
  client::Peer& b = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  a.Join(bed.sfu(), meeting);
  b.Join(bed.sfu(), meeting);
  bed.RunFor(seconds);
  return rtt_ms;
}

}  // namespace

int main() {
  bench::Header("Figure 19: RTP round-trip time CDF, Scallop vs Mediasoup");
  double seconds = bench::FullScale() ? 120.0 : 30.0;

  util::SampleSet scallop = RunScallop(seconds);
  util::SampleSet software = RunSoftware(seconds);

  // The paper plots SFU-induced latency on a 0-1 ms axis; our RTTs include
  // the (identical) access links, so we subtract the wire floor to isolate
  // the SFU stage, as the paper's testbed measurement does.
  double wire_floor = std::min(scallop.Min(), software.Min()) - 0.01;
  auto strip = [&](const util::SampleSet& in) {
    util::SampleSet out;
    for (double v : in.samples()) out.Add(v - wire_floor);
    return out;
  };
  util::SampleSet sc = strip(scallop);
  util::SampleSet sw = strip(software);

  std::printf("%28s %12s %12s\n", "", "Scallop", "Mediasoup");
  std::printf("%28s %9zu %12zu\n", "packets", sc.size(), sw.size());
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    std::printf("SFU-induced RTT p%-5.1f [ms] %12.4f %12.4f\n", p,
                sc.Percentile(p), sw.Percentile(p));
  }

  double median_ratio = sw.Median() / sc.Median();
  double p99_ratio = sw.Percentile(99) / sc.Percentile(99);
  std::printf("\nmedian ratio: %.1fx (paper 26.8x)   p99 ratio: %.1fx "
              "(paper 8.5x)\n",
              median_ratio, p99_ratio);

  std::printf("\nCDF points (SFU-induced RTT in ms):\n%10s %10s %10s\n",
              "fraction", "scallop", "mediasoup");
  for (double f : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}) {
    std::printf("%10.2f %10.4f %10.4f\n", f, sc.Percentile(100 * f),
                sw.Percentile(100 * f));
  }
  return 0;
}
