// Figures 23 & 24: per-receiver forwarded bytes of a single video stream
// (Fig. 23) and its per-SVC-layer breakdown (Fig. 24), reproducing the
// Zoom-trace observation that the SFU adapts a stream per receiver by
// forwarding only a subset of layer "packet types".
// Script: a three-party meeting; the SFU reduces receiver 2's quality at
// ~t1 and receiver 3's at ~t2 (mirroring the paper's participants 12/17).
#include <cstdio>

#include "bench_common.hpp"
#include "testbed/testbed.hpp"

int main() {
  using namespace scallop;
  bench::Header("Figures 23+24: per-receiver and per-layer forwarded bytes");

  bool full = bench::FullScale();
  const double kTotal = full ? 250.0 : 120.0;
  const double kDrop1 = kTotal * 0.45;  // paper: ~110 s for receiver 12
  const double kDrop2 = kTotal * 0.80;  // paper: ~200 s for receiver 17

  testbed::TestbedConfig cfg;
  cfg.peer.encoder.start_bitrate_bps = 250'000;  // ramps up like Fig. 23
  cfg.peer.encoder.max_bitrate_bps = 800'000;
  testbed::ScallopTestbed bed(cfg);

  client::Peer& sender = bed.AddPeer();
  client::Peer& r12 = bed.AddPeer();
  client::Peer& r17 = bed.AddPeer();
  auto meeting = bed.CreateMeeting();
  sender.Join(bed.signaling(), meeting);
  r12.Join(bed.signaling(), meeting);
  r17.Join(bed.signaling(), meeting);
  // The agent numbers meetings switch-locally.
  const core::MeetingId local = bed.fleet().PlacementDetail(meeting).second;

  bed.RunFor(kDrop1);
  bed.agent().ForceDecodeTarget(local, r12.id(), sender.id(), 1);
  bed.RunFor(kDrop2 - kDrop1);
  bed.agent().ForceDecodeTarget(local, r17.id(), sender.id(), 1);
  bed.RunFor(kTotal - kDrop2);

  const auto* rx12 = r12.video_receiver(sender.id());
  const auto* rx17 = r17.video_receiver(sender.id());

  std::printf("Figure 23: received rate of the sender's stream [kbit/s]\n");
  std::printf("%6s %12s %12s\n", "t[s]", "receiver12", "receiver17");
  for (int64_t s = 0; s < static_cast<int64_t>(kTotal); s += 5) {
    std::printf("%6ld %12.0f %12.0f\n", static_cast<long>(s),
                rx12->received_bytes_series().SumInSecond(s) * 8.0 / 1000.0,
                rx17->received_bytes_series().SumInSecond(s) * 8.0 / 1000.0);
  }

  // Fig. 24: per-layer (template id ~ the paper's packet-type bitmask)
  // breakdown at receiver 17 around its adaptation point.
  std::printf("\nFigure 24: receiver 17, bytes/s by template id "
              "(paper's 'packet type')\n");
  std::printf("%6s %8s %8s %8s %8s %8s\n", "t[s]", "tmpl0", "tmpl1", "tmpl2",
              "tmpl3", "tmpl4");
  int64_t from = static_cast<int64_t>(kDrop2) - 20;
  int64_t to = static_cast<int64_t>(kTotal);
  for (int64_t s = std::max<int64_t>(0, from); s < to; s += 5) {
    std::printf("%6ld", static_cast<long>(s));
    for (uint8_t t = 0; t < 5; ++t) {
      std::printf(" %8.0f", rx17->template_bytes_series(t).SumInSecond(s));
    }
    std::printf("\n");
  }
  bench::Note("\nPaper shape: after each receiver's adaptation point its "
              "received rate steps down; the reduction comes from dropping "
              "the TL2 packet types (templates 3/4) while TL0/TL1 continue.");
  return 0;
}
