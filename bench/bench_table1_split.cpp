// Table 1: per-participant packet/byte taxonomy of a three-party Scallop
// meeting and the resulting control/data-plane split.
// Paper: 96.46% of packets and 99.65% of bytes stay in the data plane.
#include <cstdio>
#include <map>

#include "av1/dependency_descriptor.hpp"
#include "bench_common.hpp"
#include "rtp/classifier.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "testbed/testbed.hpp"

namespace {

struct ClassCount {
  uint64_t packets = 0;
  uint64_t bytes = 0;
};

}  // namespace

int main() {
  using namespace scallop;
  bench::Header("Table 1: packets per participant sent to the SFU");

  const double kDuration = bench::FullScale() ? 600.0 : 120.0;

  testbed::TestbedConfig cfg;
  // 720p-equivalent AV1 video (~2.2 Mb/s, ~235 pkts/s) + audio, as in the
  // paper's three-party trace.
  cfg.peer.encoder.start_bitrate_bps = 2'200'000;
  cfg.peer.encoder.max_bitrate_bps = 2'400'000;
  cfg.peer.encoder.key_frame_interval = util::Seconds(8.3);
  testbed::ScallopTestbed bed(cfg);

  client::Peer& p1 = bed.AddPeer();
  client::Peer& p2 = bed.AddPeer();
  client::Peer& p3 = bed.AddPeer();

  // Classify every packet participant 1 sends to the SFU.
  std::map<std::string, ClassCount> counts;
  net::Ipv4 tracked = net::Ipv4(10, 0, 0, 1);
  bed.sw().SetIngressTap([&](const net::Packet& pkt) {
    if (pkt.src.addr != tracked) return;
    std::string klass;
    switch (rtp::Classify(pkt.payload_span())) {
      case rtp::PayloadKind::kStun:
        klass = "STUN*";
        break;
      case rtp::PayloadKind::kRtp: {
        auto parsed = rtp::RtpPacket::Parse(pkt.payload_span());
        bool extended_dd = false;
        bool video = false;
        if (parsed.has_value()) {
          const auto* ext = parsed->FindExtension(av1::kDdExtensionId);
          if (ext != nullptr) {
            video = true;
            extended_dd = ext->data.size() > 3;
          }
        }
        klass = extended_dd ? "- AV1 DS*" : (video ? "- Video" : "- Audio");
        break;
      }
      case rtp::PayloadKind::kRtcp: {
        uint8_t pt = pkt.payload.size() > 1 ? pkt.payload[1] : 0;
        if (pt == rtp::kRtcpSr || pt == rtp::kRtcpSdes) {
          klass = "- SR/SDES";
        } else if (core::CompoundContainsRemb(pkt.payload_span())) {
          klass = "- RR/REMB*";
        } else if (pt == rtp::kRtcpRr) {
          klass = "- RR*";
        } else {
          klass = "- NACK/PLI*";
        }
        break;
      }
      default:
        klass = "other";
    }
    counts[klass].packets += 1;
    counts[klass].bytes += pkt.payload.size();
  });

  auto meeting = bed.CreateMeeting();
  p1.Join(bed.signaling(), meeting);
  p2.Join(bed.signaling(), meeting);
  p3.Join(bed.signaling(), meeting);
  bed.RunFor(kDuration);

  auto get = [&](const std::string& k) { return counts[k]; };
  ClassCount video = get("- Video"), audio = get("- Audio"),
             ds = get("- AV1 DS*"), sr = get("- SR/SDES"), rr = get("- RR*"),
             remb = get("- RR/REMB*"), nack = get("- NACK/PLI*"),
             stun = get("STUN*");

  ClassCount rtp{video.packets + audio.packets + ds.packets,
                 video.bytes + audio.bytes + ds.bytes};
  ClassCount rtcp{sr.packets + rr.packets + remb.packets + nack.packets,
                  sr.bytes + rr.bytes + remb.bytes + nack.bytes};
  uint64_t total_p = rtp.packets + rtcp.packets + stun.packets;
  uint64_t total_b = rtp.bytes + rtcp.bytes + stun.bytes;
  // Control plane: classes marked * (copies analyzed in software).
  ClassCount ctrl{ds.packets + rr.packets + remb.packets + stun.packets +
                      nack.packets,
                  ds.bytes + rr.bytes + remb.bytes + stun.bytes + nack.bytes};
  ClassCount data{total_p - ctrl.packets, total_b - ctrl.bytes};

  auto row = [&](const char* name, const ClassCount& c) {
    std::printf("%-12s %10lu %7.2f%% %9.2f/s %10.0f KB %7.2f%%\n", name,
                static_cast<unsigned long>(c.packets),
                100.0 * static_cast<double>(c.packets) /
                    static_cast<double>(total_p),
                static_cast<double>(c.packets) / kDuration,
                static_cast<double>(c.bytes) / 1000.0,
                100.0 * static_cast<double>(c.bytes) /
                    static_cast<double>(total_b));
  };

  std::printf("%-12s %10s %8s %11s %13s %8s\n", "Proto/Type", "Packets",
              "Pct.", "Per sec.", "KBytes", "Pct.");
  row("RTP", rtp);
  row("- Audio", audio);
  row("- Video", video);
  row("- AV1 DS*", ds);
  row("RTCP", rtcp);
  row("- SR/SDES", sr);
  row("- RR*", rr);
  row("- RR/REMB*", remb);
  row("- NACK/PLI*", nack);
  row("STUN*", stun);
  row("Ctrl. Plane", ctrl);
  row("Data Plane", data);
  row("Total", ClassCount{total_p, total_b});

  std::printf("\nData-plane share: %.2f%% of packets, %.2f%% of bytes "
              "(paper: 96.46%% / 99.65%%)\n",
              100.0 * static_cast<double>(data.packets) /
                  static_cast<double>(total_p),
              100.0 * static_cast<double>(data.bytes) /
                  static_cast<double>(total_b));
  return 0;
}
