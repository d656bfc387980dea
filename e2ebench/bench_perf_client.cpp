// bench_perf_client — the client layer (client, media, bwe, rtp) timed per
// call, outside any scenario. About 90% of the end-to-end workloads' wall
// time lies outside the layers the traced bench_e2e run can wrap, and the
// peers cannot be wrapped from outside; this program gives their layer its
// own time numbers:
//
//   client.tx_ns_per_frame   SvcEncoder::NextFrame + Packetizer::Packetize
//                            + RtpPacket::Serialize of each packet
//   client.rx_ns_per_packet  RtpPacket::Parse + abs-send-time decode +
//                            ReceiverBandwidthEstimator::OnPacket +
//                            VideoReceiver::OnPacket
//
//   bench_perf_client [--seed N] [--seconds S]
//
// One 30 fps sender's stream is produced in batches of 10 simulated seconds
// and fed, loss-free, to one receiver; batches repeat until --seconds is
// spent and each metric is the median over batches. The check: every frame
// sent was decoded and none was undecodable. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; BENCH_client.json
// (scallop-bench-v1) lands in $SCALLOP_BENCH_DIR.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bwe/estimator.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "perf_report.hpp"
#include "rtp/rtp_packet.hpp"

namespace {

using namespace scallop;
using Clock = std::chrono::steady_clock;

constexpr int kFramesPerBatch = 300;  // 10 s at 30 fps
constexpr util::DurationUs kOneWay = util::Millis(20);
constexpr uint32_t kSsrc = 0x5ca110;

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Wire {
  std::vector<uint8_t> bytes;
  util::TimeUs sent = 0;
};

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  double seconds = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_perf_client [--seed N] "
                           "[--seconds S]\n");
      return 2;
    }
  }

  media::SvcEncoder encoder(media::SvcEncoderConfig{}, seed);
  media::Packetizer packetizer({.ssrc = kSsrc});
  media::VideoReceiver receiver(
      {}, [](const std::vector<uint16_t>&) {}, [] {});
  bwe::ReceiverBandwidthEstimator bwe;
  const util::DurationUs frame_interval = encoder.frame_interval();

  std::vector<double> tx_ns, rx_ns;
  std::vector<Wire> wire;
  util::TimeUs now = 0;
  uint64_t packets = 0;
  const Clock::time_point start = Clock::now();
  do {
    wire.clear();
    Clock::time_point t0 = Clock::now();
    for (int f = 0; f < kFramesPerBatch; ++f, now += frame_interval) {
      const media::EncodedFrame frame = encoder.NextFrame(now);
      for (const rtp::RtpPacket& pkt : packetizer.Packetize(frame, now)) {
        wire.push_back({pkt.Serialize(), now});
      }
    }
    tx_ns.push_back(NsSince(t0) / kFramesPerBatch);

    t0 = Clock::now();
    for (const Wire& w : wire) {
      const util::TimeUs arrival = w.sent + kOneWay;
      const auto pkt = rtp::RtpPacket::Parse(w.bytes);
      if (!pkt.has_value()) continue;
      util::TimeUs send_time = arrival;
      if (const rtp::RtpExtension* ast =
              pkt->FindExtension(media::kAbsSendTimeExtensionId)) {
        // Align the 64 s abs-send-time window with the arrival clock, as
        // the peer's receive path does.
        constexpr util::TimeUs kWrap = 64'000'000;
        send_time = arrival - arrival % kWrap +
                    media::DecodeAbsSendTime(ast->data);
        if (send_time > arrival + kWrap / 2) send_time -= kWrap;
      }
      bwe.OnPacket(arrival, send_time, w.bytes.size());
      receiver.OnPacket(*pkt, arrival);
    }
    rx_ns.push_back(NsSince(t0) / static_cast<double>(wire.size()));
    packets += wire.size();
  } while (std::chrono::duration<double>(Clock::now() - start).count() <
               seconds ||
           tx_ns.size() < 5);

  const media::VideoReceiverStats& st = receiver.stats();
  const uint64_t sent = static_cast<uint64_t>(encoder.frames_produced());
  const uint64_t lost = sent - std::min(sent, st.frames_decoded);
  const bool correct = lost == 0 && st.frames_undecodable == 0 &&
                       st.packets_received == packets;
  if (!correct) {
    std::fprintf(stderr,
                 "CHECK FAILED: client path decoded %llu of %llu frames "
                 "(%llu undecodable)\n",
                 static_cast<unsigned long long>(st.frames_decoded),
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(st.frames_undecodable));
  }

  const double tx = Median(tx_ns);
  const double rx = Median(rx_ns);
  std::printf("client batches %zu, %llu frames, %llu packets\n", tx_ns.size(),
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(packets));
  std::printf("client client.tx_ns_per_frame %.17g ns\n", tx);
  std::printf("client client.rx_ns_per_packet %.17g ns\n", rx);

  bench::PerfReport report("client");
  report.AddMetric("tx_ns_per_frame", tx, "ns", /*higher_is_better=*/false);
  report.AddMetric("rx_ns_per_packet", rx, "ns", /*higher_is_better=*/false);
  report.AddParam("batches", static_cast<double>(tx_ns.size()));
  report.AddParam("frames_per_batch", kFramesPerBatch);
  if (report.WriteJson().empty()) {
    std::fprintf(stderr, "could not write BENCH_client.json\n");
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{\"client.tx_ns_per_frame\": {\"value\": %.17g, \"unit\": \"ns\"}, "
      "\"client.rx_ns_per_packet\": {\"value\": %.17g, \"unit\": \"ns\"}}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(lost), tx, rx);
  return correct ? 0 : 1;
}
