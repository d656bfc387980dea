// Ablations of Scallop's design choices (DESIGN.md §7):
//
//  A. The never-duplicate rule (paper §6.2): a naive rewriter that rewrites
//     late packets with the current offset occasionally emits duplicate
//     output sequence numbers; the receiver's decoder state breaks and the
//     video freezes until a key frame. S-LR leaves gaps instead: only
//     retransmissions are triggered.
//  B. Receiver-driven REMB vs sender-driven TWCC (paper §5.2): TWCC sends
//     one feedback packet per 10-20 media packets, which would multiply
//     the switch agent's event rate.
#include <cstdio>
#include <set>

#include "av1/dependency_descriptor.hpp"
#include "bench_common.hpp"
#include "core/seqrewrite.hpp"
#include "media/receiver.hpp"
#include "rtp/rtp_packet.hpp"
#include "testbed/testbed.hpp"
#include "util/random.hpp"

namespace {

using namespace scallop;

// Deliberately broken rewriter: like S-LM, but *always* rewrites late
// packets with the current offset — the unsafe behaviour both heuristics
// avoid.
class NaiveRewriter : public core::SequenceRewriter {
 public:
  explicit NaiveRewriter(const core::SkipCadence& cadence)
      : cadence_(cadence) {}

  core::RewriteResult Process(const core::RewritePacketView& pkt) override {
    int64_t seq = unwrap_.Unwrap(pkt.seq);
    if (pkt.suppress) {
      if (seq > highest_) {
        if (seq - highest_ > 1 &&
            cadence_.AllSkippedBetween(highest_frame_, pkt.frame)) {
          offset_ += seq - highest_ - 1;
        }
        offset_ += 1;
        highest_ = seq;
        highest_frame_ = pkt.frame;
      }
      return {false, 0};
    }
    if (seq > highest_) {
      if (seq - highest_ > 1 &&
          cadence_.AllSkippedBetween(highest_frame_, pkt.frame)) {
        offset_ += seq - highest_ - 1;
      }
      highest_ = seq;
      highest_frame_ = pkt.frame;
    }
    // The bug: late packets rewritten with the *current* offset.
    return {true, static_cast<uint16_t>(seq - offset_)};
  }
  void SetCadence(const core::SkipCadence& c) override { cadence_ = c; }
  int64_t current_offset() const override { return offset_; }
  size_t state_bits() const override { return 64; }
  std::string name() const override { return "naive"; }

 private:
  core::SkipCadence cadence_;
  util::SeqUnwrapper unwrap_;
  int64_t highest_ = -1;
  uint16_t highest_frame_ = 0;
  int64_t offset_ = 0;
};

// Runs an adapted (DT1) stream with reordering through a rewriter into the
// real receiver model; reports decoder breaks and freeze time.
struct ReceiverOutcome {
  uint64_t decoder_breaks;
  double freeze_ms;
  uint64_t nacked;
  uint64_t frames_decoded;
};

ReceiverOutcome RunThroughReceiver(core::SequenceRewriter& rw,
                                   uint64_t seed) {
  media::SvcEncoderConfig ecfg;
  ecfg.size_jitter = 0.1;
  ecfg.key_frame_interval = util::Seconds(5);
  media::SvcEncoder encoder(ecfg, seed);
  media::Packetizer packetizer(media::PacketizerConfig{.ssrc = 9});
  media::VideoReceiverConfig rcfg;
  uint64_t nacked = 0;
  media::VideoReceiver receiver(
      rcfg, [&nacked](const std::vector<uint16_t>& s) { nacked += s.size(); },
      [] {});
  util::Rng rng(seed * 77);

  std::vector<std::pair<rtp::RtpPacket, bool>> pending;  // (pkt, suppress)
  util::TimeUs t = 0;
  for (int f = 0; f < 1500; ++f) {
    t += 33'333;
    auto frame = encoder.NextFrame(t);
    bool suppress = !av1::TemplateInDecodeTarget(
        frame.template_id, av1::DecodeTarget::kDT1);
    for (auto& pkt : packetizer.Packetize(frame, t)) {
      pending.emplace_back(std::move(pkt), suppress);
    }
    // Mild reordering within the last few packets.
    for (size_t i = pending.size() > 4 ? pending.size() - 4 : 0;
         i + 1 < pending.size(); ++i) {
      if (rng.Bernoulli(0.05)) std::swap(pending[i], pending[i + 1]);
    }
    // Drain all but a small reorder window.
    while (pending.size() > 3) {
      auto [pkt, sup] = std::move(pending.front());
      pending.erase(pending.begin());
      const auto* ext = pkt.FindExtension(av1::kDdExtensionId);
      auto dd = av1::PeekMandatory(ext->data);
      core::RewritePacketView view{pkt.sequence_number, dd->frame_number,
                                   dd->start_of_frame, dd->end_of_frame,
                                   sup};
      auto res = rw.Process(view);
      if (!res.forward) continue;
      pkt.sequence_number = res.out_seq;
      receiver.OnPacket(pkt, t);
    }
    if (f % 3 == 0) receiver.OnTick(t);
  }
  return {receiver.stats().decoder_breaks, receiver.stats().total_freeze_ms,
          nacked, receiver.stats().frames_decoded};
}

}  // namespace

int main() {
  bench::Header("Ablation A: never-duplicate rule (paper §6.2)");
  std::printf("%10s %15s %12s %10s %10s\n", "rewriter", "decoder_breaks",
              "freeze[ms]", "retx_req", "decoded");
  double naive_freeze = 0, slr_freeze = 0;
  uint64_t naive_decoded = 0, slr_decoded = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    core::SkipCadence cadence = core::SkipCadence::ForDecodeTarget(1, 1);
    core::SlrRewriter slr(cadence);
    NaiveRewriter naive(cadence);
    auto good = RunThroughReceiver(slr, seed);
    auto bad = RunThroughReceiver(naive, seed);
    naive_freeze += bad.freeze_ms;
    slr_freeze += good.freeze_ms;
    naive_decoded += bad.frames_decoded;
    slr_decoded += good.frames_decoded;
    if (seed == 1) {
      std::printf("%10s %15lu %12.0f %10lu %10lu\n", "S-LR",
                  static_cast<unsigned long>(good.decoder_breaks),
                  good.freeze_ms, static_cast<unsigned long>(good.nacked),
                  static_cast<unsigned long>(good.frames_decoded));
      std::printf("%10s %15lu %12.0f %10lu %10lu\n", "naive",
                  static_cast<unsigned long>(bad.decoder_breaks),
                  bad.freeze_ms, static_cast<unsigned long>(bad.nacked),
                  static_cast<unsigned long>(bad.frames_decoded));
    }
  }
  std::printf("\nAcross 5 runs: careless offset reuse froze playback for "
              "%.1f s and decoded %lu frames; S-LR froze %.1f s and decoded "
              "%lu. Extra gaps only cost retransmissions, corrupting the "
              "sequence space breaks the decoder (paper's finding).\n",
              naive_freeze / 1000.0,
              static_cast<unsigned long>(naive_decoded), slr_freeze / 1000.0,
              static_cast<unsigned long>(slr_decoded));

  bench::Header("Ablation B: receiver-driven REMB vs sender-driven TWCC");
  // Live 3-party call: count actual control-plane packets, then compute
  // the hypothetical TWCC rate (1 feedback per ~15 media packets).
  testbed::TestbedConfig cfg;
  cfg.peer.encoder.start_bitrate_bps = 2'200'000;
  testbed::ScallopTestbed bed(cfg);
  auto meeting = bed.CreateMeeting();
  client::Peer& p1 = bed.AddPeer();
  client::Peer& p2 = bed.AddPeer();
  client::Peer& p3 = bed.AddPeer();
  p1.Join(bed.signaling(), meeting);
  p2.Join(bed.signaling(), meeting);
  p3.Join(bed.signaling(), meeting);
  double seconds = 30.0;
  bed.RunFor(seconds);

  const auto& sw = bed.sw().stats();
  const auto& dp = bed.dataplane().stats();
  double media_pps = static_cast<double>(dp.rtp_in) / seconds;
  double agent_pps = static_cast<double>(sw.packets_to_cpu) / seconds;
  // TWCC: one transport-wide feedback per 10-20 media packets, per
  // receiving leg; each would hit the agent.
  double twcc_pps = media_pps * 2.0 / 15.0;  // 2 receivers per stream
  std::printf("media at switch:            %8.1f pkts/s\n", media_pps);
  std::printf("agent load (REMB mode):     %8.1f pkts/s\n", agent_pps);
  std::printf("agent load (TWCC mode):     %8.1f pkts/s (hypothetical)\n",
              agent_pps - static_cast<double>(dp.remb_forwarded +
                                              dp.remb_filtered) /
                              seconds +
                  twcc_pps);
  std::printf("\nTWCC would multiply the switch agent's event rate ~%.0fx — "
              "why Scallop adopts GCC's receiver-driven mode (paper §5.2).\n",
              (agent_pps + twcc_pps) / agent_pps);
  return 0;
}
