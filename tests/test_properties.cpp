// System-level property suites (TEST_P sweeps):
//  1. The end-to-end invariant behind the paper's §6.2 finding: an adapted
//     stream that passes through a Scallop rewriter NEVER breaks the
//     receiver's decoder state — under any decode target, loss rate and
//     reorder rate. Losses may cost retransmissions or (at worst) freezes
//     that a key frame heals, but never a conflicting duplicate.
//  2. PRE structural invariants under randomized tree operations.
//  3. RTCP compound round-trips under randomized message mixes.
//  4. RTP parser agreement: mutated wire bytes get the same verdict and
//     the same fields from the borrowing view and the owning packet.
//  5. STUN, AV1 dependency descriptor and SDP parser fuzz: mutants of the
//     repo's own output parse or are rejected (never crash or throw), and
//     whatever parses re-serializes to a fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <tuple>

#include "av1/dependency_descriptor.hpp"
#include "client/peer.hpp"
#include "core/seqrewrite.hpp"
#include "media/audio.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "rtp/classifier.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "sdp/sdp.hpp"
#include "sim/network.hpp"
#include "stun/stun.hpp"
#include "switchsim/pre.hpp"
#include "util/random.hpp"

namespace scallop {
namespace {

// ---------------------------------------------------------------------
// 1. End-to-end rewriter -> receiver invariant.
// ---------------------------------------------------------------------

using E2eParams = std::tuple<int /*variant 0=SLM 1=SLR*/, int /*dt*/,
                             double /*loss*/, double /*reorder*/>;

class AdaptedStreamProperty : public ::testing::TestWithParam<E2eParams> {};

TEST_P(AdaptedStreamProperty, DecoderNeverBreaks) {
  auto [variant, dt, loss, reorder] = GetParam();
  core::SkipCadence cadence = core::SkipCadence::ForDecodeTarget(dt, 1);
  std::unique_ptr<core::SequenceRewriter> rw;
  if (variant == 0) {
    rw = std::make_unique<core::SlmRewriter>(cadence);
  } else {
    rw = std::make_unique<core::SlrRewriter>(cadence);
  }

  media::SvcEncoderConfig ecfg;
  ecfg.key_frame_interval = util::Seconds(4);
  ecfg.size_jitter = 0.1;
  media::SvcEncoder encoder(ecfg, 11);
  media::Packetizer packetizer(media::PacketizerConfig{.ssrc = 3});
  media::VideoReceiver receiver(media::VideoReceiverConfig{}, nullptr,
                                nullptr);
  util::Rng rng(static_cast<uint64_t>(variant * 1000 + dt * 100 +
                                      loss * 50 + reorder * 10 + 1));

  // Stream 600 frames (~20 s) through upstream loss/reorder, the rewriter,
  // then straight into the receiver.
  std::vector<rtp::RtpPacket> window;
  util::TimeUs t = 0;
  for (int f = 0; f < 600; ++f) {
    t += 33'333;
    auto frame = encoder.NextFrame(t);
    for (auto& pkt : packetizer.Packetize(frame, t)) {
      if (rng.Bernoulli(loss)) continue;  // upstream loss
      window.push_back(std::move(pkt));
    }
    for (size_t i = window.size() > 3 ? window.size() - 3 : 0;
         i + 1 < window.size(); ++i) {
      if (rng.Bernoulli(reorder)) std::swap(window[i], window[i + 1]);
    }
    while (window.size() > 2) {
      rtp::RtpPacket pkt = std::move(window.front());
      window.erase(window.begin());
      const auto* ext = pkt.FindExtension(av1::kDdExtensionId);
      auto dd = av1::PeekMandatory(ext->data);
      bool suppress = !av1::TemplateInDecodeTarget(
          dd->template_id, static_cast<av1::DecodeTarget>(dt));
      auto res = rw->Process(core::RewritePacketView{
          pkt.sequence_number, dd->frame_number, dd->start_of_frame,
          dd->end_of_frame, suppress});
      if (!res.forward) continue;
      pkt.sequence_number = res.out_seq;
      receiver.OnPacket(pkt, t);
    }
    if (f % 3 == 0) receiver.OnTick(t);
  }

  // THE invariant: no conflicting duplicates, ever.
  EXPECT_EQ(receiver.stats().conflicting_duplicates, 0u)
      << "variant=" << variant << " dt=" << dt << " loss=" << loss
      << " reorder=" << reorder;
  EXPECT_EQ(receiver.stats().decoder_breaks, 0u);

  // Liveness is only assertable on the clean path: without the NACK
  // recovery loop (exercised in the integration tests) every unrecovered
  // TL0 loss costs the rest of its GOP, so lossy cells may legitimately
  // decode almost nothing. Clean paths must hit the decode-target rate.
  double expected_frames = 600.0 * (dt == 0 ? 0.25 : dt == 1 ? 0.5 : 1.0);
  if (loss == 0.0 && reorder == 0.0) {
    EXPECT_GE(receiver.stats().frames_decoded, expected_frames * 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdaptedStreamProperty,
    ::testing::Combine(::testing::Values(0, 1), ::testing::Values(0, 1, 2),
                       ::testing::Values(0.0, 0.02, 0.1),
                       ::testing::Values(0.0, 0.05, 0.15)));

// ---------------------------------------------------------------------
// 2. PRE invariants under randomized operations.
// ---------------------------------------------------------------------

class PreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PreFuzz, CountsStayConsistentAndPruningSound) {
  util::Rng rng(GetParam());
  switchsim::PreLimits limits;
  limits.max_trees = 32;
  limits.max_l1_nodes = 256;
  switchsim::ReplicationEngine pre(limits);

  std::map<uint32_t, std::vector<switchsim::L1Node>> shadow;
  uint32_t next_node = 1;
  for (int op = 0; op < 2000; ++op) {
    int action = static_cast<int>(rng.UniformInt(0, 4));
    uint32_t mgid = static_cast<uint32_t>(rng.UniformInt(1, 40));
    switch (action) {
      case 0:
        if (pre.CreateTree(mgid)) {
          EXPECT_EQ(shadow.count(mgid), 0u);
          shadow[mgid] = {};
        }
        break;
      case 1:
        if (pre.DestroyTree(mgid)) {
          shadow.erase(mgid);
        }
        break;
      case 2: {
        switchsim::L1Node node;
        node.node_id = next_node++;
        node.rid = static_cast<uint16_t>(rng.UniformInt(1, 8));
        node.l1_xid = static_cast<uint16_t>(rng.UniformInt(0, 2));
        node.prune_enabled = node.l1_xid != 0;
        node.ports = {static_cast<uint32_t>(rng.UniformInt(1, 16))};
        if (pre.AddNode(mgid, node)) {
          shadow[mgid].push_back(node);
        }
        break;
      }
      case 3: {
        auto it = shadow.find(mgid);
        if (it != shadow.end() && !it->second.empty()) {
          uint32_t victim = it->second.front().node_id;
          EXPECT_TRUE(pre.RemoveNode(mgid, victim));
          it->second.erase(it->second.begin());
        }
        break;
      }
      case 4: {
        // Replicate and verify against the shadow model.
        uint16_t l1_xid = static_cast<uint16_t>(rng.UniformInt(0, 2));
        auto replicas = pre.Replicate(mgid, l1_xid, 0, 0);
        auto it = shadow.find(mgid);
        size_t expected = 0;
        if (it != shadow.end()) {
          for (const auto& n : it->second) {
            if (n.prune_enabled && n.l1_xid != 0 && n.l1_xid == l1_xid) {
              continue;
            }
            expected += n.ports.size();
          }
        }
        EXPECT_EQ(replicas.size(), expected);
        break;
      }
    }
    // Global node count matches the shadow model at every step.
    size_t total = 0;
    for (const auto& [m, nodes] : shadow) total += nodes.size();
    ASSERT_EQ(pre.node_count(), total);
    ASSERT_EQ(pre.tree_count(), shadow.size());
    ASSERT_LE(pre.node_count(), limits.max_l1_nodes);
    ASSERT_LE(pre.tree_count(), limits.max_trees);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// 3. RTCP compound round-trip fuzz.
// ---------------------------------------------------------------------

class RtcpFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RtcpFuzz, RandomCompoundsRoundTrip) {
  util::Rng rng(GetParam() * 31);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<rtp::RtcpMessage> msgs;
    int count = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < count; ++i) {
      switch (rng.UniformInt(0, 4)) {
        case 0: {
          rtp::SenderReport sr;
          sr.sender_ssrc = static_cast<uint32_t>(rng.NextU64());
          sr.ntp_timestamp = rng.NextU64();
          sr.packet_count = static_cast<uint32_t>(rng.NextU64());
          int blocks = static_cast<int>(rng.UniformInt(0, 3));
          for (int b = 0; b < blocks; ++b) {
            rtp::ReportBlock rb;
            rb.ssrc = static_cast<uint32_t>(rng.NextU64());
            rb.jitter = static_cast<uint32_t>(rng.UniformInt(0, 1 << 20));
            sr.blocks.push_back(rb);
          }
          msgs.emplace_back(std::move(sr));
          break;
        }
        case 1: {
          rtp::ReceiverReport rr;
          rr.sender_ssrc = static_cast<uint32_t>(rng.NextU64());
          msgs.emplace_back(std::move(rr));
          break;
        }
        case 2: {
          rtp::Nack nack;
          nack.sender_ssrc = static_cast<uint32_t>(rng.NextU64());
          nack.media_ssrc = static_cast<uint32_t>(rng.NextU64());
          uint16_t base = static_cast<uint16_t>(rng.NextU64());
          int seqs = static_cast<int>(rng.UniformInt(1, 20));
          for (int s = 0; s < seqs; ++s) {
            nack.sequence_numbers.push_back(
                static_cast<uint16_t>(base + rng.UniformInt(0, 40)));
          }
          // Deduplicate (the wire format is a set).
          std::sort(nack.sequence_numbers.begin(),
                    nack.sequence_numbers.end());
          nack.sequence_numbers.erase(
              std::unique(nack.sequence_numbers.begin(),
                          nack.sequence_numbers.end()),
              nack.sequence_numbers.end());
          msgs.emplace_back(std::move(nack));
          break;
        }
        case 3: {
          rtp::Remb remb;
          remb.sender_ssrc = static_cast<uint32_t>(rng.NextU64());
          remb.bitrate_bps = rng.NextU64() % 3'000'000'000ULL;
          remb.media_ssrcs = {static_cast<uint32_t>(rng.NextU64())};
          msgs.emplace_back(std::move(remb));
          break;
        }
        case 4: {
          rtp::Pli pli;
          pli.sender_ssrc = static_cast<uint32_t>(rng.NextU64());
          pli.media_ssrc = static_cast<uint32_t>(rng.NextU64());
          msgs.emplace_back(pli);
          break;
        }
      }
    }
    auto wire = rtp::SerializeCompound(msgs);
    ASSERT_EQ(wire.size() % 4, 0u);
    auto parsed = rtp::ParseCompound(wire);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), msgs.size());
    for (size_t i = 0; i < msgs.size(); ++i) {
      EXPECT_EQ(parsed->at(i).index(), msgs[i].index());
      if (const auto* nack = std::get_if<rtp::Nack>(&msgs[i])) {
        const auto& out = std::get<rtp::Nack>(parsed->at(i));
        // NACK round-trips as a sorted set of sequence numbers.
        auto sorted = nack->sequence_numbers;
        std::sort(sorted.begin(), sorted.end(),
                  [](uint16_t a, uint16_t b) { return util::SeqNewer(b, a); });
        EXPECT_EQ(out.sequence_numbers.size(), sorted.size());
      }
      if (const auto* remb = std::get_if<rtp::Remb>(&msgs[i])) {
        const auto& out = std::get<rtp::Remb>(parsed->at(i));
        if (remb->bitrate_bps > 0) {
          double ratio = static_cast<double>(out.bitrate_bps) /
                         static_cast<double>(remb->bitrate_bps);
          EXPECT_GE(ratio, 0.999);
          EXPECT_LE(ratio, 1.0);
        }
      }
    }
    // Truncating any compound must be rejected, never mis-parsed.
    if (wire.size() > 4) {
      auto truncated = wire;
      truncated.resize(wire.size() - 3);
      EXPECT_FALSE(rtp::ParseCompound(truncated).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtcpFuzz, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// 4. RTP parser agreement fuzz.
// ---------------------------------------------------------------------

void ExpectSameHeader(const rtp::RtpPacket& a, const rtp::RtpPacket& b) {
  EXPECT_EQ(a.marker, b.marker);
  EXPECT_EQ(a.payload_type, b.payload_type);
  EXPECT_EQ(a.sequence_number, b.sequence_number);
  EXPECT_EQ(a.timestamp, b.timestamp);
  EXPECT_EQ(a.ssrc, b.ssrc);
  EXPECT_EQ(a.csrcs, b.csrcs);
  EXPECT_EQ(a.payload, b.payload);
  ASSERT_EQ(a.extensions.size(), b.extensions.size());
  for (size_t i = 0; i < a.extensions.size(); ++i) {
    EXPECT_EQ(a.extensions[i].id, b.extensions[i].id);
    EXPECT_EQ(a.extensions[i].data, b.extensions[i].data);
  }
}

// Both parsers on `wire`: the same verdict, and on acceptance the same
// header, CSRCs, payload and first extension per id. Accepted packets
// also survive serialize -> parse unchanged, unless they carry a one-byte
// element with id 0, which RFC 8285 reserves for padding and the writer
// cannot express. Returns the verdict.
bool ExpectParsersAgree(std::span<const uint8_t> wire) {
  const auto owned = rtp::RtpPacket::Parse(wire);
  const auto view = rtp::RtpView::Parse(wire);
  EXPECT_EQ(owned.has_value(), view.has_value()) << util::ToHex(wire);
  if (!owned.has_value() || !view.has_value()) return false;
  EXPECT_EQ(owned->marker, view->marker);
  EXPECT_EQ(owned->payload_type, view->payload_type);
  EXPECT_EQ(owned->sequence_number, view->sequence_number);
  EXPECT_EQ(owned->timestamp, view->timestamp);
  EXPECT_EQ(owned->ssrc, view->ssrc);
  EXPECT_EQ(owned->csrcs.size(), view->csrc_count());
  for (size_t i = 0; i < std::min(owned->csrcs.size(), view->csrc_count());
       ++i) {
    EXPECT_EQ(owned->csrcs[i], view->csrc(i));
  }
  EXPECT_TRUE(std::ranges::equal(owned->payload, view->payload));
  for (int id = 0; id < 256; ++id) {
    const rtp::RtpExtension* ext =
        owned->FindExtension(static_cast<uint8_t>(id));
    const auto seen = view->FindExtension(static_cast<uint8_t>(id));
    EXPECT_EQ(ext != nullptr, seen.has_value()) << "id " << id;
    if (ext != nullptr && seen.has_value()) {
      EXPECT_TRUE(std::ranges::equal(ext->data, *seen)) << "id " << id;
    }
  }
  if (std::ranges::none_of(owned->extensions, [](const auto& e) {
        return e.id == 0;
      })) {
    const auto again = rtp::RtpPacket::Parse(owned->Serialize());
    EXPECT_TRUE(again.has_value());
    if (again.has_value()) ExpectSameHeader(*owned, *again);
  }
  return true;
}

// Seed corpus: real packetizer and audio output, plus a packet with CSRCs,
// two-byte extensions and padding.
std::vector<std::vector<uint8_t>> RtpSeedCorpus() {
  std::vector<std::vector<uint8_t>> corpus;
  media::SvcEncoderConfig ecfg;
  ecfg.key_frame_interval = util::Seconds(1);
  media::SvcEncoder encoder(ecfg, 4);
  media::Packetizer packetizer(media::PacketizerConfig{.ssrc = 0x1234});
  for (int f = 0; f < 40; ++f) {
    const util::TimeUs t = f * 33'333;
    for (const auto& pkt : packetizer.Packetize(encoder.NextFrame(t), t)) {
      corpus.push_back(pkt.Serialize());
    }
  }
  media::AudioSource audio(media::AudioSourceConfig{.ssrc = 0x5678});
  corpus.push_back(audio.NextPacket(0).Serialize());

  rtp::RtpPacket odd;
  odd.payload_type = 100;
  odd.sequence_number = 0xfffe;
  odd.csrcs = {1, 2, 3};
  odd.SetExtension(7, std::vector<uint8_t>(20, 0x7));  // forces two-byte
  odd.SetExtension(15, {});
  odd.payload = {9, 8, 7, 6};
  std::vector<uint8_t> padded = odd.Serialize();
  padded[0] |= 0x20;
  padded.insert(padded.end(), {0, 0, 3});
  corpus.push_back(std::move(padded));
  return corpus;
}

class RtpParseFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RtpParseFuzz, ViewAndPacketAgree) {
  util::Rng rng(GetParam() * 97 + 3);
  const auto corpus = RtpSeedCorpus();
  for (const auto& wire : corpus) ASSERT_TRUE(ExpectParsersAgree(wire));

  int accepted = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<uint8_t> wire = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    // Where the extension header would sit for this packet's CSRC count.
    const size_t ext_at = 12 + 4 * static_cast<size_t>(wire[0] & 0x0f);
    auto random_byte = [&] {
      return static_cast<uint8_t>(rng.UniformInt(0, 255));
    };
    const int mutations = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      switch (rng.UniformInt(0, 5)) {
        case 0: {  // bit flips
          const int flips = static_cast<int>(rng.UniformInt(1, 8));
          for (int i = 0; i < flips; ++i) {
            const auto at = static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(wire.size()) - 1));
            wire[at] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
          }
          break;
        }
        case 1:  // truncation
          wire.resize(static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(wire.size()))));
          break;
        case 2:  // a lying extension-length word
          if (wire.size() >= ext_at + 4) {
            wire[0] |= 0x10;
            const auto words = static_cast<uint16_t>(
                rng.Bernoulli(0.5) ? rng.UniformInt(0, 0xffff)
                                   : ((wire[ext_at + 2] << 8 |
                                       wire[ext_at + 3]) +
                                      rng.UniformInt(-2, 2)));
            wire[ext_at + 2] = static_cast<uint8_t>(words >> 8);
            wire[ext_at + 3] = static_cast<uint8_t>(words);
          }
          break;
        case 3:  // another extension profile
          if (wire.size() >= ext_at + 4) {
            wire[0] |= 0x10;
            static constexpr uint16_t kProfiles[] = {
                rtp::kOneByteExtProfile, rtp::kTwoByteExtProfile, 0x0000,
                0x1001, 0xBEDF};
            const uint16_t profile = kProfiles[rng.UniformInt(0, 4)];
            wire[ext_at] = static_cast<uint8_t>(profile >> 8);
            wire[ext_at + 1] = static_cast<uint8_t>(profile);
          }
          break;
        case 4: {  // padding bytes, with a truthful or lying count
          wire[0] |= 0x20;
          const int extra = static_cast<int>(rng.UniformInt(0, 4));
          for (int i = 0; i < extra; ++i) wire.push_back(0);
          wire.push_back(rng.Bernoulli(0.5) ? static_cast<uint8_t>(extra + 1)
                                            : random_byte());
          break;
        }
        case 5:  // a random byte inside the extension block
          if (wire.size() > ext_at + 4) {
            wire[static_cast<size_t>(rng.UniformInt(
                static_cast<int64_t>(ext_at) + 4,
                static_cast<int64_t>(wire.size()) - 1))] = random_byte();
          }
          break;
      }
    }
    if (ExpectParsersAgree(wire)) ++accepted;
    if (::testing::Test::HasFailure()) return;
  }
  // The mutations must leave both verdicts well represented.
  EXPECT_GT(accepted, 150);
  EXPECT_LT(accepted, 1350);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtpParseFuzz, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------
// 5. STUN, AV1 dependency descriptor and SDP parser fuzz.
// ---------------------------------------------------------------------

using Bytes = std::vector<uint8_t>;

// What two Peers (one sending, one receive-only) put on the wire and into
// signaling over six seconds of a call: the STUN binding requests they
// send toward the SFU, their SDP offers, and the answers the controller
// sends back. This stands in for both the server and the SFU host.
class PeerOutput : public sim::Host, public core::SignalingServer {
 public:
  PeerOutput() : network_(sched_, 1) {
    const sim::LinkConfig link{.rate_bps = 0, .prop_delay = util::Millis(1)};
    network_.Attach(sfu_.addr, this, link, link);
    for (int i = 0; i < 2; ++i) {
      client::PeerConfig pc;
      pc.address = net::Ipv4(10, 0, 0, static_cast<uint8_t>(i + 1));
      pc.seed = static_cast<uint64_t>(i + 1);
      pc.send_video = i == 0;
      peers_.push_back(std::make_unique<client::Peer>(sched_, network_, pc));
      network_.Attach(pc.address, peers_.back().get(), link, link);
      peers_.back()->Join(*this, 1);
    }
    sched_.RunUntil(util::Seconds(6));
  }
  PeerOutput(const PeerOutput&) = delete;
  PeerOutput& operator=(const PeerOutput&) = delete;

  void OnPacket(net::PacketPtr pkt) override {
    const auto payload = pkt->payload_span();
    if (rtp::Classify(payload) == rtp::PayloadKind::kStun) {
      stun_.emplace_back(payload.begin(), payload.end());
    }
  }
  JoinResult Join(core::MeetingId, const sdp::SessionDescription& offer,
                  core::SignalingClient*) override {
    JoinResult result;
    result.participant = static_cast<core::ParticipantId>(peers_.size());
    result.uplink_sfu = sfu_;
    result.answer = sdp::MakeAnswer(
        offer, sfu_, "sfu" + std::to_string(result.participant), "pwd");
    sdp_.push_back(offer.ToString());
    sdp_.push_back(result.answer.ToString());
    return result;
  }
  void Leave(core::MeetingId, core::ParticipantId) override {}

  const std::vector<Bytes>& stun() const { return stun_; }
  const std::vector<std::string>& sdp() const { return sdp_; }

 private:
  sim::Scheduler sched_;
  sim::Network network_;
  const net::Endpoint sfu_{net::Ipv4(100, 64, 0, 1), 40'000};
  std::vector<std::unique_ptr<client::Peer>> peers_;
  std::vector<Bytes> stun_;
  std::vector<std::string> sdp_;
};

const PeerOutput& Output() {
  static const PeerOutput output;
  return output;
}

// One to three seeded mutations of a random corpus entry: bit flips,
// truncation, a format-specific lie (`lie` rewrites a length or numeric
// field in place), or a splice onto another entry's tail.
Bytes Mutate(util::Rng& rng, const std::vector<Bytes>& corpus,
             const std::function<void(util::Rng&, Bytes&)>& lie) {
  auto pick = [&]() -> const Bytes& {
    return corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
  };
  auto at = [&](size_t size) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(size)));
  };
  Bytes wire = pick();
  const int mutations = static_cast<int>(rng.UniformInt(1, 3));
  for (int m = 0; m < mutations && !wire.empty(); ++m) {
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // bit flips
        const int flips = static_cast<int>(rng.UniformInt(1, 8));
        for (int i = 0; i < flips; ++i) {
          wire[at(wire.size() - 1)] ^=
              static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
        }
        break;
      }
      case 1:  // truncation
        wire.resize(at(wire.size()));
        break;
      case 2:
        lie(rng, wire);
        break;
      case 3: {  // splice
        const Bytes& other = pick();
        wire.resize(at(wire.size()));
        wire.insert(wire.end(), other.begin() + at(other.size()), other.end());
        break;
      }
    }
  }
  return wire;
}

// Runs 1,500 seeded mutants of `corpus` through `check`, which returns
// the parser's verdict, and keeps both verdicts well represented.
void FuzzMutants(uint64_t seed, const std::vector<Bytes>& corpus,
                 const std::function<void(util::Rng&, Bytes&)>& lie,
                 const std::function<bool(const Bytes&)>& check,
                 int min_accepted, int max_accepted) {
  util::Rng rng(seed);
  int accepted = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    if (check(Mutate(rng, corpus, lie))) ++accepted;
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted, min_accepted);
  EXPECT_LT(accepted, max_accepted);
}

// A lying length: the field at one of `offsets` (`width` bytes, big
// endian) becomes a random value or its old value off by a little.
void LieAt(util::Rng& rng, Bytes& wire, const std::vector<size_t>& offsets,
           int width) {
  if (offsets.empty()) return;
  const size_t o = offsets[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(offsets.size()) - 1))];
  int64_t old = 0;
  for (int i = 0; i < width; ++i) old = old << 8 | wire[o + i];
  const int64_t max = (int64_t{1} << (8 * width)) - 1;
  const int64_t value = rng.Bernoulli(0.5)
                            ? rng.UniformInt(0, max)
                            : std::clamp<int64_t>(old + rng.UniformInt(-4, 4),
                                                  0, max);
  for (int i = 0; i < width; ++i) {
    wire[o + i] = static_cast<uint8_t>(value >> (8 * (width - 1 - i)));
  }
}

// STUN lies in its message length and in any attribute length.
void LieStunLength(util::Rng& rng, Bytes& wire) {
  std::vector<size_t> offsets;
  if (wire.size() >= 4) offsets.push_back(2);
  for (size_t i = 20; i + 4 <= wire.size();) {
    offsets.push_back(i + 2);
    const size_t len = static_cast<size_t>(wire[i + 2] << 8 | wire[i + 3]);
    i += 4 + ((len + 3) & ~size_t{3});
  }
  LieAt(rng, wire, offsets, 2);
}

// A dependency descriptor lies in its template count.
void LieDdLength(util::Rng& rng, Bytes& wire) {
  if (wire.size() > 4) LieAt(rng, wire, {4}, 1);
}

// SDP has no length fields; its numbers lie instead: one digit run
// becomes a huge, negative, empty or non-numeric token.
void LieSdpNumber(util::Rng& rng, Bytes& text) {
  std::vector<std::pair<size_t, size_t>> runs;  // [begin, end)
  for (size_t i = 0; i < text.size();) {
    if (!std::isdigit(text[i])) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < text.size() && std::isdigit(text[j])) ++j;
    runs.emplace_back(i, j);
    i = j;
  }
  if (runs.empty()) return;
  const auto [begin, end] = runs[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(runs.size()) - 1))];
  static const char* const kLies[] = {"99999999999999999999999", "-1", "",
                                      "x", "4294967296", "65536", "+7"};
  const std::string lie = kLies[rng.UniformInt(0, 6)];
  text.erase(text.begin() + static_cast<std::ptrdiff_t>(begin),
             text.begin() + static_cast<std::ptrdiff_t>(end));
  text.insert(text.begin() + static_cast<std::ptrdiff_t>(begin), lie.begin(),
              lie.end());
}

// The STUN parser on `wire`; an accepted message re-serializes to bytes
// that parse back to the same bytes. Returns the verdict.
bool ExpectStunFixedPoint(std::span<const uint8_t> wire) {
  const auto msg = stun::StunMessage::Parse(wire);
  if (!msg.has_value()) return false;
  const Bytes once = msg->Serialize();
  const auto again = stun::StunMessage::Parse(once);
  EXPECT_TRUE(again.has_value()) << util::ToHex(wire);
  if (again.has_value()) EXPECT_EQ(again->Serialize(), once);
  return true;
}

std::vector<Bytes> StunSeedCorpus() {
  std::vector<Bytes> corpus = Output().stun();
  const size_t requests = corpus.size();
  for (size_t i = 0; i < requests; ++i) {
    const auto request = stun::StunMessage::Parse(corpus[i]);
    if (!request.has_value()) continue;  // the corpus check reports it
    corpus.push_back(stun::MakeBindingResponse(
                         *request, net::Endpoint{net::Ipv4(10, 0, 0, 1),
                                                 static_cast<uint16_t>(
                                                     50'000 + i)})
                         .Serialize());
  }
  return corpus;
}

class StunParseFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StunParseFuzz, RejectsOrReachesFixedPoint) {
  const auto corpus = StunSeedCorpus();
  ASSERT_GE(corpus.size(), 4u);  // requests and their responses
  for (const Bytes& wire : corpus) {
    const auto msg = stun::StunMessage::Parse(wire);
    ASSERT_TRUE(msg.has_value()) << util::ToHex(wire);
    EXPECT_EQ(msg->Serialize(), wire);
  }
  // Most mutants break the message length, so fewer parse than for RTP.
  FuzzMutants(GetParam() * 131 + 5, corpus, LieStunLength,
              ExpectStunFixedPoint, 100, 1350);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StunParseFuzz, ::testing::Values(1, 2, 3));

// The full dependency-descriptor parser on `wire`: an accepted descriptor
// survives serialize -> parse unchanged, and the switch's fast path
// (PeekMandatory) reads the same mandatory fields. Returns the verdict.
bool ExpectDdFixedPoint(std::span<const uint8_t> wire) {
  const auto dd = av1::DependencyDescriptor::Parse(wire);
  if (!dd.has_value()) return false;
  const auto again = av1::DependencyDescriptor::Parse(dd->Serialize());
  EXPECT_TRUE(again.has_value()) << util::ToHex(wire);
  if (again.has_value()) EXPECT_EQ(*again, *dd) << util::ToHex(wire);
  const auto peek = av1::PeekMandatory(wire);
  EXPECT_TRUE(peek.has_value()) << util::ToHex(wire);
  if (peek.has_value()) {
    EXPECT_EQ(peek->start_of_frame, dd->start_of_frame);
    EXPECT_EQ(peek->end_of_frame, dd->end_of_frame);
    EXPECT_EQ(peek->template_id, dd->template_id);
    EXPECT_EQ(peek->frame_number, dd->frame_number);
    EXPECT_EQ(peek->has_extended, dd->structure.has_value());
  }
  return true;
}

// Every distinct dependency descriptor the encoder and packetizer attach
// over 40 frames, key frames (with the template structure) included.
std::vector<Bytes> DdSeedCorpus() {
  std::vector<Bytes> corpus;
  media::SvcEncoderConfig ecfg;
  ecfg.key_frame_interval = util::Seconds(1);
  media::SvcEncoder encoder(ecfg, 4);
  media::Packetizer packetizer(media::PacketizerConfig{.ssrc = 0x1234});
  for (int f = 0; f < 40; ++f) {
    const util::TimeUs t = f * 33'333;
    for (const auto& pkt : packetizer.Packetize(encoder.NextFrame(t), t)) {
      const rtp::RtpExtension* ext = pkt.FindExtension(av1::kDdExtensionId);
      if (ext == nullptr) continue;
      if (std::find(corpus.begin(), corpus.end(), ext->data) == corpus.end()) {
        corpus.push_back(ext->data);
      }
    }
  }
  return corpus;
}

class DdParseFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DdParseFuzz, RejectsOrReachesFixedPoint) {
  const auto corpus = DdSeedCorpus();
  ASSERT_GE(corpus.size(), 10u);
  ASSERT_TRUE(std::any_of(corpus.begin(), corpus.end(),
                          [](const Bytes& dd) { return dd.size() > 3; }))
      << "no key-frame structure in the corpus";
  for (const Bytes& wire : corpus) {
    const auto dd = av1::DependencyDescriptor::Parse(wire);
    ASSERT_TRUE(dd.has_value()) << util::ToHex(wire);
    EXPECT_EQ(dd->Serialize(), wire);
  }
  FuzzMutants(GetParam() * 151 + 7, corpus, LieDdLength, ExpectDdFixedPoint,
              150, 1350);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DdParseFuzz, ::testing::Values(1, 2, 3));

// The SDP parser on `bytes`: it never throws, and an accepted
// description renders to canonical text that parses back to the same
// text. Returns the verdict.
bool ExpectSdpFixedPoint(const Bytes& bytes) {
  const std::string text(bytes.begin(), bytes.end());
  std::optional<sdp::SessionDescription> desc;
  EXPECT_NO_THROW(desc = sdp::SessionDescription::Parse(text)) << text;
  if (!desc.has_value()) return false;
  const std::string once = desc->ToString();
  std::optional<sdp::SessionDescription> again;
  EXPECT_NO_THROW(again = sdp::SessionDescription::Parse(once)) << once;
  EXPECT_TRUE(again.has_value()) << once;
  if (again.has_value()) EXPECT_EQ(again->ToString(), once) << text;
  return true;
}

class SdpParseFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SdpParseFuzz, RejectsOrReachesFixedPoint) {
  std::vector<Bytes> corpus;
  for (const std::string& text : Output().sdp()) {
    const auto desc = sdp::SessionDescription::Parse(text);
    ASSERT_TRUE(desc.has_value()) << text;
    EXPECT_EQ(desc->ToString(), text);
    corpus.emplace_back(text.begin(), text.end());
  }
  ASSERT_EQ(corpus.size(), 4u);  // two offers, two answers
  // The parser skips lines it does not know, so most mutants parse.
  FuzzMutants(GetParam() * 173 + 11, corpus, LieSdpNumber,
              ExpectSdpFixedPoint, 150, 1450);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdpParseFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace scallop
