#include <gtest/gtest.h>

#include <map>

#include "media/audio.hpp"
#include "media/encoder.hpp"
#include "media/packetizer.hpp"
#include "media/receiver.hpp"
#include "util/random.hpp"

namespace scallop::media {
namespace {

SvcEncoderConfig TestEncoderConfig() {
  SvcEncoderConfig cfg;
  cfg.fps = 30.0;
  cfg.start_bitrate_bps = 1'200'000;
  cfg.key_frame_interval = util::Seconds(1000);  // only explicit key frames
  cfg.size_jitter = 0.0;
  return cfg;
}

TEST(Encoder, FirstFrameIsKey) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  auto f = enc.NextFrame(0);
  EXPECT_TRUE(f.key_frame);
  EXPECT_EQ(f.template_id, 0);
  EXPECT_EQ(f.frame_number, 1);
}

TEST(Encoder, FollowsL1T3Pattern) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  std::vector<uint8_t> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(enc.NextFrame(i * 33'333).template_id);
  }
  EXPECT_EQ(ids, (std::vector<uint8_t>{0, 3, 2, 4, 1, 3, 2, 4}));
}

TEST(Encoder, MeanRateTracksTarget) {
  SvcEncoderConfig cfg = TestEncoderConfig();
  cfg.size_jitter = 0.15;
  SvcEncoder enc(cfg, 2);
  size_t total = 0;
  int n = 3000;
  for (int i = 0; i < n; ++i) {
    total += enc.NextFrame(i * 33'333).size_bytes;
  }
  double measured_bps = static_cast<double>(total) * 8.0 /
                        (static_cast<double>(n) / 30.0);
  // Within 10% (key frames add some excess).
  EXPECT_NEAR(measured_bps, 1'200'000, 120'000);
}

TEST(Encoder, SetTargetBitrateClamped) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  enc.SetTargetBitrate(10);
  EXPECT_EQ(enc.target_bitrate(), enc.config().min_bitrate_bps);
  enc.SetTargetBitrate(100'000'000);
  EXPECT_EQ(enc.target_bitrate(), enc.config().max_bitrate_bps);
}

TEST(Encoder, RequestKeyFrameDeferredToPhaseZero) {
  SvcEncoder enc(TestEncoderConfig(), 1);
  enc.NextFrame(0);  // frame 1: key at phase 0
  enc.NextFrame(1);  // frame 2
  enc.RequestKeyFrame();
  // Frames 3 and 4 are mid-cycle: the key is deferred to the next GOP
  // boundary (phase-0 slot) so the SFU's cadence anchor stays valid.
  EXPECT_FALSE(enc.NextFrame(2).key_frame);
  EXPECT_FALSE(enc.NextFrame(3).key_frame);
  auto f = enc.NextFrame(4);
  EXPECT_TRUE(f.key_frame);
  EXPECT_EQ(f.template_id, 0);
  EXPECT_EQ((f.frame_number - 1) % 4, 0);  // keys land on anchor slots
}

TEST(Encoder, PeriodicKeyFrames) {
  SvcEncoderConfig cfg = TestEncoderConfig();
  cfg.key_frame_interval = util::Seconds(2);
  SvcEncoder enc(cfg, 1);
  int keys = 0;
  for (int i = 0; i < 300; ++i) {  // 10 seconds
    if (enc.NextFrame(i * 33'333).key_frame) ++keys;
  }
  EXPECT_GE(keys, 5);
  EXPECT_LE(keys, 6);
}

TEST(Packetizer, SplitsLargeFrames) {
  Packetizer p(PacketizerConfig{.max_payload_bytes = 1200, .ssrc = 7});
  EncodedFrame f;
  f.frame_number = 1;
  f.template_id = 0;
  f.key_frame = true;
  f.size_bytes = 3000;
  f.capture_time = 1'000'000;
  auto pkts = p.Packetize(f, 1'000'000);
  ASSERT_EQ(pkts.size(), 3u);
  EXPECT_FALSE(pkts[0].marker);
  EXPECT_TRUE(pkts[2].marker);
  EXPECT_EQ(pkts[0].sequence_number + 1, pkts[1].sequence_number);
  EXPECT_EQ(pkts[0].ssrc, 7u);

  auto dd0 = av1::PeekMandatory(pkts[0].FindExtension(av1::kDdExtensionId)->data);
  ASSERT_TRUE(dd0.has_value());
  EXPECT_TRUE(dd0->start_of_frame);
  EXPECT_FALSE(dd0->end_of_frame);
  EXPECT_TRUE(dd0->has_extended);  // key frame carries the structure
  auto dd2 = av1::PeekMandatory(pkts[2].FindExtension(av1::kDdExtensionId)->data);
  EXPECT_FALSE(dd2->start_of_frame);
  EXPECT_TRUE(dd2->end_of_frame);
  EXPECT_FALSE(dd2->has_extended);
}

TEST(Packetizer, SinglePacketFrame) {
  Packetizer p(PacketizerConfig{});
  EncodedFrame f;
  f.frame_number = 9;
  f.size_bytes = 500;
  auto pkts = p.Packetize(f, 0);
  ASSERT_EQ(pkts.size(), 1u);
  EXPECT_TRUE(pkts[0].marker);
  auto dd = av1::PeekMandatory(pkts[0].FindExtension(av1::kDdExtensionId)->data);
  EXPECT_TRUE(dd->start_of_frame);
  EXPECT_TRUE(dd->end_of_frame);
}

TEST(Packetizer, AbsSendTimeRoundTrip) {
  util::TimeUs t = 12'345'678;
  auto enc = EncodeAbsSendTime(t);
  util::TimeUs decoded = DecodeAbsSendTime(enc);
  EXPECT_NEAR(static_cast<double>(decoded), static_cast<double>(t), 4.0);
}

TEST(Audio, ConstantStream) {
  AudioSource src(AudioSourceConfig{.ssrc = 5});
  auto p1 = src.NextPacket(0);
  auto p2 = src.NextPacket(20'000);
  EXPECT_EQ(p1.ssrc, 5u);
  EXPECT_EQ(p2.sequence_number, p1.sequence_number + 1);
  EXPECT_EQ(p1.payload.size(), 160u);
  EXPECT_EQ(p2.timestamp - p1.timestamp, 960u);  // 20 ms at 48 kHz
}

// ---------- Receiver pipeline ----------

class ReceiverHarness {
 public:
  ReceiverHarness()
      : receiver_(
            VideoReceiverConfig{},
            [this](const std::vector<uint16_t>& s) {
              nacks.insert(nacks.end(), s.begin(), s.end());
            },
            [this] { ++plis; }),
        packetizer_(PacketizerConfig{.max_payload_bytes = 1200, .ssrc = 1}),
        encoder_(TestEncoderConfig(), 3) {}

  // Generates `n` frames and returns all packets.
  std::vector<rtp::RtpPacket> GenerateFrames(int n) {
    std::vector<rtp::RtpPacket> out;
    for (int i = 0; i < n; ++i) {
      util::TimeUs t = next_time_;
      next_time_ += 33'333;
      auto frame = encoder_.NextFrame(t);
      for (auto& pkt : packetizer_.Packetize(frame, t)) {
        out.push_back(std::move(pkt));
      }
    }
    return out;
  }

  void Deliver(const rtp::RtpPacket& pkt, util::TimeUs at) {
    receiver_.OnPacket(pkt, at);
  }

  VideoReceiver receiver_;
  Packetizer packetizer_;
  SvcEncoder encoder_;
  util::TimeUs next_time_ = 0;
  std::vector<uint16_t> nacks;
  int plis = 0;
};

TEST(VideoReceiverTest, DecodesCleanStream) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(30);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, 30u);
  EXPECT_EQ(h.receiver_.stats().frames_undecodable, 0u);
  EXPECT_TRUE(h.nacks.empty());
  EXPECT_EQ(h.receiver_.stats().key_frames_decoded, 1u);
}

TEST(VideoReceiverTest, GapTriggersNackAfterReorderTolerance) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(10);
  ASSERT_GT(pkts.size(), 5u);
  util::TimeUs t = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == 4) continue;  // drop one packet
    h.Deliver(pkts[i], t);
    t += 100;
  }
  // No NACK yet: the gap could be micro-reordering.
  h.receiver_.OnTick(t + 1'000);
  EXPECT_TRUE(h.nacks.empty());
  // Past the reorder tolerance the NACK goes out.
  h.receiver_.OnTick(t + 30'000);
  ASSERT_FALSE(h.nacks.empty());
  EXPECT_EQ(h.nacks[0], pkts[4].sequence_number);
}

TEST(VideoReceiverTest, RetransmissionRecoversFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(10);
  util::TimeUs t = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == 4) continue;
    h.Deliver(pkts[i], t);
    t += 1'000;
  }
  uint64_t before = h.receiver_.stats().frames_decoded;
  h.Deliver(pkts[4], t + 10'000);  // retransmission arrives
  EXPECT_GT(h.receiver_.stats().frames_decoded, before);
  EXPECT_EQ(h.receiver_.stats().recovered_packets, 1u);
  EXPECT_EQ(h.receiver_.stats().frames_undecodable, 0u);
}

TEST(VideoReceiverTest, ConflictingDuplicateBreaksDecoderUntilKeyFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(8);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  uint64_t decoded_before = h.receiver_.stats().frames_decoded;

  // A "bad rewrite": same sequence number as an already-received packet but
  // different frame content.
  rtp::RtpPacket bogus = pkts[3];
  av1::DependencyDescriptor dd;
  dd.template_id = 2;
  dd.frame_number = 999;
  bogus.SetExtension(av1::kDdExtensionId, dd.Serialize());
  h.Deliver(bogus, t);

  EXPECT_EQ(h.receiver_.stats().decoder_breaks, 1u);

  // Subsequent delta frames are NOT decoded.
  auto more = h.GenerateFrames(8);
  for (const auto& p : more) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, decoded_before);

  // A key frame recovers the decoder.
  h.encoder_.RequestKeyFrame();
  auto recovery = h.GenerateFrames(4);
  for (const auto& p : recovery) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, decoded_before);
}

TEST(VideoReceiverTest, AbandonedLossFreezesUntilKeyFrame) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(6);
  util::TimeUs t = 0;
  // Find a packet belonging to a TL0 frame (frame 5 in pattern) and drop it
  // permanently: everything referencing it becomes undecodable.
  size_t drop_idx = 0;
  for (size_t i = 0; i < pkts.size(); ++i) {
    auto dd = av1::PeekMandatory(
        pkts[i].FindExtension(av1::kDdExtensionId)->data);
    if (dd->frame_number == 5) {
      drop_idx = i;
      break;
    }
  }
  ASSERT_GT(drop_idx, 0u);
  for (size_t i = 0; i < pkts.size(); ++i) {
    if (i == drop_idx) continue;
    h.Deliver(pkts[i], t);
    t += 1'000;
  }
  // Time passes beyond the abandon timeout; receiver gives up.
  t += 600'000;
  h.receiver_.OnTick(t);
  uint64_t decoded_before = h.receiver_.stats().frames_decoded;

  auto more = h.GenerateFrames(12);  // frames 7..18, many depend on frame 5
  for (const auto& p : more) {
    h.Deliver(p, t);
    t += 1'000;
  }
  h.receiver_.OnTick(t);
  // Some frames after the abandoned one must be undecodable.
  EXPECT_GT(h.receiver_.stats().frames_undecodable, 0u);

  h.encoder_.RequestKeyFrame();
  for (const auto& p : h.GenerateFrames(4)) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, decoded_before);
}

TEST(VideoReceiverTest, SvcFilteredStreamStillDecodes) {
  // Simulates what Scallop's data plane does at DT1: drop TL2 packets and
  // rewrite seq numbers to close gaps. The receiver should decode at half
  // rate with zero NACKs.
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(41);
  util::TimeUs t = 0;
  uint16_t out_seq = 1;
  int forwarded_frames = 0;
  for (auto p : pkts) {
    auto dd = av1::PeekMandatory(p.FindExtension(av1::kDdExtensionId)->data);
    if (!av1::TemplateInDecodeTarget(dd->template_id,
                                     av1::DecodeTarget::kDT1)) {
      continue;  // drop TL2
    }
    p.sequence_number = out_seq++;  // gapless rewrite
    h.Deliver(p, t);
    t += 1'000;
    if (dd->end_of_frame) ++forwarded_frames;
  }
  EXPECT_TRUE(h.nacks.empty());
  EXPECT_EQ(h.receiver_.stats().frames_decoded,
            static_cast<uint64_t>(forwarded_frames));
  // 41 frames: key + 40 in cycles of 4 -> half survive DT1 filtering.
  EXPECT_NEAR(static_cast<double>(forwarded_frames), 21.0, 1.0);
}

TEST(VideoReceiverTest, FreezeDetectionSendsPli) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(5);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_FALSE(h.receiver_.frozen(t));
  // Nothing arrives for 2 seconds.
  h.receiver_.OnTick(t + util::Seconds(2));
  EXPECT_TRUE(h.receiver_.frozen(t + util::Seconds(2)));
  EXPECT_GE(h.plis, 1);
  EXPECT_GT(h.receiver_.stats().total_freeze_ms, 1000.0);
}

TEST(VideoReceiverTest, ColdStartWithoutKeyFrameSendsPli) {
  // A receiver attached mid-stream (late join / rejoin) sees only delta
  // frames: nothing ever decodes, so the freeze detector has no decode
  // timestamp to key off. It must still PLI instead of waiting for the
  // sender's periodic key-frame refresh.
  ReceiverHarness h;
  h.GenerateFrames(1);  // key frame lost to the pre-join past
  auto pkts = h.GenerateFrames(8);
  util::TimeUs t = 0;
  for (const auto& p : pkts) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_EQ(h.receiver_.stats().frames_decoded, 0u);
  EXPECT_EQ(h.plis, 0);
  // Past the freeze threshold with zero decodes: PLI goes out.
  h.receiver_.OnTick(t + util::Seconds(1));
  EXPECT_GE(h.plis, 1);

  // The PLI-triggered key frame unblocks decoding.
  h.encoder_.RequestKeyFrame();
  auto refresh = h.GenerateFrames(6);
  t += util::Seconds(1);
  for (const auto& p : refresh) {
    h.Deliver(p, t);
    t += 1'000;
  }
  EXPECT_GT(h.receiver_.stats().frames_decoded, 0u);
}

TEST(VideoReceiverTest, PerSecondSeries) {
  ReceiverHarness h;
  auto pkts = h.GenerateFrames(60);  // 2 seconds of video
  for (const auto& p : pkts) {
    // Deliver at capture time (timestamp is 90 kHz).
    util::TimeUs t = static_cast<util::TimeUs>(p.timestamp) * 1000 / 90;
    h.Deliver(p, t);
  }
  EXPECT_NEAR(h.receiver_.decoded_fps_series().SumInSecond(0), 30.0, 1.0);
  EXPECT_NEAR(h.receiver_.decoded_fps_series().SumInSecond(1), 30.0, 1.0);
  EXPECT_GT(h.receiver_.received_bytes_series().SumInSecond(0), 0.0);
}

// ---------- Receiver windows (duplicate, dependency and fps history) ----------

TEST(KeyWindowTest, MatchesAnOrderedMap) {
  // Each round starts a fresh window: an in-order run grows the ring from
  // empty, then keys drift upward like unwrapped seqs, with reordering,
  // rare far stragglers and far jumps ahead. Every operation is mirrored
  // on a map.
  util::Rng rng(5);
  for (int round = 0; round < 8; ++round) {
    KeyWindow<int> window;
    std::map<int64_t, int> ref;
    int64_t center = 1000 * round;
    auto same_contents = [&] {
      std::vector<std::pair<int64_t, int>> got;
      window.ForEach([&](int64_t k, int v) { got.emplace_back(k, v); });
      return got ==
             std::vector<std::pair<int64_t, int>>(ref.begin(), ref.end());
    };
    for (int i = 0; i < 300; ++i, ++center) {
      window.Insert(center) = i;
      ref[center] = i;
      ASSERT_EQ(window.size(), ref.size()) << "round " << round;
    }
    ASSERT_TRUE(same_contents()) << "round " << round;
    for (int step = 0; step < 3000; ++step) {
      center += rng.UniformInt(0, 3);
      const int64_t op = rng.UniformInt(0, 9);
      if (op < 6) {
        int64_t key = center + rng.UniformInt(-300, 50);
        if (rng.Bernoulli(0.01)) key = center - rng.UniformInt(300, 5000);
        if (rng.Bernoulli(0.004)) {
          center = key = center + rng.UniformInt(0, 9000);
        }
        const int value = static_cast<int>(rng.UniformInt(0, 1'000'000));
        window.Insert(key) = value;
        ref[key] = value;
      } else if (op < 8) {
        const int64_t bound = center - rng.UniformInt(0, 400);
        window.EraseBelow(bound);
        ref.erase(ref.begin(), ref.lower_bound(bound));
      } else {
        window.EraseLowest();
        if (!ref.empty()) ref.erase(ref.begin());
      }
      ASSERT_EQ(window.size(), ref.size()) << "round " << round;
      for (int probe = 0; probe < 4; ++probe) {
        const int64_t key = center + rng.UniformInt(-500, 60);
        const auto it = ref.find(key);
        const int* got = window.Find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "round " << round;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second) << "round " << round;
        }
      }
      if (step % 300 == 0) {
        ASSERT_TRUE(same_contents()) << "round " << round;
      }
    }
    EXPECT_TRUE(same_contents());
    window.EraseBelow(center + 1000);
    EXPECT_EQ(window.size(), 0u);
    EXPECT_EQ(window.Insert(center), 0);  // a fresh key is value-initialized
  }
}

// Frame `i` of a one-packet-per-frame L1T3 stream: a key frame, then TL2,
// TL1, TL2, TL0 repeating. Odd frames are TL2, which no frame references,
// so withholding one leaves the rest decodable.
rtp::RtpPacket StreamPacket(int64_t i, uint16_t first_seq = 1,
                            uint16_t first_frame = 1) {
  static constexpr uint8_t kCycle[4] = {1, 3, 2, 4};  // by i % 4
  rtp::RtpPacket pkt;
  pkt.payload_type = 96;
  pkt.sequence_number = static_cast<uint16_t>(first_seq + i);
  pkt.timestamp = static_cast<uint32_t>(i * 3000);
  pkt.ssrc = 1;
  av1::DependencyDescriptor dd;
  dd.template_id = i == 0 ? 0 : kCycle[i % 4];
  dd.frame_number = static_cast<uint16_t>(first_frame + i);
  pkt.SetExtension(av1::kDdExtensionId, dd.Serialize());
  pkt.payload.assign(100, static_cast<uint8_t>(i));
  return pkt;
}

VideoReceiver QuietReceiver() {
  return VideoReceiver(VideoReceiverConfig{}, nullptr, nullptr);
}

TEST(VideoReceiverWindow, DuplicateWindowIs4096SeqsBehindTheNewest) {
  VideoReceiver rx = QuietReceiver();
  for (int64_t i = 0; i <= 4097; ++i) rx.OnPacket(StreamPacket(i), i * 1000);
  // Seq 2 (frame 1) is exactly 4096 behind the newest seq 4098.
  rx.OnPacket(StreamPacket(1), 5'000'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 1u);
  EXPECT_EQ(rx.stats().packets_received, 4099u);

  // One more packet: seq 2 is now 4097 behind and has left the window.
  rx.OnPacket(StreamPacket(4098), 5'001'000);
  rx.OnPacket(StreamPacket(1), 5'002'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 1u);
  EXPECT_EQ(rx.stats().packets_received, 4101u);
}

TEST(VideoReceiverWindow, StragglerOlderThanTheWindowLivesUntilPassed) {
  VideoReceiver rx = QuietReceiver();
  for (int64_t i = 0; i <= 4099; ++i) rx.OnPacket(StreamPacket(i), i * 1000);
  // Seq 2 is 4098 behind the newest: accepted as a new packet...
  rx.OnPacket(StreamPacket(1), 5'000'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 0u);
  // ...and remembered until a later insert passes it by the window, so
  // its repeat before anything newer arrives is a duplicate,
  rx.OnPacket(StreamPacket(1), 5'001'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 1u);
  EXPECT_EQ(rx.stats().conflicting_duplicates, 0u);
  // and a repeat carrying another frame is a conflicting duplicate.
  rtp::RtpPacket other = StreamPacket(1);
  av1::DependencyDescriptor dd;
  dd.template_id = 3;
  dd.frame_number = 999;
  other.SetExtension(av1::kDdExtensionId, dd.Serialize());
  rx.OnPacket(other, 5'002'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 2u);
  EXPECT_EQ(rx.stats().conflicting_duplicates, 1u);
  EXPECT_EQ(rx.stats().decoder_breaks, 1u);

  // A newer packet passes it by the window: seq 2 is new once more.
  rx.OnPacket(StreamPacket(4100), 5'003'000);
  rx.OnPacket(StreamPacket(1), 5'004'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 2u);
  EXPECT_EQ(rx.stats().packets_received, 4100u + 5u);
}

// Frames 0..last arrive one per `spacing`, except `late` (if >= 0), which
// arrives one spacing after the last.
VideoReceiver DeliverWithLateFrame(int64_t late, int64_t last,
                                   util::DurationUs spacing) {
  VideoReceiver rx = QuietReceiver();
  for (int64_t i = 0; i <= last; ++i) {
    if (i != late) rx.OnPacket(StreamPacket(i), i * spacing);
  }
  if (late >= 0) rx.OnPacket(StreamPacket(late), (last + 1) * spacing);
  return rx;
}

TEST(VideoReceiverWindow, DependencyWindowIs64DecodedFrames) {
  // Late TL2 frame 101 references frame 100, which is still remembered
  // while the newest decoded frame is at most 64 ahead of it.
  VideoReceiver in = DeliverWithLateFrame(101, 164, 1000);
  EXPECT_EQ(in.stats().frames_decoded, 165u);
  EXPECT_EQ(in.stats().frames_undecodable, 0u);

  VideoReceiver out = DeliverWithLateFrame(101, 165, 1000);
  EXPECT_EQ(out.stats().frames_decoded, 165u);
  EXPECT_EQ(out.stats().frames_undecodable, 1u);
}

TEST(VideoReceiverWindow, RecentFpsAfterOutOfOrderDecode) {
  // 30 fps: frames 271..300 fall in the trailing second before `now`.
  constexpr util::DurationUs kSpacing = 33'333;
  const util::TimeUs now = 301 * kSpacing;
  VideoReceiver base = DeliverWithLateFrame(-1, 300, kSpacing);
  EXPECT_DOUBLE_EQ(base.RecentFps(now), 30.0);

  // A late TL2 frame counts at its decode time, not its capture slot.
  VideoReceiver late = DeliverWithLateFrame(251, 300, kSpacing);
  EXPECT_EQ(late.stats().frames_decoded, 301u);
  EXPECT_DOUBLE_EQ(late.RecentFps(now), 31.0);

  // Only the 256 highest decoded frames keep a decode time: a key frame
  // decoded after 297 newer ones is forgotten at once.
  VideoReceiver rx = QuietReceiver();
  for (int64_t i = 0; i <= 300; ++i) {
    if (i != 3) rx.OnPacket(StreamPacket(i), i * kSpacing);
  }
  rtp::RtpPacket key = StreamPacket(3);
  av1::DependencyDescriptor dd;
  dd.template_id = 0;
  dd.frame_number = 4;
  key.SetExtension(av1::kDdExtensionId, dd.Serialize());
  rx.OnPacket(key, now);
  EXPECT_EQ(rx.stats().key_frames_decoded, 2u);
  EXPECT_DOUBLE_EQ(rx.RecentFps(now), 30.0);
}

TEST(VideoReceiverWindow, SequenceAndFrameNumbersWrap) {
  VideoReceiver rx(VideoReceiverConfig{}, [](const std::vector<uint16_t>&) {
    ADD_FAILURE() << "no packet is missing across the wrap";
  }, nullptr);
  for (int64_t i = 0; i < 40; ++i) {
    rx.OnPacket(StreamPacket(i, 65'520, 65'530), i * 1000);
  }
  rx.OnTick(1'000'000);
  EXPECT_EQ(rx.stats().frames_decoded, 40u);
  EXPECT_EQ(rx.stats().duplicate_packets, 0u);
  // Seq 65535 again, 24 packets after it: a duplicate across the wrap.
  rx.OnPacket(StreamPacket(15, 65'520, 65'530), 1'001'000);
  EXPECT_EQ(rx.stats().duplicate_packets, 1u);
  EXPECT_EQ(rx.stats().conflicting_duplicates, 0u);
}

TEST(VideoReceiverWindow, AbandonedSeqsKeepTheNewest4096) {
  // Regression: the abandoned set evicted an arbitrary entry (with
  // libstdc++ the newest), so it kept the oldest 4,096 seqs instead.
  VideoReceiver rx = QuietReceiver();
  rx.OnPacket(StreamPacket(0, /*first_seq=*/0), 0);
  rx.OnPacket(StreamPacket(5000, /*first_seq=*/0), 1000);
  rx.OnTick(1000 + 451'000);  // seqs 1..4999 pass the abandon timeout
  ASSERT_EQ(rx.stats().abandoned_packets, 4999u);
  ASSERT_EQ(rx.stats().recovered_packets, 0u);

  // Seqs 904..4999 are remembered: a late one counts as recovered.
  rx.OnPacket(StreamPacket(4999, /*first_seq=*/0), 500'000);
  EXPECT_EQ(rx.stats().recovered_packets, 1u);
  rx.OnPacket(StreamPacket(904, /*first_seq=*/0), 501'000);
  EXPECT_EQ(rx.stats().recovered_packets, 2u);
  // Older ones were evicted first.
  rx.OnPacket(StreamPacket(903, /*first_seq=*/0), 502'000);
  rx.OnPacket(StreamPacket(2, /*first_seq=*/0), 503'000);
  EXPECT_EQ(rx.stats().recovered_packets, 2u);
  EXPECT_EQ(rx.stats().packets_received, 6u);
}

TEST(AudioReceiverTest, CountsGaps) {
  AudioReceiver rx;
  AudioSource src(AudioSourceConfig{.ssrc = 9});
  for (int i = 0; i < 10; ++i) {
    auto p = src.NextPacket(i * 20'000);
    if (i == 5) continue;
    rx.OnPacket(p, i * 20'000);
  }
  EXPECT_EQ(rx.packets_received(), 9u);
  EXPECT_EQ(rx.gaps_detected(), 1u);
}

}  // namespace
}  // namespace scallop::media
