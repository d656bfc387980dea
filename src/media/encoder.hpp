// SVC video encoder model: produces L1T3 frames sized to a target bitrate.
// No pixels are encoded — frame sizes and the temporal-layer structure are
// what the SFU, the network, and the receiver react to.
#pragma once

#include <cstdint>

#include "av1/dependency_descriptor.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace scallop::media {

struct EncodedFrame {
  int64_t frame_number = 0;  // monotonically increasing (16-bit on the wire)
  uint8_t template_id = 0;
  uint8_t temporal_layer = 0;
  bool key_frame = false;
  size_t size_bytes = 0;
  util::TimeUs capture_time = 0;
};

struct SvcEncoderConfig {
  double fps = 30.0;
  uint64_t start_bitrate_bps = 1'200'000;
  uint64_t min_bitrate_bps = 150'000;
  // Cap at the paper's 720p stream rate (~2.2 Mb/s in the Appendix C
  // capture; the campus model's 2.3 Mb/s mean includes audio + overhead).
  uint64_t max_bitrate_bps = 2'200'000;
  // Key frames are this much larger than the average frame.
  double key_frame_factor = 4.0;
  // Periodic key-frame interval (Fig. 9 shows ~8.3 s in the campus trace).
  util::DurationUs key_frame_interval = util::Seconds(8.3);
  // Relative size of frames per temporal layer (reference frames carry
  // more bits). Normalized internally so the mean matches the bitrate.
  double tl0_weight = 2.0;
  double tl1_weight = 1.0;
  double tl2_weight = 0.6;
  // Frame-to-frame size noise (uniform +/- fraction).
  double size_jitter = 0.15;
};

class SvcEncoder {
 public:
  SvcEncoder(const SvcEncoderConfig& cfg, uint64_t seed);

  // Produces the frame captured at `now`. Call at 1/fps intervals.
  EncodedFrame NextFrame(util::TimeUs now);

  // The next frame will be a key frame (PLI response / stream start).
  void RequestKeyFrame() { key_frame_requested_ = true; }

  // Rate adaptation entry point (driven by REMB at the sender).
  void SetTargetBitrate(uint64_t bps);
  uint64_t target_bitrate() const { return target_bitrate_; }

  double fps() const { return cfg_.fps; }
  util::DurationUs frame_interval() const {
    return static_cast<util::DurationUs>(1e6 / cfg_.fps);
  }
  const SvcEncoderConfig& config() const { return cfg_; }

  int64_t frames_produced() const { return frame_counter_; }

 private:
  SvcEncoderConfig cfg_;
  util::Rng rng_;
  av1::L1T3Pattern pattern_;
  uint64_t target_bitrate_;
  int64_t frame_counter_ = 0;
  bool key_frame_requested_ = true;  // first frame is a key frame
  util::TimeUs last_key_time_ = 0;
  double weight_norm_;  // normalizes layer weights to the target mean
};

}  // namespace scallop::media
