#include "media/encoder.hpp"

#include <algorithm>

namespace scallop::media {

SvcEncoder::SvcEncoder(const SvcEncoderConfig& cfg, uint64_t seed)
    : cfg_(cfg), rng_(seed), target_bitrate_(cfg.start_bitrate_bps) {
  // Per 4-frame cycle: one TL0, one TL1, two TL2 frames.
  double cycle_mean =
      (cfg_.tl0_weight + cfg_.tl1_weight + 2.0 * cfg_.tl2_weight) / 4.0;
  weight_norm_ = 1.0 / cycle_mean;
}

void SvcEncoder::SetTargetBitrate(uint64_t bps) {
  target_bitrate_ =
      std::clamp(bps, cfg_.min_bitrate_bps, cfg_.max_bitrate_bps);
}

EncodedFrame SvcEncoder::NextFrame(util::TimeUs now) {
  // Key frames are emitted only on phase-0 (TL0) slots of the 4-frame L1T3
  // cycle, i.e. at GOP boundaries. This keeps the frame-number cadence
  // anchored for the SFU's skip heuristics: a requested key frame is
  // deferred by at most 3 frames (~100 ms at 30 fps).
  bool phase_zero = frame_counter_ % 4 == 0;
  bool key_due = key_frame_requested_ ||
                 (cfg_.key_frame_interval > 0 && frame_counter_ > 0 &&
                  now - last_key_time_ >= cfg_.key_frame_interval);
  bool key = key_due && phase_zero;
  if (key) key_frame_requested_ = false;

  EncodedFrame frame;
  frame.frame_number = ++frame_counter_;
  frame.capture_time = now;
  frame.key_frame = key;
  frame.template_id = pattern_.NextTemplateId(key);
  frame.temporal_layer = av1::TemporalLayerForTemplate(frame.template_id);

  double mean_frame_bytes =
      static_cast<double>(target_bitrate_) / 8.0 / cfg_.fps;
  double weight;
  switch (frame.temporal_layer) {
    case 0: weight = cfg_.tl0_weight; break;
    case 1: weight = cfg_.tl1_weight; break;
    default: weight = cfg_.tl2_weight; break;
  }
  double size = mean_frame_bytes * weight * weight_norm_;
  if (key) {
    size = mean_frame_bytes * cfg_.key_frame_factor;
    last_key_time_ = now;
  }
  size *= rng_.Uniform(1.0 - cfg_.size_jitter, 1.0 + cfg_.size_jitter);
  frame.size_bytes = std::max<size_t>(64, static_cast<size_t>(size));
  return frame;
}

}  // namespace scallop::media
