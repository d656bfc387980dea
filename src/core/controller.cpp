#include "core/controller.hpp"

namespace scallop::core {

SenderIntent ParseSenderIntent(const sdp::SessionDescription& offer) {
  SenderIntent intent;
  for (const auto& m : offer.media) {
    if (!m.candidates.empty()) intent.media_src = m.candidates[0].endpoint;
    if (m.type == sdp::MediaType::kVideo && !m.recv_only) {
      intent.sends_video = true;
      intent.video_ssrc = m.ssrc;
    } else if (m.type == sdp::MediaType::kAudio && !m.recv_only) {
      intent.sends_audio = true;
      intent.audio_ssrc = m.ssrc;
    }
  }
  return intent;
}

}  // namespace scallop::core
