#include "media/packetizer.hpp"

namespace scallop::media {

std::vector<uint8_t> EncodeAbsSendTime(util::TimeUs t) {
  // 6.18 fixed point seconds, 24 bits total; wraps every 64 s.
  uint64_t fixed =
      (static_cast<uint64_t>(t) << 18) / 1'000'000 & 0xffffff;
  return {static_cast<uint8_t>(fixed >> 16), static_cast<uint8_t>(fixed >> 8),
          static_cast<uint8_t>(fixed)};
}

util::TimeUs DecodeAbsSendTime(std::span<const uint8_t> data) {
  if (data.size() < 3) return 0;
  uint64_t fixed = static_cast<uint64_t>(data[0]) << 16 |
                   static_cast<uint64_t>(data[1]) << 8 | data[2];
  return static_cast<util::TimeUs>((fixed * 1'000'000) >> 18);
}

std::vector<rtp::RtpPacket> Packetizer::Packetize(const EncodedFrame& frame,
                                                  util::TimeUs send_time) {
  std::vector<rtp::RtpPacket> packets;
  size_t remaining = frame.size_bytes;
  size_t n_packets = (remaining + cfg_.max_payload_bytes - 1) /
                     cfg_.max_payload_bytes;
  if (n_packets == 0) n_packets = 1;

  for (size_t i = 0; i < n_packets; ++i) {
    rtp::RtpPacket pkt;
    pkt.payload_type = cfg_.payload_type;
    pkt.sequence_number = next_seq_++;
    pkt.timestamp = util::ToRtpTimestamp90k(frame.capture_time);
    pkt.ssrc = cfg_.ssrc;
    pkt.marker = (i + 1 == n_packets);

    av1::DependencyDescriptor dd;
    dd.start_of_frame = (i == 0);
    dd.end_of_frame = (i + 1 == n_packets);
    dd.template_id = frame.template_id;
    dd.frame_number = static_cast<uint16_t>(frame.frame_number & 0xffff);
    if (frame.key_frame && i == 0 && structure_pending_) {
      dd.structure = av1::TemplateStructure::L1T3();
      structure_pending_ = false;
    }
    pkt.SetExtension(cfg_.dd_extension_id, dd.Serialize());
    pkt.SetExtension(cfg_.abs_send_time_id, EncodeAbsSendTime(send_time));

    size_t chunk = std::min(cfg_.max_payload_bytes, remaining);
    if (chunk == 0) chunk = 1;  // zero-size guard for tiny frames
    remaining -= std::min(remaining, chunk);
    // Payload bytes are a recognizable fill pattern (content never parsed).
    pkt.payload.assign(chunk, static_cast<uint8_t>(frame.frame_number & 0xff));
    packets.push_back(std::move(pkt));
    ++packets_produced_;
  }
  return packets;
}

}  // namespace scallop::media
