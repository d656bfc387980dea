// Packetizes encoded frames into RTP packets carrying the AV1 dependency
// descriptor. Honors the SVC constraint the paper relies on: a layer
// (frame) never crosses a packet boundary shared with another frame, so
// dropping a layer means dropping whole packets.
#pragma once

#include <cstdint>
#include <vector>

#include "av1/dependency_descriptor.hpp"
#include "media/encoder.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/time.hpp"

namespace scallop::media {

// abs-send-time RTP extension (24-bit, 6.18 fixed-point seconds) — the
// timestamp GCC's receiver-side filter uses.
constexpr uint8_t kAbsSendTimeExtensionId = 3;
std::vector<uint8_t> EncodeAbsSendTime(util::TimeUs t);
// Returns microseconds within the 64 s wrap window.
util::TimeUs DecodeAbsSendTime(std::span<const uint8_t> data);

struct PacketizerConfig {
  size_t max_payload_bytes = 1200;
  uint8_t payload_type = 96;
  uint32_t ssrc = 0;
  uint32_t clock_rate = 90'000;
  uint8_t dd_extension_id = av1::kDdExtensionId;
  uint8_t abs_send_time_id = kAbsSendTimeExtensionId;
};

class Packetizer {
 public:
  explicit Packetizer(const PacketizerConfig& cfg) : cfg_(cfg) {}

  // Splits `frame` into RTP packets. The first packet of the *first* key
  // frame (or of the first key frame after ResendStructure()) carries the
  // extended dependency descriptor: the structure only changes when the
  // stream (re)starts or the resolution changes (paper §5.4 / Table 1).
  std::vector<rtp::RtpPacket> Packetize(const EncodedFrame& frame,
                                        util::TimeUs send_time);

  // The next key frame will carry the extended descriptor again (sent
  // after PLI-triggered refreshes so the SFU can revalidate).
  void ResendStructure() { structure_pending_ = true; }

  uint64_t packets_produced() const { return packets_produced_; }
  const PacketizerConfig& config() const { return cfg_; }

 private:
  PacketizerConfig cfg_;
  uint16_t next_seq_ = 1;
  uint64_t packets_produced_ = 0;
  bool structure_pending_ = true;  // first key frame always carries it
};

}  // namespace scallop::media
