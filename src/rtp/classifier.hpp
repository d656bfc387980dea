// The data plane's first parsing decision (paper §E): look at the first
// bytes of the UDP payload to tell RTP, RTCP and STUN apart.
#pragma once

#include <cstdint>
#include <span>

namespace scallop::rtp {

enum class PayloadKind : uint8_t {
  kRtp,
  kRtcp,
  kStun,
  kUnknown,
};

// RFC 7983-style demultiplexing: STUN starts with 0b00, RTP/RTCP with
// version 2 (0b10); RTCP is distinguished by payload type 200..206 in the
// second byte. Inline: this runs at least once per simulated packet.
inline PayloadKind Classify(std::span<const uint8_t> payload) {
  if (payload.size() < 2) return PayloadKind::kUnknown;
  uint8_t first = payload[0];
  uint8_t top2 = first >> 6;
  if (top2 == 0) {
    // STUN: first two bits zero and (if long enough) the magic cookie at
    // offset 4. Keep the check shallow like the hardware lookahead.
    if (payload.size() >= 8 && payload[4] == 0x21 && payload[5] == 0x12 &&
        payload[6] == 0xA4 && payload[7] == 0x42) {
      return PayloadKind::kStun;
    }
    return PayloadKind::kUnknown;
  }
  if (top2 == 2) {
    uint8_t pt = payload[1];
    if (pt >= 200 && pt <= 206) return PayloadKind::kRtcp;
    return PayloadKind::kRtp;
  }
  return PayloadKind::kUnknown;
}

}  // namespace scallop::rtp
