// RTP packet (RFC 3550) with RFC 8285 header extensions, parse + serialize.
// The AV1 dependency descriptor rides in one of these extensions (module av1).
//
// Wire bytes are validated in one place, RtpView::Parse: a non-owning view
// whose payload, CSRC list and extension block are spans into the parsed
// buffer. A view is valid only while that buffer lives and is unchanged.
// RtpPacket::Parse is the owning copy of a view.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace scallop::rtp {

constexpr uint8_t kRtpVersion = 2;

// RFC 8285 profiles for the extension block.
constexpr uint16_t kOneByteExtProfile = 0xBEDE;
constexpr uint16_t kTwoByteExtProfile = 0x1000;

struct RtpExtension {
  uint8_t id = 0;  // 1..14 (one-byte) or 1..255 (two-byte)
  std::vector<uint8_t> data;
};

struct RtpPacket {
  bool marker = false;
  uint8_t payload_type = 0;
  uint16_t sequence_number = 0;
  uint32_t timestamp = 0;
  uint32_t ssrc = 0;
  std::vector<uint32_t> csrcs;
  std::vector<RtpExtension> extensions;
  std::vector<uint8_t> payload;

  // Serializes to wire bytes. Chooses one-byte extension headers when all
  // extensions fit (id<=14, len<=16), two-byte otherwise.
  std::vector<uint8_t> Serialize() const;
  // Same bytes, written over `out`, whose capacity is reused.
  void SerializeInto(std::vector<uint8_t>& out) const;

  static std::optional<RtpPacket> Parse(std::span<const uint8_t> data);

  const RtpExtension* FindExtension(uint8_t id) const;
  void SetExtension(uint8_t id, std::vector<uint8_t> data);

  // Size the packet would occupy on the wire.
  size_t SerializedSize() const;
};

// A parsed RTP packet that borrows its bytes: header fields by value, the
// rest as spans into the buffer passed to Parse, which must outlive the view
// and stay unchanged. Parse accepts exactly what RtpPacket::Parse accepts:
// version 2, a complete header and CSRC list, an extension block within the
// packet whose one-byte or two-byte elements each fit in it (a one-byte id
// 15 ends the walk; unknown profiles carry no elements), and padding that
// is ignored when it claims more than the payload.
struct RtpView {
  bool marker = false;
  uint8_t payload_type = 0;
  uint16_t sequence_number = 0;
  uint32_t timestamp = 0;
  uint32_t ssrc = 0;
  std::span<const uint8_t> csrcs;  // 4 bytes per CSRC, network order
  uint16_t extension_profile = 0;
  std::span<const uint8_t> extension_block;  // elements, after the header
  std::span<const uint8_t> payload;          // padding removed

  static std::optional<RtpView> Parse(std::span<const uint8_t> data);

  size_t csrc_count() const { return csrcs.size() / 4; }
  uint32_t csrc(size_t i) const;
  // Data of the first extension element with `id`, in wire order.
  std::optional<std::span<const uint8_t>> FindExtension(uint8_t id) const;
};

// In-place surgical rewrites used by the data plane: patching the sequence
// number or SSRC without reserializing the whole packet, exactly like a
// switch pipeline would edit header fields.
bool PatchSequenceNumber(std::span<uint8_t> wire, uint16_t new_seq);
bool PatchSsrc(std::span<uint8_t> wire, uint32_t new_ssrc);
// Reads seq/ssrc straight from wire bytes (fast path for the switch model).
std::optional<uint16_t> PeekSequenceNumber(std::span<const uint8_t> wire);
std::optional<uint32_t> PeekSsrc(std::span<const uint8_t> wire);
std::optional<uint8_t> PeekPayloadType(std::span<const uint8_t> wire);

}  // namespace scallop::rtp
