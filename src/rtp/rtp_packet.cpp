#include "rtp/rtp_packet.hpp"

#include <algorithm>

namespace scallop::rtp {

using util::ByteReader;
using util::ByteWriter;

namespace {

bool FitsOneByte(const std::vector<RtpExtension>& exts) {
  return std::all_of(exts.begin(), exts.end(), [](const RtpExtension& e) {
    return e.id >= 1 && e.id <= 14 && !e.data.empty() && e.data.size() <= 16;
  });
}

// Walks the elements of an RFC 8285 extension block in wire order, calling
// `on_element(id, data)` until it returns false. Returns false when an
// element runs past the block. Unknown profiles carry no elements.
template <typename Fn>
bool WalkExtensions(uint16_t profile, std::span<const uint8_t> block,
                    Fn&& on_element) {
  ByteReader er(block);
  if (profile == kOneByteExtProfile) {
    while (er.remaining() > 0) {
      uint8_t hdr = er.ReadU8();
      if (hdr == 0) continue;  // padding
      uint8_t id = hdr >> 4;
      if (id == 15) break;  // reserved: stop parsing
      auto bytes = er.ReadBytes(static_cast<size_t>(hdr & 0x0f) + 1);
      if (!er.ok()) return false;
      if (!on_element(id, bytes)) return true;
    }
  } else if (profile == kTwoByteExtProfile) {
    while (er.remaining() > 1) {
      uint8_t id = er.ReadU8();
      if (id == 0) continue;  // padding
      size_t len = er.ReadU8();
      auto bytes = er.ReadBytes(len);
      if (!er.ok()) return false;
      if (!on_element(id, bytes)) return true;
    }
  }
  return true;
}

}  // namespace

size_t RtpPacket::SerializedSize() const {
  size_t size = 12 + csrcs.size() * 4;
  if (!extensions.empty()) {
    size_t ext_bytes = 0;
    if (FitsOneByte(extensions)) {
      for (const auto& e : extensions) ext_bytes += 1 + e.data.size();
    } else {
      for (const auto& e : extensions) ext_bytes += 2 + e.data.size();
    }
    ext_bytes = (ext_bytes + 3) & ~size_t{3};
    size += 4 + ext_bytes;
  }
  return size + payload.size();
}

std::vector<uint8_t> RtpPacket::Serialize() const {
  std::vector<uint8_t> out;
  SerializeInto(out);
  return out;
}

void RtpPacket::SerializeInto(std::vector<uint8_t>& out) const {
  out.clear();
  out.reserve(SerializedSize());
  ByteWriter w(std::move(out));
  bool has_ext = !extensions.empty();
  w.WriteU8(static_cast<uint8_t>(kRtpVersion << 6 | (has_ext ? 0x10 : 0) |
                                 (csrcs.size() & 0x0f)));
  w.WriteU8(static_cast<uint8_t>((marker ? 0x80 : 0) | (payload_type & 0x7f)));
  w.WriteU16(sequence_number);
  w.WriteU32(timestamp);
  w.WriteU32(ssrc);
  for (uint32_t csrc : csrcs) w.WriteU32(csrc);

  if (has_ext) {
    bool one_byte = FitsOneByte(extensions);
    w.WriteU16(one_byte ? kOneByteExtProfile : kTwoByteExtProfile);
    size_t len_pos = w.size();
    w.WriteU16(0);  // patched below
    size_t ext_start = w.size();
    for (const auto& e : extensions) {
      if (one_byte) {
        w.WriteU8(static_cast<uint8_t>((e.id << 4) | ((e.data.size() - 1) & 0x0f)));
      } else {
        w.WriteU8(e.id);
        w.WriteU8(static_cast<uint8_t>(e.data.size()));
      }
      w.WriteBytes(e.data);
    }
    size_t ext_bytes = w.size() - ext_start;
    size_t padded = (ext_bytes + 3) & ~size_t{3};
    w.WritePadding(padded - ext_bytes);
    w.PatchU16(len_pos, static_cast<uint16_t>(padded / 4));
  }

  w.WriteBytes(payload);
  out = std::move(w).Take();
}

std::optional<RtpView> RtpView::Parse(std::span<const uint8_t> data) {
  ByteReader r(data);
  uint8_t b0 = r.ReadU8();
  uint8_t b1 = r.ReadU8();
  if (!r.ok() || (b0 >> 6) != kRtpVersion) return std::nullopt;

  RtpView v;
  bool has_padding = (b0 & 0x20) != 0;
  bool has_ext = (b0 & 0x10) != 0;
  v.marker = (b1 & 0x80) != 0;
  v.payload_type = b1 & 0x7f;
  v.sequence_number = r.ReadU16();
  v.timestamp = r.ReadU32();
  v.ssrc = r.ReadU32();
  v.csrcs = r.ReadBytes(static_cast<size_t>(b0 & 0x0f) * 4);
  if (!r.ok()) return std::nullopt;

  if (has_ext) {
    v.extension_profile = r.ReadU16();
    uint16_t words = r.ReadU16();
    v.extension_block = r.ReadBytes(static_cast<size_t>(words) * 4);
    if (!r.ok() ||
        !WalkExtensions(v.extension_profile, v.extension_block,
                        [](uint8_t, std::span<const uint8_t>) { return true; })) {
      return std::nullopt;
    }
  }

  size_t payload_len = r.remaining();
  if (has_padding && payload_len > 0) {
    uint8_t pad = data[data.size() - 1];
    if (pad <= payload_len) payload_len -= pad;
  }
  v.payload = r.ReadBytes(payload_len);
  return v;
}

uint32_t RtpView::csrc(size_t i) const {
  ByteReader r(csrcs.subspan(i * 4, 4));
  return r.ReadU32();
}

std::optional<std::span<const uint8_t>> RtpView::FindExtension(
    uint8_t id) const {
  std::optional<std::span<const uint8_t>> found;
  WalkExtensions(extension_profile, extension_block,
                 [&](uint8_t element_id, std::span<const uint8_t> data) {
                   if (element_id != id) return true;
                   found = data;
                   return false;
                 });
  return found;
}

std::optional<RtpPacket> RtpPacket::Parse(std::span<const uint8_t> data) {
  auto view = RtpView::Parse(data);
  if (!view.has_value()) return std::nullopt;
  RtpPacket pkt;
  pkt.marker = view->marker;
  pkt.payload_type = view->payload_type;
  pkt.sequence_number = view->sequence_number;
  pkt.timestamp = view->timestamp;
  pkt.ssrc = view->ssrc;
  for (size_t i = 0; i < view->csrc_count(); ++i) {
    pkt.csrcs.push_back(view->csrc(i));
  }
  if (!view->extension_block.empty()) {
    pkt.extensions.reserve(4);  // one growth step covers typical packets
  }
  WalkExtensions(view->extension_profile, view->extension_block,
                 [&pkt](uint8_t id, std::span<const uint8_t> bytes) {
                   pkt.extensions.push_back(RtpExtension{
                       id, std::vector<uint8_t>(bytes.begin(), bytes.end())});
                   return true;
                 });
  pkt.payload.assign(view->payload.begin(), view->payload.end());
  return pkt;
}

const RtpExtension* RtpPacket::FindExtension(uint8_t id) const {
  for (const auto& e : extensions) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

void RtpPacket::SetExtension(uint8_t id, std::vector<uint8_t> data) {
  for (auto& e : extensions) {
    if (e.id == id) {
      e.data = std::move(data);
      return;
    }
  }
  extensions.push_back(RtpExtension{id, std::move(data)});
}

bool PatchSequenceNumber(std::span<uint8_t> wire, uint16_t new_seq) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return false;
  wire[2] = static_cast<uint8_t>(new_seq >> 8);
  wire[3] = static_cast<uint8_t>(new_seq);
  return true;
}

bool PatchSsrc(std::span<uint8_t> wire, uint32_t new_ssrc) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return false;
  wire[8] = static_cast<uint8_t>(new_ssrc >> 24);
  wire[9] = static_cast<uint8_t>(new_ssrc >> 16);
  wire[10] = static_cast<uint8_t>(new_ssrc >> 8);
  wire[11] = static_cast<uint8_t>(new_ssrc);
  return true;
}

std::optional<uint16_t> PeekSequenceNumber(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return static_cast<uint16_t>(wire[2] << 8 | wire[3]);
}

std::optional<uint32_t> PeekSsrc(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return static_cast<uint32_t>(wire[8]) << 24 |
         static_cast<uint32_t>(wire[9]) << 16 |
         static_cast<uint32_t>(wire[10]) << 8 | static_cast<uint32_t>(wire[11]);
}

std::optional<uint8_t> PeekPayloadType(std::span<const uint8_t> wire) {
  if (wire.size() < 12 || (wire[0] >> 6) != kRtpVersion) return std::nullopt;
  return wire[1] & 0x7f;
}

}  // namespace scallop::rtp
