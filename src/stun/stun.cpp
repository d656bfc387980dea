#include "stun/stun.hpp"

#include "util/bytes.hpp"

namespace scallop::stun {

using util::ByteReader;
using util::ByteWriter;

namespace {

void WriteAttrHeader(ByteWriter& w, AttributeType type, uint16_t len) {
  w.WriteU16(static_cast<uint16_t>(type));
  w.WriteU16(len);
}

void PadTo4(ByteWriter& w) {
  while (w.size() % 4 != 0) w.WriteU8(0);
}

}  // namespace

TransactionId MakeTransactionId(uint64_t a, uint32_t b) {
  TransactionId id{};
  for (int i = 0; i < 8; ++i) id[i] = static_cast<uint8_t>(a >> (8 * (7 - i)));
  for (int i = 0; i < 4; ++i)
    id[8 + i] = static_cast<uint8_t>(b >> (8 * (3 - i)));
  return id;
}

std::vector<uint8_t> StunMessage::Serialize() const {
  ByteWriter w(64);
  w.WriteU16(static_cast<uint16_t>(type));
  size_t len_pos = w.size();
  w.WriteU16(0);  // message length, patched at the end
  w.WriteU32(kMagicCookie);
  w.WriteBytes(transaction_id);

  if (username) {
    WriteAttrHeader(w, AttributeType::kUsername,
                    static_cast<uint16_t>(username->size()));
    w.WriteString(*username);
    PadTo4(w);
  }
  if (xor_mapped_address) {
    WriteAttrHeader(w, AttributeType::kXorMappedAddress, 8);
    w.WriteU8(0);
    w.WriteU8(0x01);  // IPv4 family
    w.WriteU16(static_cast<uint16_t>(xor_mapped_address->port ^
                                     (kMagicCookie >> 16)));
    w.WriteU32(xor_mapped_address->addr.value() ^ kMagicCookie);
  }
  if (priority) {
    WriteAttrHeader(w, AttributeType::kPriority, 4);
    w.WriteU32(*priority);
  }
  if (use_candidate) {
    WriteAttrHeader(w, AttributeType::kUseCandidate, 0);
  }
  if (ice_controlling) {
    WriteAttrHeader(w, AttributeType::kIceControlling, 8);
    w.WriteU64(*ice_controlling);
  }
  if (ice_controlled) {
    WriteAttrHeader(w, AttributeType::kIceControlled, 8);
    w.WriteU64(*ice_controlled);
  }
  if (error_code) {
    WriteAttrHeader(w, AttributeType::kErrorCode, 4);
    uint16_t code = *error_code;
    w.WriteU16(0);
    w.WriteU8(static_cast<uint8_t>(code / 100));
    w.WriteU8(static_cast<uint8_t>(code % 100));
  }

  w.PatchU16(len_pos, static_cast<uint16_t>(w.size() - 20));
  return std::move(w).Take();
}

std::optional<StunMessage> StunMessage::Parse(std::span<const uint8_t> data) {
  ByteReader r(data);
  uint16_t type_raw = r.ReadU16();
  uint16_t msg_len = r.ReadU16();
  uint32_t cookie = r.ReadU32();
  if (!r.ok() || cookie != kMagicCookie) return std::nullopt;
  if ((type_raw & 0xc000) != 0) return std::nullopt;

  StunMessage msg;
  msg.type = static_cast<MessageType>(type_raw);
  auto tid = r.ReadBytes(12);
  if (!r.ok() || msg_len + 20u > data.size()) return std::nullopt;
  std::copy(tid.begin(), tid.end(), msg.transaction_id.begin());

  size_t end = 20 + msg_len;
  while (r.position() + 4 <= end) {
    uint16_t attr_type = r.ReadU16();
    uint16_t attr_len = r.ReadU16();
    size_t attr_start = r.position();
    switch (static_cast<AttributeType>(attr_type)) {
      case AttributeType::kUsername:
        msg.username = r.ReadString(attr_len);
        break;
      case AttributeType::kXorMappedAddress: {
        r.Skip(2);  // reserved + family
        uint16_t xport = r.ReadU16();
        uint32_t xaddr = r.ReadU32();
        msg.xor_mapped_address = net::Endpoint{
            net::Ipv4(xaddr ^ kMagicCookie),
            static_cast<uint16_t>(xport ^ (kMagicCookie >> 16))};
        break;
      }
      case AttributeType::kPriority:
        msg.priority = r.ReadU32();
        break;
      case AttributeType::kUseCandidate:
        msg.use_candidate = true;
        break;
      case AttributeType::kIceControlling:
        msg.ice_controlling = r.ReadU64();
        break;
      case AttributeType::kIceControlled:
        msg.ice_controlled = r.ReadU64();
        break;
      case AttributeType::kErrorCode: {
        r.Skip(2);
        uint8_t cls = r.ReadU8();
        uint8_t num = r.ReadU8();
        // RFC 5389 §15.6: class 3-6 (the hundreds digit), number 0-99.
        if (cls < 3 || cls > 6 || num > 99) return std::nullopt;
        msg.error_code = static_cast<uint16_t>(cls * 100 + num);
        break;
      }
      default:
        r.Skip(attr_len);
        break;
    }
    if (!r.ok()) return std::nullopt;
    // Consume any unread remainder plus padding to the 4-byte boundary.
    size_t consumed = r.position() - attr_start;
    if (consumed < attr_len) r.Skip(attr_len - consumed);
    size_t padded = (attr_len + 3) & ~size_t{3};
    r.Skip(padded - attr_len);
    if (!r.ok()) return std::nullopt;
  }
  return msg;
}

StunMessage MakeBindingResponse(const StunMessage& request,
                                const net::Endpoint& observed_source) {
  StunMessage resp;
  resp.type = MessageType::kBindingSuccess;
  resp.transaction_id = request.transaction_id;
  resp.xor_mapped_address = observed_source;
  return resp;
}

}  // namespace scallop::stun
