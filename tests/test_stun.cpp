#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "rtp/classifier.hpp"
#include "stun/stun.hpp"

namespace scallop::stun {
namespace {

TEST(Stun, BindingRequestRoundTrip) {
  StunMessage msg;
  msg.type = MessageType::kBindingRequest;
  msg.transaction_id = MakeTransactionId(0x1122334455667788ULL, 0x99AABBCC);
  msg.username = "remote:local";
  msg.priority = 12345;
  msg.ice_controlling = 0xDEADBEEFCAFEF00DULL;
  msg.use_candidate = true;

  auto wire = msg.Serialize();
  auto parsed = StunMessage::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, MessageType::kBindingRequest);
  EXPECT_EQ(parsed->transaction_id, msg.transaction_id);
  EXPECT_EQ(parsed->username, "remote:local");
  EXPECT_EQ(parsed->priority, 12345u);
  EXPECT_EQ(parsed->ice_controlling, 0xDEADBEEFCAFEF00DULL);
  EXPECT_TRUE(parsed->use_candidate);
}

TEST(Stun, XorMappedAddressRoundTrip) {
  StunMessage msg;
  msg.type = MessageType::kBindingSuccess;
  msg.xor_mapped_address =
      net::Endpoint{net::Ipv4(192, 168, 1, 77), 50123};
  auto parsed = StunMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->xor_mapped_address.has_value());
  EXPECT_EQ(parsed->xor_mapped_address->addr, net::Ipv4(192, 168, 1, 77));
  EXPECT_EQ(parsed->xor_mapped_address->port, 50123);
}

TEST(Stun, BindingResponseEchoesTransactionId) {
  StunMessage req;
  req.transaction_id = MakeTransactionId(42, 43);
  net::Endpoint observed{net::Ipv4(10, 1, 2, 3), 4444};
  StunMessage resp = MakeBindingResponse(req, observed);
  EXPECT_EQ(resp.type, MessageType::kBindingSuccess);
  EXPECT_EQ(resp.transaction_id, req.transaction_id);
  ASSERT_TRUE(resp.xor_mapped_address.has_value());
  EXPECT_EQ(*resp.xor_mapped_address, observed);
}

TEST(Stun, ErrorCodeRoundTrip) {
  StunMessage msg;
  msg.type = MessageType::kBindingError;
  msg.error_code = 487;  // role conflict
  auto parsed = StunMessage::Parse(msg.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->error_code, 487);
}

// RFC 5389 §15.6: the class byte is the hundreds digit, 3-6, and the
// number byte is 0-99. Class 255, number 255 used to parse as 25,755 and
// re-serialize as 155.
TEST(Stun, ParseRejectsOutOfRangeErrorCode) {
  StunMessage msg;
  msg.type = MessageType::kBindingError;
  msg.error_code = 487;
  const std::vector<uint8_t> wire = msg.Serialize();
  // ERROR-CODE is the last attribute: its class and number end the wire.
  auto with_code = [&wire](uint8_t cls, uint8_t num) {
    std::vector<uint8_t> mutated = wire;
    mutated[mutated.size() - 2] = cls;
    mutated[mutated.size() - 1] = num;
    return mutated;
  };
  for (const auto& [cls, num] : std::vector<std::pair<uint8_t, uint8_t>>{
           {255, 255}, {2, 99}, {7, 0}, {0, 0}, {4, 100}, {3, 255}}) {
    EXPECT_FALSE(StunMessage::Parse(with_code(cls, num)).has_value())
        << "class " << int{cls} << " number " << int{num};
  }
  // Valid codes still round-trip, byte for byte.
  for (const auto& [cls, num, code] :
       std::vector<std::tuple<uint8_t, uint8_t, uint16_t>>{
           {3, 0, 300}, {4, 87, 487}, {6, 99, 699}}) {
    const std::vector<uint8_t> bytes = with_code(cls, num);
    const auto parsed = StunMessage::Parse(bytes);
    ASSERT_TRUE(parsed.has_value()) << code;
    EXPECT_EQ(parsed->error_code, code);
    EXPECT_EQ(parsed->Serialize(), bytes) << code;
  }
}

TEST(Stun, ParseRejectsBadCookie) {
  StunMessage msg;
  auto wire = msg.Serialize();
  wire[4] ^= 0xFF;
  EXPECT_FALSE(StunMessage::Parse(wire).has_value());
}

TEST(Stun, ParseRejectsTruncated) {
  StunMessage msg;
  msg.username = "abc";
  auto wire = msg.Serialize();
  wire.resize(wire.size() - 2);
  EXPECT_FALSE(StunMessage::Parse(wire).has_value());
}

TEST(Stun, UnknownAttributesSkipped) {
  StunMessage msg;
  msg.priority = 7;
  auto wire = msg.Serialize();
  // Append an unknown attribute (type 0x7777, 4 bytes) and fix length.
  wire.push_back(0x77); wire.push_back(0x77);
  wire.push_back(0x00); wire.push_back(0x04);
  for (int i = 0; i < 4; ++i) wire.push_back(0xEE);
  uint16_t new_len = static_cast<uint16_t>(wire.size() - 20);
  wire[2] = static_cast<uint8_t>(new_len >> 8);
  wire[3] = static_cast<uint8_t>(new_len);
  auto parsed = StunMessage::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->priority, 7u);
}

TEST(Stun, ClassifierSeesStun) {
  StunMessage msg;
  EXPECT_EQ(rtp::Classify(msg.Serialize()), rtp::PayloadKind::kStun);
}

TEST(Stun, PaddingKeepsAlignment) {
  StunMessage msg;
  msg.username = "ab";  // needs 2 bytes padding
  msg.priority = 1;
  auto wire = msg.Serialize();
  EXPECT_EQ(wire.size() % 4, 0u);
  auto parsed = StunMessage::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->username, "ab");
  EXPECT_EQ(parsed->priority, 1u);
}

}  // namespace
}  // namespace scallop::stun
