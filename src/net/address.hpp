// IPv4 addresses, UDP endpoints and flow five-tuples.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

namespace scallop::net {

// IPv4 address stored in host order for arithmetic, printed dotted-quad.
class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(uint32_t host_order) : addr_(host_order) {}
  constexpr Ipv4(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : addr_(static_cast<uint32_t>(a) << 24 | static_cast<uint32_t>(b) << 16 |
              static_cast<uint32_t>(c) << 8 | d) {}

  constexpr uint32_t value() const { return addr_; }
  std::string ToString() const;
  static Ipv4 Parse(const std::string& dotted);

  auto operator<=>(const Ipv4&) const = default;

 private:
  uint32_t addr_ = 0;
};

// UDP endpoint: address + port.
struct Endpoint {
  Ipv4 addr;
  uint16_t port = 0;

  std::string ToString() const;
  auto operator<=>(const Endpoint&) const = default;
};

}  // namespace scallop::net

namespace std {
template <>
struct hash<scallop::net::Ipv4> {
  size_t operator()(const scallop::net::Ipv4& a) const noexcept {
    return std::hash<uint32_t>{}(a.value());
  }
};
template <>
struct hash<scallop::net::Endpoint> {
  size_t operator()(const scallop::net::Endpoint& e) const noexcept {
    return std::hash<uint64_t>{}(
        (static_cast<uint64_t>(e.addr.value()) << 16) ^ e.port);
  }
};
}  // namespace std
