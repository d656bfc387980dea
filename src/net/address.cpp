#include "net/address.hpp"

#include <charconv>
#include <cstdio>

namespace scallop::net {

std::string Ipv4::ToString() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr_ >> 24) & 0xff,
                (addr_ >> 16) & 0xff, (addr_ >> 8) & 0xff, addr_ & 0xff);
  return buf;
}

std::optional<Ipv4> Ipv4::Parse(const std::string& dotted) {
  const char* p = dotted.data();
  const char* const end = p + dotted.size();
  uint32_t addr = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && (p == end || *p++ != '.')) return std::nullopt;
    unsigned octet = 0;
    const auto [next, ec] = std::from_chars(p, end, octet);
    if (ec != std::errc{} || octet > 255) return std::nullopt;
    addr = addr << 8 | octet;
    p = next;
  }
  if (p != end) return std::nullopt;
  return Ipv4(addr);
}

std::string Endpoint::ToString() const {
  return addr.ToString() + ":" + std::to_string(port);
}

}  // namespace scallop::net
