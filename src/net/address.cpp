#include "net/address.hpp"

#include <cstdio>
#include <cstdlib>

namespace scallop::net {

std::string Ipv4::ToString() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (addr_ >> 24) & 0xff,
                (addr_ >> 16) & 0xff, (addr_ >> 8) & 0xff, addr_ & 0xff);
  return buf;
}

Ipv4 Ipv4::Parse(const std::string& dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4) {
    return Ipv4{};
  }
  return Ipv4(static_cast<uint8_t>(a), static_cast<uint8_t>(b),
              static_cast<uint8_t>(c), static_cast<uint8_t>(d));
}

std::string Endpoint::ToString() const {
  return addr.ToString() + ":" + std::to_string(port);
}

}  // namespace scallop::net
