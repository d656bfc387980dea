// UDP datagram model: IP/UDP headers are carried as structured fields (the
// switch rewrites them like a real pipeline would); the payload is real
// wire-format bytes (RTP/RTCP/STUN) produced by the protocol modules.
//
// A packet has exactly one owner at a time. PacketPtr is move-only: a
// sender hands its packet to a link, the link to the next hop, the last
// hop to the receiving host, and whoever drops it last returns it to the
// pool. Replication makes distinct packets (ClonePacket), never shares one.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/address.hpp"
#include "util/time.hpp"

namespace scallop::net {

// Sizes modeled for byte accounting (Ethernet + IPv4 + UDP).
constexpr size_t kEthHeaderBytes = 14;
constexpr size_t kIpv4HeaderBytes = 20;
constexpr size_t kUdpHeaderBytes = 8;
constexpr size_t kL3L4Overhead = kIpv4HeaderBytes + kUdpHeaderBytes;

struct Packet {
  Endpoint src;
  Endpoint dst;
  std::vector<uint8_t> payload;

  // Metadata stamped by the simulator (not on the wire).
  util::TimeUs sent_at = 0;
  util::TimeUs arrival = 0;
  uint32_t ingress_port = 0;  // switch ingress port, set by switchsim

  // Total bytes on the wire including L3/L4 headers (no Ethernet).
  size_t wire_size() const { return payload.size() + kL3L4Overhead; }

  std::span<const uint8_t> payload_span() const { return payload; }
};

// Deleter of a pooled packet: returns it to the process-wide freelist
// (simulation is single-threaded), keeping its payload capacity for the
// next occupant.
struct Recycler {
  void operator()(Packet* p) const;
};

using PacketPtr = std::unique_ptr<Packet, Recycler>;

// Draws a Packet from the freelist, its metadata reset.
PacketPtr AcquirePacket();

inline PacketPtr MakePacket(Endpoint src, Endpoint dst,
                            std::vector<uint8_t> payload) {
  PacketPtr p = AcquirePacket();
  p->src = src;
  p->dst = dst;
  p->payload = std::move(payload);
  return p;
}

// Deep copy; replication in the switch produces distinct packets whose
// headers are rewritten per receiver.
PacketPtr ClonePacket(const Packet& p);

}  // namespace scallop::net
