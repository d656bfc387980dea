// Star-topology network: every host owns an uplink and a downlink to a
// lossless core, matching the paper's per-participant uplink/downlink
// terminology. The SFU (switch or software server) attaches like any host
// but typically with datacenter-grade links.
//
// On top of the star, Connect() installs dedicated point-to-point links
// between attached hosts (the modeled inter-switch backbone) and
// SetRoute() pins a (src, dst) flow onto a chain of those links — so
// relay traffic between fleet switches crosses the declared backbone,
// hop by hop, instead of the ideal star core. Without routes, behaviour
// is byte-identical to the plain star.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"

namespace scallop::sim {

// Anything that can receive packets from the network.
class Host {
 public:
  virtual ~Host() = default;
  virtual void OnPacket(net::PacketPtr pkt) = 0;
};

class Network {
 public:
  Network(Scheduler& sched, uint64_t seed) : sched_(sched), seed_(seed) {}

  // Registers `host` under `addr` with dedicated uplink/downlink.
  void Attach(net::Ipv4 addr, Host* host, const LinkConfig& uplink,
              const LinkConfig& downlink);

  // Sends using the src host's uplink and dst host's downlink — unless a
  // route is installed for (src, dst), in which case the packet traverses
  // the route's pair links instead. Packets to unknown destinations (or
  // hitting a route hop with no pair link) are counted and dropped (like
  // a routing blackhole). `depart_at` (if ahead of now) defers the first
  // hop's serialization start — see Link::Send.
  void Send(net::PacketPtr pkt, util::TimeUs depart_at = -1);

  // ---- backbone modeling --------------------------------------------------
  // Installs a dedicated bidirectional link pair between two hosts
  // (`ab` shapes a->b traffic, `ba` the reverse). Re-connecting an
  // existing pair reshapes the live links in place (rate, delay, jitter,
  // loss, reordering — the runtime knobs), preserving their stats, RNG
  // streams and any in-flight packets.
  void Connect(net::Ipv4 a, net::Ipv4 b, const LinkConfig& ab,
               const LinkConfig& ba);
  // The directed pair link from `from` to `to`; nullptr when absent.
  Link* pair_link(net::Ipv4 from, net::Ipv4 to);
  const Link* pair_link(net::Ipv4 from, net::Ipv4 to) const;
  // Pins (src, dst) traffic onto `path` (inclusive host sequence,
  // src first); each consecutive pair must be Connect()ed. The final hop
  // delivers straight to the destination host — the pair links model the
  // whole switch-to-switch path.
  void SetRoute(net::Ipv4 src, net::Ipv4 dst, std::vector<net::Ipv4> path);

  Link* uplink(net::Ipv4 addr);
  Link* downlink(net::Ipv4 addr);

  uint64_t blackholed() const { return blackholed_; }
  Scheduler& scheduler() { return sched_; }

 private:
  struct Attachment {
    Host* host;
    std::unique_ptr<Link> up;
    std::unique_ptr<Link> down;
  };
  using PairKey = std::pair<net::Ipv4, net::Ipv4>;  // directed (from, to)
  using Route = std::shared_ptr<const std::vector<net::Ipv4>>;

  void SendAlongRoute(net::PacketPtr pkt, const Route& path, size_t hop,
                      util::TimeUs depart_at = -1);

  Scheduler& sched_;
  uint64_t seed_;
  uint64_t next_link_seed_ = 1;
  std::unordered_map<net::Ipv4, Attachment> hosts_;
  std::map<PairKey, std::unique_ptr<Link>> pair_links_;
  std::map<PairKey, Route> routes_;
  uint64_t blackholed_ = 0;
};

}  // namespace scallop::sim
