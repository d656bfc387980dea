#include "sim/network.hpp"

namespace scallop::sim {

void Network::Attach(net::Ipv4 addr, Host* host, const LinkConfig& uplink,
                     const LinkConfig& downlink) {
  Attachment att;
  att.host = host;
  att.up = std::make_unique<Link>(sched_, uplink, seed_ + next_link_seed_++);
  att.down = std::make_unique<Link>(sched_, downlink, seed_ + next_link_seed_++);
  hosts_[addr] = std::move(att);
}

void Network::Connect(net::Ipv4 a, net::Ipv4 b, const LinkConfig& ab,
                      const LinkConfig& ba) {
  auto install = [this](net::Ipv4 from, net::Ipv4 to,
                        const LinkConfig& cfg) {
    auto it = pair_links_.find({from, to});
    if (it == pair_links_.end()) {
      pair_links_[{from, to}] =
          std::make_unique<Link>(sched_, cfg, seed_ + next_link_seed_++);
      return;
    }
    // Reshape the existing Link in place rather than replacing it: its
    // in-flight delivery callbacks capture the Link, so destroying it
    // mid-run would be a use-after-free (and would silently reset stats
    // and reseed the loss/jitter stream).
    Link& link = *it->second;
    link.set_rate_bps(cfg.rate_bps);
    link.set_prop_delay(cfg.prop_delay);
    link.set_jitter_stddev(cfg.jitter_stddev);
    link.set_loss_rate(cfg.loss_rate);
    link.set_reorder_rate(cfg.reorder_rate);
  };
  install(a, b, ab);
  install(b, a, ba);
}

Link* Network::pair_link(net::Ipv4 from, net::Ipv4 to) {
  auto it = pair_links_.find({from, to});
  return it == pair_links_.end() ? nullptr : it->second.get();
}

const Link* Network::pair_link(net::Ipv4 from, net::Ipv4 to) const {
  auto it = pair_links_.find({from, to});
  return it == pair_links_.end() ? nullptr : it->second.get();
}

void Network::SetRoute(net::Ipv4 src, net::Ipv4 dst,
                       std::vector<net::Ipv4> path) {
  routes_[{src, dst}] =
      std::make_shared<const std::vector<net::Ipv4>>(std::move(path));
}

void Network::SendAlongRoute(net::PacketPtr pkt, const Route& path,
                             size_t hop, util::TimeUs depart_at) {
  if (hop + 1 >= path->size()) {
    auto dst_it = hosts_.find(pkt->dst.addr);
    if (dst_it == hosts_.end()) {
      ++blackholed_;
      return;
    }
    dst_it->second.host->OnPacket(std::move(pkt));
    return;
  }
  Link* link = pair_link((*path)[hop], (*path)[hop + 1]);
  if (link == nullptr) {
    ++blackholed_;  // route names a hop the backbone does not connect
    return;
  }
  link->Send(
      std::move(pkt),
      [this, path, hop](net::PacketPtr p) {
        SendAlongRoute(std::move(p), path, hop + 1);
      },
      depart_at);
}

void Network::Send(net::PacketPtr pkt, util::TimeUs depart_at) {
  util::TimeUs sent_at = depart_at > sched_.now() ? depart_at : sched_.now();
  if (!routes_.empty()) {
    auto rit = routes_.find({pkt->src.addr, pkt->dst.addr});
    if (rit != routes_.end()) {
      pkt->sent_at = sent_at;
      SendAlongRoute(std::move(pkt), rit->second, 0, depart_at);
      return;
    }
  }
  auto src_it = hosts_.find(pkt->src.addr);
  if (src_it == hosts_.end()) {
    ++blackholed_;
    return;
  }
  pkt->sent_at = sent_at;
  src_it->second.up->Send(
      std::move(pkt),
      [this](net::PacketPtr p) {
        auto dst_it = hosts_.find(p->dst.addr);
        if (dst_it == hosts_.end()) {
          ++blackholed_;
          return;
        }
        Host* host = dst_it->second.host;
        dst_it->second.down->Send(std::move(p), [host](net::PacketPtr q) {
          host->OnPacket(std::move(q));
        });
      },
      depart_at);
}

Link* Network::uplink(net::Ipv4 addr) {
  auto it = hosts_.find(addr);
  return it == hosts_.end() ? nullptr : it->second.up.get();
}

Link* Network::downlink(net::Ipv4 addr) {
  auto it = hosts_.find(addr);
  return it == hosts_.end() ? nullptr : it->second.down.get();
}

}  // namespace scallop::sim
