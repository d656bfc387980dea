#include "testbed/testbed.hpp"

#include "core/types.hpp"

namespace scallop::testbed {

client::Peer& Backend::AttachPeer(
    sim::Scheduler& sched, sim::Network& network, uint64_t testbed_seed,
    int& next_host, std::vector<std::unique_ptr<client::Peer>>& peers,
    const client::PeerConfig& base, const sim::LinkConfig& up,
    const sim::LinkConfig& down) {
  client::PeerConfig pc = base;
  pc.address = net::Ipv4(10, 0, static_cast<uint8_t>(next_host >> 8),
                         static_cast<uint8_t>(next_host & 0xff));
  pc.seed = testbed_seed * 1000 + static_cast<uint64_t>(next_host);
  ++next_host;
  auto peer = std::make_unique<client::Peer>(sched, network, pc);
  network.Attach(pc.address, peer.get(), up, down);
  peers.push_back(std::move(peer));
  return *peers.back();
}

SoftwareTestbed::SoftwareTestbed(const TestbedConfig& cfg) : cfg_(cfg) {
  network_ = std::make_unique<sim::Network>(sched_, cfg_.seed);
  sfu::SoftwareSfuConfig sfu_cfg = cfg_.software;
  sfu_cfg.address = cfg_.sfu_ip;
  sfu_ = std::make_unique<sfu::SoftwareSfu>(sched_, *network_, sfu_cfg);
  network_->Attach(cfg_.sfu_ip, sfu_.get(), cfg_.sfu_uplink,
                   cfg_.sfu_downlink);
}

client::Peer& SoftwareTestbed::AddPeer() {
  return AddPeer(cfg_.client_uplink, cfg_.client_downlink);
}

client::Peer& SoftwareTestbed::AddPeer(const sim::LinkConfig& up,
                                       const sim::LinkConfig& down) {
  return AddPeer(cfg_.peer, up, down);
}

client::Peer& SoftwareTestbed::AddPeer(const client::PeerConfig& base,
                                       const sim::LinkConfig& up,
                                       const sim::LinkConfig& down) {
  return AttachPeer(sched_, *network_, cfg_.seed, next_host_, peers_, base,
                    up, down);
}

core::MeetingId SoftwareTestbed::CreateMeeting() {
  core::MeetingId id = sfu_->CreateMeeting();
  meetings_.push_back(id);
  return id;
}

void SoftwareTestbed::RunFor(double seconds) {
  sched_.RunUntil(sched_.now() + util::Seconds(seconds));
}

void SoftwareTestbed::RunUntil(double t_s) {
  sched_.RunUntil(util::Seconds(t_s));
}

BackendCounters SoftwareTestbed::counters() const {
  BackendCounters c;
  // The software SFU has no switch pipeline, trees or rewriter; its
  // forwarding totals map onto the switch columns and everything else
  // stays zero (it forwards exact copies, §3).
  const auto& s = sfu_->stats();
  c.switch_packets_in = s.packets_in;
  c.switch_packets_out = s.packets_out;
  c.switch_replicas = s.packets_out;
  return c;
}

}  // namespace scallop::testbed
