// Programmable switch: attaches to the simulated network as a host, runs an
// installed pipeline program over every packet, invokes the PRE for
// replication, and forwards at a fixed hardware pipeline latency. Packets
// can be copied to the CPU port (delivered to the switch agent).
#pragma once

#include <functional>
#include <memory>

#include "net/packet.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "switchsim/pre.hpp"
#include "switchsim/resources.hpp"

namespace scallop::switchsim {

// Per-packet intrinsic metadata set by the ingress program (mirrors the
// Tofino intrinsic metadata the paper's P4 program assigns).
struct PacketMetadata {
  bool drop = false;
  bool copy_to_cpu = false;
  bool unicast = false;
  uint32_t unicast_port = 0;
  uint32_t mgid = 0;  // 0 = no replication
  uint16_t l1_xid = 0;
  uint16_t rid = 0;
  uint16_t l2_xid = 0;

  // Parse-once cache, filled by the ingress pass for RTP media and reused
  // by every egress replica (each replica is the packet ingress saw or a
  // clone of it, so the cached fields stay valid until egress mutates that
  // replica).
  bool rtp_parsed = false;
  bool dd_found = false;       // dd_* fields below are valid
  uint8_t dd_template_id = 0;
  bool dd_start_of_frame = false;
  bool dd_end_of_frame = false;
  uint16_t dd_frame_number = 0;
  uint32_t rtp_ssrc = 0;
  uint16_t rtp_seq = 0;
};

// A pipeline program: the Scallop data plane implements this interface.
class PipelineProgram {
 public:
  virtual ~PipelineProgram() = default;
  // Ingress match-action: classify, look up stream state, pick PRE config.
  virtual void Ingress(const net::Packet& pkt, PacketMetadata& meta) = 0;
  // Egress per replica (or for the unicast path with a synthetic replica):
  // header rewrites, SVC filtering, sequence rewriting. Returns false to
  // drop this replica, and only before writing to `pkt`: the switch hands
  // a refused copy, unchanged, to the next replica.
  virtual bool Egress(net::Packet& pkt, const PacketMetadata& meta,
                      const Replica& replica) = 0;
};

struct SwitchConfig {
  net::Ipv4 address;
  // Fixed pipeline traversal latency (ingress + PRE + egress).
  util::DurationUs pipeline_latency = 2;
};

struct SwitchStats {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t packets_dropped = 0;
  uint64_t packets_to_cpu = 0;
  uint64_t replicas = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

class Switch : public sim::Host {
 public:
  using CpuHandler = std::function<void(net::PacketPtr)>;

  Switch(sim::Scheduler& sched, sim::Network& network,
         const SwitchConfig& cfg);

  void SetProgram(PipelineProgram* program) { program_ = program; }
  void SetCpuHandler(CpuHandler handler) { cpu_handler_ = std::move(handler); }
  // Observability tap invoked for every packet entering the switch
  // (used by the evaluation harnesses for per-class accounting).
  using IngressTap = std::function<void(const net::Packet&)>;
  void SetIngressTap(IngressTap tap) { ingress_tap_ = std::move(tap); }

  // sim::Host
  void OnPacket(net::PacketPtr pkt) override;

  // The switch agent (control plane) can also inject packets (e.g. STUN
  // responses) directly out of the CPU port.
  void InjectFromCpu(net::PacketPtr pkt);

  ReplicationEngine& pre() { return pre_; }
  ResourceModel& resources() { return resources_; }
  const SwitchStats& stats() const { return stats_; }
  net::Ipv4 address() const { return cfg_.address; }

 private:
  void Emit(net::PacketPtr pkt, util::DurationUs extra_delay);

  sim::Scheduler& sched_;
  sim::Network& network_;
  SwitchConfig cfg_;
  ReplicationEngine pre_;
  ResourceModel resources_;
  PipelineProgram* program_ = nullptr;
  // Reused across packets so replication doesn't allocate per packet.
  std::vector<Replica> replica_scratch_;
  CpuHandler cpu_handler_;
  IngressTap ingress_tap_;
  SwitchStats stats_;
};

}  // namespace scallop::switchsim
