#include "switchsim/switch.hpp"

namespace scallop::switchsim {

Switch::Switch(sim::Scheduler& sched, sim::Network& network,
               const SwitchConfig& cfg)
    : sched_(sched), network_(network), cfg_(cfg) {}

void Switch::OnPacket(net::PacketPtr pkt) {
  ++stats_.packets_in;
  stats_.bytes_in += pkt->wire_size();
  if (ingress_tap_) ingress_tap_(*pkt);
  if (program_ == nullptr) {
    ++stats_.packets_dropped;
    return;
  }

  PacketMetadata meta;
  program_->Ingress(*pkt, meta);

  if (meta.copy_to_cpu && cpu_handler_) {
    ++stats_.packets_to_cpu;
    cpu_handler_(net::ClonePacket(*pkt));
  }
  if (meta.drop) {
    ++stats_.packets_dropped;
    return;
  }

  // The ingress packet itself leaves as the unicast copy or the last
  // replica; every other replica is a clone of it.
  if (meta.unicast) {
    if (program_->Egress(*pkt, meta, Replica{0, meta.unicast_port})) {
      Emit(std::move(pkt), cfg_.pipeline_latency);
    } else {
      ++stats_.packets_dropped;
    }
    return;
  }

  if (meta.mgid != 0) {
    pre_.ReplicateInto(meta.mgid, meta.l1_xid, meta.rid, meta.l2_xid,
                       replica_scratch_);
    bool any = false;
    net::PacketPtr copy;  // a refused replica leaves it unchanged for the next
    for (size_t i = 0; i < replica_scratch_.size(); ++i) {
      if (copy == nullptr) {
        copy = i + 1 == replica_scratch_.size() ? std::move(pkt)
                                                : net::ClonePacket(*pkt);
      }
      if (program_->Egress(*copy, meta, replica_scratch_[i])) {
        ++stats_.replicas;
        Emit(std::move(copy), cfg_.pipeline_latency);  // empties `copy`
        any = true;
      }
    }
    if (!any) ++stats_.packets_dropped;
    return;
  }

  // No action selected: drop (default deny, like an empty table miss).
  ++stats_.packets_dropped;
}

void Switch::InjectFromCpu(net::PacketPtr pkt) {
  Emit(std::move(pkt), cfg_.pipeline_latency);
}

void Switch::Emit(net::PacketPtr pkt, util::DurationUs extra_delay) {
  ++stats_.packets_out;
  stats_.bytes_out += pkt->wire_size();
  resources_.AccountEgress(pkt->wire_size());
  // The pipeline traversal delay is modeled as a deferred departure on the
  // first link hop instead of a scheduler event: emits reach the network
  // in pipeline order either way, and this keeps the fan-out burst free of
  // per-replica event-queue traffic.
  network_.Send(std::move(pkt), sched_.now() + extra_delay);
}

}  // namespace scallop::switchsim
