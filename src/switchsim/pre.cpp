#include "switchsim/pre.hpp"

#include <algorithm>

namespace scallop::switchsim {

bool ReplicationEngine::CreateTree(uint32_t mgid) {
  if (trees_.size() >= limits_.max_trees) return false;
  return trees_.emplace(mgid, Tree{}).second;
}

bool ReplicationEngine::DestroyTree(uint32_t mgid) {
  auto it = trees_.find(mgid);
  if (it == trees_.end()) return false;
  total_nodes_ -= it->second.nodes.size();
  trees_.erase(it);
  return true;
}

bool ReplicationEngine::AddNode(uint32_t mgid, const L1Node& node) {
  auto it = trees_.find(mgid);
  if (it == trees_.end()) return false;
  if (total_nodes_ >= limits_.max_l1_nodes) return false;
  auto& nodes = it->second.nodes;
  if (nodes.size() >= limits_.max_rids_per_tree) return false;
  bool id_used = std::any_of(nodes.begin(), nodes.end(), [&](const L1Node& n) {
    return n.node_id == node.node_id;
  });
  if (id_used) return false;
  nodes.push_back(node);
  ++total_nodes_;
  return true;
}

bool ReplicationEngine::RemoveNode(uint32_t mgid, uint32_t node_id) {
  auto it = trees_.find(mgid);
  if (it == trees_.end()) return false;
  auto& nodes = it->second.nodes;
  auto node_it = std::find_if(nodes.begin(), nodes.end(), [&](const L1Node& n) {
    return n.node_id == node_id;
  });
  if (node_it == nodes.end()) return false;
  nodes.erase(node_it);
  --total_nodes_;
  return true;
}

void ReplicationEngine::MapL2Xid(uint16_t l2_xid, std::vector<uint32_t> ports) {
  l2_xid_ports_[l2_xid] = std::move(ports);
}

std::vector<Replica> ReplicationEngine::Replicate(uint32_t mgid,
                                                  uint16_t pkt_l1_xid,
                                                  uint16_t pkt_rid,
                                                  uint16_t pkt_l2_xid) const {
  std::vector<Replica> out;
  ReplicateInto(mgid, pkt_l1_xid, pkt_rid, pkt_l2_xid, out);
  return out;
}

void ReplicationEngine::ReplicateInto(uint32_t mgid, uint16_t pkt_l1_xid,
                                      uint16_t pkt_rid, uint16_t pkt_l2_xid,
                                      std::vector<Replica>& out) const {
  out.clear();
  auto it = trees_.find(mgid);
  if (it == trees_.end()) return;

  const std::vector<uint32_t>* excluded_ports = nullptr;
  if (pkt_l2_xid != 0) {
    auto xit = l2_xid_ports_.find(pkt_l2_xid);
    if (xit != l2_xid_ports_.end()) excluded_ports = &xit->second;
  }

  for (const L1Node& node : it->second.nodes) {
    // L1 pruning: nodes whose XID matches the packet's L1-XID are skipped.
    if (node.prune_enabled && node.l1_xid != 0 &&
        node.l1_xid == pkt_l1_xid) {
      continue;
    }
    for (uint32_t port : node.ports) {
      // L2 pruning applies only on the RID the packet names.
      if (excluded_ports != nullptr && node.rid == pkt_rid &&
          std::find(excluded_ports->begin(), excluded_ports->end(), port) !=
              excluded_ports->end()) {
        continue;
      }
      out.push_back(Replica{node.rid, port});
    }
  }
}

}  // namespace scallop::switchsim
