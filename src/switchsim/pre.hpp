// Packet Replication Engine model after Tofino's PRE (paper Fig. 13):
// multicast groups (trees) -> L1 nodes (RID, L1-XID, prune flag) -> L2
// egress ports, with L1 pruning by packet L1-XID and L2 pruning by
// (packet RID == node RID) && (port in packet's L2-XID port set).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

namespace scallop::switchsim {

struct PreLimits {
  size_t max_trees = 65'536;          // 64K multicast groups
  size_t max_l1_nodes = 16'777'216;   // 2^24 total L1 nodes
  size_t max_rids_per_tree = 65'536;  // RID is 16 bit
};

struct L1Node {
  uint32_t node_id = 0;   // unique across the PRE
  uint16_t rid = 0;       // replication id, unique within a tree
  uint16_t l1_xid = 0;    // exclusion id (0 = none)
  bool prune_enabled = false;
  std::vector<uint32_t> ports;  // L2 level: egress ports of this node
};

struct Replica {
  uint16_t rid = 0;
  uint32_t port = 0;
};

class ReplicationEngine {
 public:
  explicit ReplicationEngine(const PreLimits& limits = {})
      : limits_(limits) {}

  // Tree (multicast group) management. Returns false when limits are hit
  // or ids collide — callers treat that as the hardware resource bound.
  bool CreateTree(uint32_t mgid);
  bool DestroyTree(uint32_t mgid);
  bool HasTree(uint32_t mgid) const { return trees_.count(mgid) > 0; }

  bool AddNode(uint32_t mgid, const L1Node& node);
  bool RemoveNode(uint32_t mgid, uint32_t node_id);

  // Maps an L2-XID to the set of ports it excludes.
  void MapL2Xid(uint16_t l2_xid, std::vector<uint32_t> ports);

  // Replicates a packet that invoked (mgid, l1_xid, rid, l2_xid) in the
  // ingress pipeline; returns the surviving replicas.
  std::vector<Replica> Replicate(uint32_t mgid, uint16_t pkt_l1_xid,
                                 uint16_t pkt_rid, uint16_t pkt_l2_xid) const;
  // Allocation-free variant for the per-packet path: clears `out` and
  // appends the surviving replicas (callers keep a scratch vector whose
  // capacity persists across packets).
  void ReplicateInto(uint32_t mgid, uint16_t pkt_l1_xid, uint16_t pkt_rid,
                     uint16_t pkt_l2_xid, std::vector<Replica>& out) const;

  size_t tree_count() const { return trees_.size(); }
  size_t node_count() const { return total_nodes_; }
  const PreLimits& limits() const { return limits_; }

 private:
  struct Tree {
    std::vector<L1Node> nodes;
  };

  PreLimits limits_;
  std::unordered_map<uint32_t, Tree> trees_;
  std::unordered_map<uint16_t, std::vector<uint32_t>> l2_xid_ports_;
  size_t total_nodes_ = 0;
};

}  // namespace scallop::switchsim
