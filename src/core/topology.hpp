// Inter-switch topology model (SDN link-state view): the controller-side
// graph of the backbone connecting the fleet's switches. Each link carries
// a one-way latency, a capacity budget for relay traffic, and the relay
// load the controller has currently routed over it, so placement policies
// can pick relay-tree parents by path cost and residual capacity the way
// SDN multicast controllers compute distribution trees over a link-state
// database (arXiv:1508.03592 "Streaming Multicast Video over SDN",
// arXiv:1406.0440).
//
// Two modes:
//   * implicit full mesh (default) — every switch pair is directly
//     connected with zero latency and unlimited capacity. This is the
//     pre-topology behaviour: hub-and-spoke plans see no reason to do
//     anything else, and existing scenarios are unchanged.
//   * explicit — the first SetLink switches the graph to "only declared
//     links exist"; path queries now route multi-hop across the declared
//     backbone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace scallop::core {

// Declarative link description (ScenarioSpec / TestbedConfig carry these
// as plain values; the testbed feeds them into the fleet's topology and
// mirrors them as sim::Network backbone links).
struct InterSwitchLinkSpec {
  size_t a = 0;
  size_t b = 0;
  double latency_s = 0.0;
  double capacity_bps = 0.0;  // <= 0: unconstrained
};

class InterSwitchTopology {
 public:
  struct Link {
    size_t a = 0;  // a < b (links are undirected)
    size_t b = 0;
    double latency_s = 0.0;
    double capacity_bps = 0.0;   // <= 0: unconstrained
    double relay_load_bps = 0.0; // relay traffic the controller routed here
  };

  InterSwitchTopology() = default;

  // Grows the node set; new switches join the (implicit or explicit)
  // graph. Existing links are untouched.
  void EnsureNodes(size_t n);
  size_t node_count() const { return nodes_; }

  // Declares an explicit link (creating or reshaping it). The first call
  // flips the graph from the implicit full mesh to explicit mode.
  void SetLink(size_t a, size_t b, double latency_s, double capacity_bps);
  // Reshapes just the capacity of an existing link (mid-run events).
  // In implicit mode this declares the link (flipping to explicit) —
  // callers shaping capacity have opted into a modeled backbone. On an
  // explicit backbone, a pair with no declared link is ignored: capacity
  // events may reshape the backbone, never grow it.
  void SetLinkCapacity(size_t a, size_t b, double capacity_bps);
  bool explicit_topology() const { return explicit_; }

  bool HasLink(size_t a, size_t b) const;
  // The link record for (a, b); nullptr when absent. In implicit mesh
  // mode a record is synthesized lazily on first load registration, so
  // this returns nullptr for untouched mesh pairs.
  const Link* FindLink(size_t a, size_t b) const;
  // Every declared (or load-touched) link, ordered by (a, b).
  std::vector<Link> links() const;

  // ---- path queries ------------------------------------------------------
  // Lowest-latency path from `from` to `to` (hop count, then smaller node
  // index break ties, so results are deterministic). Returns the inclusive
  // node sequence; empty when unreachable; {from} when from == to.
  std::vector<size_t> ShortestPath(size_t from, size_t to) const;
  // Maximally link-disjoint path from `from` to `to` relative to `avoid`
  // (typically the primary tree's links). Lexicographic Dijkstra: fewest
  // shared avoided links first, then widest bottleneck residual, then
  // lowest latency, fewest hops, lowest predecessor index. Fully disjoint
  // when the graph allows it; otherwise the path sharing the fewest
  // avoided links wins (the ISSUE's "maximally-disjoint" fallback). Links
  // with a declared capacity below `min_capacity_bps` are excluded
  // outright — a cut link (capacity ~0) must never carry a protection
  // tree. Returns {} when unreachable.
  std::vector<size_t> DisjointPath(
      size_t from, size_t to,
      const std::vector<std::pair<size_t, size_t>>& avoid,
      double min_capacity_bps = 0.0) const;
  // The backbone path a relay hop (or any switch-to-switch flow) actually
  // rides: the direct link when one exists — adjacent switches never
  // transit a third switch, as in a real L3 fabric — otherwise the
  // lowest-latency multi-hop path.
  std::vector<size_t> RelayPath(size_t from, size_t to) const;
  double PathLatency(const std::vector<size_t>& path) const;
  // Smallest residual capacity along the path; huge (kUnconstrained) when
  // every hop is unconstrained.
  double PathResidual(const std::vector<size_t>& path) const;

  // ---- relay load registration (control-plane estimates) -----------------
  void AddLoad(const std::vector<size_t>& path, double bps);
  void RemoveLoad(const std::vector<size_t>& path, double bps);
  double LoadOf(size_t a, size_t b) const;
  // capacity - load; kUnconstrained when the link has no capacity bound.
  double ResidualOf(size_t a, size_t b) const;
  // load / capacity (0 for unconstrained links).
  double UtilizationOf(size_t a, size_t b) const;
  double MaxUtilization() const;
  // Links whose registered relay load exceeds their capacity.
  std::vector<std::pair<size_t, size_t>> OverloadedLinks() const;

  static constexpr double kUnconstrained = 1e18;

 private:
  using Key = std::pair<size_t, size_t>;  // normalized a < b
  static Key KeyOf(size_t a, size_t b);
  Link* Mutable(size_t a, size_t b, bool create);

  size_t nodes_ = 0;
  bool explicit_ = false;
  std::map<Key, Link> links_;
};

}  // namespace scallop::core
