// First-class meeting placement (paper Appendix A, cascading SFUs): the
// controller-computed distribution plan for one meeting. A placement names
// the home switch plus an ordered list of relay spans — each span a
// downstream switch carrying part of the meeting, reached by forwarding
// every remote sender's selected stream across the inter-switch link
// exactly once. SDN multicast work (arXiv:1508.03592, arXiv:1406.0440)
// frames the same idea: the unit of control-plane API is the distribution
// plan, not the per-hop forwarding state.
//
// Which plan a meeting gets is decided by a pluggable PlacementPolicy:
// LeastLoaded reproduces the classic single-homed behaviour byte-for-byte,
// Cascade splits meetings larger than a per-switch participant budget
// across additional switches, hub-and-spoke from the home switch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/topology.hpp"
#include "core/types.hpp"

namespace scallop::core {

// One relay span: a downstream switch carrying part of the meeting. The
// span owns a switch-local meeting on that switch; `participants` are the
// fleet-global ids homed there. `parent` names the switch the span hangs
// off in the meeting's relay tree — SIZE_MAX (the default) means the home
// switch, i.e. classic hub-and-spoke; a topology-aware plan can parent a
// span on another span's switch, growing multi-level trees.
struct RelaySpan {
  size_t switch_index = SIZE_MAX;
  MeetingId local_meeting = 0;
  size_t parent = SIZE_MAX;  // SIZE_MAX: the home switch
  std::vector<ParticipantId> participants;
  bool operator==(const RelaySpan&) const = default;
};

// A meeting's full distribution plan: a relay *tree* rooted at the home
// switch. Single-homed meetings have an empty span list; `home ==
// SIZE_MAX` means the meeting is unknown.
struct MeetingPlacement {
  size_t home = SIZE_MAX;
  MeetingId local_meeting = 0;  // home-switch-local meeting id
  std::vector<ParticipantId> home_participants;
  std::vector<RelaySpan> spans;  // ordered by creation

  bool valid() const { return home != SIZE_MAX; }
  bool spans_switches() const { return !spans.empty(); }
  bool operator==(const MeetingPlacement&) const = default;

  // The span covering a switch (nullptr for the home switch / unknown).
  const RelaySpan* SpanOn(size_t switch_index) const;

  // ---- relay-tree structure ----------------------------------------------
  // The tree parent of a switch on the plan (SIZE_MAX for the home switch
  // or a switch the plan does not touch).
  size_t ParentOf(size_t switch_index) const;
  // Whether any span hangs off `switch_index` (an interior tree node).
  bool HasChildSpans(size_t switch_index) const;
  // Every switch on the plan, home first, then spans in creation order.
  std::vector<size_t> Switches() const;
  // The tree's (parent, child) edges, one per span, in span order.
  std::vector<std::pair<size_t, size_t>> TreeEdges() const;
  // Hops from the home switch to `switch_index` along parent links (0 for
  // the home switch, SIZE_MAX off-plan).
  size_t DepthOf(size_t switch_index) const;
  // Deepest span (0 when single-homed) — hub-and-spoke plans are depth 1.
  size_t TreeDepth() const;
  // The unique tree path between two on-plan switches (inclusive); empty
  // when either is off-plan.
  std::vector<size_t> TreePath(size_t from, size_t to) const;
};

// What a policy sees of each switch when it decides a placement.
struct SwitchLoad {
  bool alive = false;
  int participants = 0;  // real participants homed on the switch
  int meetings = 0;      // switch-local meetings (homes and spans)
  // Heterogeneous fleets: relative forwarding capacity. A class-2 switch
  // carries twice a class-1 switch's load before looking equally busy; the
  // homogeneous default (everything 1.0) keeps every comparison
  // byte-identical to the unweighted fleet.
  double capacity_class = 1.0;
};

// The fleet's canonical load comparison: least-loaded live switch not in
// `exclude`, SIZE_MAX when none qualifies. Participants dominate
// (streams scale with them); meetings break ties so empty switches fill
// round-robin; both are weighted by the switch's capacity class. Shared
// by the placement policies and the fleet's failover standby selection so
// the two can never disagree.
size_t LeastLoadedLive(const std::vector<SwitchLoad>& loads,
                       const std::vector<size_t>& exclude = {});

// Decides where meetings and participants land. Stateless with respect to
// the fleet: everything it needs arrives through the load vector and the
// meeting's current placement, so policies are trivially swappable.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual std::string Name() const = 0;
  // Gives the policy the controller's inter-switch topology view (called
  // by FleetController::SetPlacementPolicy; the pointer outlives the
  // policy). Topology-blind policies ignore it.
  virtual void BindTopology(const InterSwitchTopology* /*topology*/) {}
  // Keeps the policy's per-stream bandwidth estimate in lockstep with the
  // controller's (FleetController::set_relay_stream_bps), so admission
  // decisions and the load the fleet actually registers agree.
  virtual void SetStreamEstimate(double /*bps*/) {}
  // Redundant dual relay trees: how many tree copies the fleet will
  // register load for per relayed stream (2.0 with redundancy on, the
  // default 1.0 otherwise). Capacity-aware policies scale their
  // per-stream bandwidth estimate by it so admission budgets both trees;
  // topology-blind policies ignore it.
  virtual void SetRedundancyFactor(double /*factor*/) {}
  // Switch to host a new (empty) meeting; SIZE_MAX when no live switch.
  virtual size_t PlaceMeeting(const std::vector<SwitchLoad>& loads) const;
  // Switch to home a joining participant on: the home switch, an existing
  // span, or a fresh switch (creating a new span). Must return a live
  // switch; SIZE_MAX is treated as "home".
  virtual size_t PlaceParticipant(const MeetingPlacement& placement,
                                  const std::vector<SwitchLoad>& loads)
      const = 0;
  // Tree parent for a span about to open on `span_switch`: the home switch
  // or an on-plan span switch. Default is the home switch — classic
  // hub-and-spoke. Returning anything off-plan is treated as "home".
  virtual size_t ChooseSpanParent(const MeetingPlacement& placement,
                                  size_t span_switch) const {
    (void)span_switch;
    return placement.home;
  }
  // Per-switch participant budget the policy fills a switch to before
  // spanning; 0 means unbounded (the policy never overflows on its own).
  // The federation's border-span planner keys off this: when the policy
  // falls back to an already-full home switch, a budget > 0 tells the
  // fleet the overflow is real and worth a cross-region border span.
  virtual int SpanBudget() const { return 0; }
};

// Classic single-homing: meetings land on the least-loaded live switch and
// every participant is homed with the meeting. Byte-for-byte the behaviour
// the fleet had before placements could span.
class LeastLoadedPolicy : public PlacementPolicy {
 public:
  std::string Name() const override { return "least-loaded"; }
  size_t PlaceParticipant(const MeetingPlacement& placement,
                          const std::vector<SwitchLoad>& loads) const override;
};

// Cascading placement: a meeting fills its home switch up to
// `max_participants_per_switch`, then overflows onto relay spans — first
// filling existing spans, then opening a new span on the least-loaded live
// switch not yet carrying the meeting. With nowhere left to span, the home
// switch absorbs the overflow.
class CascadePolicy : public PlacementPolicy {
 public:
  explicit CascadePolicy(int max_participants_per_switch)
      : max_per_switch_(max_participants_per_switch) {}
  std::string Name() const override { return "cascade"; }
  size_t PlaceParticipant(const MeetingPlacement& placement,
                          const std::vector<SwitchLoad>& loads) const override;
  int SpanBudget() const override { return max_per_switch_; }

 private:
  int max_per_switch_;
};

// Bandwidth-aware relay-tree planner: like Cascade it fills the home
// switch up to a per-switch participant budget and overflows onto spans,
// but new spans are chosen and parented against the controller's
// InterSwitchTopology — the next span switch is the one cheapest to
// attach to the current tree (lowest-latency path from any on-plan
// switch, requiring residual relay capacity for the estimated stream
// load when any candidate has it), and the span's parent is the on-plan
// switch that attachment path leaves from. Over a linear backbone
// A—B—C—D this grows the depth-3 chain instead of star-homing everything
// on A. Without a bound topology it degrades to Cascade's hub-and-spoke.
class TopologyAwarePolicy : public PlacementPolicy {
 public:
  TopologyAwarePolicy(int max_participants_per_switch,
                      double stream_estimate_bps = 2.3e6)
      : max_per_switch_(max_participants_per_switch),
        stream_estimate_bps_(stream_estimate_bps) {}
  std::string Name() const override { return "topology-aware"; }
  void BindTopology(const InterSwitchTopology* topology) override {
    topology_ = topology;
  }
  void SetStreamEstimate(double bps) override { stream_estimate_bps_ = bps; }
  void SetRedundancyFactor(double factor) override {
    redundancy_factor_ = factor > 0.0 ? factor : 1.0;
  }
  size_t PlaceParticipant(const MeetingPlacement& placement,
                          const std::vector<SwitchLoad>& loads) const override;
  size_t ChooseSpanParent(const MeetingPlacement& placement,
                          size_t span_switch) const override;
  int SpanBudget() const override { return max_per_switch_; }

 private:
  // Cheapest on-plan switch to attach `candidate` to, and the cost /
  // fit of that attachment; parent == SIZE_MAX when unreachable. A
  // candidate "fits" only when every physical backbone link can absorb
  // the join's *summed* increments — the attachment path gains every
  // member's stream plus the joiner's, and each existing tree edge's
  // path gains the joiner's; paths sharing a physical link add up.
  struct Attachment {
    size_t parent = SIZE_MAX;
    double latency_s = 0.0;
    bool fits = false;
  };
  Attachment BestAttachment(const MeetingPlacement& placement,
                            size_t candidate, int current_members) const;

  int max_per_switch_;
  double stream_estimate_bps_;
  // Load multiplier per relayed stream (2.0 when the fleet plans a
  // disjoint secondary tree per relay; see SetRedundancyFactor).
  double redundancy_factor_ = 1.0;
  const InterSwitchTopology* topology_ = nullptr;
};

// Copyable policy choice for declarative specs (ScenarioSpec /
// TestbedConfig stay value types); Make() builds the policy object.
struct PlacementPolicyConfig {
  enum class Kind { kLeastLoaded, kCascade, kTopologyAware };
  Kind kind = Kind::kLeastLoaded;
  int max_participants_per_switch = 0;  // cascade / topology-aware only

  static PlacementPolicyConfig LeastLoaded() { return {}; }
  static PlacementPolicyConfig Cascade(int max_participants_per_switch) {
    return {Kind::kCascade, max_participants_per_switch};
  }
  // Cascading placement with relay trees planned over the fleet's
  // InterSwitchTopology (path cost + residual link capacity).
  static PlacementPolicyConfig TopologyAware(int max_participants_per_switch) {
    return {Kind::kTopologyAware, max_participants_per_switch};
  }

  std::unique_ptr<PlacementPolicy> Make() const;
  std::string Label() const;
};

}  // namespace scallop::core
