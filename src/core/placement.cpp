#include "core/placement.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace scallop::core {

namespace {

// The budgeted policies' first choice: the home switch, then the existing
// spans in creation order — the first that is live with fewer than
// `max_per_switch` members. SIZE_MAX when every one is full (or dead).
size_t FirstWithRoom(const MeetingPlacement& placement,
                     const std::vector<SwitchLoad>& loads,
                     int max_per_switch) {
  auto has_room = [&](size_t idx, size_t members) {
    return idx < loads.size() && loads[idx].alive &&
           static_cast<int>(members) < max_per_switch;
  };
  if (has_room(placement.home, placement.home_participants.size())) {
    return placement.home;
  }
  for (const RelaySpan& span : placement.spans) {
    if (has_room(span.switch_index, span.participants.size())) {
      return span.switch_index;
    }
  }
  return SIZE_MAX;
}

// Participants homed anywhere on the plan.
int MemberCount(const MeetingPlacement& placement) {
  int members = static_cast<int>(placement.home_participants.size());
  for (const RelaySpan& span : placement.spans) {
    members += static_cast<int>(span.participants.size());
  }
  return members;
}

}  // namespace

const RelaySpan* MeetingPlacement::SpanOn(size_t switch_index) const {
  for (const RelaySpan& span : spans) {
    if (span.switch_index == switch_index) return &span;
  }
  return nullptr;
}

size_t MeetingPlacement::ParentOf(size_t switch_index) const {
  if (switch_index == home) return SIZE_MAX;
  const RelaySpan* span = SpanOn(switch_index);
  if (span == nullptr) return SIZE_MAX;
  return span->parent == SIZE_MAX ? home : span->parent;
}

bool MeetingPlacement::HasChildSpans(size_t switch_index) const {
  for (const RelaySpan& span : spans) {
    size_t parent = span.parent == SIZE_MAX ? home : span.parent;
    if (parent == switch_index) return true;
  }
  return false;
}

std::vector<size_t> MeetingPlacement::Switches() const {
  std::vector<size_t> out;
  if (!valid()) return out;
  out.push_back(home);
  for (const RelaySpan& span : spans) out.push_back(span.switch_index);
  return out;
}

std::vector<std::pair<size_t, size_t>> MeetingPlacement::TreeEdges() const {
  std::vector<std::pair<size_t, size_t>> edges;
  edges.reserve(spans.size());
  for (const RelaySpan& span : spans) {
    edges.emplace_back(span.parent == SIZE_MAX ? home : span.parent,
                       span.switch_index);
  }
  return edges;
}

size_t MeetingPlacement::DepthOf(size_t switch_index) const {
  if (switch_index == home) return valid() ? 0 : SIZE_MAX;
  size_t depth = 0;
  size_t at = switch_index;
  // Walk parent links; the spans vector bounds the walk so a (buggy)
  // cyclic plan cannot loop forever.
  for (size_t i = 0; i <= spans.size(); ++i) {
    if (at == home) return depth;
    const RelaySpan* span = SpanOn(at);
    if (span == nullptr) return SIZE_MAX;
    at = span->parent == SIZE_MAX ? home : span->parent;
    ++depth;
  }
  return SIZE_MAX;
}

size_t MeetingPlacement::TreeDepth() const {
  size_t deepest = 0;
  for (const RelaySpan& span : spans) {
    size_t d = DepthOf(span.switch_index);
    if (d != SIZE_MAX) deepest = std::max(deepest, d);
  }
  return deepest;
}

std::vector<size_t> MeetingPlacement::TreePath(size_t from, size_t to) const {
  auto root_path = [this](size_t at) {
    std::vector<size_t> up;  // at, parent, ..., home
    for (size_t i = 0; i <= spans.size() + 1; ++i) {
      up.push_back(at);
      if (at == home) return up;
      const RelaySpan* span = SpanOn(at);
      if (span == nullptr) return std::vector<size_t>{};
      at = span->parent == SIZE_MAX ? home : span->parent;
    }
    return std::vector<size_t>{};
  };
  std::vector<size_t> a = root_path(from);
  std::vector<size_t> b = root_path(to);
  if (a.empty() || b.empty()) return {};
  // Trim the common suffix above the lowest common ancestor.
  while (a.size() > 1 && b.size() > 1 && a[a.size() - 2] == b[b.size() - 2]) {
    a.pop_back();
    b.pop_back();
  }
  // a ends at the LCA; append b's climb reversed (excluding the LCA).
  std::vector<size_t> path = a;
  for (size_t i = b.size() - 1; i-- > 0;) path.push_back(b[i]);
  return path;
}

size_t LeastLoadedLive(const std::vector<SwitchLoad>& loads,
                       const std::vector<size_t>& exclude) {
  size_t best = SIZE_MAX;
  double best_load = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < loads.size(); ++i) {
    if (!loads[i].alive) continue;
    if (std::find(exclude.begin(), exclude.end(), i) != exclude.end()) {
      continue;
    }
    // Weighted by capacity class; with every class at 1.0 the division is
    // exact and the ordering is byte-identical to the unweighted integer
    // comparison this replaces.
    const double cls =
        loads[i].capacity_class > 0.0 ? loads[i].capacity_class : 1.0;
    const double load = (loads[i].participants * 64 + loads[i].meetings) / cls;
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

size_t PlacementPolicy::PlaceMeeting(
    const std::vector<SwitchLoad>& loads) const {
  return LeastLoadedLive(loads, {});
}

size_t LeastLoadedPolicy::PlaceParticipant(
    const MeetingPlacement& placement,
    const std::vector<SwitchLoad>& /*loads*/) const {
  return placement.home;
}

size_t CascadePolicy::PlaceParticipant(
    const MeetingPlacement& placement,
    const std::vector<SwitchLoad>& loads) const {
  // Fill the home switch first, then existing spans in creation order.
  const size_t with_room = FirstWithRoom(placement, loads, max_per_switch_);
  if (with_room != SIZE_MAX) return with_room;
  // Then open a new span on the least-loaded switch the meeting does not
  // already touch.
  std::vector<size_t> used{placement.home};
  for (const RelaySpan& span : placement.spans) {
    used.push_back(span.switch_index);
  }
  size_t fresh = LeastLoadedLive(loads, used);
  if (fresh != SIZE_MAX) return fresh;
  // Fleet exhausted: the home switch absorbs the overflow.
  return placement.home;
}

TopologyAwarePolicy::Attachment TopologyAwarePolicy::BestAttachment(
    const MeetingPlacement& placement, size_t candidate,
    int current_members) const {
  Attachment best;
  best.latency_s = std::numeric_limits<double>::infinity();
  if (topology_ == nullptr) {
    best.parent = placement.home;
    best.latency_s = 0.0;
    best.fits = true;
    return best;
  }
  // The joiner's fan-out puts one stream on every existing tree edge no
  // matter where the span attaches; precompute those per-link increments
  // once, then add each candidate attachment path's (members + 1)
  // streams on top. Increments are summed per *physical* link, so an
  // attachment path sharing a backbone link with an existing edge's path
  // cannot sneak past two independent residual checks.
  std::map<std::pair<size_t, size_t>, double> edge_increment;
  auto add_path = [&](std::map<std::pair<size_t, size_t>, double>& inc,
                      const std::vector<size_t>& path, double bps) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      size_t a = path[i], b = path[i + 1];
      if (a > b) std::swap(a, b);
      inc[{a, b}] += bps;
    }
  };
  // With redundant trees on, every relayed stream is budgeted twice —
  // the fleet registers both the primary's and the disjoint secondary's
  // load on the backbone, so admission must reserve for both.
  const double per_stream = stream_estimate_bps_ * redundancy_factor_;
  for (const auto& [parent, child] : placement.TreeEdges()) {
    add_path(edge_increment, topology_->RelayPath(parent, child), per_stream);
  }

  // Try every on-plan switch as the attachment point; prefer attachments
  // every affected link can absorb, then the lowest-latency path, then
  // fewer hops. RelayPath is the path the hop's media actually rides
  // (direct link first), so the plan and the data path agree on which
  // links get loaded.
  size_t best_hops = SIZE_MAX;
  for (size_t node : placement.Switches()) {
    std::vector<size_t> path = topology_->RelayPath(node, candidate);
    if (path.size() < 2) continue;  // unreachable (or self)
    const double latency = topology_->PathLatency(path);
    auto increments = edge_increment;
    add_path(increments, path, (current_members + 1) * per_stream);
    bool fits = true;
    for (const auto& [link, bps] : increments) {
      if (topology_->ResidualOf(link.first, link.second) < bps) {
        fits = false;
        break;
      }
    }
    const size_t hops = path.size() - 1;
    const bool better =
        (fits && !best.fits) ||
        (fits == best.fits &&
         (latency < best.latency_s ||
          (latency == best.latency_s && hops < best_hops)));
    if (better) {
      best.parent = node;
      best.latency_s = latency;
      best.fits = fits;
      best_hops = hops;
    }
  }
  return best;
}

size_t TopologyAwarePolicy::PlaceParticipant(
    const MeetingPlacement& placement,
    const std::vector<SwitchLoad>& loads) const {
  // Fill the home switch first, then existing spans in creation order —
  // identical budgeting to CascadePolicy, so single-switch and
  // hub-capacity behaviour match it exactly.
  const size_t with_room = FirstWithRoom(placement, loads, max_per_switch_);
  if (with_room != SIZE_MAX) return with_room;
  // Open a new span on the live switch that is cheapest to attach to the
  // current tree: reachable over the backbone, every affected link able
  // to absorb the join's summed load increments (BestAttachment), then
  // path latency, then the canonical load order as the final tie-break.
  const int members = MemberCount(placement);
  std::vector<size_t> used = placement.Switches();
  size_t best = SIZE_MAX;
  Attachment best_att;
  best_att.latency_s = std::numeric_limits<double>::infinity();
  for (size_t rank = LeastLoadedLive(loads, used); rank != SIZE_MAX;
       rank = LeastLoadedLive(loads, used)) {
    used.push_back(rank);  // consume the candidate in canonical load order
    Attachment att = BestAttachment(placement, rank, members);
    if (att.parent == SIZE_MAX) continue;  // unreachable from the tree
    const bool better = (att.fits && !best_att.fits) ||
                        (att.fits == best_att.fits &&
                         att.latency_s < best_att.latency_s);
    if (better) {
      best = rank;
      best_att = att;
    }
  }
  // A span the backbone cannot carry is worse than an oversubscribed
  // switch: with no fitting candidate the home switch absorbs the
  // overflow (matching CascadePolicy's fleet-exhausted behaviour) rather
  // than knowingly overloading a link.
  if (best != SIZE_MAX && best_att.fits) return best;
  return placement.home;
}

size_t TopologyAwarePolicy::ChooseSpanParent(const MeetingPlacement& placement,
                                             size_t span_switch) const {
  // Mirror the admission computation so the parent chosen at span
  // creation is the same attachment PlaceParticipant judged cheapest.
  Attachment att =
      BestAttachment(placement, span_switch, MemberCount(placement));
  return att.parent == SIZE_MAX ? placement.home : att.parent;
}

std::unique_ptr<PlacementPolicy> PlacementPolicyConfig::Make() const {
  switch (kind) {
    case Kind::kLeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case Kind::kCascade:
      return std::make_unique<CascadePolicy>(max_participants_per_switch);
    case Kind::kTopologyAware:
      return std::make_unique<TopologyAwarePolicy>(max_participants_per_switch);
  }
  return std::make_unique<LeastLoadedPolicy>();
}

std::string PlacementPolicyConfig::Label() const {
  switch (kind) {
    case Kind::kLeastLoaded:
      return "least-loaded";
    case Kind::kCascade:
      return "cascade{" + std::to_string(max_participants_per_switch) + "}";
    case Kind::kTopologyAware:
      return "topology{" + std::to_string(max_participants_per_switch) + "}";
  }
  return "?";
}

}  // namespace scallop::core
