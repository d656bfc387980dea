#include "core/topology.hpp"

#include <algorithm>
#include <limits>

namespace scallop::core {

void InterSwitchTopology::EnsureNodes(size_t n) {
  nodes_ = std::max(nodes_, n);
}

InterSwitchTopology::Key InterSwitchTopology::KeyOf(size_t a, size_t b) {
  return a < b ? Key{a, b} : Key{b, a};
}

InterSwitchTopology::Link* InterSwitchTopology::Mutable(size_t a, size_t b,
                                                        bool create) {
  if (a == b || a >= nodes_ || b >= nodes_) return nullptr;
  Key key = KeyOf(a, b);
  auto it = links_.find(key);
  if (it != links_.end()) return &it->second;
  if (!create) return nullptr;
  // Lazily materialize an implicit-mesh link so load registration works
  // before anyone declared an explicit backbone.
  if (explicit_) return nullptr;
  Link link;
  link.a = key.first;
  link.b = key.second;
  return &links_.emplace(key, link).first->second;
}

void InterSwitchTopology::SetLink(size_t a, size_t b, double latency_s,
                                  double capacity_bps) {
  if (a == b) return;
  EnsureNodes(std::max(a, b) + 1);
  if (!explicit_) {
    // First explicit declaration: the implicit mesh (and any lazily
    // created load records on it) no longer describes the backbone.
    links_.clear();
    explicit_ = true;
  }
  Key key = KeyOf(a, b);
  auto it = links_.find(key);
  if (it == links_.end()) {
    Link link;
    link.a = key.first;
    link.b = key.second;
    it = links_.emplace(key, link).first;
  }
  it->second.latency_s = latency_s;
  it->second.capacity_bps = capacity_bps;
}

void InterSwitchTopology::SetLinkCapacity(size_t a, size_t b,
                                          double capacity_bps) {
  if (!explicit_) {
    // Shaping capacity is an opt-in to a modeled backbone: declare it.
    SetLink(a, b, 0.0, capacity_bps);
    return;
  }
  auto it = links_.find(KeyOf(a, b));
  // On an explicit backbone a capacity event may only reshape a declared
  // link. Quietly declaring a new zero-latency link here would give the
  // controller a path no physical (sim) link backs — planning over a
  // backbone that does not exist.
  if (it != links_.end()) it->second.capacity_bps = capacity_bps;
}

bool InterSwitchTopology::HasLink(size_t a, size_t b) const {
  if (a == b || a >= nodes_ || b >= nodes_) return false;
  if (!explicit_) return true;  // implicit full mesh
  return links_.find(KeyOf(a, b)) != links_.end();
}

const InterSwitchTopology::Link* InterSwitchTopology::FindLink(
    size_t a, size_t b) const {
  auto it = links_.find(KeyOf(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

std::vector<InterSwitchTopology::Link> InterSwitchTopology::links() const {
  std::vector<Link> out;
  out.reserve(links_.size());
  for (const auto& [key, link] : links_) out.push_back(link);
  return out;
}

namespace {

// Reconstructs the node sequence from a predecessor array.
std::vector<size_t> Unwind(const std::vector<size_t>& prev, size_t from,
                           size_t to) {
  std::vector<size_t> path;
  for (size_t at = to; at != SIZE_MAX; at = prev[at]) {
    path.push_back(at);
    if (at == from) break;
  }
  if (path.empty() || path.back() != from) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

std::vector<size_t> InterSwitchTopology::ShortestPath(size_t from,
                                                      size_t to) const {
  if (from >= nodes_ || to >= nodes_) return {};
  if (from == to) return {from};
  if (!explicit_) return {from, to};  // implicit mesh: always adjacent

  // Dijkstra on (latency, hops), deterministic: nodes are settled in
  // ascending index order among equal costs.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(nodes_, inf);
  std::vector<size_t> hops(nodes_, SIZE_MAX);
  std::vector<size_t> prev(nodes_, SIZE_MAX);
  std::vector<bool> done(nodes_, false);
  dist[from] = 0.0;
  hops[from] = 0;
  for (size_t round = 0; round < nodes_; ++round) {
    size_t u = SIZE_MAX;
    for (size_t i = 0; i < nodes_; ++i) {
      if (done[i] || dist[i] == inf) continue;
      if (u == SIZE_MAX || dist[i] < dist[u] ||
          (dist[i] == dist[u] && hops[i] < hops[u])) {
        u = i;
      }
    }
    if (u == SIZE_MAX) break;
    done[u] = true;
    if (u == to) break;
    for (const auto& [key, link] : links_) {
      size_t v;
      if (link.a == u) {
        v = link.b;
      } else if (link.b == u) {
        v = link.a;
      } else {
        continue;
      }
      const double nd = dist[u] + link.latency_s;
      const size_t nh = hops[u] + 1;
      if (nd < dist[v] || (nd == dist[v] && nh < hops[v]) ||
          (nd == dist[v] && nh == hops[v] && u < prev[v])) {
        dist[v] = nd;
        hops[v] = nh;
        prev[v] = u;
      }
    }
  }
  return Unwind(prev, from, to);
}

std::vector<size_t> InterSwitchTopology::DisjointPath(
    size_t from, size_t to,
    const std::vector<std::pair<size_t, size_t>>& avoid,
    double min_capacity_bps) const {
  if (from >= nodes_ || to >= nodes_) return {};
  if (from == to) return {from};

  auto avoided = [&avoid](size_t a, size_t b) {
    const Key key = KeyOf(a, b);
    for (const auto& [x, y] : avoid) {
      if (KeyOf(x, y) == key) return true;
    }
    return false;
  };

  if (!explicit_) {
    // Implicit full mesh: the direct hop when it isn't to be avoided,
    // otherwise detour through the lowest-index third switch.
    if (!avoided(from, to)) return {from, to};
    for (size_t w = 0; w < nodes_; ++w) {
      if (w != from && w != to) return {from, w, to};
    }
    return {from, to};  // two-node fleet: nothing disjoint exists
  }

  // Lexicographic Dijkstra: (shared avoided links asc, bottleneck
  // residual desc, latency asc, hops asc, predecessor index asc). The
  // overlap count dominates so a fully disjoint path always beats any
  // overlapping one; when disjointness is impossible the minimum-overlap
  // path survives as the maximally-disjoint fallback.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<size_t> overlap(nodes_, SIZE_MAX);
  std::vector<double> width(nodes_, -1.0);
  std::vector<double> lat(nodes_, inf);
  std::vector<size_t> hops(nodes_, SIZE_MAX);
  std::vector<size_t> prev(nodes_, SIZE_MAX);
  std::vector<bool> done(nodes_, false);
  overlap[from] = 0;
  width[from] = kUnconstrained;
  lat[from] = 0.0;
  hops[from] = 0;
  for (size_t round = 0; round < nodes_; ++round) {
    size_t u = SIZE_MAX;
    for (size_t i = 0; i < nodes_; ++i) {
      if (done[i] || overlap[i] == SIZE_MAX) continue;
      if (u == SIZE_MAX || overlap[i] < overlap[u] ||
          (overlap[i] == overlap[u] && width[i] > width[u]) ||
          (overlap[i] == overlap[u] && width[i] == width[u] &&
           lat[i] < lat[u]) ||
          (overlap[i] == overlap[u] && width[i] == width[u] &&
           lat[i] == lat[u] && hops[i] < hops[u])) {
        u = i;
      }
    }
    if (u == SIZE_MAX) break;
    done[u] = true;
    if (u == to) break;
    for (const auto& [key, link] : links_) {
      size_t v;
      if (link.a == u) {
        v = link.b;
      } else if (link.b == u) {
        v = link.a;
      } else {
        continue;
      }
      // A link squeezed below the protection stream's bitrate (a cut
      // link's 1 bps sliver in particular) can never carry the secondary
      // tree — leave it out of the graph entirely.
      if (min_capacity_bps > 0.0 && link.capacity_bps > 0.0 &&
          link.capacity_bps < min_capacity_bps) {
        continue;
      }
      const size_t nov = overlap[u] + (avoided(link.a, link.b) ? 1 : 0);
      const double residual = link.capacity_bps <= 0.0
                                  ? kUnconstrained
                                  : link.capacity_bps - link.relay_load_bps;
      const double nw = std::min(width[u], residual);
      const double nl = lat[u] + link.latency_s;
      const size_t nh = hops[u] + 1;
      if (nov < overlap[v] || (nov == overlap[v] && nw > width[v]) ||
          (nov == overlap[v] && nw == width[v] && nl < lat[v]) ||
          (nov == overlap[v] && nw == width[v] && nl == lat[v] &&
           nh < hops[v]) ||
          (nov == overlap[v] && nw == width[v] && nl == lat[v] &&
           nh == hops[v] && u < prev[v])) {
        overlap[v] = nov;
        width[v] = nw;
        lat[v] = nl;
        hops[v] = nh;
        prev[v] = u;
      }
    }
  }
  return Unwind(prev, from, to);
}

std::vector<size_t> InterSwitchTopology::RelayPath(size_t from,
                                                   size_t to) const {
  if (from == to) return {from};
  if (HasLink(from, to)) return {from, to};
  return ShortestPath(from, to);
}

double InterSwitchTopology::PathLatency(const std::vector<size_t>& path) const {
  double total = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const Link* link = FindLink(path[i], path[i + 1]);
    if (link != nullptr) total += link->latency_s;
  }
  return total;
}

double InterSwitchTopology::PathResidual(
    const std::vector<size_t>& path) const {
  double residual = kUnconstrained;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    residual = std::min(residual, ResidualOf(path[i], path[i + 1]));
  }
  return residual;
}

void InterSwitchTopology::AddLoad(const std::vector<size_t>& path,
                                  double bps) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    Link* link = Mutable(path[i], path[i + 1], /*create=*/true);
    if (link != nullptr) link->relay_load_bps += bps;
  }
}

void InterSwitchTopology::RemoveLoad(const std::vector<size_t>& path,
                                     double bps) {
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    Link* link = Mutable(path[i], path[i + 1], /*create=*/false);
    if (link != nullptr) {
      link->relay_load_bps = std::max(0.0, link->relay_load_bps - bps);
    }
  }
}

double InterSwitchTopology::LoadOf(size_t a, size_t b) const {
  const Link* link = FindLink(a, b);
  return link == nullptr ? 0.0 : link->relay_load_bps;
}

double InterSwitchTopology::ResidualOf(size_t a, size_t b) const {
  const Link* link = FindLink(a, b);
  if (link == nullptr) return HasLink(a, b) ? kUnconstrained : 0.0;
  if (link->capacity_bps <= 0.0) return kUnconstrained;
  return link->capacity_bps - link->relay_load_bps;
}

double InterSwitchTopology::UtilizationOf(size_t a, size_t b) const {
  const Link* link = FindLink(a, b);
  if (link == nullptr || link->capacity_bps <= 0.0) return 0.0;
  return link->relay_load_bps / link->capacity_bps;
}

double InterSwitchTopology::MaxUtilization() const {
  double worst = 0.0;
  for (const auto& [key, link] : links_) {
    if (link.capacity_bps <= 0.0) continue;
    worst = std::max(worst, link.relay_load_bps / link.capacity_bps);
  }
  return worst;
}

std::vector<std::pair<size_t, size_t>> InterSwitchTopology::OverloadedLinks()
    const {
  std::vector<std::pair<size_t, size_t>> out;
  for (const auto& [key, link] : links_) {
    if (link.capacity_bps > 0.0 && link.relay_load_bps > link.capacity_bps) {
      out.push_back(key);
    }
  }
  return out;
}

}  // namespace scallop::core
