// InterSwitchTopology: the controller's backbone link-state view. Pins
// the implicit-mesh default (what keeps pre-topology fleets
// byte-identical), explicit-graph path queries (shortest by latency,
// widest by bottleneck residual, deterministic tie-breaks), relay-load
// registration and the overload predicate the re-planner keys on.
#include <gtest/gtest.h>

#include "core/topology.hpp"

namespace scallop::core {
namespace {

TEST(Topology, ImplicitMeshConnectsEveryPair) {
  InterSwitchTopology topo;
  topo.EnsureNodes(4);
  EXPECT_FALSE(topo.explicit_topology());
  EXPECT_TRUE(topo.HasLink(0, 3));
  EXPECT_TRUE(topo.HasLink(2, 1));
  EXPECT_FALSE(topo.HasLink(1, 1));
  EXPECT_FALSE(topo.HasLink(0, 4));  // off the node set
  // Mesh paths are always the direct hop, at zero cost.
  std::vector<size_t> path = topo.ShortestPath(0, 3);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 3u);
  EXPECT_EQ(topo.PathLatency(path), 0.0);
  EXPECT_EQ(topo.PathResidual(path), InterSwitchTopology::kUnconstrained);
}

TEST(Topology, ImplicitMeshTracksLoadWithoutConstraining) {
  InterSwitchTopology topo;
  topo.EnsureNodes(3);
  topo.AddLoad({0, 2}, 5e6);
  EXPECT_EQ(topo.LoadOf(0, 2), 5e6);
  EXPECT_EQ(topo.ResidualOf(0, 2), InterSwitchTopology::kUnconstrained);
  EXPECT_EQ(topo.UtilizationOf(0, 2), 0.0);
  EXPECT_TRUE(topo.OverloadedLinks().empty());
  topo.RemoveLoad({0, 2}, 5e6);
  EXPECT_EQ(topo.LoadOf(0, 2), 0.0);
}

TEST(Topology, ExplicitLinksReplaceTheMesh) {
  InterSwitchTopology topo;
  topo.EnsureNodes(4);
  topo.SetLink(0, 1, 0.002, 10e6);
  EXPECT_TRUE(topo.explicit_topology());
  EXPECT_TRUE(topo.HasLink(0, 1));
  EXPECT_TRUE(topo.HasLink(1, 0));  // undirected
  EXPECT_FALSE(topo.HasLink(0, 2)) << "mesh edges are gone";
  EXPECT_TRUE(topo.ShortestPath(0, 3).empty()) << "3 is unreachable";
  ASSERT_EQ(topo.links().size(), 1u);
  EXPECT_EQ(topo.links()[0].a, 0u);
  EXPECT_EQ(topo.links()[0].b, 1u);
}

TEST(Topology, ShortestPathFollowsLatencyAcrossAChain) {
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.002, 0.0);
  topo.SetLink(1, 2, 0.002, 0.0);
  topo.SetLink(2, 3, 0.002, 0.0);
  std::vector<size_t> path = topo.ShortestPath(0, 3);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path, (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(topo.PathLatency(path), 0.006);
  EXPECT_EQ(topo.ShortestPath(3, 0), (std::vector<size_t>{3, 2, 1, 0}));
  EXPECT_EQ(topo.ShortestPath(2, 2), (std::vector<size_t>{2}));
}

TEST(Topology, ShortestPathPrefersCheaperDetourOverDirectLink) {
  // Triangle: the 2 ms two-hop detour beats the 5 ms direct link.
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 0.0);
  topo.SetLink(1, 2, 0.001, 0.0);
  topo.SetLink(0, 2, 0.005, 0.0);
  EXPECT_EQ(topo.ShortestPath(0, 2), (std::vector<size_t>{0, 1, 2}));
  // Equal latency: fewer hops win (raise the detour's cost).
  topo.SetLink(1, 2, 0.004, 0.0);
  EXPECT_EQ(topo.ShortestPath(0, 2), (std::vector<size_t>{0, 2}));
}

TEST(Topology, LoadRegistrationDrivesResidualAndOverload) {
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 4e6);
  topo.AddLoad({0, 1, 2}, 3e6);  // one stream across both hops
  EXPECT_DOUBLE_EQ(topo.ResidualOf(0, 1), 7e6);
  EXPECT_DOUBLE_EQ(topo.ResidualOf(1, 2), 1e6);
  EXPECT_DOUBLE_EQ(topo.PathResidual({0, 1, 2}), 1e6);
  EXPECT_DOUBLE_EQ(topo.UtilizationOf(1, 2), 0.75);
  EXPECT_DOUBLE_EQ(topo.MaxUtilization(), 0.75);
  EXPECT_TRUE(topo.OverloadedLinks().empty());

  topo.AddLoad({1, 2}, 2e6);  // 5e6 on a 4e6 link: overloaded
  auto overloaded = topo.OverloadedLinks();
  ASSERT_EQ(overloaded.size(), 1u);
  EXPECT_EQ(overloaded[0], (std::pair<size_t, size_t>{1, 2}));

  topo.RemoveLoad({1, 2}, 2e6);
  topo.RemoveLoad({0, 1, 2}, 3e6);
  EXPECT_EQ(topo.LoadOf(0, 1), 0.0);
  EXPECT_EQ(topo.LoadOf(1, 2), 0.0);
  // RemoveLoad floors at zero rather than going negative.
  topo.RemoveLoad({0, 1}, 1e6);
  EXPECT_EQ(topo.LoadOf(0, 1), 0.0);
}

TEST(Topology, DisjointPathRoutesAroundLoadedLinks) {
  // Two routes 0 -> 2: fast but loaded via 1, slow but empty via 3. With
  // nothing to avoid, the disjoint planner ranks paths by bottleneck
  // residual, then latency.
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 10e6);
  topo.SetLink(0, 3, 0.004, 10e6);
  topo.SetLink(3, 2, 0.004, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 2, {}), (std::vector<size_t>{0, 1, 2}))
      << "unloaded: widest ties, latency breaks the tie";
  topo.AddLoad({0, 1, 2}, 9e6);
  EXPECT_EQ(topo.DisjointPath(0, 2, {}), (std::vector<size_t>{0, 3, 2}))
      << "the loaded fast route's bottleneck residual is 1 Mb/s";
  EXPECT_EQ(topo.ShortestPath(0, 2), (std::vector<size_t>{0, 1, 2}))
      << "shortest path ignores load by design";
}

TEST(Topology, CapacityEventsReshapeExistingLinks) {
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.002, 10e6);
  topo.AddLoad({0, 1}, 6e6);
  EXPECT_TRUE(topo.OverloadedLinks().empty());
  topo.SetLinkCapacity(0, 1, 4e6);
  ASSERT_EQ(topo.OverloadedLinks().size(), 1u);
  const InterSwitchTopology::Link* link = topo.FindLink(0, 1);
  ASSERT_NE(link, nullptr);
  EXPECT_DOUBLE_EQ(link->capacity_bps, 4e6);
  EXPECT_DOUBLE_EQ(link->latency_s, 0.002) << "latency survives the event";
  EXPECT_DOUBLE_EQ(link->relay_load_bps, 6e6) << "load survives the event";
}

TEST(Topology, EnsureNodesGrowsWithoutForgettingLinks) {
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 5e6);
  EXPECT_EQ(topo.node_count(), 2u);
  topo.EnsureNodes(5);
  EXPECT_EQ(topo.node_count(), 5u);
  EXPECT_TRUE(topo.HasLink(0, 1));
  EXPECT_FALSE(topo.HasLink(0, 4)) << "new nodes join the explicit graph";
  topo.SetLink(1, 4, 0.001, 5e6);
  EXPECT_EQ(topo.ShortestPath(0, 4), (std::vector<size_t>{0, 1, 4}));
}

TEST(Topology, DisjointPathTieBreaksByHopsThenLowestSwitch) {
  // Direct 0 -> 2 and the detour through 1 tie on both bottleneck
  // residual (10 Mb/s everywhere) and total latency (2 ms): fewer hops
  // must win, deterministically — the tie-breaks secondary relay
  // planning runs on.
  InterSwitchTopology topo;
  topo.SetLink(0, 2, 0.002, 10e6);
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 2, {}), (std::vector<size_t>{0, 2}))
      << "equal residual and latency: fewest hops breaks the tie";

  // Two 2-hop routes 0 -> 3, identical in residual, latency and hop
  // count: the lower intermediate switch id wins — the planner's output
  // must not depend on link declaration order.
  InterSwitchTopology diamond;
  diamond.SetLink(0, 2, 0.001, 10e6);  // higher intermediate declared first
  diamond.SetLink(2, 3, 0.001, 10e6);
  diamond.SetLink(0, 1, 0.001, 10e6);
  diamond.SetLink(1, 3, 0.001, 10e6);
  EXPECT_EQ(diamond.DisjointPath(0, 3, {}), (std::vector<size_t>{0, 1, 3}))
      << "full tie: lowest switch id breaks it, not declaration order";
}

TEST(Topology, DisjointPathAvoidsThePrimaryTreesLinks) {
  // Ring 0-1-2-3-0: the primary 0 -> 1 rides the direct link, so its
  // protection path must go the long way around.
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 10e6);
  topo.SetLink(2, 3, 0.001, 10e6);
  topo.SetLink(3, 0, 0.001, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 1, {{0, 1}}),
            (std::vector<size_t>{0, 3, 2, 1}));
  // The avoid set is orientation-blind.
  EXPECT_EQ(topo.DisjointPath(0, 1, {{1, 0}}),
            (std::vector<size_t>{0, 3, 2, 1}));
}

TEST(Topology, DisjointPathFallsBackMaximallyDisjoint) {
  // A line 0-1-2 offers no alternative to the avoided (0, 1) link: the
  // maximally-disjoint fallback shares the minimum (one avoided link)
  // rather than giving up.
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 2, {{0, 1}}),
            (std::vector<size_t>{0, 1, 2}));
  // Genuinely unreachable stays empty.
  topo.EnsureNodes(4);
  EXPECT_TRUE(topo.DisjointPath(0, 3, {}).empty());
}

TEST(Topology, DisjointPathExcludesLinksBelowMinCapacity) {
  // The ring detour around (0, 1) crosses a cut link (capacity ~0): a
  // protection tree must never be planned over it, so the query falls
  // back to sharing the avoided primary link instead.
  InterSwitchTopology topo;
  topo.SetLink(0, 1, 0.001, 10e6);
  topo.SetLink(1, 2, 0.001, 10e6);
  topo.SetLink(2, 3, 0.001, 1.0);  // cut
  topo.SetLink(3, 0, 0.001, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 1, {{0, 1}}, 1e6),
            (std::vector<size_t>{0, 1}));
  // Restore the detour and it is preferred again.
  topo.SetLinkCapacity(2, 3, 10e6);
  EXPECT_EQ(topo.DisjointPath(0, 1, {{0, 1}}, 1e6),
            (std::vector<size_t>{0, 3, 2, 1}));
}

}  // namespace
}  // namespace scallop::core
