#include <gtest/gtest.h>

#include "switchsim/pre.hpp"
#include "switchsim/resources.hpp"
#include "switchsim/switch.hpp"
#include "switchsim/tables.hpp"

namespace scallop::switchsim {
namespace {

TEST(Pre, TreeLifecycle) {
  ReplicationEngine pre;
  EXPECT_TRUE(pre.CreateTree(1));
  EXPECT_FALSE(pre.CreateTree(1));  // duplicate mgid
  EXPECT_TRUE(pre.HasTree(1));
  EXPECT_TRUE(pre.DestroyTree(1));
  EXPECT_FALSE(pre.HasTree(1));
  EXPECT_FALSE(pre.DestroyTree(1));
}

TEST(Pre, TreeLimitEnforced) {
  PreLimits limits;
  limits.max_trees = 4;
  ReplicationEngine pre(limits);
  for (uint32_t i = 1; i <= 4; ++i) EXPECT_TRUE(pre.CreateTree(i));
  EXPECT_FALSE(pre.CreateTree(5));
  pre.DestroyTree(2);
  EXPECT_TRUE(pre.CreateTree(5));
}

TEST(Pre, ReplicatesToAllNodes) {
  ReplicationEngine pre;
  pre.CreateTree(1);
  for (uint32_t p = 1; p <= 3; ++p) {
    pre.AddNode(1, L1Node{p, static_cast<uint16_t>(p), 0, false, {p}});
  }
  auto replicas = pre.Replicate(1, 0, 0, 0);
  ASSERT_EQ(replicas.size(), 3u);
}

TEST(Pre, L1XidPruning) {
  // Two meetings share a tree: slot 1 (xid 1) and slot 2 (xid 2).
  ReplicationEngine pre;
  pre.CreateTree(1);
  pre.AddNode(1, L1Node{1, 1, 1, true, {1}});
  pre.AddNode(1, L1Node{2, 2, 1, true, {2}});
  pre.AddNode(1, L1Node{3, 3, 2, true, {3}});
  pre.AddNode(1, L1Node{4, 4, 2, true, {4}});

  // Packet from meeting 1 excludes xid 2.
  auto replicas = pre.Replicate(1, 2, 0, 0);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0].port, 1u);
  EXPECT_EQ(replicas[1].port, 2u);

  // Packet from meeting 2 excludes xid 1.
  replicas = pre.Replicate(1, 1, 0, 0);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_EQ(replicas[0].port, 3u);
}

TEST(Pre, L2XidSelfPrune) {
  // Sender 2's copy of its own packet is suppressed via RID + L2-XID.
  ReplicationEngine pre;
  pre.CreateTree(1);
  for (uint32_t p = 1; p <= 3; ++p) {
    pre.AddNode(1, L1Node{p, static_cast<uint16_t>(p), 0, false, {p}});
  }
  pre.MapL2Xid(2, {2});
  auto replicas = pre.Replicate(1, 0, /*rid=*/2, /*l2_xid=*/2);
  ASSERT_EQ(replicas.size(), 2u);
  for (const auto& r : replicas) EXPECT_NE(r.port, 2u);
}

TEST(Pre, L2PruneOnlyAppliesToMatchingRid) {
  ReplicationEngine pre;
  pre.CreateTree(1);
  pre.AddNode(1, L1Node{1, 1, 0, false, {7}});
  pre.AddNode(1, L1Node{2, 2, 0, false, {7}});  // same port, different rid
  pre.MapL2Xid(9, {7});
  // rid 1 named: only node with rid 1 loses port 7.
  auto replicas = pre.Replicate(1, 0, 1, 9);
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0].rid, 2u);
}

TEST(Pre, NodeRemovalAndPortUpdate) {
  ReplicationEngine pre;
  pre.CreateTree(1);
  pre.AddNode(1, L1Node{1, 1, 0, false, {1, 5}});
  EXPECT_EQ(pre.Replicate(1, 0, 0, 0).size(), 2u);
  EXPECT_TRUE(pre.RemoveNode(1, 1));
  EXPECT_TRUE(pre.Replicate(1, 0, 0, 0).empty());
  EXPECT_EQ(pre.node_count(), 0u);
}

TEST(Pre, NodeBudgetEnforced) {
  PreLimits limits;
  limits.max_l1_nodes = 2;
  ReplicationEngine pre(limits);
  pre.CreateTree(1);
  EXPECT_TRUE(pre.AddNode(1, L1Node{1, 1, 0, false, {1}}));
  EXPECT_TRUE(pre.AddNode(1, L1Node{2, 2, 0, false, {2}}));
  EXPECT_FALSE(pre.AddNode(1, L1Node{3, 3, 0, false, {3}}));
}

TEST(Tables, ExactCapacityAndOverwrite) {
  ExactTable<int, int> t("t", 2, 32, 32);
  EXPECT_TRUE(t.Insert(1, 10));
  EXPECT_TRUE(t.Insert(2, 20));
  EXPECT_FALSE(t.Insert(3, 30));  // full
  EXPECT_TRUE(t.Insert(1, 11));   // overwrite OK when key exists
  EXPECT_EQ(*t.Lookup(1), 11);
  EXPECT_EQ(t.Lookup(3), nullptr);
  EXPECT_TRUE(t.Erase(2));
  EXPECT_TRUE(t.Insert(3, 30));
  EXPECT_EQ(t.footprint().occupied, 2u);
}

TEST(Tables, TernaryFirstMatchWins) {
  TernaryTable<int> t("cls", 8, 16, 8);
  t.Insert(0x2000, 0xF000, 1);  // version 2 -> action 1
  t.Insert(0x0000, 0x0000, 2);  // catch-all
  EXPECT_EQ(*t.Lookup(0x2abc), 1);
  EXPECT_EQ(*t.Lookup(0x1abc), 2);
}

TEST(Resources, ReportAggregatesFootprints) {
  ResourceModel model;
  ExactTable<int, int> t("stream", 1000, 80, 96);
  model.Register(&t.footprint());
  TernaryTable<int> tt("cls", 16, 32, 8);
  model.Register(&tt.footprint());
  model.AccountEgress(125'000'000);  // 1 Gbit over 1 s
  auto report = model.Report(1.0, 5, 50);
  EXPECT_GT(report.sram_pct, 0.0);
  EXPECT_GT(report.tcam_pct, 0.0);
  EXPECT_NEAR(report.egress_bps, 1e9, 1e6);
  EXPECT_EQ(report.pre_trees, 5u);
  auto text = model.FormatTable3(report);
  EXPECT_NE(text.find("SRAM"), std::string::npos);
  EXPECT_NE(text.find("Egress Tput."), std::string::npos);
}

// Switch-level test with a trivial program: unicast reflector.
class ReflectProgram : public PipelineProgram {
 public:
  void Ingress(const net::Packet&, PacketMetadata& meta) override {
    meta.unicast = true;
    meta.unicast_port = 1;
  }
  bool Egress(net::Packet& pkt, const PacketMetadata&,
              const Replica&) override {
    std::swap(pkt.src, pkt.dst);
    return true;
  }
};

class SinkHost : public sim::Host {
 public:
  void OnPacket(net::PacketPtr pkt) override { packets.push_back(std::move(pkt)); }
  std::vector<net::PacketPtr> packets;
};

TEST(SwitchTest, RunsProgramAndForwards) {
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  SwitchConfig cfg;
  cfg.address = net::Ipv4(100, 64, 0, 1);
  Switch sw(sched, net, cfg);
  ReflectProgram prog;
  sw.SetProgram(&prog);

  SinkHost client;
  net.Attach(net::Ipv4(10, 0, 0, 1), &client, {}, {});
  net.Attach(cfg.address, &sw, {}, {});

  net.Send(net::MakePacket({net::Ipv4(10, 0, 0, 1), 5000},
                           {cfg.address, 3478}, {0x80, 96, 0, 0}));
  sched.RunAll();
  ASSERT_EQ(client.packets.size(), 1u);
  EXPECT_EQ(client.packets[0]->src.port, 3478);
  EXPECT_EQ(sw.stats().packets_in, 1u);
  EXPECT_EQ(sw.stats().packets_out, 1u);
}

TEST(SwitchTest, CpuCopyDelivered) {
  sim::Scheduler sched;
  sim::Network net(sched, 1);
  SwitchConfig cfg;
  cfg.address = net::Ipv4(100, 64, 0, 1);
  Switch sw(sched, net, cfg);

  class CpuProgram : public PipelineProgram {
   public:
    void Ingress(const net::Packet&, PacketMetadata& meta) override {
      meta.copy_to_cpu = true;
      meta.drop = true;
    }
    bool Egress(net::Packet&, const PacketMetadata&, const Replica&) override {
      return true;
    }
  } prog;
  sw.SetProgram(&prog);
  int cpu_packets = 0;
  sw.SetCpuHandler([&](net::PacketPtr) { ++cpu_packets; });

  SinkHost client;
  net.Attach(net::Ipv4(10, 0, 0, 1), &client, {}, {});
  net.Attach(cfg.address, &sw, {}, {});
  net.Send(net::MakePacket({net::Ipv4(10, 0, 0, 1), 5000},
                           {cfg.address, 3478}, {0, 1, 0, 0}));
  sched.RunAll();
  EXPECT_EQ(cpu_packets, 1);
  EXPECT_EQ(sw.stats().packets_to_cpu, 1u);
  EXPECT_TRUE(client.packets.empty());
}

}  // namespace
}  // namespace scallop::switchsim
