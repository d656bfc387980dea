// CI smoke: a 2-sim-second three-party scenario run on every conference
// backend behind the testbed::Backend seam — the single-switch Scallop
// stack, a 2-switch fleet, and the software-SFU baseline — plus a short
// fleet{3} scenario with skewed join load and the background rebalancer
// on (must show at least one live meeting migration without any
// failover), and a fleet{3} cascade leg where the placement policy splits
// one meeting across switches (fails if no relay span is installed, no
// media crosses the inter-switch relay, or any peer starves), a fleet{4}
// redundant-tree leg — ring backbone, standby chain per relay, a primary
// link cut at t=3s (fails on any frame gap, zero duplicates eliminated,
// or a link-capacity overshoot before or after the cut) — and a
// federated fleet{6,2} leg — cross-region border span plus mid-run
// controller death and shard adoption (fails on starvation, zero
// east-west traffic, or a meeting left with the dead controller). Exists
// so
// the bench pipeline (ScenarioRunner + bench_common), the backend seam
// and the control plane stay exercised on every push without paying for a
// paper-scale run; exits nonzero if any substrate fails to deliver media
// at all. (The scallop and fleet{2} runs' CSVs are additionally pinned
// byte-for-byte by tests/test_harness.cpp.) Set SCALLOP_CSV_DIR to dump
// every leg's CSV there — CI uploads them as artifacts. The fleet legs
// additionally run with structured tracing on (obs::TraceLog) and dump a
// Perfetto-loadable <name>.trace.json beside each CSV; a malformed export
// fails the smoke run.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "obs/stats_registry.hpp"
#include "obs/trace.hpp"
#include "testbed/fleet_testbed.hpp"

namespace {

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// Writes the run's CSV to $SCALLOP_CSV_DIR/<name>.csv when set.
void DumpCsv(const std::string& name,
             const scallop::harness::ScenarioMetrics& m) {
  const char* dir = std::getenv("SCALLOP_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  WriteFile(std::string(dir) + "/" + name + ".csv", m.ToCsv());
}

// Validates the run's Chrome trace export and writes it next to the CSV
// ($SCALLOP_CSV_DIR/<name>.trace.json — CI uploads both as artifacts).
// Returns false when the export is malformed, which fails the smoke run:
// a Perfetto-unloadable trace is a broken deliverable even when every
// media counter looks healthy.
bool DumpTrace(const std::string& name,
               const scallop::harness::ScenarioRunner& runner,
               const scallop::harness::ScenarioMetrics& m) {
  if (runner.trace() == nullptr) return true;
  scallop::obs::StatsRegistry registry;
  m.RegisterInto(registry);
  const std::string json = runner.trace()->ToChromeJson(&registry);
  std::string error;
  if (!scallop::obs::TraceLog::ValidateChromeTrace(json, &error)) {
    std::printf("SMOKE FAILED: %s trace export malformed: %s\n", name.c_str(),
                error.c_str());
    return false;
  }
  const char* dir = std::getenv("SCALLOP_CSV_DIR");
  if (dir != nullptr && *dir != '\0') {
    WriteFile(std::string(dir) + "/" + name + ".trace.json", json);
  }
  return true;
}

}  // namespace

int main() {
  using namespace scallop;
  bench::Header("Bench smoke: 3-party call, 2 simulated seconds, x3 backends");

  const testbed::BackendChoice backends[] = {
      testbed::BackendChoice::Scallop(),
      testbed::BackendChoice::Fleet(2),
      testbed::BackendChoice::Software(),
  };

  bool ok = true;
  for (const auto& choice : backends) {
    harness::ScenarioSpec spec =
        harness::ScenarioSpec::Uniform("bench-smoke", 1, 3, 2.0);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.sample_interval_s = 0.5;
    spec.backend = choice;
    harness::ScenarioRunner runner(spec);
    const harness::ScenarioMetrics& m = runner.Run();
    std::printf("[%s]\n%s", choice.Label().c_str(), m.Summary().c_str());
    DumpCsv("smoke-" + choice.Label(), m);

    if (m.WorstDeliveryFloor() < 10 || m.RewriteViolations() != 0 ||
        m.switch_packets_in == 0) {
      std::printf("SMOKE FAILED on backend %s\n", choice.Label().c_str());
      ok = false;
    }
  }

  // Live rebalancing under skewed join load, no failover: six meetings on
  // a 3-switch fleet, two of them (both landing on switch 0 round-robin)
  // carrying 3 participants each — the load rebalancer must move at least
  // one meeting, its peers must re-signal, and no switch may fail.
  {
    harness::ScenarioSpec spec =
        harness::ScenarioSpec::Uniform("smoke-rebalance", 6, 1, 8.0);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
    spec.meetings[0].participants.resize(3);
    spec.meetings[3].participants.resize(3);
    spec.WithBackend(testbed::BackendChoice::Fleet(3));
    spec.WithRebalance(/*interval_s=*/2.0, /*imbalance_threshold=*/2);
    spec.WithTrace();
    harness::ScenarioRunner runner(spec);
    const harness::ScenarioMetrics& m = runner.Run();
    std::printf("[fleet{3}+rebalance]\n%s", m.Summary().c_str());
    DumpCsv("smoke-rebalance", m);
    ok = DumpTrace("smoke-rebalance", runner, m) && ok;
    if (m.placements_rebalanced == 0 || m.control.switches_failed != 0 ||
        m.WorstDeliveryFloor() < 10 || m.RewriteViolations() != 0) {
      std::printf("SMOKE FAILED on the rebalance scenario\n");
      ok = false;
    }
  }

  // Cascaded placement (paper Appendix A): one 5-party meeting on a
  // 3-switch fleet under Cascade(2) — the plan must span (home + 2 relay
  // spans), media must actually cross the inter-switch relays, and every
  // peer must deliver with gap-free rewriting.
  {
    harness::ScenarioSpec spec =
        harness::ScenarioSpec::Uniform("smoke-cascade", 1, 5, 4.0);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
    spec.sample_interval_s = 0.5;
    spec.WithBackend(testbed::BackendChoice::Fleet(3));
    spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
    spec.WithTrace();
    harness::ScenarioRunner runner(spec);
    const harness::ScenarioMetrics& m = runner.Run();
    std::printf("[fleet{3}+cascade]\n%s", m.Summary().c_str());
    DumpCsv("smoke-cascade", m);
    ok = DumpTrace("smoke-cascade", runner, m) && ok;
    if (m.cascade.spans_installed == 0 || m.cascade.relay_packets == 0 ||
        m.WorstDeliveryFloor() < 10 || m.RewriteViolations() != 0) {
      std::printf("SMOKE FAILED on the cascade scenario\n");
      ok = false;
    }
  }

  // Constrained backbone (ISSUE 5): a fleet{4} meeting over a linear
  // A—B—C—D backbone (2 ms / 12 Mb/s per link) under the topology-aware
  // planner must come out as a depth-3 relay tree that respects every
  // link's capacity, starve nobody — and spend strictly less backbone
  // bandwidth than the hub-and-spoke plan for the same scenario.
  {
    auto backbone_spec = [](const char* name,
                            core::PlacementPolicyConfig policy) {
      harness::ScenarioSpec spec =
          harness::ScenarioSpec::Uniform(name, 1, 4, 4.0);
      spec.base.peer.encoder.start_bitrate_bps = 700'000;
      spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
      spec.sample_interval_s = 0.5;
      spec.WithBackend(testbed::BackendChoice::Fleet(4));
      spec.WithPlacementPolicy(policy);
      spec.WithInterSwitchLink(0, 1, 0.002, 12e6)
          .WithInterSwitchLink(1, 2, 0.002, 12e6)
          .WithInterSwitchLink(2, 3, 0.002, 12e6);
      spec.WithTrace();
      return spec;
    };
    auto backbone_bytes = [](const harness::ScenarioMetrics& m) {
      uint64_t total = 0;
      for (const auto& l : m.topology.links) total += l.relay_bytes;
      return total;
    };

    harness::ScenarioRunner tree_runner(backbone_spec(
        "smoke-backbone-tree", core::PlacementPolicyConfig::TopologyAware(1)));
    const harness::ScenarioMetrics& tree = tree_runner.Run();
    std::printf("[fleet{4}+backbone tree]\n%s", tree.Summary().c_str());
    DumpCsv("smoke-backbone-tree", tree);
    ok = DumpTrace("smoke-backbone-tree", tree_runner, tree) && ok;

    harness::ScenarioRunner hub_runner(backbone_spec(
        "smoke-backbone-hub", core::PlacementPolicyConfig::Cascade(1)));
    const harness::ScenarioMetrics& hub = hub_runner.Run();
    std::printf("[fleet{4}+backbone hub]\n%s", hub.Summary().c_str());
    DumpCsv("smoke-backbone-hub", hub);
    ok = DumpTrace("smoke-backbone-hub", hub_runner, hub) && ok;

    bool capacity_ok = true;
    for (const auto& l : tree.topology.links) {
      if (l.capacity_bps > 0.0 && l.load_bps > l.capacity_bps) {
        std::printf("planner overloaded link %zu-%zu (%.0f > %.0f bps)\n",
                    l.a, l.b, l.load_bps, l.capacity_bps);
        capacity_ok = false;
      }
    }
    if (!capacity_ok || tree.topology.max_depth != 3 ||
        tree.WorstDeliveryFloor() < 10 || tree.RewriteViolations() != 0 ||
        backbone_bytes(tree) == 0 ||
        backbone_bytes(tree) >= backbone_bytes(hub)) {
      std::printf("SMOKE FAILED on the constrained-backbone scenario "
                  "(tree=%llu hub=%llu backbone bytes)\n",
                  static_cast<unsigned long long>(backbone_bytes(tree)),
                  static_cast<unsigned long long>(backbone_bytes(hub)));
      ok = false;
    }
  }

  // Redundant dual relay trees (ISSUE 9): a fleet{4} meeting spread over
  // a ring backbone with a standby chain per relay; at t=3s a link the
  // primary tree rides is cut. Fails on any frame gap at any receiver
  // (worst delivery floor vs an undisturbed control run), zero
  // duplicates eliminated (the second tree never flowed or the merge
  // never deduped), or link-capacity overshoot in either run: from
  // double-registering both trees' load, or from a standby planned over
  // a link the cut left without room.
  {
    auto ring_spec = [](const char* name) {
      harness::ScenarioSpec spec =
          harness::ScenarioSpec::Uniform(name, 1, 4, 6.0);
      spec.base.peer.encoder.start_bitrate_bps = 700'000;
      spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
      spec.sample_interval_s = 0.5;
      spec.WithBackend(testbed::BackendChoice::Fleet(4));
      spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
      spec.WithInterSwitchLink(0, 1, 0.001, 12e6)
          .WithInterSwitchLink(1, 2, 0.001, 12e6)
          .WithInterSwitchLink(2, 3, 0.001, 12e6)
          .WithInterSwitchLink(3, 0, 0.001, 12e6);
      spec.WithRedundantTrees();
      spec.WithTrace();
      return spec;
    };

    harness::ScenarioRunner control(ring_spec("smoke-redundant-control"));
    const harness::ScenarioMetrics& undisturbed = control.Run();

    harness::ScenarioRunner runner(ring_spec("smoke-redundant-cut"));
    runner.RunUntil(2.9);
    const auto relays =
        runner.fleet().fleet().RelaysOf(runner.meeting_id(0));
    if (relays.empty() || relays.front().backbone_path.size() < 2) {
      std::printf("SMOKE FAILED: redundant leg planned no relays\n");
      ok = false;
    } else {
      const size_t cut_a = relays.front().backbone_path[0];
      const size_t cut_b = relays.front().backbone_path[1];
      runner.backend().sched().At(util::Seconds(3.0), [&] {
        // A sliver of capacity, not 0: <= 0 means unconstrained, and the
        // overload re-planner only reacts to finite capacities.
        runner.fleet().SetInterSwitchLinkCapacity(cut_a, cut_b, 1.0);
      });
      const harness::ScenarioMetrics& m = runner.Run();
      std::printf("[fleet{4}+redundant trees, link %zu-%zu cut @3s]\n%s",
                  cut_a, cut_b, m.Summary().c_str());
      DumpCsv("smoke-redundant-cut", m);
      ok = DumpTrace("smoke-redundant-cut", runner, m) && ok;

      // Both trees' load must fit the links before the cut, and the
      // standbys re-planned after it must fit what the cut left.
      bool capacity_ok = true;
      for (const harness::ScenarioMetrics* run : {&undisturbed, &m}) {
        for (const auto& l : run->topology.links) {
          if (l.capacity_bps > 0.0 && l.load_bps > l.capacity_bps) {
            std::printf(
                "redundant planner overloaded link %zu-%zu in the %s run "
                "(%.0f > %.0f bps)\n",
                l.a, l.b, run == &m ? "cut" : "control", l.load_bps,
                l.capacity_bps);
            capacity_ok = false;
          }
        }
      }
      if (!capacity_ok || m.redundancy.tree_flips == 0 ||
          m.redundancy.duplicates_eliminated == 0 ||
          m.RewriteViolations() != 0 ||
          m.WorstDeliveryFloor() + 3 < undisturbed.WorstDeliveryFloor()) {
        std::printf("SMOKE FAILED on the redundant-tree scenario "
                    "(floor=%llu vs undisturbed %llu, flips=%llu, "
                    "dups_eliminated=%llu)\n",
                    static_cast<unsigned long long>(m.WorstDeliveryFloor()),
                    static_cast<unsigned long long>(
                        undisturbed.WorstDeliveryFloor()),
                    static_cast<unsigned long long>(m.redundancy.tree_flips),
                    static_cast<unsigned long long>(
                        m.redundancy.duplicates_eliminated));
        ok = false;
      }
    }
  }

  // Federated control plane (fleet{6,2}): two region controllers peered
  // east-west, a cross-region meeting under Cascade(1) (one region owns 3
  // switches, so a 5-party meeting must borrow a border span from the
  // other), and a mid-run controller death whose shard the surviving
  // region adopts. Fails on starvation, zero east-west traffic, a missing
  // border span, or any meeting left owned by the dead controller.
  {
    harness::ScenarioSpec spec =
        harness::ScenarioSpec::Uniform("smoke-federation", 4, 1, 8.0);
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
    spec.sample_interval_s = 0.5;
    spec.meetings[0].participants.resize(5);
    spec.WithBackend(testbed::BackendChoice::Fleet(6, 2));
    spec.WithControlPlane(/*latency_s=*/0.001);
    spec.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
    spec.WithRebalance(/*interval_s=*/2.0, /*imbalance_threshold=*/2);
    spec.WithControllerFailure(/*at_s=*/4.0, /*region=*/1);
    spec.WithTrace();
    harness::ScenarioRunner runner(spec);
    const harness::ScenarioMetrics& m = runner.Run();
    std::printf("[fleet{6,2}+federation]\n%s", m.Summary().c_str());
    DumpCsv("smoke-federation", m);
    ok = DumpTrace("smoke-federation", runner, m) && ok;

    bool owned_live = true;
    auto& fed = runner.fleet().federation();
    for (size_t mi = 0; mi < 4; ++mi) {
      const size_t owner =
          fed.OwnerRegionOf(runner.meeting_id(static_cast<int>(mi)));
      if (owner == SIZE_MAX || !fed.RegionAlive(owner)) owned_live = false;
    }
    if (m.federation.messages_sent == 0 || m.federation.border_spans == 0 ||
        m.federation.shards_adopted != 1 || !owned_live ||
        m.WorstDeliveryFloor() < 10 || m.RewriteViolations() != 0) {
      std::printf("SMOKE FAILED on the federation scenario\n");
      ok = false;
    }
  }

  // Diurnal workload (ISSUE 8): one compressed campus day on fleet{6,2} —
  // trace-driven join schedule, follow-the-sun meeting pins, two roaming
  // anchors crossing regions mid-run. Fails on starvation or if no roamer
  // actually re-homed onto its new region.
  {
    harness::WorkloadSpec w;
    w.name = "smoke-diurnal";
    w.duration_s = 6.0;
    w.sample_interval_s = 0.5;
    w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
        .WithGrid(3, 3)
        .WithDiurnal(/*day_start_h=*/6.0, /*day_hours=*/12.0,
                     /*latest_join_frac=*/0.4)
        .WithFollowTheSun()
        .WithRoaming(/*roamers=*/2, /*at_frac=*/0.6)
        .WithControlPlane(/*latency_s=*/0.001);
    harness::ScenarioSpec spec = w.Compile();
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.base.peer.encoder.key_frame_interval = util::Seconds(4);
    spec.WithTrace();
    harness::ScenarioRunner runner(spec);
    const harness::ScenarioMetrics& m = runner.Run();
    std::printf("[fleet{6,2}+diurnal workload]\n%s", m.Summary().c_str());
    DumpCsv("smoke-diurnal", m);
    ok = DumpTrace("smoke-diurnal", runner, m) && ok;
    if (m.WorstDeliveryFloor() < 10 || m.RewriteViolations() != 0 ||
        m.roam_rehomings == 0) {
      std::printf("SMOKE FAILED on the diurnal workload scenario\n");
      ok = false;
    }
  }

  if (!ok) return 1;
  std::printf("SMOKE OK\n");
  return 0;
}
