// The fingerprint pin grid: every (spec, seed) point the regression suite
// digests. Shared by tests/test_fingerprints.cpp (which compares against
// the committed table in tests/fingerprint_table.inc) and its
// --rebaseline mode (which regenerates that table). Keys are
// "family/backend/sN" — stable identifiers, never reused for a different
// spec shape.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/workload.hpp"

namespace scallop::harness {

struct FingerprintPoint {
  std::string key;
  ScenarioSpec spec;
};

inline std::vector<FingerprintPoint> AllFingerprintPoints() {
  using testbed::BackendChoice;
  std::vector<FingerprintPoint> points;
  auto add = [&points](std::string key, ScenarioSpec spec) {
    points.push_back(FingerprintPoint{std::move(key), std::move(spec)});
  };

  const std::vector<std::pair<std::string, BackendChoice>> backends = {
      {"scallop", BackendChoice::Scallop()},
      {"fleet3", BackendChoice::Fleet(3)},
      {"fleet6x2", BackendChoice::Fleet(6, 2)},
      {"software", BackendChoice::Software()},
  };
  const std::vector<uint64_t> seeds = {1, 7, 42, 1337};

  // ---- Base grid: five hand-written spec families on every backend. ----
  for (const auto& [bname, backend] : backends) {
    for (uint64_t seed : seeds) {
      const std::string tag = "/" + bname + "/s" + std::to_string(seed);

      ScenarioSpec plain =
          ScenarioSpec::Uniform("fp-plain", 2, 3, 2.0, seed);
      plain.sample_interval_s = 0.5;
      plain.WithBackend(backend);
      add("plain" + tag, plain);

      ScenarioSpec churn =
          ScenarioSpec::Uniform("fp-churn", 1, 4, 2.5, seed);
      churn.sample_interval_s = 0.5;
      churn.WithBackend(backend);
      churn.WithLeave(0, 2, 0.8, 1.6);
      churn.WithLeave(0, 3, 1.2);
      add("churn" + tag, churn);

      ScenarioSpec lossy =
          ScenarioSpec::Uniform("fp-lossy", 1, 3, 2.0, seed);
      lossy.sample_interval_s = 0.5;
      lossy.WithBackend(backend);
      lossy.WithLink(0, 1, LinkProfile::Lossy(0.05));
      add("lossy" + tag, lossy);

      ScenarioSpec linkevent =
          ScenarioSpec::Uniform("fp-linkevent", 1, 3, 2.5, seed);
      linkevent.sample_interval_s = 0.5;
      linkevent.WithBackend(backend);
      LinkEvent ev;
      ev.at_s = 1.0;
      ev.participant = 1;
      ev.rate_bps = 600'000.0;
      ev.loss_rate = 0.02;
      linkevent.WithLinkEvent(ev);
      add("linkevent" + tag, linkevent);

      ScenarioSpec latejoin =
          ScenarioSpec::Uniform("latejoin", 2, 2, 2.0, seed);
      latejoin.sample_interval_s = 0.5;
      latejoin.WithBackend(backend);
      latejoin.WithJoin(0, 1, 0.6);
      latejoin.WithJoin(1, 0, 0.3);
      latejoin.WithJoin(1, 1, 0.9);
      add("latejoin" + tag, latejoin);
    }
  }

  // ---- Fleet-specific control-plane drills. ----
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{42}}) {
    const std::string tag = "/s" + std::to_string(seed);

    ScenarioSpec cascade =
        ScenarioSpec::Uniform("fp-cascade", 1, 6, 2.0, seed);
    cascade.sample_interval_s = 0.5;
    cascade.WithBackend(testbed::BackendChoice::Fleet(3));
    cascade.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
    add("cascade/fleet3" + tag, cascade);

    ScenarioSpec topo = ScenarioSpec::Uniform("fp-topo", 1, 3, 2.0, seed);
    topo.sample_interval_s = 0.5;
    topo.WithBackend(testbed::BackendChoice::Fleet(3));
    topo.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    topo.WithInterSwitchLink(0, 1, 0.001, 20e6);
    topo.WithInterSwitchLink(1, 2, 0.001, 20e6);
    topo.WithInterSwitchLink(0, 2, 0.005, 20e6);
    add("topo/fleet3" + tag, topo);

    ScenarioSpec rebalance =
        ScenarioSpec::Uniform("fp-rebalance", 4, 2, 3.0, seed);
    rebalance.sample_interval_s = 0.5;
    rebalance.WithBackend(testbed::BackendChoice::Fleet(3));
    rebalance.WithControlPlane(0.001);
    rebalance.WithRebalance(0.5);
    add("rebalance/fleet3" + tag, rebalance);

    ScenarioSpec failover =
        ScenarioSpec::Uniform("fp-failover", 1, 3, 4.0, seed);
    failover.sample_interval_s = 0.5;
    failover.WithBackend(testbed::BackendChoice::Fleet(2));
    failover.WithFailover(1.5);
    add("failover/fleet2" + tag, failover);

    ScenarioSpec ctrlfail =
        ScenarioSpec::Uniform("fp-ctrlfail", 4, 2, 3.0, seed);
    ctrlfail.sample_interval_s = 0.5;
    ctrlfail.WithBackend(testbed::BackendChoice::Fleet(6, 2));
    ctrlfail.WithControlPlane(0.001);
    ctrlfail.WithControllerFailure(1.0, 1);
    add("ctrlfail/fleet6x2" + tag, ctrlfail);
  }

  // Federated backbone across a controller death: region 1's meeting
  // borrows region 0's switch 0 over a linear 0-1-2-3 backbone, then
  // region 0 adopts the shard. The topology rows pin per-link relay load
  // before and after the adoption.
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    ScenarioSpec fedbackbone =
        ScenarioSpec::Uniform("fp-fedbackbone", 1, 3, 2.0, seed);
    fedbackbone.sample_interval_s = 0.5;
    fedbackbone.WithBackend(testbed::BackendChoice::Fleet(4, 2));
    fedbackbone.WithControlPlane(0.001);
    fedbackbone.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(1));
    fedbackbone.WithInterSwitchLink(0, 1, 0.001, 20e6)
        .WithInterSwitchLink(1, 2, 0.001, 20e6)
        .WithInterSwitchLink(2, 3, 0.001, 20e6);
    fedbackbone.WithMeetingRegion(0, 1).WithControllerFailure(1.0, 1);
    add("fedbackbone/fleet4x2/s" + std::to_string(seed), fedbackbone);
  }

  // ---- Workload-generator families (one point per generator minimum). --
  auto workload = [](const std::string& name, uint64_t seed,
                     double duration_s) {
    WorkloadSpec w;
    w.name = name;
    w.seed = seed;
    w.duration_s = duration_s;
    w.sample_interval_s = 0.5;
    return w;
  };

  // Diurnal: trace-driven join schedules, across every backend.
  for (const auto& [bname, backend] : backends) {
    WorkloadSpec w = workload("fp-diurnal", 11, 2.0);
    w.WithBackend(backend).WithGrid(2, 4).WithDiurnal();
    add("diurnal/" + bname + "/s11", w.Compile());
  }
  {
    WorkloadSpec w = workload("fp-diurnal-churn", 23, 3.0);
    w.WithBackend(testbed::BackendChoice::Scallop())
        .WithGrid(2, 5)
        .WithDiurnal(6.0, 12.0, 0.4, 0.5);
    add("diurnal-churn/scallop/s23", w.Compile());

    WorkloadSpec w2 = workload("fp-diurnal-churn", 29, 3.0);
    w2.WithBackend(testbed::BackendChoice::Fleet(3))
        .WithGrid(2, 5)
        .WithDiurnal(6.0, 12.0, 0.4, 0.5);
    add("diurnal-churn/fleet3/s29", w2.Compile());
  }

  // Flash crowd: a lecture going viral mid-run.
  {
    WorkloadSpec w = workload("fp-flash", 5, 2.5);
    w.WithGrid(2, 3).WithFlashCrowd(1, 6);
    add("flash/scallop/s5", w.Compile());

    WorkloadSpec w2 = workload("fp-flash", 9, 2.5);
    w2.WithBackend(testbed::BackendChoice::Fleet(3))
        .WithGrid(2, 3)
        .WithFlashCrowd(0, 6);
    add("flash/fleet3/s9", w2.Compile());
  }

  // Follow-the-sun: meetings pinned region by region across fleet{6,2}.
  for (uint64_t seed : {uint64_t{3}, uint64_t{13}}) {
    WorkloadSpec w = workload("fp-sun", seed, 2.0);
    w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
        .WithGrid(4, 2)
        .WithFollowTheSun();
    add("sun/fleet6x2/s" + std::to_string(seed), w.Compile());
  }

  // Roaming: anchors change access region mid-meeting on fleet{6,2}.
  for (uint64_t seed : {uint64_t{2}, uint64_t{17}, uint64_t{31}}) {
    WorkloadSpec w = workload("fp-roam", seed, 3.0);
    w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
        .WithGrid(2, 3)
        .WithRoaming(3, 0.5);
    add("roam/fleet6x2/s" + std::to_string(seed), w.Compile());
  }

  // Heterogeneous fleet: capacity classes skew placement.
  {
    WorkloadSpec w = workload("fp-hetero", 19, 2.0);
    w.WithBackend(testbed::BackendChoice::Fleet(3))
        .WithGrid(6, 1)
        .WithCapacityClasses({4.0, 1.0, 1.0});
    add("hetero/fleet3/s19", w.Compile());

    WorkloadSpec w2 = workload("fp-hetero", 37, 2.0);
    w2.WithBackend(testbed::BackendChoice::Fleet(6, 2))
        .WithGrid(6, 2)
        .WithCapacityClasses({2.0, 1.0, 0.5, 1.0, 2.0, 1.0});
    add("hetero/fleet6x2/s37", w2.Compile());
  }

  // Correlated backbone failure: a fiber bundle cut mid-run.
  for (uint64_t seed : {uint64_t{4}, uint64_t{21}}) {
    WorkloadSpec w = workload("fp-corrfail", seed, 3.0);
    w.WithBackend(testbed::BackendChoice::Fleet(3))
        .WithGrid(1, 3)
        .WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1))
        .WithBackboneLink(0, 1, 0.001, 20e6)
        .WithBackboneLink(1, 2, 0.001, 20e6)
        .WithBackboneLink(0, 2, 0.005, 20e6)
        .WithCorrelatedFailure(0.4, {{1, 2}, {0, 2}});
    add("corrfail/fleet3/s" + std::to_string(seed), w.Compile());
  }

  // Redundant dual relay trees: a fleet{4} ring with a standby chain per
  // relay; every receiver sees the merge switches eliminate the second
  // tree's copies.
  for (uint64_t seed : {uint64_t{6}, uint64_t{23}}) {
    ScenarioSpec spec = ScenarioSpec::Uniform("fp-redundant", 1, 4, 2.5,
                                              seed);
    spec.sample_interval_s = 0.5;
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.WithBackend(BackendChoice::Fleet(4));
    spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    spec.WithInterSwitchLink(0, 1, 0.001, 100e6)
        .WithInterSwitchLink(1, 2, 0.001, 100e6)
        .WithInterSwitchLink(2, 3, 0.001, 100e6)
        .WithInterSwitchLink(3, 0, 0.001, 100e6);
    spec.WithRedundantTrees();
    add("redundant/fleet4/s" + std::to_string(seed), spec);
  }

  // Redundant trees under backbone cuts. On the ring, a cut on the 0-1
  // primary path flips every relay riding it onto its standby chain. On a
  // full mesh (the shape with a spare disjoint path after the first
  // flip), a second cut on the promoted 0-2-1 chain flips that relay
  // again and retires the chain it rode.
  {
    ScenarioSpec spec = ScenarioSpec::Uniform("fp-redundant-cut", 1, 4, 2.5,
                                              6);
    spec.sample_interval_s = 0.5;
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.WithBackend(BackendChoice::Fleet(4));
    spec.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    spec.WithInterSwitchLink(0, 1, 0.001, 100e6)
        .WithInterSwitchLink(1, 2, 0.001, 100e6)
        .WithInterSwitchLink(2, 3, 0.001, 100e6)
        .WithInterSwitchLink(3, 0, 0.001, 100e6);
    spec.WithRedundantTrees();
    spec.WithInterSwitchLinkEvent(1.2, 0, 1, 1.0);
    add("redundantcut/fleet4/s6", spec);

    ScenarioSpec mesh = ScenarioSpec::Uniform("fp-redundant-recut", 1, 3,
                                              2.5, 6);
    mesh.sample_interval_s = 0.5;
    mesh.base.peer.encoder.start_bitrate_bps = 700'000;
    mesh.WithBackend(BackendChoice::Fleet(4));
    mesh.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        mesh.WithInterSwitchLink(a, b, 0.001, 100e6);
      }
    }
    mesh.WithRedundantTrees();
    mesh.WithInterSwitchLinkEvent(1.2, 0, 1, 1.0)
        .WithInterSwitchLinkEvent(1.8, 0, 2, 1.0);
    add("redundantrecut/fleet4/s6", mesh);
  }

  // Long runs: the busiest leg outlives the receivers' 4096-seq duplicate
  // window and 256-frame decode history and the sender's 1024-packet
  // retransmission history, under loss and reordering.
  for (const auto& [bname, backend] :
       {std::pair{"scallop", BackendChoice::Scallop()},
        std::pair{"software", BackendChoice::Software()}}) {
    for (uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
      ScenarioSpec spec = ScenarioSpec::Uniform("fp-longrun", 1, 3, 26.0,
                                                seed);
      spec.sample_interval_s = 0.5;
      spec.WithBackend(backend);
      LinkProfile lossy = LinkProfile::Lossy(0.02);
      lossy.down.reorder_rate = 0.05;
      spec.WithLink(0, 1, lossy);
      add(std::string("longrun/") + bname + "/s" + std::to_string(seed),
          spec);
    }
  }

  // Hitless (make-before-break) migration: the rebalancer's planned move
  // keeps every session alive, audited by the runner's frame-loss check.
  {
    ScenarioSpec spec = ScenarioSpec::Uniform("fp-hitless", 2, 3, 3.0, 11);
    spec.sample_interval_s = 0.5;
    spec.base.peer.encoder.start_bitrate_bps = 700'000;
    spec.meetings[1].participants.resize(1);
    spec.WithBackend(BackendChoice::Fleet(2));
    spec.WithRebalance(/*interval_s=*/1.0, /*imbalance_threshold=*/2);
    spec.WithHitlessMigration();
    add("hitless/fleet2/s11", spec);
  }

  // Teardown: the southbound removals. On a cascaded fleet{3}, meeting 0's
  // span members both leave, so its span drains (RemoveRelaySpan, then
  // RemoveMeeting), and one of them rejoins, so the span is installed
  // again; every member of meeting 1 leaves, span members last, so its
  // span drains with no relay left to remove. On a redundant fleet{4}
  // ring, a span member leaves and rejoins, so the protection meetings its
  // standby chains opened are collected and then opened again.
  for (uint64_t seed : {uint64_t{5}, uint64_t{17}}) {
    const std::string tag = "/s" + std::to_string(seed);

    ScenarioSpec drain = ScenarioSpec::Uniform("fp-teardown", 2, 4, 2.5,
                                               seed);
    drain.sample_interval_s = 0.5;
    drain.WithBackend(BackendChoice::Fleet(3));
    drain.WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(2));
    drain.WithLeave(0, 2, 0.8, 1.6).WithLeave(0, 3, 1.0);
    for (int p = 0; p < 4; ++p) drain.WithLeave(1, p, 1.2 + 0.1 * p);
    add("teardown/fleet3" + tag, drain);

    ScenarioSpec ring = ScenarioSpec::Uniform("fp-teardown-ring", 1, 4, 2.5,
                                              seed);
    ring.sample_interval_s = 0.5;
    ring.base.peer.encoder.start_bitrate_bps = 700'000;
    ring.WithBackend(BackendChoice::Fleet(4));
    ring.WithPlacementPolicy(core::PlacementPolicyConfig::TopologyAware(1));
    ring.WithInterSwitchLink(0, 1, 0.001, 100e6)
        .WithInterSwitchLink(1, 2, 0.001, 100e6)
        .WithInterSwitchLink(2, 3, 0.001, 100e6)
        .WithInterSwitchLink(3, 0, 0.001, 100e6);
    ring.WithRedundantTrees();
    ring.WithLeave(0, 2, 0.9, 1.6);
    add("teardown/fleet4" + tag, ring);
  }

  return points;
}

}  // namespace scallop::harness
