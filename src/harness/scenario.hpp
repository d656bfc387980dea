// Declarative scenario vocabulary shared by tests, benchmark harnesses and
// examples. A ScenarioSpec says *what* happens in an experiment — how many
// meetings with how many participants, who joins and leaves when, what each
// client's access links look like, which links degrade mid-run, and whether
// the switch fails over — and the ScenarioRunner (runner.hpp) executes it
// deterministically from a seed. The style follows how SDN-multicast
// evaluations sweep topology/churn/loss grids (arXiv:1508.03592,
// arXiv:1809.03412): one spec type, many grid points.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "testbed/testbed.hpp"

namespace scallop::harness {

// Shape of one client's access links. Factory helpers cover the profiles
// the paper's evaluation exercises; fields may be tweaked freely after
// construction for anything the factories don't cover.
struct LinkProfile {
  std::string name = "default";
  sim::LinkConfig up;
  sim::LinkConfig down;

  // 20/20 Mb/s, 5 ms one way, light jitter (TestbedConfig defaults).
  static LinkProfile Default();
  // Default shape with iid loss on the downlink (uplink loss optional).
  static LinkProfile Lossy(double down_loss, double up_loss = 0.0);
  // Default latency/jitter, capacity capped in both directions.
  static LinkProfile Constrained(double down_bps);
  // ADSL-style asymmetric capacity.
  static LinkProfile Asymmetric(double up_bps, double down_bps);
  // High-latency access (e.g. cross-continent or satellite).
  static LinkProfile HighLatency(util::DurationUs one_way);
};

// One participant in one meeting. Times are scenario-relative seconds;
// negative means "never".
struct ParticipantSpec {
  LinkProfile link = LinkProfile::Default();
  double join_at_s = 0.0;
  double leave_at_s = -1.0;   // churn: leave mid-run
  double rejoin_at_s = -1.0;  // churn: come back after leaving
};

struct MeetingSpec {
  std::vector<ParticipantSpec> participants;
  // Follow-the-sun (federated fleet only): the region the meeting is
  // minted in, so load lands where the workday currently is. Negative:
  // let the control plane pick the least-loaded region.
  int region = -1;
};

// Mid-run access-region change (federated fleet{N,R>1} only): the
// participant roams — leaves through its old region's ingress and, after
// the re-signaling delay, rejoins through `new_region`'s ingress, which
// resolves the meeting's owner east-west from there.
struct RoamEvent {
  double at_s = 0.0;
  int meeting = 0;
  int participant = 0;
  int new_region = 0;
};

// Correlated backbone failure (fleet backends with a modeled topology):
// one event cutting a named set of declared inter-switch links at once —
// a fiber bundle or a shared conduit going dark. The fleet re-plans the
// relay subtrees riding the cut links via the same overload path a
// single-link capacity change takes.
struct CorrelatedFailureEvent {
  double at_s = 0.0;
  std::vector<std::pair<int, int>> links;
};

// Mid-run inter-switch backbone change (fleet backends with a modeled
// topology): reshapes one declared link's capacity. The fleet re-plans
// relay subtrees riding links the change overloads.
struct TopologyEvent {
  double at_s = 0.0;
  int a = 0;
  int b = 0;
  double capacity_bps = 0.0;  // <= 0: unconstrained
};

// Mid-run link change: degrade (or restore) one client's access link.
// Negative fields are left unchanged.
struct LinkEvent {
  double at_s = 0.0;
  int meeting = 0;
  int participant = 0;
  bool uplink = false;  // default: the downlink, as in Fig. 14
  double rate_bps = -1.0;
  double loss_rate = -1.0;
  util::DurationUs prop_delay = -1;
  util::DurationUs jitter_stddev = -1;
};

struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = 1;
  double duration_s = 10.0;
  // Cadence of the runner's timeline samples (and the sample hook).
  double sample_interval_s = 1.0;

  std::vector<MeetingSpec> meetings;
  std::vector<LinkEvent> link_events;

  // Switch failover: at this time the switch's forwarding state is lost
  // and the controller re-signals every meeting onto the standby (on a
  // single switch, the same switch restarted). Negative: never.
  double failover_at_s = -1.0;
  // Detection + re-signaling gap between state loss and the re-joins.
  // Must exceed the access-link RTT so in-flight pre-failover media drains
  // before the standby installs stream entries for the same (src, ssrc)
  // keys — exactly as a real standby would only see live traffic. On a
  // Scallop backend it must also exceed the worst-case heartbeat-miss
  // detection time — 4 heartbeat intervals plus 2x the control latency
  // (in-flight last heartbeat + detection threshold + one detector tick)
  // — because failover is delivered as telemetry loss and the dead switch
  // is only discovered by missed heartbeats. The runner validates this at
  // construction rather than letting the drill silently test nothing.
  double failover_blackout_s = 0.25;

  // Southbound control-plane shape: per-message latency and iid loss on
  // every controller <-> switch command/event. Defaults (0/0) dispatch
  // inline and leave backend behavior byte-identical. The heartbeat /
  // load-report cadences shape the northbound telemetry — failure
  // detection scales with the heartbeat interval (a switch is declared
  // dead after 3 silent intervals), so slower heartbeats need longer
  // failover blackouts (validated at construction).
  double control_latency_s = 0.0;
  double control_loss = 0.0;
  double control_heartbeat_s = 0.05;
  double control_load_report_s = 0.5;
  // True once WithControlPlane/WithRebalance was called; gates the
  // control-plane CSV section (backends with more than one switch always
  // render it).
  bool control_plane_configured = false;
  // Load-driven background rebalancer (fleet backend only): every
  // `rebalance_interval_s` the fleet migrates at most one meeting from
  // the busiest to the idlest switch when their reported participant
  // loads differ by at least `rebalance_threshold`. Negative: disabled.
  double rebalance_interval_s = -1.0;
  int rebalance_threshold = 2;
  // Client re-negotiation delay between a live migration and the members'
  // re-joins onto the target switch.
  double rebalance_resignal_s = 0.1;

  // Mid-run controller failure (federated fleet{N,R>1} only): at this
  // time region `controller_failure_region`'s controller dies. Its
  // switches keep forwarding; the surviving controllers' east-west
  // heartbeat detector notices and the lowest live region adopts the
  // orphaned shard, so the region's meetings stay owned by a live
  // controller. Negative: never.
  double controller_failure_at_s = -1.0;
  int controller_failure_region = 0;

  // Which forwarding substrate executes the scenario: the Scallop stack
  // of N switches under R region controllers (default: one switch, one
  // region) or the software-SFU baseline. The whole spec vocabulary
  // (links, churn, failover) runs unchanged on any backend; backbone
  // features need at least two switches, region features two regions.
  testbed::BackendChoice backend;

  // Meeting-placement policy (fleet backend only): LeastLoaded (default)
  // single-homes every meeting; Cascade(max_participants_per_switch)
  // splits large meetings across switches with inter-switch relay spans;
  // TopologyAware(max) plans multi-level relay trees over the modeled
  // backbone by path cost and residual link capacity.
  core::PlacementPolicyConfig placement_policy;

  // Modeled inter-switch backbone (fleets of two or more switches). Empty
  // keeps the implicit full mesh — zero latency, unlimited capacity,
  // byte-identical CSVs to the pre-topology harness. Declared links shape both the
  // controller's link-state view and the sim links relay traffic
  // physically crosses; `topology_events` reshape capacities mid-run.
  std::vector<core::InterSwitchLinkSpec> inter_switch_links;
  std::vector<TopologyEvent> topology_events;

  // Roaming participants (federated fleet only; validated at
  // construction).
  std::vector<RoamEvent> roams;
  // Correlated backbone failures — each cuts its whole named link set at
  // one instant (links must be declared above; validated at
  // construction).
  std::vector<CorrelatedFailureEvent> correlated_failures;
  // Heterogeneous fleets: (switch, capacity class) overrides; unlisted
  // switches stay class 1.0 (fleets of two or more switches; validated
  // at construction).
  std::vector<std::pair<int, double>> switch_capacities;

  // Redundant dual relay trees (a fleet with a declared backbone):
  // every inter-switch relay gets a standby chain planned over a
  // link-disjoint backbone path, delivering a second copy the downstream
  // switch deduplicates by (origin, seq) — a backbone cut flips to the
  // standby with no frame gap. `redundancy_dedup_window` bounds the
  // per-stream dedup window (sequence numbers).
  bool redundant_trees = false;
  int redundancy_dedup_window = 512;
  // Make-before-break migration (fleets of two or more switches): planned
  // re-homes (rebalancer moves, MigrateMeeting) build the new span, flip,
  // then drain — members keep their sessions and the runner measures
  // frames lost across each move (expected: 0).
  bool hitless_migration = false;

  // Structured event tracing (obs::TraceLog): when enabled the runner
  // owns a trace log that every southbound channel, fleet controller and
  // east-west conduit emits into; `trace_ring` bounds it as a flight
  // recorder (0 = unbounded). Off by default — the untraced branches run
  // and every CSV/fingerprint stays byte-identical.
  bool trace_enabled = false;
  size_t trace_ring = 0;

  // Underlying testbed knobs (encoder rates, agent policy, ...). The
  // testbed seed is overwritten with `seed` above; per-participant link
  // shapes come from their LinkProfile, not from the base config.
  testbed::TestbedConfig base;

  // `meetings` x `participants` grid, everyone present from t=0 with
  // default links; the usual starting point that the fluent helpers below
  // then specialise.
  static ScenarioSpec Uniform(std::string name, int meetings,
                              int participants, double duration_s,
                              uint64_t seed = 1);

  // Fluent helpers (return *this for chaining).
  ScenarioSpec& WithLink(int meeting, int participant, LinkProfile profile);
  ScenarioSpec& WithJoin(int meeting, int participant, double join_at_s);
  ScenarioSpec& WithLeave(int meeting, int participant, double leave_at_s,
                          double rejoin_at_s = -1.0);
  ScenarioSpec& WithLinkEvent(LinkEvent ev);
  ScenarioSpec& WithFailover(double at_s);
  ScenarioSpec& WithBackend(testbed::BackendChoice choice);
  // Kills one region's controller mid-run (requires a fleet{N,R>=2}
  // backend and an armed control plane; validated at construction).
  ScenarioSpec& WithControllerFailure(double at_s, int region = 0);
  ScenarioSpec& WithControlPlane(double latency_s, double loss = 0.0,
                                 double heartbeat_s = 0.05,
                                 double load_report_s = 0.5);
  ScenarioSpec& WithRebalance(double interval_s, int imbalance_threshold = 2);
  ScenarioSpec& WithPlacementPolicy(core::PlacementPolicyConfig policy);
  // Declares one inter-switch backbone link (fleet backend; capacity_bps
  // <= 0 means unconstrained). The first call switches the fleet from the
  // implicit full mesh to the declared backbone.
  ScenarioSpec& WithInterSwitchLink(int a, int b, double latency_s,
                                    double capacity_bps = 0.0);
  // Reshapes a declared link's capacity at `at_s`.
  ScenarioSpec& WithInterSwitchLinkEvent(double at_s, int a, int b,
                                         double capacity_bps);
  // Roams a participant to a new access region mid-meeting (federated
  // fleet{N,R>=2} backend; validated at construction).
  ScenarioSpec& WithRoam(int meeting, int participant, double at_s,
                         int new_region);
  // Pins the region a meeting is minted in (follow-the-sun).
  ScenarioSpec& WithMeetingRegion(int meeting, int region);
  // Overrides one switch's capacity class (heterogeneous fleets).
  ScenarioSpec& WithSwitchCapacity(int switch_index, double capacity_class);
  // Cuts a set of declared backbone links at once.
  ScenarioSpec& WithCorrelatedFailure(double at_s,
                                      std::vector<std::pair<int, int>> links);
  // Enables redundant dual relay trees (fleet backend; a declared backbone
  // is required for disjoint planning — validated at construction).
  ScenarioSpec& WithRedundantTrees(int dedup_window = 512);
  // Enables make-before-break (hitless) migration for planned re-homes.
  ScenarioSpec& WithHitlessMigration();
  // Enables structured event tracing. `ring_capacity` > 0 keeps only the
  // newest events (flight-recorder mode); 0 keeps everything.
  ScenarioSpec& WithTrace(size_t ring_capacity = 0);

  // Total participants across meetings.
  int TotalParticipants() const;
};

}  // namespace scallop::harness
