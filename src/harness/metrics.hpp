// Structured metrics emitted by a ScenarioRunner run: one row per
// (receiver <- sender) stream, one row per peer, one row per meeting/tree,
// plus switch/agent/data-plane aggregates and a sampled timeline. The CSV
// rendering is byte-stable for a fixed spec + seed, which is what the
// determinism regression test pins down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "testbed/backend.hpp"

namespace scallop::obs {
class StatsRegistry;
}  // namespace scallop::obs

namespace scallop::harness {

// One directed media stream as seen by its receiver at collection time.
struct StreamMetrics {
  int meeting = 0;
  int receiver = 0;  // participant index within the meeting
  core::ParticipantId receiver_id = 0;
  core::ParticipantId sender_id = 0;
  uint64_t packets_received = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_decoded = 0;
  uint64_t frames_undecodable = 0;
  uint64_t decoder_breaks = 0;          // gap-free rewriting: must stay 0
  uint64_t conflicting_duplicates = 0;  // gap-free rewriting: must stay 0
  uint64_t nacks_sent = 0;
  uint64_t recovered_packets = 0;
  double freeze_ms = 0.0;
  double recent_fps = 0.0;  // over the final 3 s of the run
};

// Per-peer rollup (delivery floor + churn bookkeeping).
struct PeerMetrics {
  int meeting = 0;
  int index = 0;
  core::ParticipantId id = 0;
  std::string profile;
  bool present_at_end = false;  // false for churned-out participants
  double seconds_in_meeting = 0.0;
  uint64_t frames_sent = 0;
  uint64_t audio_packets_received = 0;
  // Minimum frames decoded over this peer's current receive legs — the
  // starvation indicator ("no peer starves" keys off this).
  uint64_t min_frames_decoded = 0;
  uint64_t max_frames_decoded = 0;
  int active_streams = 0;
  uint64_t total_decoder_breaks = 0;
  uint64_t total_conflicting_duplicates = 0;
};

struct MeetingMetrics {
  int index = 0;
  core::MeetingId id = 0;
  std::string final_design;  // "2-party", "NRA", "RA-R", "RA-SR" or "none"
  int participants_at_end = 0;
  // Fleet index of the home switch hosting the meeting at collection
  // time; -1 on backends without a switch breakdown.
  int placement = -1;
  // Relay spans the meeting's placement carries (cascaded meetings).
  int spans = 0;
};

// One timeline sample (every ScenarioSpec::sample_interval_s).
struct TimelineSample {
  double t_s = 0.0;
  // Cumulative across all peers, including legs since torn down by
  // churn/failover — monotone even when receivers are recreated.
  uint64_t frames_decoded_total = 0;
  uint64_t seq_rewritten = 0;         // cumulative data-plane rewrites
  uint64_t dt_changes = 0;            // cumulative adaptation events
  uint64_t tree_migrations = 0;
};

struct ScenarioMetrics {
  std::string scenario;
  uint64_t seed = 0;
  double duration_s = 0.0;
  // Backend label ("scallop", "fleet{3}", "software"). Rendered in the
  // CSV only within the multi-switch section, so single-switch output is
  // byte-identical to the pre-backend-seam harness.
  std::string backend;

  std::vector<StreamMetrics> streams;
  std::vector<PeerMetrics> peers;
  std::vector<MeetingMetrics> meetings;
  // Per-switch snapshots straight from Backend::SwitchBreakdown();
  // empty on single-switch backends.
  std::vector<testbed::SwitchStatus> switches;
  std::vector<TimelineSample> timeline;

  // Switch / data-plane / agent aggregates.
  uint64_t switch_packets_in = 0;
  uint64_t switch_packets_out = 0;
  uint64_t switch_replicas = 0;
  uint64_t seq_rewritten = 0;
  uint64_t seq_dropped = 0;
  uint64_t svc_suppressed = 0;
  uint64_t remb_filtered = 0;
  uint64_t remb_forwarded = 0;
  uint64_t dt_changes = 0;  // adaptation events
  uint64_t filter_flips = 0;
  uint64_t trees_built = 0;
  uint64_t tree_migrations = 0;
  uint64_t agent_cpu_packets = 0;
  uint64_t blackholed = 0;
  uint64_t placements_rebalanced = 0;  // fleet meeting migrations

  // Control-plane aggregates (southbound commands, northbound telemetry,
  // failure detection, load rebalancing). Rendered as a CSV section only
  // when `control_plane` is set — on multi-switch backends and whenever
  // the spec configured WithControlPlane/WithRebalance — so the default
  // single-switch CSV stays byte-identical to the pre-channel pin.
  bool control_plane = false;
  testbed::ControlPlaneCounters control;

  // Cascaded-placement aggregates (relay spans, inter-switch media,
  // cross-switch decode-target switches). Rendered as a `cascade,...`
  // CSV section on multi-switch backends; zeros when nothing spanned.
  testbed::CascadeCounters cascade;

  // East-west federation aggregates (controller peering, directory
  // traffic, shard adoption). Rendered as a `federation,...` CSV section
  // only when `federation.configured` — fleet{N,R>1} — so single-region
  // fleet goldens stay byte-identical.
  testbed::FederationCounters federation;

  // The modeled inter-switch backbone: per-link latency/capacity/load and
  // crossing traffic, the relay-tree depth histogram, worst utilization.
  // Rendered as a `topology,...` CSV section only when the spec declared
  // links (`configured`), so default full-mesh fleet CSVs stay
  // byte-identical to the pinned goldens.
  testbed::TopologySnapshot topology;

  // Workload-generator section (roaming participants): rendered only when
  // the spec roamed anyone (`workload`), so every roam-free scenario's
  // CSV keeps its exact bytes.
  bool workload = false;
  uint64_t roams_executed = 0;   // roams that found their peer present
  uint64_t roam_rehomings = 0;   // rejoins completed via the new region

  // Redundancy section (dual relay trees / hitless migration): rendered
  // only when the spec configured either (`redundancy.configured`), so
  // every unprotected scenario's CSV keeps its exact bytes.
  testbed::RedundancyCounters redundancy;
  // Hitless-migration audit (runner-side): frames lost across audited
  // make-before-break moves (expected 0) and moves audited.
  uint64_t hitless_frames_lost = 0;
  uint64_t hitless_moves_measured = 0;

  // Observability section (structured event tracing): rendered only when
  // the spec enabled WithTrace (`trace_configured`), so every untraced
  // scenario's CSV keeps its exact bytes.
  bool trace_configured = false;
  uint64_t trace_events = 0;   // total emitted, before any ring eviction
  uint64_t trace_evicted = 0;  // dropped by the flight-recorder ring

  // The scalar sections (aggregate, fleet, cascade, topology, control,
  // federation, workload, redundancy, obs) are declared once in
  // metrics.cpp; all three views below render from that declaration
  // under the same gates.
  //
  // Byte-stable rendering: identical spec + seed => identical string.
  std::string ToCsv() const;
  // Human-oriented digest for benches/examples: a lead line naming spec,
  // backend and seed, then one "<section>: <column>=<value> ..." line per
  // section the CSV rendered.
  std::string Summary() const;
  // Publishes every numeric scalar the CSV rendered as
  // "<section>.<column>" into the unified stats registry the trace
  // exporter embeds.
  void RegisterInto(obs::StatsRegistry& registry) const;

  // Lowest min_frames_decoded over peers present at the end with at least
  // one active stream (the scenario-matrix starvation assertion).
  uint64_t WorstDeliveryFloor() const;
  // Sum of decoder breaks + conflicting duplicates over all streams (the
  // gap-free sequence-rewriting assertion).
  uint64_t RewriteViolations() const;
};

}  // namespace scallop::harness
