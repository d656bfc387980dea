#include "harness/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "obs/stats_registry.hpp"

namespace scallop::harness {

namespace {

// All doubles are rendered with fixed precision so the byte-stability
// guarantee does not depend on locale or shortest-round-trip formatting.
void Row(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

// One scalar of a metrics section. Its CSV column name is also its
// Summary key and its registry name (`<section>.<column>`).
struct Field {
  enum class Kind { kCount, kRatio, kLabel };
  const char* column;
  Kind kind;
  uint64_t count = 0;
  double ratio = 0.0;
  const char* label = "";
  // The CSV column appears only when nonzero: a counter added after the
  // goldens were pinned, kept out of every run that never moves it.
  bool csv_if_nonzero = false;
};

Field Count(const char* column, uint64_t value, bool csv_if_nonzero = false) {
  return {column, Field::Kind::kCount, value, 0.0, "", csv_if_nonzero};
}
Field Ratio(const char* column, double value) {
  return {column, Field::Kind::kRatio, 0, value};
}
// Labels render in the CSV and Summary; the registry holds numbers only.
Field Label(const char* column, const std::string& value) {
  return {column, Field::Kind::kLabel, 0, 0.0, value.c_str()};
}

std::string Cell(const Field& f) {
  char buf[32];
  switch (f.kind) {
    case Field::Kind::kCount:
      snprintf(buf, sizeof(buf), "%" PRIu64, f.count);
      break;
    case Field::Kind::kRatio:
      snprintf(buf, sizeof(buf), "%.4f", f.ratio);
      break;
    case Field::Kind::kLabel:
      return f.label;
  }
  return buf;
}

using Renderer = void (*)(const ScenarioMetrics&, std::string&);

// One scalar section, declared once: the CSV, Summary() and RegisterInto
// all render from it, under the same gate.
struct Section {
  const char* name;
  bool rendered;
  // CSV shape: one "<name>,<col>,<val>,..." row, or a header row naming
  // the columns followed by one value row.
  bool key_value;
  std::vector<Field> fields;
  // List tables the CSV prints right after this section's scalars.
  Renderer csv_tables = nullptr;
  // Appended to this section's Summary line.
  Renderer summary_tail = nullptr;
};

void FleetTables(const ScenarioMetrics& m, std::string& out) {
  Row(out,
      "switch,index,alive,meetings,participants,packets_in,packets_out,"
      "replicas\n");
  for (const auto& s : m.switches) {
    Row(out, "switch,%d,%d,%d,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
        s.index, s.alive ? 1 : 0, s.meetings, s.participants, s.packets_in,
        s.packets_out, s.replicas);
  }
  Row(out, "placement,meeting_index,switch,spans\n");
  for (const auto& mm : m.meetings) {
    Row(out, "placement,%d,%d,%d\n", mm.index, mm.placement, mm.spans);
  }
}

void SwitchLoads(const ScenarioMetrics& m, std::string& out) {
  out += "; load:";
  for (const auto& s : m.switches) {
    Row(out, " s%d=%d%s", s.index, s.participants, s.alive ? "" : "(down)");
  }
}

void TopologyTables(const ScenarioMetrics& m, std::string& out) {
  Row(out,
      "toplink,a,b,latency_ms,capacity_bps,load_bps,utilization,"
      "relay_packets,relay_bytes\n");
  for (const auto& l : m.topology.links) {
    Row(out, "toplink,%zu,%zu,%.2f,%.0f,%.0f,%.4f,%" PRIu64 ",%" PRIu64 "\n",
        l.a, l.b, l.latency_s * 1e3, l.capacity_bps, l.load_bps,
        l.utilization, l.relay_packets, l.relay_bytes);
  }
  Row(out, "treedepth,depth,meetings\n");
  for (size_t d = 0; d < m.topology.depth_histogram.size(); ++d) {
    Row(out, "treedepth,%zu,%d\n", d, m.topology.depth_histogram[d]);
  }
}

// Every scalar section in CSV order. Each gate keeps a pre-existing CSV
// byte-identical: multi-switch sections only on fleets, the rest only when
// the spec configured the feature they count.
std::vector<Section> Sections(const ScenarioMetrics& m) {
  const bool fleet = !m.switches.empty();
  const testbed::ControlPlaneCounters& c = m.control;
  const testbed::FederationCounters& f = m.federation;
  const testbed::RedundancyCounters& r = m.redundancy;
  return {
      {"aggregate", true, false,
       {Count("switch_in", m.switch_packets_in),
        Count("switch_out", m.switch_packets_out),
        Count("replicas", m.switch_replicas),
        Count("seq_rewritten", m.seq_rewritten),
        Count("seq_dropped", m.seq_dropped),
        Count("svc_suppressed", m.svc_suppressed),
        Count("remb_filtered", m.remb_filtered),
        Count("remb_forwarded", m.remb_forwarded),
        Count("dt_changes", m.dt_changes),
        Count("filter_flips", m.filter_flips),
        Count("trees_built", m.trees_built),
        Count("migrations", m.tree_migrations),
        Count("cpu_packets", m.agent_cpu_packets),
        Count("blackholed", m.blackholed)}},
      {"fleet", fleet, true,
       {Label("backend", m.backend),
        Count("placements_rebalanced", m.placements_rebalanced)},
       FleetTables, SwitchLoads},
      {"cascade", fleet, false,
       {Count("spans_installed", m.cascade.spans_installed),
        Count("spans_removed", m.cascade.spans_removed),
        Count("relay_packets", m.cascade.relay_packets),
        Count("relay_bytes", m.cascade.relay_bytes),
        Count("relay_dt_changes", m.cascade.relay_dt_changes)}},
      {"topology", m.topology.configured, true,
       {Count("links", m.topology.links.size()),
        Ratio("max_utilization", m.topology.max_utilization),
        Count("max_depth", m.topology.max_depth),
        Count("replans", m.topology.relay_replans)},
       TopologyTables},
      {"control", m.control_plane, false,
       {Count("commands_sent", c.commands_sent),
        Count("commands_applied", c.commands_applied),
        Count("commands_dropped", c.commands_dropped),
        Count("events_sent", c.events_sent),
        Count("events_delivered", c.events_delivered),
        Count("events_dropped", c.events_dropped),
        Count("heartbeats_seen", c.heartbeats_seen),
        Count("heartbeats_missed", c.heartbeats_missed),
        Count("load_reports", c.load_reports_seen),
        Count("switches_failed", c.switches_failed),
        Count("rebalance_migrations", c.rebalance_migrations),
        Count("commands_retransmitted", c.commands_retransmitted,
              /*csv_if_nonzero=*/true)}},
      {"federation", f.configured, false,
       {Count("regions", static_cast<uint64_t>(f.regions)),
        Count("east_west_sent", f.messages_sent),
        Count("east_west_delivered", f.messages_delivered),
        Count("east_west_dropped", f.messages_dropped),
        Count("east_west_retransmitted", f.messages_retransmitted),
        Count("directory_lookups", f.directory_lookups),
        Count("remote_lookups", f.directory_lookups_remote),
        Count("announcements", f.directory_announcements),
        Count("border_spans", f.border_spans),
        Count("controller_heartbeats", f.controller_heartbeats_seen),
        Count("controller_misses", f.controller_heartbeats_missed),
        Count("controllers_failed", f.controllers_failed),
        Count("shards_adopted", f.shards_adopted),
        Count("meetings_adopted", f.meetings_adopted)}},
      {"workload", m.workload, true,
       {Count("roams_executed", m.roams_executed),
        Count("roam_rehomings", m.roam_rehomings)}},
      {"redundancy", r.configured, false,
       {Count("secondary_trees_installed", r.secondary_trees_installed),
        Count("secondary_trees_removed", r.secondary_trees_removed),
        Count("tree_flips", r.tree_flips),
        Count("relay_sources", r.relay_sources),
        Count("relay_promotions", r.relay_promotions),
        Count("redundant_relayed", r.redundant_relayed),
        Count("duplicates_eliminated", r.duplicates_eliminated),
        Count("hitless_migrations", r.hitless_migrations),
        Count("hitless_moves_measured", m.hitless_moves_measured),
        Count("hitless_frames_lost", m.hitless_frames_lost)}},
      {"obs", m.trace_configured, true,
       {Count("trace_events", m.trace_events),
        Count("trace_evicted", m.trace_evicted)}},
  };
}

void AppendCsv(const Section& s, std::string& out) {
  std::string header = s.name;
  std::string row = s.name;
  for (const Field& f : s.fields) {
    if (f.csv_if_nonzero && f.count == 0) continue;
    std::string& names = s.key_value ? row : header;
    names += ',';
    names += f.column;
    row += ',';
    row += Cell(f);
  }
  if (!s.key_value) out += header + "\n";
  out += row + "\n";
}

}  // namespace

std::string ScenarioMetrics::ToCsv() const {
  std::string out;
  Row(out, "scenario,%s,seed,%" PRIu64 ",duration_s,%.2f\n", scenario.c_str(),
      seed, duration_s);

  for (const Section& s : Sections(*this)) {
    if (!s.rendered) continue;
    AppendCsv(s, out);
    if (s.csv_tables != nullptr) s.csv_tables(*this, out);
  }

  Row(out, "meeting,index,id,final_design,participants_at_end\n");
  for (const auto& m : meetings) {
    Row(out, "meeting,%d,%u,%s,%d\n", m.index, m.id, m.final_design.c_str(),
        m.participants_at_end);
  }

  Row(out,
      "peer,meeting,index,id,profile,present,seconds,frames_sent,"
      "audio_rx,min_frames,max_frames,streams,breaks,conflicts\n");
  for (const auto& p : peers) {
    Row(out,
        "peer,%d,%d,%u,%s,%d,%.2f,%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%d,%" PRIu64 ",%" PRIu64 "\n",
        p.meeting, p.index, p.id, p.profile.c_str(), p.present_at_end ? 1 : 0,
        p.seconds_in_meeting, p.frames_sent, p.audio_packets_received,
        p.min_frames_decoded, p.max_frames_decoded, p.active_streams,
        p.total_decoder_breaks, p.total_conflicting_duplicates);
  }

  Row(out,
      "stream,meeting,receiver,receiver_id,sender_id,packets,bytes,"
      "decoded,undecodable,breaks,conflicts,nacks,recovered,freeze_ms,"
      "fps\n");
  for (const auto& s : streams) {
    Row(out,
        "stream,%d,%d,%u,%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.2f,%.2f\n",
        s.meeting, s.receiver, s.receiver_id, s.sender_id, s.packets_received,
        s.bytes_received, s.frames_decoded, s.frames_undecodable,
        s.decoder_breaks, s.conflicting_duplicates, s.nacks_sent,
        s.recovered_packets, s.freeze_ms, s.recent_fps);
  }

  Row(out, "sample,t_s,frames_decoded,seq_rewritten,dt_changes,migrations\n");
  for (const auto& t : timeline) {
    Row(out,
        "sample,%.2f,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
        t.t_s, t.frames_decoded_total, t.seq_rewritten, t.dt_changes,
        t.tree_migrations);
  }
  return out;
}

std::string ScenarioMetrics::Summary() const {
  std::string out;
  uint64_t decoded = 0;
  double freeze = 0.0;
  for (const auto& s : streams) {
    decoded += s.frames_decoded;
    freeze += s.freeze_ms;
  }
  // Spec label, backend and seed lead the digest: a fingerprint mismatch
  // in CI must be attributable to its exact (spec, backend, seed) point
  // from the log alone.
  Row(out,
      "[%s @ %s] seed=%" PRIu64 " %.0fs: %zu peers, %zu streams, %" PRIu64
      " frames decoded, floor=%" PRIu64 " frames, %" PRIu64
      " rewrite violations, %.0f ms total freeze\n",
      scenario.c_str(), backend.empty() ? "?" : backend.c_str(), seed,
      duration_s, peers.size(), streams.size(), decoded, WorstDeliveryFloor(),
      RewriteViolations(), freeze);
  for (const Section& s : Sections(*this)) {
    if (!s.rendered) continue;
    out += "    ";
    out += s.name;
    out += ':';
    for (const Field& f : s.fields) {
      out += ' ';
      out += f.column;
      out += '=';
      out += Cell(f);
    }
    if (s.summary_tail != nullptr) s.summary_tail(*this, out);
    out += "\n";
  }
  return out;
}

void ScenarioMetrics::RegisterInto(obs::StatsRegistry& registry) const {
  for (const Section& s : Sections(*this)) {
    if (!s.rendered) continue;
    for (const Field& f : s.fields) {
      if (f.kind == Field::Kind::kLabel) continue;
      std::string key = s.name;
      key += '.';
      key += f.column;
      registry.Set(key, f.kind == Field::Kind::kRatio
                            ? f.ratio
                            : static_cast<double>(f.count));
    }
  }
}

uint64_t ScenarioMetrics::WorstDeliveryFloor() const {
  uint64_t floor = UINT64_MAX;
  for (const auto& p : peers) {
    if (!p.present_at_end || p.active_streams == 0) continue;
    floor = std::min(floor, p.min_frames_decoded);
  }
  return floor == UINT64_MAX ? 0 : floor;
}

uint64_t ScenarioMetrics::RewriteViolations() const {
  uint64_t v = 0;
  for (const auto& s : streams) {
    v += s.decoder_breaks + s.conflicting_duplicates;
  }
  return v;
}

}  // namespace scallop::harness
