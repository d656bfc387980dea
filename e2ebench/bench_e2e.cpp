// bench_e2e — the repo benchmark: whole scenarios through the public
// ScenarioRunner, timed end to end, plus a traced run that splits the wall
// time across layers from the outside.
//
//   bench_e2e <workload> --seed N [--seconds S] [--traced]
//
// Loop shape: a closed loop with one caller. One process runs one workload
// on one thread; the runner is advanced in 50 ms simulated steps through
// runner.backend().sched().RunUntil() — the same call every backend's
// RunUntil makes — and the next step starts when the previous one returns.
// Inside the simulation the peers are open-loop media sources on simulated
// time. Each rep runs the workload's whole fixed-length scenario; reps
// repeat until the --seconds budget is spent (at least three untraced), so
// a faster build runs more reps of the same work rather than different
// work.
//
// Untraced (default), the end-to-end metrics, all from the per-step median
// profile (each step's median wall time over reps):
//   sim_s_per_wall_s  simulated seconds per wall second of the profile
//   step_ms_p50/p95   percentiles of the profile (p95 keeps >= 10 steps
//                     beyond it; the step count is printed)
//   setup_s           ScenarioRunner construction, median of 21
//   peak_rss_mb       ru_maxrss of this process (one workload per process)
// --traced: the per-layer metrics. Each switch's pipeline program is
// swapped for a timing shim that forwards to its DataPlaneProgram, and its
// CPU handler for one that forwards to its SwitchAgent; untraced and traced
// reps alternate (so the tracing overhead is measured, not assumed), one
// extra one-shot Run() checks that stepping changes nothing, and the spans
// (setup, one per step, collect) plus per-step counter tracks are written
// once at exit to <workload>.bench_trace.json.
//
// Output checks, every rep: no rewrite violation, no starved present peer,
// no frame lost across a hitless move, the workload's mechanism fired, and
// one fingerprint across reps, traced vs untraced, and stepped vs one-shot.
// Every metric prints as "<workload> <metric> <value> <unit>"; the last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// BENCH_e2e_<workload>[_layers].json (scallop-bench-v1) lands in
// $SCALLOP_BENCH_DIR. Exit status 1 when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/fingerprint.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"
#include "obs/trace.hpp"
#include "perf_report.hpp"
#include "testbed/fleet_testbed.hpp"
#include "testbed/testbed.hpp"

namespace {

using namespace scallop;
using Clock = std::chrono::steady_clock;

constexpr util::DurationUs kStep = util::Millis(50);
constexpr int kSetupConstructions = 21;
// Untraced reps per run at least: the per-step median needs three.
constexpr size_t kMinReps = 3;

int64_t NsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
      .count();
}

int64_t NsSince(Clock::time_point t0) { return NsBetween(t0, Clock::now()); }

double SecondsSince(Clock::time_point t0) {
  return static_cast<double>(NsSince(t0)) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------- workloads
//
// The four workloads vary what the forwarding path depends on — fan-out,
// meeting count, churn and control-plane events — so that each layer has a
// workload that stresses it and one that bypasses it. Sizes keep every
// operating point valid (no oversubscribed downlink, no starved peer); see
// README.md for the points that were rejected and why.

struct Workload {
  const char* name;
  double duration_s;
  harness::ScenarioSpec (*make)(const char* name, uint64_t seed,
                                double duration_s);
};

// 6 meetings x 8 on the single switch: ~6 replicas per uplink packet, so
// the PRE, DataPlane egress and the peers' receive path carry the work.
harness::ScenarioSpec ScallopFanout(const char* name, uint64_t seed,
                                    double duration_s) {
  return harness::ScenarioSpec::Uniform(name, 6, 8, duration_s, seed);
}

// The same spec on the software SFU: peers, links and scheduler are
// identical, switchsim/DataPlane/SwitchAgent are bypassed.
harness::ScenarioSpec SoftwareFanout(const char* name, uint64_t seed,
                                     double duration_s) {
  harness::ScenarioSpec spec = ScallopFanout(name, seed, duration_s);
  spec.WithBackend(testbed::BackendChoice::Software());
  return spec;
}

// Scale-out: 216 peers in 72 three-party meetings over fleet{12}; ~2
// replicas per packet, the highest ingress count and timer load.
harness::ScenarioSpec FleetSmallMeetings(const char* name, uint64_t seed,
                                         double duration_s) {
  harness::ScenarioSpec spec =
      harness::ScenarioSpec::Uniform(name, 72, 3, duration_s, seed);
  spec.base.peer.encoder.start_bitrate_bps = 700'000;
  spec.WithBackend(testbed::BackendChoice::Fleet(12));
  return spec;
}

// The one workload where conduits, fleet and federation controllers,
// placement and obs work mid-run: diurnal churn, roaming, a flash crowd,
// cascaded spans, the rebalancer and a controller death just past half
// time.
harness::ScenarioSpec FleetChurnDrill(const char* name, uint64_t seed,
                                      double duration_s) {
  harness::WorkloadSpec w;
  w.name = name;
  w.seed = seed;
  w.duration_s = duration_s;
  w.WithBackend(testbed::BackendChoice::Fleet(6, 2))
      .WithGrid(24, 5)
      .WithDiurnal(6.0, 12.0, 0.25, 0.4)
      .WithFollowTheSun()
      .WithRoaming(4, 0.6)
      .WithFlashCrowd(1, 3)
      .WithControlPlane(0.001, 0.0)
      .WithPlacementPolicy(core::PlacementPolicyConfig::Cascade(4));
  harness::ScenarioSpec spec = w.Compile();
  // The controller dies after every join and half a rebalance interval
  // past a tick: a join or re-signal that reaches the dead region before
  // its shard is adopted makes FederatedControlPlane::Join throw.
  spec.WithRebalance(1.0, 2)
      .WithControllerFailure(0.5 * duration_s + 0.5, 1)
      .WithTrace(4096);
  return spec;
}

// Short scenarios, so that a run repeats each several times, which keeps
// the per-step medians steady on a shared host. 10 s covers the joins, the
// bitrate ramp and one periodic key-frame round. The drill runs 20 s with
// its joins in the first quarter, so most steps see the full population
// and its step percentiles do not hinge on the seed's join curve.
constexpr Workload kWorkloads[] = {
    {"scallop-fanout", 10.0, ScallopFanout},
    {"software-fanout", 10.0, SoftwareFanout},
    {"fleet-small-meetings", 10.0, FleetSmallMeetings},
    {"fleet-churn-drill", 20.0, FleetChurnDrill},
};

// ------------------------------------------------------------ layer probe

struct SwitchNode {
  switchsim::Switch* sw = nullptr;
  core::DataPlaneProgram* dp = nullptr;
  core::SwitchAgent* agent = nullptr;
};

// Every (switch, data plane, agent) triple of the runner's backend; empty
// on the software SFU, which has none.
std::vector<SwitchNode> SwitchNodes(harness::ScenarioRunner& runner) {
  std::vector<SwitchNode> nodes;
  testbed::Backend& backend = runner.backend();
  if (auto* fleet = dynamic_cast<testbed::FleetTestbed*>(&backend)) {
    for (size_t i = 0; i < fleet->switch_count(); ++i) {
      nodes.push_back({&fleet->sw(i), &fleet->dataplane(i), &fleet->agent(i)});
    }
  } else if (auto* bed = dynamic_cast<testbed::ScallopTestbed*>(&backend)) {
    nodes.push_back({&bed->sw(), &bed->dataplane(), &bed->agent()});
  }
  return nodes;
}

struct LayerCounters {
  uint64_t ingress_calls = 0;
  uint64_t egress_calls = 0;
  uint64_t egress_dropped = 0;  // Egress returned false
  uint64_t cpu_calls = 0;
  int64_t ingress_ns = 0;
  int64_t egress_ns = 0;
  int64_t cpu_ns = 0;

  void Add(const LayerCounters& o) {
    ingress_calls += o.ingress_calls;
    egress_calls += o.egress_calls;
    egress_dropped += o.egress_dropped;
    cpu_calls += o.cpu_calls;
    ingress_ns += o.ingress_ns;
    egress_ns += o.egress_ns;
    cpu_ns += o.cpu_ns;
  }
};

// Pipeline program that times each call into the real data plane.
class TimedProgram final : public switchsim::PipelineProgram {
 public:
  TimedProgram(core::DataPlaneProgram& dp, LayerCounters& counters)
      : dp_(dp), c_(counters) {}

  void Ingress(const net::Packet& pkt,
               switchsim::PacketMetadata& meta) override {
    const Clock::time_point t0 = Clock::now();
    dp_.Ingress(pkt, meta);
    c_.ingress_ns += NsSince(t0);
    ++c_.ingress_calls;
  }

  bool Egress(net::Packet& pkt, const switchsim::PacketMetadata& meta,
              const switchsim::Replica& replica) override {
    const Clock::time_point t0 = Clock::now();
    const bool forward = dp_.Egress(pkt, meta, replica);
    c_.egress_ns += NsSince(t0);
    ++c_.egress_calls;
    if (!forward) ++c_.egress_dropped;
    return forward;
  }

 private:
  core::DataPlaneProgram& dp_;
  LayerCounters& c_;
};

// Interposes on every switch of a runner: DataPlane calls go through a
// TimedProgram, CPU-port packets through a timed call into the agent. The
// destructor restores the original wiring; the probe must be destroyed
// before the runner it was attached to.
class LayerProbe {
 public:
  explicit LayerProbe(harness::ScenarioRunner& runner)
      : nodes_(SwitchNodes(runner)) {
    for (const SwitchNode& node : nodes_) {
      programs_.push_back(std::make_unique<TimedProgram>(*node.dp, c_));
      node.sw->SetProgram(programs_.back().get());
      core::SwitchAgent* agent = node.agent;
      node.sw->SetCpuHandler([this, agent](net::PacketPtr pkt) {
        const Clock::time_point t0 = Clock::now();
        agent->OnCpuPacket(std::move(pkt));
        c_.cpu_ns += NsSince(t0);
        ++c_.cpu_calls;
      });
    }
  }
  ~LayerProbe() {
    for (const SwitchNode& node : nodes_) {
      node.sw->SetProgram(node.dp);
      core::SwitchAgent* agent = node.agent;
      node.sw->SetCpuHandler(
          [agent](net::PacketPtr pkt) { agent->OnCpuPacket(std::move(pkt)); });
    }
  }
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  const LayerCounters& counters() const { return c_; }
  const std::vector<SwitchNode>& nodes() const { return nodes_; }

 private:
  std::vector<SwitchNode> nodes_;
  std::vector<std::unique_ptr<TimedProgram>> programs_;
  LayerCounters c_;
};

// ------------------------------------------------------------ bench trace

// Chrome trace-event spans and counters, kept in memory and written once.
class BenchTrace {
 public:
  void Span(const char* name, int64_t start_ns, int64_t dur_ns) {
    events_.push_back(Format(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"dur\":%.3f}",
        name, static_cast<double>(start_ns) / 1e3,
        static_cast<double>(dur_ns) / 1e3));
  }
  void Counter(const char* name, int64_t at_ns, double value) {
    events_.push_back(Format(
        "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":2,\"ts\":%.3f,"
        "\"args\":{\"value\":%.17g}}",
        name, static_cast<double>(at_ns) / 1e3, value));
  }
  std::string ToJson(const std::string& process) const {
    std::string out =
        "{\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
        "\"pid\":1,\"tid\":0,\"args\":{\"name\":\"" +
        process +
        "\"}},\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":\"spans\"}},\n{\"name\":\"thread_name\",\"ph\":"
        "\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"counters\"}}";
    for (const std::string& e : events_) out += ",\n" + e;
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
  }

 private:
  template <typename... Args>
  static std::string Format(const char* fmt, Args... args) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
  }
  std::vector<std::string> events_;
};

// ------------------------------------------------------------------- reps

struct Rep {
  double wall_s = 0.0;  // sum of step wall times
  std::vector<double> step_ms;
  std::vector<double> pending;  // traced: sched().pending() after each step
  uint64_t events = 0;
  double collect_ms = 0.0;
  uint64_t fingerprint = 0;
  harness::ScenarioMetrics metrics;
  uint64_t rtp_sent = 0;
  size_t switches = 0;  // switch nodes in the backend
  // Traced only.
  LayerCounters layers;
  switchsim::SwitchStats sw;
};

// Runs one rep of `spec` in kStep steps. `traced` attaches the layer
// probe; a non-null `trace` also records spans and counters relative to
// `epoch`.
Rep RunStepped(const harness::ScenarioSpec& spec, bool traced,
               BenchTrace* trace, Clock::time_point epoch) {
  Rep rep;
  const Clock::time_point t_setup = Clock::now();
  harness::ScenarioRunner runner(spec);
  if (trace != nullptr) {
    trace->Span("setup", NsBetween(epoch, t_setup), NsSince(t_setup));
  }
  std::optional<LayerProbe> probe;
  if (traced) probe.emplace(runner);
  rep.switches = SwitchNodes(runner).size();

  sim::Scheduler& sched = runner.backend().sched();
  const util::TimeUs end = util::Seconds(spec.duration_s);
  rep.step_ms.reserve(static_cast<size_t>(end / kStep) + 1);
  LayerCounters before;
  for (util::TimeUs t = kStep;; t += kStep) {
    const util::TimeUs until = std::min(t, end);
    const Clock::time_point t0 = Clock::now();
    rep.events += sched.RunUntil(until);
    const int64_t ns = NsSince(t0);
    rep.step_ms.push_back(static_cast<double>(ns) * 1e-6);
    if (traced) rep.pending.push_back(static_cast<double>(sched.pending()));
    if (trace != nullptr) {
      const int64_t start = NsBetween(epoch, t0);
      trace->Span("step", start, ns);
      const LayerCounters& now = probe->counters();
      const int64_t at = start + ns;
      trace->Counter("sim.pending", at, rep.pending.back());
      trace->Counter("dataplane.step_ns", at,
                     static_cast<double>(now.ingress_ns + now.egress_ns -
                                         before.ingress_ns -
                                         before.egress_ns));
      trace->Counter("agent.step_ns", at,
                     static_cast<double>(now.cpu_ns - before.cpu_ns));
      trace->Counter("dataplane.egress_calls", at,
                     static_cast<double>(now.egress_calls -
                                         before.egress_calls));
      before = now;
    }
    if (until == end) break;
  }
  for (double ms : rep.step_ms) rep.wall_s += ms * 1e-3;

  const Clock::time_point t_collect = Clock::now();
  rep.metrics = runner.Collect();
  const std::string csv = rep.metrics.ToCsv();
  const int64_t collect_ns = NsSince(t_collect);
  rep.collect_ms = static_cast<double>(collect_ns) * 1e-6;
  rep.fingerprint = harness::ScenarioFingerprint::Fold(csv);
  if (trace != nullptr) {
    trace->Span("collect", NsBetween(epoch, t_collect), collect_ns);
  }

  for (const auto& peer : runner.backend().peers()) {
    rep.rtp_sent += peer->stats().rtp_sent;
  }
  if (probe.has_value()) {
    rep.layers = probe->counters();
    for (const SwitchNode& node : probe->nodes()) {
      const switchsim::SwitchStats& s = node.sw->stats();
      rep.sw.packets_in += s.packets_in;
      rep.sw.packets_to_cpu += s.packets_to_cpu;
      rep.sw.replicas += s.replicas;
    }
  }
  return rep;
}

uint64_t OneShotFingerprint(const harness::ScenarioSpec& spec) {
  harness::ScenarioRunner runner(spec);
  return harness::ScenarioFingerprint::Of(runner.Run());
}

// Median ScenarioRunner construction time; each runner is destroyed
// outside the timed region.
double MedianSetupSeconds(const harness::ScenarioSpec& spec) {
  std::vector<double> s;
  for (int i = 0; i < kSetupConstructions; ++i) {
    std::optional<harness::ScenarioRunner> runner;
    const Clock::time_point t0 = Clock::now();
    runner.emplace(spec);
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

// ----------------------------------------------------------------- checks

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

// The scenario invariants plus proof that the workload's mechanism fired.
// Returns whether this rep passed.
bool CheckRep(const Workload& w, const Rep& rep, Checks& checks) {
  const harness::ScenarioMetrics& m = rep.metrics;
  bool ok = true;
  auto expect = [&](bool cond, const std::string& what) {
    checks.Expect(cond, std::string(w.name) + ": " + what);
    ok = ok && cond;
  };
  expect(m.RewriteViolations() == 0,
         "rewrite violations = " + std::to_string(m.RewriteViolations()));
  bool starved = false;
  for (const harness::PeerMetrics& p : m.peers) {
    starved = starved || (p.present_at_end && p.active_streams > 0 &&
                          p.min_frames_decoded == 0);
  }
  expect(!starved, "a present peer starved");
  expect(m.hitless_frames_lost == 0,
         "hitless frames lost = " + std::to_string(m.hitless_frames_lost));
  expect(m.WorstDeliveryFloor() >= 10,
         "delivery floor = " + std::to_string(m.WorstDeliveryFloor()));

  const std::string name = w.name;
  if (name == "scallop-fanout") {
    const double rpp = Ratio(static_cast<double>(m.switch_replicas),
                             static_cast<double>(m.switch_packets_in));
    expect(rep.switches == 1 && rpp >= 5.0,
           "replicas per switch packet = " + std::to_string(rpp) +
               " (want >= 5)");
  } else if (name == "software-fanout") {
    expect(rep.switches == 0 && rep.layers.ingress_calls == 0 &&
               rep.layers.egress_calls == 0,
           "the software SFU run reached a switch data plane");
  } else if (name == "fleet-small-meetings") {
    bool all_host = m.switches.size() == 12;
    for (const testbed::SwitchStatus& s : m.switches) {
      all_host = all_host && s.meetings > 0;
    }
    expect(all_host, "not all 12 switches host meetings");
  } else if (name == "fleet-churn-drill") {
    expect(m.federation.shards_adopted == 1,
           "shards adopted = " + std::to_string(m.federation.shards_adopted));
    expect(m.control.rebalance_migrations > 0, "no rebalance migration");
    expect(m.cascade.spans_installed > 0, "no relay span installed");
    expect(m.roam_rehomings > 0, "no roam re-homed");
  }
  return ok;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

void Emit(const Workload& w, const std::vector<Metric>& metrics, bool correct,
          int attempted, int failed, const std::string& area) {
  bench::PerfReport report(area);
  for (const Metric& m : metrics) {
    std::printf("%s %s %s %s\n", w.name, m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str());
    report.AddMetric(m.name, m.value, m.unit, m.name == "sim_s_per_wall_s");
  }
  report.AddParam("duration_s", w.duration_s);
  report.AddParam("reps", attempted);
  const std::string path = report.WriteJson();
  if (path.empty()) std::fprintf(stderr, "could not write BENCH json\n");

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string OutputDir() {
  const char* dir = std::getenv("SCALLOP_BENCH_DIR");
  return dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "";
}

// --------------------------------------------------------------- modes

int RunUntraced(const Workload& w, const harness::ScenarioSpec& spec,
                double budget_s) {
  Checks checks;
  const double setup_s = MedianSetupSeconds(spec);

  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  double rep_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    reps.push_back(RunStepped(spec, false, nullptr, start));
    rep_s = SecondsSince(t0);
  } while (reps.size() < kMinReps || SecondsSince(start) + rep_s <= budget_s);

  int failed = 0;
  for (const Rep& rep : reps) {
    if (!CheckRep(w, rep, checks)) ++failed;
    checks.Expect(rep.fingerprint == reps.front().fingerprint,
                  "fingerprint differs across reps");
  }
  // Every rep does identical work step by step, so the median over reps of
  // each step's time keeps the program's own bursts (joins, migrations,
  // the controller death) and drops host hiccups that hit a single rep.
  std::vector<double> profile(reps.front().step_ms.size());
  std::vector<double> samples;
  for (size_t k = 0; k < profile.size(); ++k) {
    samples.clear();
    for (const Rep& rep : reps) samples.push_back(rep.step_ms[k]);
    profile[k] = Median(samples);
  }
  double profile_s = 0.0;
  for (double ms : profile) profile_s += ms * 1e-3;
  std::printf("%s reps %zu, %zu steps of %.0f ms, %llu events per rep, "
              "fingerprint %s\n",
              w.name, reps.size(), profile.size(), util::ToMillis(kStep),
              static_cast<unsigned long long>(reps.front().events),
              harness::ScenarioFingerprint::Hex(reps.front().fingerprint)
                  .c_str());
  const std::vector<Metric> metrics = {
      {"sim_s_per_wall_s", spec.duration_s / profile_s, "sim-s/wall-s"},
      {"step_ms_p50", Median(profile), "ms"},
      {"step_ms_p95", Percentile(profile, 95.0), "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  Emit(w, metrics, checks.ok(), static_cast<int>(reps.size()), failed,
       std::string("e2e_") + w.name);
  return checks.ok() ? 0 : 1;
}

int RunTraced(const Workload& w, const harness::ScenarioSpec& spec,
              double budget_s) {
  Checks checks;
  const Clock::time_point start = Clock::now();
  const uint64_t one_shot = OneShotFingerprint(spec);

  // Untraced and traced reps alternate so both see the same machine state;
  // the spans of the first traced rep go to the trace file.
  BenchTrace trace;
  std::vector<Rep> plain, traced;
  double pair_s = 0.0;
  do {
    const Clock::time_point t0 = Clock::now();
    plain.push_back(RunStepped(spec, false, nullptr, start));
    traced.push_back(
        RunStepped(spec, true, traced.empty() ? &trace : nullptr, start));
    pair_s = SecondsSince(t0);
  } while (SecondsSince(start) + pair_s <= budget_s);

  int failed = 0;
  std::vector<double> overhead, collect_ms;
  LayerCounters layers;
  double traced_wall = 0.0;
  for (size_t i = 0; i < traced.size(); ++i) {
    if (!CheckRep(w, plain[i], checks)) ++failed;
    if (!CheckRep(w, traced[i], checks)) ++failed;
    checks.Expect(plain[i].fingerprint == one_shot,
                  "stepped fingerprint differs from one-shot Run()");
    checks.Expect(traced[i].fingerprint == one_shot,
                  "traced fingerprint differs from untraced");
    overhead.push_back(traced[i].wall_s / plain[i].wall_s - 1.0);
    collect_ms.push_back(traced[i].collect_ms);
    layers.Add(traced[i].layers);
    traced_wall += traced[i].wall_s;
  }

  const Rep& r = traced.front();  // counts are identical across reps
  const harness::ScenarioMetrics& m = r.metrics;
  const double dp_share = Ratio(
      static_cast<double>(layers.ingress_ns + layers.egress_ns) * 1e-9,
      traced_wall);
  const double agent_share =
      Ratio(static_cast<double>(layers.cpu_ns) * 1e-9, traced_wall);
  uint64_t decoded = 0, undecodable = 0, received = 0, nacks = 0;
  for (const harness::StreamMetrics& s : m.streams) {
    decoded += s.frames_decoded;
    undecodable += s.frames_undecodable;
    received += s.packets_received;
    nacks += s.nacks_sent;
  }
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  const double ingress_calls = count(r.layers.ingress_calls);
  const double egress_calls = count(r.layers.egress_calls);
  const std::vector<Metric> metrics = {
      {"dataplane.ingress_calls", ingress_calls, "count"},
      {"dataplane.ingress_ns", Ratio(count(layers.ingress_ns),
                                     count(layers.ingress_calls)), "ns"},
      {"dataplane.egress_calls", egress_calls, "count"},
      {"dataplane.egress_ns", Ratio(count(layers.egress_ns),
                                    count(layers.egress_calls)), "ns"},
      {"dataplane.egress_per_ingress", Ratio(egress_calls, ingress_calls),
       "ratio"},
      {"dataplane.busy_share", dp_share, "fraction"},
      {"dataplane.egress_drop_frac",
       Ratio(count(r.layers.egress_dropped), egress_calls), "fraction"},
      {"dataplane.seq_rewritten", count(m.seq_rewritten), "count"},
      {"dataplane.svc_suppressed", count(m.svc_suppressed), "count"},
      {"switch.packets_in", count(r.sw.packets_in), "count"},
      {"switch.replicas_per_packet",
       Ratio(count(r.sw.replicas), count(r.sw.packets_in)), "ratio"},
      {"switch.packets_to_cpu", count(r.sw.packets_to_cpu), "count"},
      {"agent.cpu_calls", count(r.layers.cpu_calls), "count"},
      {"agent.cpu_ns", Ratio(count(layers.cpu_ns), count(layers.cpu_calls)),
       "ns"},
      {"agent.busy_share", agent_share, "fraction"},
      {"agent.dt_changes", count(m.dt_changes), "count"},
      {"sim.events", count(r.events), "count"},
      {"sim.pending_p50", Median(r.pending), "count"},
      {"sim.pending_max",
       r.pending.empty() ? 0.0
                         : *std::max_element(r.pending.begin(),
                                             r.pending.end()),
       "count"},
      {"sim.blackholed", count(m.blackholed), "count"},
      {"client.rtp_sent", count(r.rtp_sent), "count"},
      {"client.packets_received", count(received), "count"},
      {"client.frames_decoded", count(decoded), "count"},
      {"client.frames_undecodable_frac",
       Ratio(count(undecodable), count(decoded + undecodable)), "fraction"},
      {"client.nacks_sent", count(nacks), "count"},
      {"control.commands_sent", count(m.control.commands_sent), "count"},
      {"control.commands_retransmitted",
       count(m.control.commands_retransmitted), "count"},
      {"federation.messages_sent", count(m.federation.messages_sent),
       "count"},
      {"fleet.placements_rebalanced", count(m.placements_rebalanced),
       "count"},
      {"cascade.spans_installed", count(m.cascade.spans_installed), "count"},
      {"obs.trace_events", count(m.trace_events), "count"},
      {"harness.collect_ms", Median(collect_ms), "ms"},
      {"unattributed.busy_share", 1.0 - dp_share - agent_share, "fraction"},
      {"trace_overhead_frac", Median(overhead), "fraction"},
  };

  const std::string json = trace.ToJson(std::string("bench_e2e ") + w.name);
  std::string error;
  checks.Expect(obs::TraceLog::ValidateChromeTrace(json, &error),
                std::string("bench trace invalid: ") + error);
  const std::string path = OutputDir() + w.name + ".bench_trace.json";
  std::ofstream(path) << json;
  std::printf("%s traced reps %zu, trace %s, fingerprint %s\n", w.name,
              traced.size(), path.c_str(),
              harness::ScenarioFingerprint::Hex(one_shot).c_str());

  Emit(w, metrics, checks.ok(), static_cast<int>(2 * traced.size()), failed,
       std::string("e2e_") + w.name + "_layers");
  return checks.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e <workload> --seed N [--seconds S] "
               "[--traced]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(argv[1], w.name) == 0) workload = &w;
  }
  if (workload == nullptr) return Usage();

  std::optional<uint64_t> seed;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if (!seed.has_value()) return Usage();

  const harness::ScenarioSpec spec =
      workload->make(workload->name, *seed, workload->duration_s);
  return traced ? RunTraced(*workload, spec, seconds)
                : RunUntraced(*workload, spec, seconds);
}
