#include "harness/workload.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "trace/campus.hpp"
#include "util/random.hpp"

namespace scallop::harness {

namespace {

// Fixed-precision rendering (same discipline as ScenarioMetrics::ToCsv):
// DescribeSpec's byte-stability must not depend on locale or
// shortest-round-trip double formatting.
void Row(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out += buf;
}

void DescribeLink(std::string& out, const char* tag,
                  const sim::LinkConfig& l) {
  Row(out, " %s=%.0f/%" PRId64 "/%" PRId64 "/%.6f", tag, l.rate_bps,
      l.prop_delay, l.jitter_stddev, l.loss_rate);
}

}  // namespace

WorkloadSpec& WorkloadSpec::WithBackend(testbed::BackendChoice choice) {
  backend = choice;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithGrid(int n_meetings, int n_participants) {
  meetings = n_meetings;
  participants = n_participants;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithDiurnal(double day_start_h, double day_hours,
                                        double latest_join_frac,
                                        double churn_frac) {
  diurnal.enabled = true;
  diurnal.day_start_h = day_start_h;
  diurnal.day_hours = day_hours;
  diurnal.latest_join_frac = latest_join_frac;
  diurnal.churn_frac = churn_frac;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithFlashCrowd(int meeting, int extra,
                                           double at_frac, double width_frac) {
  flash_crowd.enabled = true;
  flash_crowd.meeting = meeting;
  flash_crowd.extra = extra;
  flash_crowd.at_frac = at_frac;
  flash_crowd.width_frac = width_frac;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithFollowTheSun() {
  follow_the_sun = true;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithRoaming(int roamers, double at_frac) {
  roaming.enabled = true;
  roaming.roamers = roamers;
  roaming.at_frac = at_frac;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithCapacityClasses(std::vector<double> classes) {
  capacity_classes = std::move(classes);
  return *this;
}

WorkloadSpec& WorkloadSpec::WithBackboneLink(int a, int b, double latency_s,
                                             double capacity_bps) {
  if (a < 0 || b < 0 || a == b) {
    throw std::invalid_argument(
        "WorkloadSpec: backbone link needs two distinct switch indices");
  }
  backbone.push_back(core::InterSwitchLinkSpec{
      static_cast<size_t>(a), static_cast<size_t>(b), latency_s,
      capacity_bps});
  return *this;
}

WorkloadSpec& WorkloadSpec::WithCorrelatedFailure(
    double at_frac, std::vector<std::pair<int, int>> links) {
  correlated_failure.enabled = true;
  correlated_failure.at_frac = at_frac;
  correlated_failure.links = std::move(links);
  return *this;
}

WorkloadSpec& WorkloadSpec::WithControlPlane(double latency_s, double loss) {
  control_latency_s = latency_s;
  control_loss = loss;
  return *this;
}

WorkloadSpec& WorkloadSpec::WithPlacementPolicy(
    core::PlacementPolicyConfig policy) {
  placement_policy = policy;
  return *this;
}

ScenarioSpec WorkloadSpec::Compile() const {
  if (meetings < 1 || participants < 1) {
    throw std::invalid_argument("WorkloadSpec '" + name +
                                "': needs at least one meeting with at "
                                "least one participant");
  }
  ScenarioSpec spec =
      ScenarioSpec::Uniform(name, meetings, participants, duration_s, seed);
  spec.sample_interval_s = sample_interval_s;
  spec.WithBackend(backend);
  spec.WithPlacementPolicy(placement_policy);
  if (control_latency_s >= 0.0) {
    spec.WithControlPlane(control_latency_s, control_loss);
  }
  for (const core::InterSwitchLinkSpec& l : backbone) {
    spec.WithInterSwitchLink(static_cast<int>(l.a), static_cast<int>(l.b),
                             l.latency_s, l.capacity_bps);
  }

  // One generator RNG stream, consumed in a fixed order — the whole
  // compilation is a pure function of (spec, seed).
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5ca1ab1eull);

  if (diurnal.enabled) {
    if (diurnal.day_hours <= 0.0) {
      throw std::invalid_argument("WorkloadSpec '" + name +
                                  "': diurnal day_hours must be positive");
    }
    if (diurnal.latest_join_frac <= 0.0 || diurnal.latest_join_frac > 1.0) {
      throw std::invalid_argument(
          "WorkloadSpec '" + name +
          "': diurnal latest_join_frac must be in (0, 1] — everyone must "
          "join before the delivery-floor window closes");
    }
    // Inverse-CDF sampling over the campus arrival curve: a table at
    // ~5-minute trace resolution is plenty for the curve's 2-2.5 h peaks.
    const int steps = std::max(8, static_cast<int>(diurnal.day_hours * 12.0));
    std::vector<double> cdf;
    cdf.reserve(static_cast<size_t>(steps));
    double total = 0.0;
    for (int i = 0; i < steps; ++i) {
      const double h =
          diurnal.day_start_h + (i + 0.5) * diurnal.day_hours / steps;
      total += trace::CampusModel::ArrivalRate(h);
      cdf.push_back(total);
    }
    const double window_s = diurnal.latest_join_frac * duration_s;
    for (int mi = 0; mi < meetings; ++mi) {
      for (int pi = 0; pi < participants; ++pi) {
        const double u = rng.NextDouble() * total;
        const size_t idx = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const double frac =
            (static_cast<double>(idx) + rng.NextDouble()) / steps;
        spec.WithJoin(mi, pi, frac * window_s);
        // Churners drift out late; the first two participants anchor the
        // meeting (and are the roaming candidates), so they always stay.
        if (pi >= 2 && diurnal.churn_frac > 0.0 &&
            rng.Bernoulli(diurnal.churn_frac)) {
          const double join = frac * window_s;
          const double leave =
              join + (0.95 * duration_s - join) * rng.Uniform(0.6, 0.95);
          if (leave > join) spec.WithLeave(mi, pi, leave);
        }
      }
    }
  }

  if (flash_crowd.enabled) {
    if (flash_crowd.meeting < 0 || flash_crowd.meeting >= meetings) {
      throw std::out_of_range("WorkloadSpec '" + name +
                              "': flash crowd targets a meeting outside "
                              "the grid");
    }
    if (flash_crowd.extra < 1) {
      throw std::invalid_argument("WorkloadSpec '" + name +
                                  "': a flash crowd needs extra "
                                  "participants");
    }
    const double center = flash_crowd.at_frac * duration_s;
    const double width = flash_crowd.width_frac * duration_s;
    auto& crowd_meeting =
        spec.meetings.at(static_cast<size_t>(flash_crowd.meeting));
    for (int k = 0; k < flash_crowd.extra; ++k) {
      ParticipantSpec ps;
      ps.join_at_s = std::clamp(center + rng.Uniform(-width, width), 0.0,
                                0.9 * duration_s);
      crowd_meeting.participants.push_back(ps);
    }
  }

  if (follow_the_sun) {
    const int regions = backend.fleet_regions;
    for (int mi = 0; mi < meetings; ++mi) {
      spec.WithMeetingRegion(mi, mi * regions / meetings);
    }
  }

  if (roaming.enabled) {
    if (roaming.roamers < 1) {
      throw std::invalid_argument("WorkloadSpec '" + name +
                                  "': roaming needs at least one roamer");
    }
    const int regions = std::max(1, backend.fleet_regions);
    const int anchors = std::min(2, participants);
    for (int k = 0; k < roaming.roamers; ++k) {
      const int mi = k % meetings;
      const int pi = (k / meetings) % anchors;
      const double at =
          std::min(roaming.at_frac * duration_s + k * roaming.stagger_s,
                   0.95 * duration_s);
      spec.WithRoam(mi, pi, at, (k + 1) % regions);
    }
  }

  for (size_t i = 0; i < capacity_classes.size(); ++i) {
    spec.WithSwitchCapacity(static_cast<int>(i), capacity_classes[i]);
  }

  if (correlated_failure.enabled) {
    spec.WithCorrelatedFailure(correlated_failure.at_frac * duration_s,
                               correlated_failure.links);
  }

  return spec;
}

std::string DescribeSpec(const ScenarioSpec& spec) {
  std::string out;
  Row(out, "scenario %s seed %" PRIu64 " duration %.6f sample %.6f\n",
      spec.name.c_str(), spec.seed, spec.duration_s, spec.sample_interval_s);
  const testbed::TestbedConfig& base = spec.base;
  Row(out, "backend %s placement %s\n", spec.backend.Label().c_str(),
      base.placement.Label().c_str());
  Row(out,
      "control configured %d latency %.6f loss %.6f heartbeat %.6f "
      "load_report %.6f\n",
      spec.control_plane_configured ? 1 : 0,
      util::ToSeconds(base.control.latency), base.control.loss_rate,
      util::ToSeconds(base.control.heartbeat_interval),
      util::ToSeconds(base.control.load_report_interval));
  Row(out, "rebalance interval %.6f threshold %d resignal %.6f\n",
      util::ToSeconds(base.rebalance.interval),
      base.rebalance.imbalance_threshold, spec.rebalance_resignal_s);
  Row(out, "failover at %.6f blackout %.6f\n", spec.failover_at_s,
      spec.failover_blackout_s);
  Row(out, "controller_failure at %.6f region %d\n",
      spec.controller_failure_at_s, spec.controller_failure_region);
  for (size_t mi = 0; mi < spec.meetings.size(); ++mi) {
    const MeetingSpec& m = spec.meetings[mi];
    Row(out, "meeting %zu region %d participants %zu\n", mi, m.region,
        m.participants.size());
    for (size_t pi = 0; pi < m.participants.size(); ++pi) {
      const ParticipantSpec& p = m.participants[pi];
      Row(out, "  p %zu join %.6f leave %.6f rejoin %.6f profile %s", pi,
          p.join_at_s, p.leave_at_s, p.rejoin_at_s, p.link.name.c_str());
      DescribeLink(out, "up", p.link.up);
      DescribeLink(out, "down", p.link.down);
      Row(out, "\n");
    }
  }
  for (const LinkEvent& ev : spec.link_events) {
    Row(out,
        "link_event at %.6f m %d p %d uplink %d rate %.0f loss %.6f "
        "delay %" PRId64 " jitter %" PRId64 "\n",
        ev.at_s, ev.meeting, ev.participant, ev.uplink ? 1 : 0, ev.rate_bps,
        ev.loss_rate, ev.prop_delay, ev.jitter_stddev);
  }
  for (const core::InterSwitchLinkSpec& l : base.inter_switch_links) {
    Row(out, "isl %zu %zu latency %.6f capacity %.0f\n", l.a, l.b,
        l.latency_s, l.capacity_bps);
  }
  for (const TopologyEvent& ev : spec.topology_events) {
    Row(out, "topology_event at %.6f link %d %d capacity %.0f\n", ev.at_s,
        ev.a, ev.b, ev.capacity_bps);
  }
  for (const RoamEvent& ev : spec.roams) {
    Row(out, "roam at %.6f m %d p %d region %d\n", ev.at_s, ev.meeting,
        ev.participant, ev.new_region);
  }
  for (const CorrelatedFailureEvent& ev : spec.correlated_failures) {
    Row(out, "correlated_failure at %.6f links", ev.at_s);
    for (const auto& [a, b] : ev.links) Row(out, " (%d,%d)", a, b);
    Row(out, "\n");
  }
  for (const auto& [sw, cls] : base.switch_capacities) {
    Row(out, "capacity switch %d class %.6f\n", sw, cls);
  }
  return out;
}

}  // namespace scallop::harness
