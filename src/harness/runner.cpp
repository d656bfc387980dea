#include "harness/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "testbed/fleet_testbed.hpp"

namespace scallop::harness {

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec) : spec_(spec) {
  // Every testbed knob lives in spec.base; the runner validates it against
  // the backend and only stamps in the seed and its own trace log.
  const testbed::TestbedConfig& cfg = spec_.base;
  // Scallop backends are fleet{N,R}; the single switch is fleet{1,1}.
  // Backbone features need a second switch to span to, and region
  // features a second region to roam between or fail over to.
  const bool scallop_stack =
      spec_.backend.kind == testbed::BackendChoice::Kind::kFleet;
  const bool multi_switch = scallop_stack && spec_.backend.fleet_switches >= 2;
  const bool federated = scallop_stack && spec_.backend.fleet_regions >= 2;
  if (scallop_stack &&
      (spec_.backend.fleet_regions < 1 ||
       spec_.backend.fleet_regions > spec_.backend.fleet_switches)) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name + "': fleet{" +
        std::to_string(spec_.backend.fleet_switches) + "," +
        std::to_string(spec_.backend.fleet_regions) +
        "} needs 1 <= regions <= switches — every region must own at "
        "least one switch");
  }
  if ((!cfg.inter_switch_links.empty() || !spec_.topology_events.empty()) &&
      !multi_switch) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name +
        "': inter-switch links model a fleet backbone — pick a fleet of at "
        "least two switches");
  }
  for (const auto& l : cfg.inter_switch_links) {
    if (static_cast<int>(l.a) >= spec_.backend.fleet_switches ||
        static_cast<int>(l.b) >= spec_.backend.fleet_switches) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "' inter-switch link (" +
          std::to_string(l.a) + ", " + std::to_string(l.b) +
          ") names a switch outside the fleet");
    }
  }
  // A topology event may only reshape a declared link: the controller
  // must never learn of a backbone path no sim link backs (and a typo'd
  // pair failing silently would make the capacity drill test nothing).
  for (const TopologyEvent& ev : spec_.topology_events) {
    const bool declared = std::any_of(
        cfg.inter_switch_links.begin(), cfg.inter_switch_links.end(),
        [&](const core::InterSwitchLinkSpec& l) {
          return (static_cast<int>(l.a) == ev.a &&
                  static_cast<int>(l.b) == ev.b) ||
                 (static_cast<int>(l.a) == ev.b &&
                  static_cast<int>(l.b) == ev.a);
        });
    if (!declared) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "' topology event at " +
          std::to_string(ev.at_s) + "s reshapes link (" +
          std::to_string(ev.a) + ", " + std::to_string(ev.b) +
          "), which WithInterSwitchLink never declared");
    }
  }
  // A correlated failure may only cut declared backbone links — same
  // contract as single-link topology events: the fleet cannot lose a link
  // it never had, and a typo'd pair failing silently would cut less than
  // the scenario claims.
  for (const CorrelatedFailureEvent& ev : spec_.correlated_failures) {
    if (ev.links.empty()) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name + "' correlated failure at " +
          std::to_string(ev.at_s) + "s cuts no links");
    }
    for (const auto& [a, b] : ev.links) {
      const bool declared = std::any_of(
          cfg.inter_switch_links.begin(), cfg.inter_switch_links.end(),
          [a = a, b = b](const core::InterSwitchLinkSpec& l) {
            return (static_cast<int>(l.a) == a && static_cast<int>(l.b) == b) ||
                   (static_cast<int>(l.a) == b && static_cast<int>(l.b) == a);
          });
      if (!declared) {
        throw std::out_of_range(
            "ScenarioSpec '" + spec_.name + "' correlated failure at " +
            std::to_string(ev.at_s) + "s cuts link (" + std::to_string(a) +
            ", " + std::to_string(b) +
            "), which WithInterSwitchLink never declared");
      }
    }
  }

  // Heterogeneous capacities weigh placement choices between switches;
  // with fewer than two switches they would silently do nothing.
  if (!cfg.switch_capacities.empty() && !multi_switch) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name +
        "': switch capacity classes shape fleet load accounting — pick a "
        "fleet of at least two switches");
  }
  for (const auto& [sw, cls] : cfg.switch_capacities) {
    if (sw < 0 || sw >= spec_.backend.fleet_switches) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "': switch capacity for switch " +
          std::to_string(sw) + " is outside fleet{" +
          std::to_string(spec_.backend.fleet_switches) + "}");
    }
    if (cls <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name + "': switch " + std::to_string(sw) +
          " needs a positive capacity class");
    }
  }
  // Roams and region-pinned meetings only mean anything when there are
  // regions to roam between — validated like WithControllerFailure.
  for (size_t mi = 0; mi < spec_.meetings.size(); ++mi) {
    const int region = spec_.meetings[mi].region;
    if (region < 0) continue;
    if (!federated) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name + "': meeting " + std::to_string(mi) +
          " pins region " + std::to_string(region) +
          " but the backend is not a federated fleet{N,R>=2}");
    }
    if (region >= spec_.backend.fleet_regions) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "': meeting " + std::to_string(mi) +
          " pins region " + std::to_string(region) + ", outside fleet{" +
          std::to_string(spec_.backend.fleet_switches) + "," +
          std::to_string(spec_.backend.fleet_regions) + "}");
    }
  }
  for (const RoamEvent& ev : spec_.roams) {
    if (!federated) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name +
          "': a roam re-homes a participant onto another region's ingress "
          "— it needs a federated fleet{N,R>=2} backend");
    }
    if (ev.new_region < 0 || ev.new_region >= spec_.backend.fleet_regions) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "' roam at " +
          std::to_string(ev.at_s) + "s targets region " +
          std::to_string(ev.new_region) + ", outside fleet{" +
          std::to_string(spec_.backend.fleet_switches) + "," +
          std::to_string(spec_.backend.fleet_regions) + "}");
    }
    if (ev.meeting < 0 ||
        static_cast<size_t>(ev.meeting) >= spec_.meetings.size() ||
        ev.participant < 0 ||
        static_cast<size_t>(ev.participant) >=
            spec_.meetings[static_cast<size_t>(ev.meeting)]
                .participants.size()) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "' roam at " +
          std::to_string(ev.at_s) + "s targets (meeting=" +
          std::to_string(ev.meeting) + ", participant=" +
          std::to_string(ev.participant) + ") outside the spec grid");
    }
    if (ev.at_s >= spec_.duration_s) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name + "' roam at " +
          std::to_string(ev.at_s) +
          "s falls after the scenario ends — it would test nothing");
    }
  }

  // Redundant trees plan standby chains over link-disjoint backbone
  // paths and hitless migration re-roots inter-switch span trees — both
  // need a second switch; without one they would silently protect
  // nothing.
  if (cfg.redundancy.enabled() && !multi_switch) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name +
        "': redundant trees / hitless migration re-plan inter-switch "
        "relays — pick a fleet of at least two switches");
  }
  if (cfg.redundancy.redundant_trees && cfg.inter_switch_links.empty()) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name +
        "': redundant trees need a declared backbone to plan link-"
        "disjoint paths over — the implicit full mesh has no links to be "
        "disjoint from (WithInterSwitchLink)");
  }
  if (cfg.redundancy.redundant_trees && cfg.redundancy.dedup_window <= 0) {
    throw std::invalid_argument(
        "ScenarioSpec '" + spec_.name +
        "': the dedup window must be positive — merge switches cannot "
        "eliminate duplicates they are not allowed to remember");
  }

  testbed::TestbedConfig base = cfg;
  base.seed = spec_.seed;
  // The trace log must exist before the backend: every channel/controller/
  // conduit captures the raw pointer at construction.
  if (spec_.trace_enabled) {
    trace_ = std::make_unique<obs::TraceLog>(spec_.trace_ring);
    base.trace = trace_.get();
  }

  backend_ = testbed::MakeBackend(spec_.backend, base);
  backend_->SetMeetingMovedCallback(
      [this](core::MeetingId meeting,
             const std::vector<core::ParticipantId>& dropped) {
        OnMeetingMoved(meeting, dropped);
      });
  backend_->SetMeetingMovedHitlessCallback(
      [this](core::MeetingId meeting) { OnMeetingMovedHitless(meeting); });

  for (size_t mi = 0; mi < spec_.meetings.size(); ++mi) {
    meeting_ids_.push_back(
        backend_->CreateMeetingInRegion(spec_.meetings[mi].region));
  }

  // Participants are created (and their access links attached) up front in
  // meeting-major order so addressing and per-peer seeding depend only on
  // the spec grid, never on join timing.
  slots_.reserve(static_cast<size_t>(spec_.TotalParticipants()));
  for (size_t mi = 0; mi < spec_.meetings.size(); ++mi) {
    const auto& meeting = spec_.meetings[mi];
    for (size_t pi = 0; pi < meeting.participants.size(); ++pi) {
      const ParticipantSpec& ps = meeting.participants[pi];
      Slot slot;
      slot.peer = &backend_->AddPeer(base.peer, ps.link.up, ps.link.down);
      slot.meeting = static_cast<int>(mi);
      slot.index = static_cast<int>(pi);
      slot.meeting_id = meeting_ids_[mi];
      slot.profile = ps.link.name;
      slot.spec = ps;
      slots_.push_back(std::move(slot));
    }
  }

  // Fail fast on malformed link events: the fluent spec helpers validate
  // their indices at build time, but LinkEvent is aggregate-initialized,
  // so a typo'd index would otherwise surface as an uncaught
  // std::out_of_range deep inside a scheduled lambda mid-run.
  for (size_t i = 0; i < spec_.link_events.size(); ++i) {
    const LinkEvent& ev = spec_.link_events[i];
    if (ev.meeting < 0 ||
        static_cast<size_t>(ev.meeting) >= spec_.meetings.size() ||
        ev.participant < 0 ||
        static_cast<size_t>(ev.participant) >=
            spec_.meetings[static_cast<size_t>(ev.meeting)]
                .participants.size()) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "' link_events[" +
          std::to_string(i) + "] targets (meeting=" +
          std::to_string(ev.meeting) + ", participant=" +
          std::to_string(ev.participant) + ") outside the spec grid");
    }
  }

  // Switch failover is driven by heartbeat loss, so the blackout must
  // outlast worst-case detection: the last in-flight heartbeat lands
  // `latency` after the link dies, death needs 3 more silent intervals
  // plus `latency`, and the detector only looks every interval. A shorter
  // blackout would revive the victim before it was ever declared dead and
  // the drill would silently test nothing.
  if (spec_.failover_at_s >= 0.0 && scallop_stack) {
    const double hb_s = util::ToSeconds(cfg.control.heartbeat_interval);
    // No heartbeats means no failure detection at all: the victim would
    // never be declared dead and the drill would strand its peers.
    if (hb_s <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name +
          "': a switch failover needs a positive heartbeat interval — with "
          "heartbeats disabled the dead switch is never detected");
    }
    const double detect_s =
        4.0 * hb_s + 2.0 * util::ToSeconds(cfg.control.latency);
    if (spec_.failover_blackout_s <= detect_s) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name + "': failover_blackout_s (" +
          std::to_string(spec_.failover_blackout_s) +
          ") must exceed the worst-case heartbeat-miss detection time (" +
          std::to_string(detect_s) +
          " s = 4 heartbeat intervals + 2 x control latency)");
    }
  }

  // A controller failure drill only means anything on a federated fleet:
  // it needs a peer controller to notice the death (east-west heartbeats)
  // and adopt the shard, and enough runtime after the kill for detection.
  if (spec_.controller_failure_at_s >= 0.0) {
    if (!federated) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name +
          "': a controller failure needs a federated fleet{N,R>=2} "
          "backend — with one controller there is no peer to adopt its "
          "shard");
    }
    if (spec_.controller_failure_region < 0 ||
        spec_.controller_failure_region >= spec_.backend.fleet_regions) {
      throw std::out_of_range(
          "ScenarioSpec '" + spec_.name + "': controller failure region " +
          std::to_string(spec_.controller_failure_region) +
          " is outside fleet{" +
          std::to_string(spec_.backend.fleet_switches) + "," +
          std::to_string(spec_.backend.fleet_regions) + "}");
    }
    if (util::ToSeconds(cfg.control.heartbeat_interval) <= 0.0) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name +
          "': a controller failure needs a positive heartbeat interval — "
          "peers detect the death by east-west heartbeat loss");
    }
    if (spec_.controller_failure_at_s >= spec_.duration_s) {
      throw std::invalid_argument(
          "ScenarioSpec '" + spec_.name +
          "': controller_failure_at_s falls after the scenario ends — the "
          "drill would test nothing");
    }
  }

  ScheduleSpec();
}

ScenarioRunner::~ScenarioRunner() = default;

testbed::ScallopTestbed& ScenarioRunner::scallop() {
  auto* bed = dynamic_cast<testbed::ScallopTestbed*>(backend_.get());
  if (bed == nullptr) {
    throw std::logic_error("scenario '" + spec_.name + "' runs on backend " +
                           backend_->Name() + ", not a single switch");
  }
  return *bed;
}

testbed::FleetTestbed& ScenarioRunner::fleet() {
  auto* bed = dynamic_cast<testbed::FleetTestbed*>(backend_.get());
  if (bed == nullptr) {
    throw std::logic_error("scenario '" + spec_.name + "' runs on backend " +
                           backend_->Name() + ", not a fleet");
  }
  return *bed;
}

void ScenarioRunner::ScheduleSpec() {
  sim::Scheduler& sched = backend_->sched();

  size_t si = 0;
  for (const auto& meeting : spec_.meetings) {
    for (const auto& ps : meeting.participants) {
      Slot* slot = &slots_[si++];
      sched.At(util::Seconds(ps.join_at_s), [this, slot] { JoinSlot(*slot); });
      if (ps.leave_at_s >= 0.0) {
        sched.At(util::Seconds(ps.leave_at_s),
                 [this, slot] { LeaveSlot(*slot); });
      }
      if (ps.rejoin_at_s >= 0.0) {
        sched.At(util::Seconds(ps.rejoin_at_s),
                 [this, slot] { JoinSlot(*slot); });
      }
    }
  }

  for (const LinkEvent& ev : spec_.link_events) {
    sched.At(util::Seconds(ev.at_s), [this, ev] {
      Slot& slot = slot_at(ev.meeting, ev.participant);
      sim::Link* link =
          ev.uplink ? backend_->network().uplink(slot.peer->address())
                    : backend_->network().downlink(slot.peer->address());
      if (link == nullptr) return;
      if (ev.rate_bps >= 0.0) link->set_rate_bps(ev.rate_bps);
      if (ev.loss_rate >= 0.0) link->set_loss_rate(ev.loss_rate);
      if (ev.prop_delay >= 0) link->set_prop_delay(ev.prop_delay);
      if (ev.jitter_stddev >= 0) link->set_jitter_stddev(ev.jitter_stddev);
    });
  }

  for (const TopologyEvent& ev : spec_.topology_events) {
    sched.At(util::Seconds(ev.at_s), [this, ev] {
      backend_->SetInterSwitchLinkCapacity(static_cast<size_t>(ev.a),
                                           static_cast<size_t>(ev.b),
                                           ev.capacity_bps);
    });
  }

  // A cut link keeps a sliver of capacity rather than 0: capacity_bps <=
  // 0 means *unconstrained* on this API, and the overload re-planner only
  // reacts to load exceeding a finite capacity.
  constexpr double kLinkCutBps = 1.0;
  for (const CorrelatedFailureEvent& ev : spec_.correlated_failures) {
    sched.At(util::Seconds(ev.at_s), [this, ev] {
      for (const auto& [a, b] : ev.links) {
        backend_->SetInterSwitchLinkCapacity(static_cast<size_t>(a),
                                             static_cast<size_t>(b),
                                             kLinkCutBps);
      }
    });
  }

  for (const RoamEvent& ev : spec_.roams) {
    sched.At(util::Seconds(ev.at_s), [this, ev] {
      ExecuteRoam(slot_at(ev.meeting, ev.participant), ev.new_region);
    });
  }

  if (spec_.controller_failure_at_s >= 0.0) {
    sched.At(util::Seconds(spec_.controller_failure_at_s), [this] {
      backend_->FailController(
          static_cast<size_t>(spec_.controller_failure_region));
    });
  }

  if (spec_.failover_at_s >= 0.0) {
    sched.At(util::Seconds(spec_.failover_at_s), [this] { FailoverBegin(); });
    sched.At(util::Seconds(spec_.failover_at_s + spec_.failover_blackout_s),
             [this] { FailoverEnd(); });
  }

  if (spec_.sample_interval_s > 0.0) {
    for (double t = spec_.sample_interval_s; t <= spec_.duration_s + 1e-9;
         t += spec_.sample_interval_s) {
      sched.At(util::Seconds(t), [this] { Sample(); });
    }
  }
}

void ScenarioRunner::JoinSlot(Slot& slot) {
  if (slot.present) return;
  if (!backend_->MeetingReachable(slot.meeting_id)) {
    // Only a controller death opens this window, and the runner rejects
    // those without a positive heartbeat interval, so the retry advances.
    Slot* s = &slot;
    backend_->sched().After(spec_.base.control.heartbeat_interval,
                            [this, s] { ResumeSlot(*s); });
    return;
  }
  core::SignalingServer& door =
      slot.access_region >= 0
          ? backend_->RegionIngress(static_cast<size_t>(slot.access_region))
          : backend_->signaling();
  slot.peer->Join(door, slot.meeting_id);
  slot.present = true;
  slot.joined_at_s = now_s();
}

void ScenarioRunner::LeaveSlot(Slot& slot) {
  if (!slot.present) return;
  // Leaving destroys receive pipelines on both sides (the leaver's own
  // legs now, everyone's leg toward the leaver via OnRemoteSenderLeft);
  // bank their decoded-frame counts first so timeline totals stay
  // cumulative.
  for (core::ParticipantId sender : slot.peer->remote_senders()) {
    if (const auto* rx = slot.peer->video_receiver(sender)) {
      retired_frames_decoded_ += rx->stats().frames_decoded;
    }
  }
  const core::ParticipantId leaver = slot.peer->id();
  // On cascaded placements, members homed on other switches know the
  // leaver's stream under its relay-sender aliases — their legs are torn
  // down by the same departure, so bank those too.
  const std::vector<core::ParticipantId> aliases =
      backend_->SenderAliasesOf(slot.meeting_id, leaver);
  for (Slot& other : slots_) {
    if (&other == &slot) continue;
    // Participant ids are only unique per meeting (fleet switches number
    // their participants independently), so scope the sweep to the
    // leaver's meeting — the only place its legs exist anyway.
    if (other.meeting_id != slot.meeting_id) continue;
    if (const auto* rx = other.peer->video_receiver(leaver)) {
      retired_frames_decoded_ += rx->stats().frames_decoded;
    }
    for (core::ParticipantId alias : aliases) {
      if (const auto* rx = other.peer->video_receiver(alias)) {
        retired_frames_decoded_ += rx->stats().frames_decoded;
      }
    }
  }
  slot.peer->Leave();
  slot.present = false;
  slot.presence_s += now_s() - slot.joined_at_s;
}

void ScenarioRunner::FailoverBegin() {
  // Switch failover: the backend kills a forwarding substrate instance
  // (the single switch on scallop/software; the switch hosting the first
  // meeting on a fleet) and reports which meetings lost it. Their
  // participants' sessions died with the switch, so the runner tears them
  // down; the blackout between Begin and End lets in-flight pre-failover
  // media drain before the recovery substrate installs stream entries for
  // the same (src, ssrc) keys — exactly as a real standby would only see
  // live traffic.
  failover_returnees_.clear();
  in_failover_ = true;
  std::vector<core::MeetingId> affected = backend_->FailoverBegin();
  failover_affected_ = affected;
  failover_corr_ = obs::NextCorrelation(trace_.get());
  obs::Emitf(trace_.get(), backend_->sched().now(), obs::Category::kScheduler,
             "runner", "failover.begin", failover_corr_, "affected=%zu",
             affected.size());
  for (Slot& slot : slots_) {
    if (!slot.present) continue;
    if (std::find(affected.begin(), affected.end(), slot.meeting_id) ==
        affected.end()) {
      continue;
    }
    failover_returnees_.push_back(&slot);
    LeaveSlot(slot);
  }
}

namespace {

// Whether the spec says this participant has permanently left by time t
// (recovery paths must not resurrect them).
bool ChurnedOut(const ParticipantSpec& ps, double t) {
  return ps.leave_at_s >= 0.0 && t >= ps.leave_at_s &&
         !(ps.rejoin_at_s >= 0.0 && t >= ps.rejoin_at_s);
}

}  // namespace

void ScenarioRunner::FailoverEnd() {
  // Restart/standby bookkeeping first, then the re-joins — which the
  // backend's signaling routes to whatever switch now hosts each meeting
  // (on a fleet, the live standby rather than the restarted victim).
  backend_->FailoverEnd();
  obs::Emitf(trace_.get(), backend_->sched().now(), obs::Category::kScheduler,
             "runner", "failover.end", failover_corr_, "returnees=%zu",
             failover_returnees_.size());
  failover_corr_ = 0;
  const double t = now_s();
  for (Slot* slot : failover_returnees_) {
    // A participant whose scheduled departure fell inside the blackout
    // stays gone: failover recovery must not resurrect someone the spec
    // says has left by now.
    if (!ChurnedOut(slot->spec, t)) JoinSlot(*slot);
  }
  failover_returnees_.clear();
  failover_affected_.clear();
  in_failover_ = false;
}

bool ScenarioRunner::ResumeSlot(Slot& slot) {
  if (ChurnedOut(slot.spec, now_s())) return false;
  // Joining a meeting the blackout swallowed would sign the peer onto
  // the dying switch.
  if (in_failover_ &&
      std::find(failover_affected_.begin(), failover_affected_.end(),
                slot.meeting_id) != failover_affected_.end()) {
    failover_returnees_.push_back(&slot);
    return false;
  }
  JoinSlot(slot);
  return slot.present;
}

void ScenarioRunner::ExecuteRoam(Slot& slot, int new_region) {
  // The access region changes no matter what: a participant who is out of
  // the meeting right now (churn window, failover blackout) comes back
  // through the new region when whatever scheduled their return fires.
  slot.access_region = new_region;
  if (!slot.present) return;
  ++roams_executed_;
  Slot* s = &slot;
  LeaveSlot(slot);  // leaves via the stored (old-region) signaling face
  const double resignal_s = std::max(0.0, spec_.rebalance_resignal_s);
  backend_->sched().After(util::Seconds(resignal_s), [this, s] {
    if (ResumeSlot(*s)) ++roam_rehomings_;
  });
}

void ScenarioRunner::OnMeetingMoved(
    core::MeetingId meeting, const std::vector<core::ParticipantId>& dropped) {
  // During the failover blackout the affected meetings' peers were already
  // torn down, and FailoverEnd re-joins them after the drain; a second
  // re-signal here would race it.
  if (in_failover_ &&
      std::find(failover_affected_.begin(), failover_affected_.end(),
                meeting) != failover_affected_.end()) {
    return;
  }
  const double resignal_s = std::max(0.0, spec_.rebalance_resignal_s);
  for (Slot& slot : slots_) {
    if (slot.meeting_id != meeting || !slot.present) continue;
    // Members on live switches kept their sessions: only the dropped ones
    // leave and re-signal.
    if (std::find(dropped.begin(), dropped.end(), slot.peer->id()) ==
        dropped.end()) {
      continue;
    }
    Slot* s = &slot;
    LeaveSlot(*s);
    backend_->sched().After(util::Seconds(resignal_s),
                            [this, s] { ResumeSlot(*s); });
  }
}

void ScenarioRunner::OnMeetingMovedHitless(core::MeetingId meeting) {
  // Make-before-break: every member kept its sessions across the move, so
  // there is nothing to re-signal. Instead, audit the promise: snapshot
  // every live (sender, receiver) video leg in the meeting now and
  // re-check one second later that each receiver decoded as many frames
  // as its sender produced over the window (minus a small in-flight
  // allowance). Any shortfall is a frame lost to the migration.
  struct Leg {
    Slot* sender = nullptr;
    Slot* receiver = nullptr;
    // Receivers key streams by the sender id their switch advertises —
    // the origin id on direct legs, a relay alias on spanned ones.
    core::ParticipantId sender_key = 0;
    int64_t produced = 0;
    uint64_t decoded = 0;
  };
  auto legs = std::make_shared<std::vector<Leg>>();
  for (Slot& rs : slots_) {
    if (rs.meeting_id != meeting || !rs.present) continue;
    for (core::ParticipantId sender : rs.peer->remote_senders()) {
      const auto* rx = rs.peer->video_receiver(sender);
      if (rx == nullptr) continue;
      // Map the advertised sender id back to the producing slot (checking
      // relay aliases for legs that cross a span).
      Slot* origin = nullptr;
      for (Slot& ts : slots_) {
        if (ts.meeting_id != meeting || !ts.present || &ts == &rs) continue;
        if (ts.peer->id() == sender) {
          origin = &ts;
          break;
        }
        const std::vector<core::ParticipantId> aliases =
            backend_->SenderAliasesOf(meeting, ts.peer->id());
        if (std::find(aliases.begin(), aliases.end(), sender) !=
            aliases.end()) {
          origin = &ts;
          break;
        }
      }
      if (origin == nullptr || origin->peer->encoder() == nullptr) continue;
      legs->push_back(Leg{origin, &rs, sender,
                          origin->peer->encoder()->frames_produced(),
                          rx->stats().frames_decoded});
    }
  }
  backend_->sched().After(util::Seconds(1.0), [this, legs] {
    // A couple of frames are legitimately in flight (access latency plus
    // the relay hop) when the window closes; only a shortfall beyond that
    // is a gap the migration caused.
    constexpr int64_t kInFlightSlack = 3;
    for (const Leg& leg : *legs) {
      // Legs churn tore down mid-window prove nothing either way.
      if (!leg.sender->present || !leg.receiver->present) continue;
      const auto* rx = leg.receiver->peer->video_receiver(leg.sender_key);
      const auto* enc = leg.sender->peer->encoder();
      if (rx == nullptr || enc == nullptr) continue;
      const int64_t sent = enc->frames_produced() - leg.produced;
      const int64_t got =
          static_cast<int64_t>(rx->stats().frames_decoded - leg.decoded);
      if (sent > got + kInFlightSlack) {
        hitless_frames_lost_ += static_cast<uint64_t>(sent - got -
                                                      kInFlightSlack);
      }
    }
    ++hitless_moves_measured_;
  });
}

void ScenarioRunner::Sample() {
  TimelineSample s;
  s.t_s = now_s();
  s.frames_decoded_total = retired_frames_decoded_;
  for (const Slot& slot : slots_) {
    for (core::ParticipantId sender : slot.peer->remote_senders()) {
      const auto* rx = slot.peer->video_receiver(sender);
      if (rx != nullptr) s.frames_decoded_total += rx->stats().frames_decoded;
    }
  }
  const testbed::BackendCounters c = backend_->counters();
  s.seq_rewritten = c.seq_rewritten;
  s.dt_changes = c.dt_changes;
  s.tree_migrations = c.tree_migrations;
  timeline_.push_back(s);
  if (sample_hook_) sample_hook_(s.t_s, *this);
}

const ScenarioMetrics& ScenarioRunner::Run() {
  RunUntil(spec_.duration_s);
  if (!finished_) {
    final_metrics_ = Collect();
    finished_ = true;
    // When the run violated a core invariant, dump the flight recorder so
    // the failing CI log carries the events leading up to the failure.
    const std::string dump = FlightRecorderDump(final_metrics_);
    if (!dump.empty()) std::fputs(dump.c_str(), stderr);
  }
  return final_metrics_;
}

std::string ScenarioRunner::FlightRecorderDump(
    const ScenarioMetrics& m) const {
  if (trace_ == nullptr) return "";
  // The invariants every scenario promises: gap-free sequence rewriting,
  // no starved present peer, and no frames lost across hitless moves.
  bool starved = false;
  for (const PeerMetrics& p : m.peers) {
    if (p.present_at_end && p.active_streams > 0 &&
        p.min_frames_decoded == 0) {
      starved = true;
      break;
    }
  }
  const uint64_t rewrite_violations = m.RewriteViolations();
  if (rewrite_violations == 0 && m.hitless_frames_lost == 0 && !starved) {
    return "";
  }
  std::string out =
      "=== flight recorder: scenario '" + spec_.name + "' seed " +
      std::to_string(spec_.seed) + " violated:";
  if (rewrite_violations > 0) {
    out += " rewrite_violations=" + std::to_string(rewrite_violations);
  }
  if (m.hitless_frames_lost > 0) {
    out += " hitless_frames_lost=" + std::to_string(m.hitless_frames_lost);
  }
  if (starved) out += " starved_peer";
  out += " ===\n";
  out += "last " + std::to_string(trace_->size()) + " of " +
         std::to_string(trace_->total_emitted()) + " events (" +
         std::to_string(trace_->evicted()) + " evicted):\n";
  out += trace_->ToText();
  return out;
}

void ScenarioRunner::RunUntil(double t_s) { backend_->RunUntil(t_s); }

double ScenarioRunner::now_s() const {
  return util::ToSeconds(backend_->sched().now());
}

client::Peer& ScenarioRunner::peer(int meeting, int participant) {
  return *slot_at(meeting, participant).peer;
}

core::MeetingId ScenarioRunner::meeting_id(int meeting) const {
  return meeting_ids_.at(static_cast<size_t>(meeting));
}

bool ScenarioRunner::present(int meeting, int participant) const {
  return slot_at(meeting, participant).present;
}

ScenarioRunner::Slot& ScenarioRunner::slot_at(int meeting, int participant) {
  return const_cast<Slot&>(
      static_cast<const ScenarioRunner*>(this)->slot_at(meeting, participant));
}

const ScenarioRunner::Slot& ScenarioRunner::slot_at(int meeting,
                                                    int participant) const {
  size_t base = 0;
  for (int mi = 0; mi < meeting; ++mi) {
    base += spec_.meetings.at(static_cast<size_t>(mi)).participants.size();
  }
  return slots_.at(base + static_cast<size_t>(participant));
}

ScenarioMetrics ScenarioRunner::Collect() const {
  ScenarioMetrics m;
  m.scenario = spec_.name;
  m.seed = spec_.seed;
  m.duration_s = now_s();
  m.backend = backend_->Name();
  const util::TimeUs now = backend_->sched().now();

  // Placement rows accompany the switch breakdown: whenever the CSV will
  // carry a fleet section (more than one switch), every meeting gets its
  // hosting switch, so the two sections never contradict each other.
  if (backend_->switch_count() > 1) m.switches = backend_->SwitchBreakdown();
  for (size_t mi = 0; mi < spec_.meetings.size(); ++mi) {
    MeetingMetrics mm;
    mm.index = static_cast<int>(mi);
    mm.id = meeting_ids_[mi];
    mm.final_design = backend_->TreeDesignOf(meeting_ids_[mi]);
    if (!m.switches.empty()) {
      core::MeetingPlacement placement =
          backend_->PlacementOf(meeting_ids_[mi]);
      mm.placement = placement.valid() ? static_cast<int>(placement.home) : -1;
      mm.spans = static_cast<int>(placement.spans.size());
    }
    for (const Slot& slot : slots_) {
      if (slot.meeting == mm.index && slot.present) ++mm.participants_at_end;
    }
    m.meetings.push_back(std::move(mm));
  }

  for (const Slot& slot : slots_) {
    PeerMetrics pm;
    pm.meeting = slot.meeting;
    pm.index = slot.index;
    pm.id = slot.peer->id();
    pm.profile = slot.profile;
    pm.present_at_end = slot.present;
    pm.seconds_in_meeting =
        slot.presence_s + (slot.present ? now_s() - slot.joined_at_s : 0.0);
    if (const auto* enc = slot.peer->encoder()) {
      pm.frames_sent = static_cast<uint64_t>(enc->frames_produced());
    }

    uint64_t min_frames = UINT64_MAX;
    for (core::ParticipantId sender : slot.peer->remote_senders()) {
      if (const auto* audio = slot.peer->audio_receiver(sender)) {
        pm.audio_packets_received += audio->packets_received();
      }
      const auto* rx = slot.peer->video_receiver(sender);
      if (rx == nullptr) continue;
      ++pm.active_streams;
      const auto& st = rx->stats();
      min_frames = std::min(min_frames, st.frames_decoded);
      pm.max_frames_decoded = std::max(pm.max_frames_decoded,
                                       st.frames_decoded);
      pm.total_decoder_breaks += st.decoder_breaks;
      pm.total_conflicting_duplicates += st.conflicting_duplicates;

      StreamMetrics sm;
      sm.meeting = slot.meeting;
      sm.receiver = slot.index;
      sm.receiver_id = slot.peer->id();
      sm.sender_id = sender;
      sm.packets_received = st.packets_received;
      sm.bytes_received = st.bytes_received;
      sm.frames_decoded = st.frames_decoded;
      sm.frames_undecodable = st.frames_undecodable;
      sm.decoder_breaks = st.decoder_breaks;
      sm.conflicting_duplicates = st.conflicting_duplicates;
      sm.nacks_sent = st.nacks_sent;
      sm.recovered_packets = st.recovered_packets;
      sm.freeze_ms = st.total_freeze_ms;
      sm.recent_fps = rx->RecentFps(now, util::Seconds(3));
      m.streams.push_back(std::move(sm));
    }
    pm.min_frames_decoded = min_frames == UINT64_MAX ? 0 : min_frames;
    m.peers.push_back(std::move(pm));
  }

  m.timeline = timeline_;

  const testbed::BackendCounters c = backend_->counters();
  m.switch_packets_in = c.switch_packets_in;
  m.switch_packets_out = c.switch_packets_out;
  m.switch_replicas = c.switch_replicas;
  m.seq_rewritten = c.seq_rewritten;
  m.seq_dropped = c.seq_dropped;
  m.svc_suppressed = c.svc_suppressed;
  m.remb_filtered = c.remb_filtered;
  m.remb_forwarded = c.remb_forwarded;
  m.dt_changes = c.dt_changes;
  m.filter_flips = c.filter_flips;
  m.agent_cpu_packets = c.agent_cpu_packets;
  m.trees_built = c.trees_built;
  m.tree_migrations = c.tree_migrations;
  m.placements_rebalanced = c.placements_rebalanced;
  m.blackholed = backend_->network().blackholed();
  m.control = backend_->control_counters();
  m.control_plane = spec_.control_plane_configured || !m.switches.empty();
  m.cascade = backend_->cascade_counters();
  m.federation = backend_->federation_counters();
  m.topology = backend_->topology_snapshot();
  // Gated on the spec actually roaming anyone, so every roam-free
  // scenario's CSV stays byte-identical to the pre-workload harness.
  m.workload = !spec_.roams.empty();
  m.roams_executed = roams_executed_;
  m.roam_rehomings = roam_rehomings_;
  m.redundancy = backend_->redundancy_counters();
  m.hitless_frames_lost = hitless_frames_lost_;
  m.hitless_moves_measured = hitless_moves_measured_;
  m.trace_configured = trace_ != nullptr;
  if (trace_ != nullptr) {
    m.trace_events = trace_->total_emitted();
    m.trace_evicted = trace_->evicted();
  }
  return m;
}

}  // namespace scallop::harness
