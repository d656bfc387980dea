// Executes a ScenarioSpec deterministically on a conference backend
// (testbed::Backend): builds the substrate the spec's `backend` field
// names — the Scallop stack of N switches under R region controllers
// (one switch by default) or the software SFU — creates every meeting
// and participant, schedules joins/leaves/link-degradations/failover as
// discrete events, samples a timeline, and collects structured metrics.
// Features that need a second switch or region are validated against the
// switch and region counts up front. The same spec + seed always produces
// byte-identical ToCsv() output.
#pragma once

#include <functional>
#include <memory>

#include "harness/metrics.hpp"
#include "harness/scenario.hpp"
#include "obs/trace.hpp"

namespace scallop::harness {

class ScenarioRunner {
 public:
  // Invoked at every sample interval with the scenario-relative time.
  using SampleHook = std::function<void(double t_s, ScenarioRunner&)>;

  explicit ScenarioRunner(const ScenarioSpec& spec);
  ~ScenarioRunner();
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Runs the whole scenario and returns the collected metrics.
  const ScenarioMetrics& Run();

  // Stepwise execution for benches that interleave probing with the run:
  // advances to scenario-relative time t_s (no-op if already past).
  void RunUntil(double t_s);
  // Collects metrics at the current simulation time.
  ScenarioMetrics Collect() const;

  // Must be set before the first RunUntil/Run call to see every sample.
  void set_sample_hook(SampleHook hook) { sample_hook_ = std::move(hook); }

  const ScenarioSpec& spec() const { return spec_; }
  // The substrate executing this scenario.
  testbed::Backend& backend() { return *backend_; }
  const testbed::Backend& backend() const { return *backend_; }
  // Substrate-specific introspection for tests/benches that inspect switch
  // or fleet internals: scallop() is the single switch (fleet{1,1}),
  // fleet() any Scallop backend including it. Each throws
  // std::logic_error when the spec selected a backend it does not cover.
  testbed::ScallopTestbed& scallop();
  testbed::FleetTestbed& fleet();
  // Scenario-relative current time in seconds.
  double now_s() const;

  // Lookup by (meeting index, participant index) from the spec grid.
  client::Peer& peer(int meeting, int participant);
  core::MeetingId meeting_id(int meeting) const;
  // Whether the participant is currently in its meeting.
  bool present(int meeting, int participant) const;

  // The structured trace this run emitted into; null unless the spec
  // enabled WithTrace.
  obs::TraceLog* trace() { return trace_.get(); }
  const obs::TraceLog* trace() const { return trace_.get(); }
  // Flight-recorder dump: when tracing is on and the collected metrics
  // violate a core invariant (a rewrite violation, a starved present
  // peer, or frames lost across a hitless move), returns a header naming
  // the violated invariants followed by the trace's text form — the last
  // `trace_ring` events before the failure. Empty string otherwise.
  // Run() prints it to stderr automatically.
  std::string FlightRecorderDump(const ScenarioMetrics& m) const;

 private:
  struct Slot {
    client::Peer* peer = nullptr;
    int meeting = 0;
    int index = 0;
    core::MeetingId meeting_id = 0;
    std::string profile;
    ParticipantSpec spec;
    bool present = false;
    double joined_at_s = 0.0;
    double presence_s = 0.0;  // accumulated over completed stays
    // Current access region (roaming): joins go through the backend's
    // region ingress when >= 0, the default signaling face otherwise.
    int access_region = -1;
  };

  void ScheduleSpec();
  // Joins now, or — while the meeting has no live owner (a dead region
  // controller's shard awaiting adoption) — retries one controller
  // heartbeat interval later via ResumeSlot.
  void JoinSlot(Slot& slot);
  // A deferred (re-)join: the spec's churn schedule wins, and a failover
  // blackout that swallowed the meeting hands the peer to the failover
  // recovery instead. Returns whether the peer is now present.
  bool ResumeSlot(Slot& slot);
  void LeaveSlot(Slot& slot);
  void FailoverBegin();
  void FailoverEnd();
  // Live migration (rebalancer or heartbeat-detected failure) or a
  // collapsed relay span: drop the present peers whose sessions died
  // (`dropped`) now and re-signal them onto the new placement after the
  // re-negotiation delay. Meetings already being handled by the failover
  // protocol are left to it.
  void OnMeetingMoved(core::MeetingId meeting,
                      const std::vector<core::ParticipantId>& dropped);
  // Make-before-break migration: members kept their sessions, so nothing
  // re-signals — instead the runner audits the move by snapshotting every
  // live (sender, receiver) leg in the meeting and re-checking one second
  // later that receivers decoded as many frames as their senders produced
  // (frames lost across the flip must be zero).
  void OnMeetingMovedHitless(core::MeetingId meeting);
  // Roam: re-homes a present participant onto `new_region`'s ingress via
  // leave + delayed rejoin (an absent one just joins there next time).
  void ExecuteRoam(Slot& slot, int new_region);
  void Sample();
  Slot& slot_at(int meeting, int participant);
  const Slot& slot_at(int meeting, int participant) const;

  ScenarioSpec spec_;
  // Owned trace log (spec.trace_enabled); must outlive backend_, whose
  // channels/controllers/conduits hold raw pointers into it.
  std::unique_ptr<obs::TraceLog> trace_;
  std::unique_ptr<testbed::Backend> backend_;
  std::vector<core::MeetingId> meeting_ids_;
  std::vector<Slot> slots_;  // meeting-major order
  std::vector<Slot*> failover_returnees_;
  // Meetings whose recovery the failover protocol owns while the blackout
  // is in progress (migration callbacks for them are ignored).
  std::vector<core::MeetingId> failover_affected_;
  bool in_failover_ = false;
  // Frames decoded on legs that churn has since torn down (the leaver's
  // own legs and everyone's legs toward the leaver); keeps the timeline's
  // frames_decoded_total cumulative and monotone across leaves/failover.
  uint64_t retired_frames_decoded_ = 0;
  // Roaming bookkeeping: roams that found their participant present (and
  // so initiated the leave+rejoin), and rejoins that completed against
  // the new region's ingress.
  uint64_t roams_executed_ = 0;
  uint64_t roam_rehomings_ = 0;
  // Hitless-migration audit: frame-continuity failures summed over every
  // audited move (expected 0), and the number of moves audited.
  uint64_t hitless_frames_lost_ = 0;
  uint64_t hitless_moves_measured_ = 0;
  // Correlates the failover.begin/.end pair into one Chrome trace span.
  uint64_t failover_corr_ = 0;
  std::vector<TimelineSample> timeline_;
  SampleHook sample_hook_;
  ScenarioMetrics final_metrics_;
  bool finished_ = false;
};

}  // namespace scallop::harness
