#include "core/fleet.hpp"

#include <algorithm>
#include <cstdarg>
#include <limits>
#include <stdexcept>

namespace scallop::core {

namespace {

// Whether a relay path rides into `hit`: a backbone link {a, b} (a < b)
// it crosses, or a switch {s, s} on it.
bool PathHit(const std::vector<size_t>& path, std::pair<size_t, size_t> hit) {
  for (size_t i = 0; i < path.size(); ++i) {
    if (hit.first == hit.second) {
      if (path[i] == hit.first) return true;
    } else if (i + 1 < path.size() &&
               std::min(path[i], path[i + 1]) == hit.first &&
               std::max(path[i], path[i + 1]) == hit.second) {
      return true;
    }
  }
  return false;
}

// Whether a relay path rides into any of `failures` (PathHit's shapes).
bool PathHitsAny(const std::vector<size_t>& path,
                 const std::vector<std::pair<size_t, size_t>>& failures) {
  return std::any_of(failures.begin(), failures.end(),
                     [&](const auto& f) { return PathHit(path, f); });
}

// What protection must route around: every backbone link whose registered
// load exceeds its capacity, as {a, b} (a < b), and every switch the table
// marks dead, as {s, s}.
std::vector<std::pair<size_t, size_t>> Failures(const SwitchTable& table) {
  std::vector<std::pair<size_t, size_t>> failures =
      table.topology().OverloadedLinks();
  for (size_t s = 0; s < table.size(); ++s) {
    if (!table[s].alive) failures.emplace_back(s, s);
  }
  return failures;
}

// Relay `r`'s standby chain (`active` false), or the promoted chain
// carrying it (`active` true); nullptr when it has none.
SecondaryTree* ChainOf(MeetingRecord& st, const MeetingRelay& r,
                       bool active) {
  for (SecondaryTree& t : st.secondaries) {
    if (t.active == active && t.origin == r.origin &&
        t.upstream == r.upstream && t.downstream == r.downstream) {
      return &t;
    }
  }
  return nullptr;
}

// The relay's current transport: its promoted chain's path once flipped,
// its own backbone path otherwise.
const std::vector<size_t>& CurrentPath(MeetingRecord& st,
                                       const MeetingRelay& r) {
  const SecondaryTree* chain = ChainOf(st, r, /*active=*/true);
  return chain != nullptr ? chain->path : r.backbone_path;
}

// Tells every other member homed on `switch_index` that `sender` (a
// member or a relay sender parked there) left, so its client drops the
// leg.
void NotifySenderLeft(const MeetingRecord& st, size_t switch_index,
                      ParticipantId sender) {
  for (const auto& [pid, info] : st.members) {
    if (pid != sender && info.home_switch == switch_index &&
        info.client != nullptr) {
      info.client->OnRemoteSenderLeft(sender);
    }
  }
}

}  // namespace

size_t SwitchTable::Add(ControlChannel& channel, net::Ipv4 sfu_ip,
                        size_t owner) {
  const size_t index = records_.size();
  Record& rec = records_.emplace_back();
  rec.channel = &channel;
  // Disjoint participant-id range per switch: without it, two switches
  // both counting from 1 could hand out the same id, and a stale Leave
  // for a participant migrated off one switch would pass the membership
  // guard and kick a live, unrelated member on another.
  constexpr ParticipantId kIdStride = 1'000'000;
  rec.next_participant = static_cast<ParticipantId>(index) * kIdStride + 1;
  rec.sfu_ip = sfu_ip;
  rec.owner = owner;
  rec.last_heartbeat = channel.sched().now();
  topology_.EnsureNodes(records_.size());
  return index;
}

void SwitchTable::SetCapacity(size_t index, double capacity_class) {
  if (index >= records_.size()) {
    throw std::out_of_range("SwitchTable: SetCapacity index");
  }
  if (capacity_class <= 0.0) {
    throw std::invalid_argument("SwitchTable: capacity class must be positive");
  }
  records_[index].capacity_class = capacity_class;
}

FleetController::FleetController(SwitchTable& table,
                                 const FleetSettings& settings, size_t region)
    : table_(table), settings_(settings), region_(region) {}

FleetController::~FleetController() = default;

MeetingRecord* FleetController::Find(MeetingId meeting) {
  auto it = meetings_.find(meeting);
  return it == meetings_.end() ? nullptr : &it->second;
}

const MeetingRecord* FleetController::Find(MeetingId meeting) const {
  auto it = meetings_.find(meeting);
  return it == meetings_.end() ? nullptr : &it->second;
}

void FleetController::Trace(obs::Category category, const char* name,
                            const char* fmt, ...) {
  if (trace_ == nullptr || sched_ == nullptr) return;
  va_list ap;
  va_start(ap, fmt);
  obs::VEmitf(trace_, sched_->now(), category, trace_track_, name,
              active_chain_, fmt, ap);
  va_end(ap);
}

size_t FleetController::AddSwitch(ControlChannel& channel, net::Ipv4 sfu_ip) {
  const size_t index = table_.Add(channel, sfu_ip, region_);
  if (sched_ == nullptr) sched_ = &channel.sched();
  channel.Subscribe(this, index);
  ArmFailureDetector(channel);
  return index;
}

void FleetController::ArmFailureDetector(const ControlChannel& channel) {
  const util::DurationUs interval = channel.config().heartbeat_interval;
  if (interval <= 0 || sched_ == nullptr) return;
  // Idempotent per channel: an equal-or-finer detector already covers
  // this channel's cadence. (The old code armed only for the *first*
  // switch's channel — a first channel with heartbeats disabled left
  // every later switch undetected.)
  if (detector_task_ != nullptr && detector_interval_ > 0 &&
      detector_interval_ <= interval) {
    return;
  }
  detector_interval_ = interval;
  detector_task_ = std::make_unique<sim::PeriodicTask>(
      *sched_, interval, [this] {
        CheckHeartbeats();
        return true;
      });
}

void FleetController::ConfigureIdSpace(MeetingId first_meeting,
                                       MeetingId meeting_stride,
                                       ParticipantId relay_id_base) {
  next_meeting_ = first_meeting;
  meeting_stride_ = meeting_stride;
  next_relay_id_ = relay_id_base;
}

void FleetController::Shutdown() {
  if (dead_) return;
  dead_ = true;
  // The control loops die with the controller; switch channels keep
  // emitting telemetry into the void (guarded in the sinks) and agents
  // keep forwarding media — a controller death is not a switch death.
  detector_task_.reset();
  detector_interval_ = 0;
  rebalance_task_.reset();
}

size_t FleetController::AdoptShardFrom(FleetController& failed) {
  // The dead peer's switches change owner; their telemetry and failure
  // detection re-point here. Their id counters, counts and liveness stay
  // where they are, in the table.
  for (size_t i = 0; i < table_.size(); ++i) {
    SwitchTable::Record& sw = table_[i];
    if (sw.owner != failed.region_) continue;
    sw.owner = region_;
    sw.report_seen = false;  // stale reports predate the handoff
    sw.last_heartbeat = sched_ != nullptr ? sched_->now() : 0;
    sw.channel->Subscribe(this, i);
    ArmFailureDetector(*sw.channel);
  }
  // The meeting records move unchanged; their relay load is already on
  // the shared link-state view.
  const size_t adopted = failed.meetings_.size();
  meetings_.merge(failed.meetings_);
  // Each adopted meeting was re-homed to a new controller — the same
  // bookkeeping a MigrateMeeting re-home gets, so fleet-wide counters
  // show the takeover.
  stats_.placements_rebalanced += adopted;
  Trace(obs::Category::kFleet, "fleet.shard_adopted",
        "meetings=%zu switches=%zu", adopted, table_.size());
  return adopted;
}

void FleetController::OnLinkCapacityChanged(size_t a, size_t b,
                                            double capacity_bps) {
  // The capacity change opens a causal chain every replan collapse and
  // tree flip it forces rides.
  const uint64_t prev_chain = active_chain_;
  active_chain_ = obs::NextCorrelation(trace_);
  Trace(obs::Category::kTopology, "topology.link_capacity",
        "link=%zu-%zu bps=%.0f", a, b, capacity_bps);
  ReplanOverloadedLinks();
  active_chain_ = prev_chain;
}

void FleetController::ReplanOverloadedLinks() {
  // Make-before-break first: relays riding an overloaded link flip onto
  // standbys that avoid it, so receivers keep a continuous stream.
  for (auto& [meeting, st] : meetings_) ReconcileProtection(st);
  // Collapse one subtree riding an overloaded link at a time, re-checking
  // the overload set after every collapse: an earlier collapse may have
  // already relieved the link, and blacking out further meetings for a
  // link that is back under budget would be a needless renegotiation.
  // Each collapse removes at least one span, which bounds the loop.
  for (;;) {
    const auto overloaded = topology().OverloadedLinks();
    if (overloaded.empty()) return;
    bool collapsed = false;
    for (auto& [meeting, st] : meetings_) {
      size_t child = SIZE_MAX;
      for (const MeetingRelay& r : st.relays) {
        for (const auto& link : overloaded) {
          if (!PathHit(CurrentPath(st, r), link)) continue;
          // The child side of the tree edge is whichever end is deeper.
          const size_t up_d = st.placement.DepthOf(r.upstream);
          const size_t down_d = st.placement.DepthOf(r.downstream);
          child = down_d != SIZE_MAX && (up_d == SIZE_MAX || down_d > up_d)
                      ? r.downstream
                      : r.upstream;
          break;
        }
        if (child != SIZE_MAX) break;
      }
      if (child == SIZE_MAX || child == st.placement.home ||
          st.placement.SpanOn(child) == nullptr) {
        continue;
      }
      ++stats_.relay_replans;
      Trace(obs::Category::kTopology, "topology.replan",
            "meeting=%u collapsed=%zu home=%zu",
            static_cast<unsigned>(meeting), child, st.placement.home);
      if (settings_.on_moved) {
        settings_.on_moved(meeting, SubtreeMembers(st, child));
      }
      TearDownSpan(st, child, /*switch_dead=*/false);
      st.frozen = true;
      collapsed = true;
      break;  // re-evaluate the overload set before touching more state
    }
    // Overloaded links none of our relays cross (load floor artifacts)
    // cannot be relieved by collapsing anything; stop rather than spin.
    if (!collapsed) return;
  }
}

void FleetController::OnHeartbeat(size_t switch_index) {
  if (dead_) return;  // telemetry into a crashed controller goes nowhere
  ++stats_.heartbeats_seen;
  table_[switch_index].last_heartbeat = sched_->now();
}

void FleetController::OnLoadReport(size_t switch_index,
                                   const SwitchLoadReport& report) {
  if (dead_) return;
  ++stats_.load_reports_seen;
  SwitchTable::Record& m = table_[switch_index];
  m.last_report = report;
  m.report_seen = true;
  m.last_heartbeat = sched_->now();  // a load report proves liveness too
}

void FleetController::CheckHeartbeats() {
  if (dead_) return;
  for (size_t i = 0; i < table_.size(); ++i) {
    SwitchTable::Record& m = table_[i];
    // Other regions' switches are theirs to watch; their heartbeats go to
    // the owner's sink, so judging them here would always "miss".
    if (!OwnsSwitch(i) || !m.alive) continue;
    const util::DurationUs interval = m.channel->config().heartbeat_interval;
    if (interval <= 0) continue;
    // The detector is calibrated to the channel: a heartbeat is only late
    // once its one-way delivery latency has passed too. Without this, any
    // configured control latency above two intervals would falsely kill
    // every switch at startup (and after every revive), before its first
    // heartbeat could possibly arrive.
    const util::DurationUs latency = m.channel->config().latency;
    const util::DurationUs gap = sched_->now() - m.last_heartbeat;
    if (gap < 2 * interval + latency) continue;  // one interval late: fine
    ++stats_.heartbeats_missed;
    const bool death = gap >= kHeartbeatMissThreshold * interval + latency;
    // The fatal miss opens a causal chain that the death and every
    // migration it forces ride; sub-threshold misses stay uncorrelated.
    if (death) active_chain_ = obs::NextCorrelation(trace_);
    Trace(obs::Category::kFleet, "switch.heartbeat_miss",
          "switch=%zu gap_us=%lld", i, static_cast<long long>(gap));
    if (death) {
      ++stats_.switches_failed;
      Trace(obs::Category::kFleet, "switch.dead", "switch=%zu", i);
      OnSwitchDown(i);
      active_chain_ = 0;
    }
  }
}

void FleetController::EnableRebalancer() {
  if (sched_ == nullptr) {
    throw std::logic_error(
        "FleetController: EnableRebalancer needs a registered switch");
  }
  rebalance_task_ = std::make_unique<sim::PeriodicTask>(
      *sched_, settings_.rebalance.interval, [this] {
        Rebalance();
        return true;
      });
}

void FleetController::FreezeMeetings(const std::vector<MeetingId>& meetings) {
  for (MeetingId meeting : meetings) {
    MeetingRecord* rec = Find(meeting);
    if (rec != nullptr) rec->frozen = true;
  }
}

bool FleetController::IsFrozen(MeetingId meeting) const {
  const MeetingRecord* rec = Find(meeting);
  return rec != nullptr && rec->frozen;
}

void FleetController::Rebalance() {
  if (dead_) return;
  // Decisions run on the *reported* load — what the northbound telemetry
  // says — not on the fleet's own bookkeeping; a switch that never
  // reported, is dead, or is another region's does not participate (the
  // table, reports included, is shared). Reported participants are
  // weighted by each switch's capacity class, so a big switch legitimately
  // carrying more load is not mistaken for an overloaded one; with every
  // class at 1.0 the comparisons are byte-identical to the unweighted
  // integers they replace.
  size_t busiest = SIZE_MAX, idlest = SIZE_MAX;
  double busiest_load = -1.0,
         idlest_load = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < table_.size(); ++i) {
    const SwitchTable::Record& m = table_[i];
    if (!OwnsSwitch(i) || !m.alive || !m.report_seen) continue;
    const double weighted = m.last_report.participants / m.capacity_class;
    if (weighted > busiest_load) {
      busiest_load = weighted;
      busiest = i;
    }
    if (weighted < idlest_load) {
      idlest_load = weighted;
      idlest = i;
    }
  }
  if (busiest == SIZE_MAX || idlest == SIZE_MAX || busiest == idlest) return;
  if (busiest_load - idlest_load < settings_.rebalance.imbalance_threshold) {
    return;
  }

  // Pick the smallest migratable meeting on the overloaded switch whose
  // move strictly shrinks the gap (so the pair cannot swap roles and
  // ping-pong), skipping meetings moved less than one interval ago,
  // meetings mid-renegotiation (failover blackout / re-signal window —
  // their members are down and moving them again would strand the
  // re-joins), and cascaded meetings (their load is already spread by the
  // placement policy; collapsing them onto one switch would fight it).
  const util::TimeUs now = sched_->now();
  MeetingId pick = 0;
  int pick_size = std::numeric_limits<int>::max();
  for (const auto& [meeting, st] : meetings_) {
    if (st.placement.home != busiest) continue;
    if (st.placement.spans_switches()) continue;
    if (st.frozen) continue;
    if (st.migrated_once &&
        now - st.last_migrated < settings_.rebalance.interval) {
      continue;
    }
    const int size = static_cast<int>(st.members.size());
    if (size <= 0 || size / table_[busiest].capacity_class >=
                         busiest_load - idlest_load) {
      continue;
    }
    if (size < pick_size) {
      pick_size = size;
      pick = meeting;
    }
  }
  if (pick == 0) return;
  ++stats_.rebalance_migrations;
  const uint64_t prev_chain = active_chain_;
  active_chain_ = obs::NextCorrelation(trace_);
  Trace(obs::Category::kFleet, "rebalance.migrate",
        "meeting=%u from=%zu to=%zu", static_cast<unsigned>(pick), busiest,
        idlest);
  MigrateMeeting(pick, idlest);
  active_chain_ = prev_chain;
}

std::vector<SwitchLoad> FleetController::Loads() const {
  std::vector<SwitchLoad> loads;
  loads.reserve(table_.size());
  for (size_t i = 0; i < table_.size(); ++i) {
    // Other regions' switches are invisible to the placement policy
    // (reported not alive): only the border-span planner may target them.
    const SwitchTable::Record& sw = table_[i];
    loads.push_back(SwitchLoad{OwnsSwitch(i) && sw.alive, sw.participants,
                               sw.meetings, sw.capacity_class});
  }
  return loads;
}

MeetingId FleetController::CreateMeeting() {
  if (dead_) {
    throw std::runtime_error("FleetController: controller is down");
  }
  size_t idx = settings_.policy->PlaceMeeting(Loads());
  if (idx == SIZE_MAX) {
    throw std::runtime_error("FleetController: no live switch to place on");
  }
  const MeetingId local = OpenLocalMeeting(idx);
  MeetingId global = next_meeting_;
  next_meeting_ += meeting_stride_;
  MeetingRecord& st = meetings_[global];
  st.placement.home = idx;
  st.placement.local_meeting = local;
  ++stats_.meetings_placed;
  Trace(obs::Category::kPlacement, "placement.meeting_placed",
        "meeting=%u switch=%zu", static_cast<unsigned>(global), idx);
  return global;
}

MeetingId FleetController::LocalMeetingOn(const MeetingRecord& st,
                                          size_t switch_index) const {
  if (switch_index == st.placement.home) return st.placement.local_meeting;
  const RelaySpan* span = st.placement.SpanOn(switch_index);
  if (span != nullptr) return span->local_meeting;
  // Interior secondary-tree hops live in protection meetings; after a
  // flip the relay's upstream may be such a switch.
  auto it = st.protection_meetings.find(switch_index);
  return it == st.protection_meetings.end() ? 0 : it->second;
}

ParticipantId FleetController::NextRelayId() { return next_relay_id_++; }

MeetingId FleetController::OpenLocalMeeting(size_t switch_index) {
  SwitchTable::Record& sw = table_[switch_index];
  const MeetingId local = sw.next_meeting++;
  sw.channel->CreateMeeting(local);
  ++sw.meetings;
  return local;
}

void FleetController::EndLocalMeeting(const MeetingRecord& st,
                                      size_t switch_index) {
  // Every member homed here drops its legs before the meeting state goes
  // away; otherwise clients keep stale receive legs toward an SFU port
  // that no longer exists and never learn the meeting ended.
  for (const auto& [pid, info] : st.members) {
    if (info.home_switch == switch_index && info.intent.sends()) {
      NotifySenderLeft(st, switch_index, pid);
    }
  }
  for (const MeetingRelay& r : st.relays) {
    if (r.downstream == switch_index) {
      NotifySenderLeft(st, switch_index, r.relay_sender);
    }
  }
  table_[switch_index].channel->RemoveMeeting(LocalMeetingOn(st, switch_index));
}

void FleetController::OpenLeg(const MeetingRecord& st, size_t switch_index,
                              ParticipantId receiver, SignalingClient& client,
                              ParticipantId sender, uint32_t video_ssrc,
                              uint32_t audio_ssrc) {
  SwitchTable::Record& sw = table_[switch_index];
  const net::Endpoint local = client.AllocateLocalLeg(sender);
  const uint16_t port = sw.channel->AddRecvLeg(
      LocalMeetingOn(st, switch_index), receiver, sender, local);
  client.OnRemoteLegReady(sender, video_ssrc, audio_ssrc,
                          net::Endpoint{sw.sfu_ip, port});
}

RelaySpan& FleetController::EnsureSpan(MeetingRecord& st,
                                       size_t switch_index) {
  for (RelaySpan& span : st.placement.spans) {
    if (span.switch_index == switch_index) return span;
  }
  // The policy parents the new span onto the tree (home by default —
  // hub-and-spoke; a topology-aware policy may hang it off another span).
  size_t parent =
      settings_.policy->ChooseSpanParent(st.placement, switch_index);
  const bool parent_on_plan =
      parent == st.placement.home || st.placement.SpanOn(parent) != nullptr;
  if (!parent_on_plan || parent == switch_index) parent = st.placement.home;

  RelaySpan span;
  span.switch_index = switch_index;
  span.parent = parent == st.placement.home ? SIZE_MAX : parent;
  span.local_meeting = OpenLocalMeeting(switch_index);
  const size_t at = st.placement.spans.size();
  st.placement.spans.push_back(std::move(span));
  ++stats_.relay_spans_installed;
  Trace(obs::Category::kPlacement, "placement.span_installed",
        "switch=%zu parent=%zu home=%zu", switch_index, parent,
        st.placement.home);

  // Route every existing sender's stream into the new span along the
  // relay tree, so its first member immediately sees the whole meeting.
  for (const auto& [pid, info] : st.members) {
    if (!info.intent.sends() || info.home_switch == switch_index) continue;
    EnsureSenderAt(st, pid, info.home_switch, switch_index, info.intent);
  }
  // Relay wiring never touches the span list: the new span is still there.
  return st.placement.spans[at];
}

ParticipantId FleetController::EnsureSenderAt(MeetingRecord& st,
                                              ParticipantId origin,
                                              size_t origin_switch,
                                              size_t target_switch,
                                              const SenderIntent& intent) {
  const std::vector<size_t> path =
      st.placement.TreePath(origin_switch, target_switch);
  // Each hop forwards the stream under the id it is known by upstream:
  // the origin itself on its home switch, the relay sender the previous
  // hop delivered it as elsewhere.
  ParticipantId carried = origin;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    carried = EnsureRelay(st, path[i], path[i + 1], origin, carried, intent);
  }
  return carried;
}

ParticipantId FleetController::EnsureRelay(MeetingRecord& st, size_t upstream,
                                           size_t downstream,
                                           ParticipantId origin,
                                           ParticipantId upstream_sender,
                                           const SenderIntent& origin_intent) {
  for (const MeetingRelay& r : st.relays) {
    if (r.origin == origin && r.downstream == downstream) {
      return r.relay_sender;
    }
  }
  MeetingRelay r;
  r.origin = origin;
  r.upstream = upstream;
  r.downstream = downstream;
  r.upstream_sender = upstream_sender;
  r.relay_receiver = NextRelayId();
  r.relay_sender = NextRelayId();
  r.video_ssrc = origin_intent.video_ssrc;
  r.audio_ssrc = origin_intent.audio_ssrc;
  r.sends_video = origin_intent.sends_video;
  r.sends_audio = origin_intent.sends_audio;
  WireHop(r, LocalMeetingOn(st, upstream), LocalMeetingOn(st, downstream), r,
          /*merge=*/false);

  // Register the hop's estimated stream load on every backbone link its
  // media physically crosses, so residual-capacity planning and the
  // overload re-planner see this relay.
  r.backbone_path = topology().RelayPath(upstream, downstream);
  r.load_bps = settings_.relay_stream_bps;
  topology().AddLoad(r.backbone_path, r.load_bps);

  // Real members already homed downstream open receive legs toward the
  // relay sender, exactly as they would for a local joiner.
  for (const auto& [pid, info] : st.members) {
    if (info.home_switch == downstream && info.client != nullptr) {
      OpenLeg(st, downstream, pid, *info.client, r.relay_sender, r.video_ssrc,
              r.audio_ssrc);
    }
  }

  st.relays.push_back(r);
  return r.relay_sender;
}

void FleetController::WireHop(RelayHop& hop, MeetingId up_meeting,
                              MeetingId down_meeting,
                              const MeetingRelay& stream, bool merge) {
  SwitchTable::Record& up = table_[hop.upstream];
  SwitchTable::Record& down = table_[hop.downstream];
  // Ports are controller-assigned, which breaks the endpoint cycle: the
  // downstream switch must know where relayed media will arrive *from*
  // (the upstream relay leg), the upstream switch where to send it *to*
  // (the downstream relay uplink). Reserve the upstream port first, tell
  // the downstream switch, then install the upstream leg on the reserved
  // port.
  hop.upstream_port = up.channel->AllocatePort();
  const net::Endpoint upstream_src{up.sfu_ip, hop.upstream_port};
  if (merge) {
    down.channel->AddRelaySource(down_meeting, hop.relay_sender, upstream_src,
                                 settings_.redundancy.dedup_window);
  } else {
    hop.downstream_port = down.channel->AddRelaySender(
        down_meeting, hop.relay_sender, upstream_src, stream.video_ssrc,
        stream.audio_ssrc, stream.sends_video, stream.sends_audio);
  }
  up.channel->AddRelayLeg(up_meeting, hop.relay_receiver, hop.upstream_sender,
                          net::Endpoint{down.sfu_ip, hop.downstream_port},
                          hop.upstream_port);
}

void FleetController::RouteSenderEverywhere(MeetingRecord& st,
                                            ParticipantId origin,
                                            size_t origin_switch,
                                            const SenderIntent& origin_intent) {
  // Per hop along the relay tree: visiting targets in plan order (home,
  // then spans as created) while each chain reuses hops idempotently
  // yields exactly one relay copy per tree edge. On hub-and-spoke plans
  // this produces the same relays in the same order as the old
  // spoke->hub->spokes wiring, so cascades are byte-compatible.
  for (size_t target : st.placement.Switches()) {
    if (target == origin_switch) continue;
    EnsureSenderAt(st, origin, origin_switch, target, origin_intent);
  }
}

FleetController::JoinResult FleetController::Join(
    MeetingId meeting, const sdp::SessionDescription& offer,
    SignalingClient* client) {
  if (dead_) {
    throw std::runtime_error("FleetController: controller is down");
  }
  MeetingRecord* found = Find(meeting);
  if (found == nullptr) {
    throw std::out_of_range("FleetController: unknown meeting");
  }
  MeetingRecord& st = *found;
  size_t target = settings_.policy->PlaceParticipant(st.placement, Loads());
  if (target >= table_.size()) target = st.placement.home;

  // The policy falling back to an already-full home switch means it is
  // out of local capacity. Under a federation that overflow is worth a
  // cross-region border span: ask the plane for a guest switch to span
  // onto (one a peer region owns; it rides the ordinary RelaySpan
  // mechanics below). A federation of one has no peer to lend, and a
  // controller without a provider never asks.
  if (target == st.placement.home && border_provider_ != nullptr) {
    const int budget = settings_.policy->SpanBudget();
    if (budget > 0 &&
        static_cast<int>(st.placement.home_participants.size()) >= budget) {
      const size_t guest = border_provider_(meeting);
      if (guest < table_.size() && guest != st.placement.home) {
        target = guest;
      }
    }
  }

  RelaySpan* span = target == st.placement.home ? nullptr
                                                 : &EnsureSpan(st, target);
  SwitchTable::Record& sw = table_[target];
  const ParticipantId id = sw.next_participant++;
  const SenderIntent intent = ParseSenderIntent(offer);
  const uint16_t uplink_port = sw.channel->AddParticipant(
      LocalMeetingOn(st, target), id, intent.media_src, intent.video_ssrc,
      intent.audio_ssrc, intent.sends_video, intent.sends_audio);
  JoinResult result;
  result.participant = id;
  result.uplink_sfu = net::Endpoint{sw.sfu_ip, uplink_port};
  // Answer with candidates rewritten to the SFU: the proxy insertion of
  // paper §5.1 — the client believes the SFU endpoint is its peer.
  result.answer = sdp::MakeAnswer(offer, result.uplink_sfu,
                                  "sfu" + std::to_string(id), "pwd");

  // Per-participant stream split: the new member opens one receive leg
  // per sender already homed here, and each member homed here opens one
  // for the new sender (if it sends).
  for (const auto& [pid, info] : st.members) {
    if (info.home_switch != target) continue;
    if (info.intent.sends()) {
      OpenLeg(st, target, id, *client, pid, info.intent.video_ssrc,
              info.intent.audio_ssrc);
    }
    if (intent.sends()) {
      OpenLeg(st, target, pid, *info.client, id, intent.video_ssrc,
              intent.audio_ssrc);
    }
  }
  ++sw.participants;
  st.members[id] = MeetingMemberInfo{target, client, intent};
  (span != nullptr ? span->participants : st.placement.home_participants)
      .push_back(id);

  // Remote participants' streams arrive here as relay senders parked on
  // this switch; the new member opens a leg toward each of them.
  for (const MeetingRelay& r : st.relays) {
    if (r.downstream == target) {
      OpenLeg(st, target, id, *client, r.relay_sender, r.video_ssrc,
              r.audio_ssrc);
    }
  }

  // And this participant's own media must reach every other switch the
  // meeting spans.
  if (intent.sends()) RouteSenderEverywhere(st, id, target, intent);

  // Every relay installed for (or discovered by) this join gets its
  // disjoint secondary tree while the wiring is still quiescent — the
  // decode-target pins land before any estimate could adapt a leg and
  // fork the two trees' sequence numbering. A relay installed over a
  // failed link flips onto its new standby at once.
  ReconcileProtection(st);

  // A member (re-)joined: the meeting is out of its renegotiation window.
  st.frozen = false;
  return result;
}

void FleetController::UnregisterRelayLoad(const MeetingRelay& relay) {
  topology().RemoveLoad(relay.backbone_path, relay.load_bps);
}

void FleetController::RemoveSenderRelays(MeetingRecord& st,
                                         ParticipantId origin) {
  // Protection first: a chain's last-hop RemoveRelaySource must apply
  // while the protected relay sender still exists downstream.
  for (auto it = st.secondaries.begin(); it != st.secondaries.end();) {
    it = it->origin == origin ? DropSecondary(st, it) : it + 1;
  }
  for (auto it = st.relays.begin(); it != st.relays.end();) {
    if (it->origin != origin) {
      ++it;
      continue;
    }
    const MeetingRelay r = *it;
    UnregisterRelayLoad(r);
    NotifySenderLeft(st, r.downstream, r.relay_sender);
    table_[r.downstream].channel->RemoveParticipant(
        LocalMeetingOn(st, r.downstream), r.relay_sender);
    table_[r.upstream].channel->RemoveParticipant(
        LocalMeetingOn(st, r.upstream), r.relay_receiver);
    it = st.relays.erase(it);
  }
  GcProtectionMeetings(st);
}

std::vector<ParticipantId> FleetController::SubtreeMembers(
    const MeetingRecord& st, size_t root) const {
  std::vector<ParticipantId> ids;
  for (const RelaySpan& span : st.placement.spans) {
    // Walk up from the span; the span count bounds the walk.
    size_t at = span.switch_index;
    for (size_t hop = 0; hop <= st.placement.spans.size() && at != SIZE_MAX;
         ++hop, at = st.placement.ParentOf(at)) {
      if (at != root) continue;
      ids.insert(ids.end(), span.participants.begin(),
                 span.participants.end());
      break;
    }
  }
  return ids;
}

void FleetController::EraseParticipantFromPlacement(MeetingRecord& st,
                                                    ParticipantId p) {
  auto& hp = st.placement.home_participants;
  hp.erase(std::remove(hp.begin(), hp.end(), p), hp.end());
  for (RelaySpan& span : st.placement.spans) {
    auto& sp = span.participants;
    sp.erase(std::remove(sp.begin(), sp.end(), p), sp.end());
  }
}

void FleetController::Leave(MeetingId meeting, ParticipantId participant) {
  if (dead_) return;  // the crashed controller can no longer sign anyone out
  MeetingRecord* found = Find(meeting);
  if (found == nullptr) return;
  MeetingRecord& st = *found;
  // Membership guard: a participant who never joined (or already left —
  // e.g. dropped by a switch failure before its scheduled leave fired)
  // must not decrement the hosting switch's load.
  auto mit = st.members.find(participant);
  if (mit == st.members.end()) return;
  const size_t at = mit->second.home_switch;

  // Tear the leaver's relay spans' wiring down first, so remote members
  // drop their legs toward the relayed stream before any state vanishes.
  RemoveSenderRelays(st, participant);

  --table_[at].participants;
  table_[at].channel->RemoveParticipant(LocalMeetingOn(st, at), participant);
  EraseParticipantFromPlacement(st, participant);
  st.members.erase(mit);
  NotifySenderLeft(st, at, participant);

  // Span garbage collection: a span whose last member left is drained —
  // its relay plumbing and switch-local meeting go away, and the span
  // disappears from the placement. An interior span with child spans
  // still hanging off it stays: it is a live relay hop for its subtree
  // even with no local members. Draining a leaf may leave its memberless
  // parent childless, so the drain cascades up the tree.
  size_t drain = at;
  while (drain != st.placement.home && drain != SIZE_MAX) {
    const RelaySpan* span = st.placement.SpanOn(drain);
    if (span == nullptr || !span->participants.empty() ||
        st.placement.HasChildSpans(drain)) {
      break;
    }
    const size_t parent = st.placement.ParentOf(drain);
    TearDownSpan(st, drain, /*switch_dead=*/false);
    drain = parent;
  }
}

void FleetController::TearDownSpan(MeetingRecord& st, size_t switch_index,
                                   bool switch_dead) {
  const RelaySpan* span = st.placement.SpanOn(switch_index);
  if (span == nullptr) return;

  // Child spans reach the rest of the meeting through this one: collapse
  // the whole subtree first (their switches are alive — only their relay
  // path died — so their teardown commands still apply).
  for (;;) {
    const auto child = std::find_if(
        st.placement.spans.begin(), st.placement.spans.end(),
        [&](const RelaySpan& s) {
          return st.placement.ParentOf(s.switch_index) == switch_index;
        });
    if (child == st.placement.spans.end()) break;
    TearDownSpan(st, child->switch_index, /*switch_dead=*/false);
  }
  span = st.placement.SpanOn(switch_index);
  if (span == nullptr) return;
  // Members still homed on the span (switch failure / forced collapse /
  // meeting end) lose their sessions with it.
  const std::vector<ParticipantId> dropped = span->participants;

  // Remove every relay touching the span: toward it (downstream == span),
  // from it (origin homed on the span — including second-hop fan-out of
  // those origins via the home switch).
  auto origin_on_span = [&](ParticipantId origin) {
    return std::find(dropped.begin(), dropped.end(), origin) != dropped.end();
  };
  auto touches_span = [&](const MeetingRelay& r) {
    return r.downstream == switch_index || r.upstream == switch_index ||
           origin_on_span(r.origin);
  };
  // Secondary trees routing through the span's switch (endpoints are on
  // the path too) or protecting a relay that dies with the span go first,
  // while the relay state their teardown commands touch still exists.
  for (auto it = st.secondaries.begin(); it != st.secondaries.end();) {
    const bool touches = PathHit(it->path, {switch_index, switch_index}) ||
                         origin_on_span(it->origin);
    it = touches ? DropSecondary(st, it) : it + 1;
  }
  std::map<size_t, std::vector<ParticipantId>> removals;  // per switch
  for (const MeetingRelay& r : st.relays) {
    if (!touches_span(r)) continue;
    UnregisterRelayLoad(r);
    if (r.downstream == switch_index) {
      // The span-side relay sender dies with the span's meeting; only the
      // upstream pseudo-receiver needs an explicit removal.
      removals[r.upstream].push_back(r.relay_receiver);
    } else {
      NotifySenderLeft(st, r.downstream, r.relay_sender);
      removals[r.downstream].push_back(r.relay_sender);
      removals[r.upstream].push_back(r.relay_receiver);
    }
  }
  for (auto& [sw, ids] : removals) {
    if (sw == switch_index && switch_dead) continue;  // state died with it
    table_[sw].channel->RemoveRelaySpan(LocalMeetingOn(st, sw), ids);
  }
  // Now that every relay-removal command referencing them is dispatched,
  // drained protection meetings can go.
  GcProtectionMeetings(st);

  // End the span-local meeting while its members and the relay senders
  // parked on it are still on record, so each member hears that every
  // sender it received there left (on forced collapses the sessions are
  // already dead and the notices are no-ops on the client). RemoveMeeting
  // clears the remaining agent state, the span's relay senders included.
  EndLocalMeeting(st, switch_index);
  std::erase_if(st.relays, touches_span);
  for (ParticipantId p : dropped) {
    --table_[switch_index].participants;
    st.members.erase(p);
  }
  --table_[switch_index].meetings;
  std::erase_if(st.placement.spans, [&](const RelaySpan& s) {
    return s.switch_index == switch_index;
  });
  ++stats_.relay_spans_removed;
}

// ---- redundant dual relay trees ---------------------------------------------

MeetingId FleetController::ProtectionMeetingOn(MeetingRecord& st,
                                               size_t switch_index) {
  auto it = st.protection_meetings.find(switch_index);
  if (it != st.protection_meetings.end()) return it->second;
  const MeetingId local = OpenLocalMeeting(switch_index);
  st.protection_meetings[switch_index] = local;
  return local;
}

void FleetController::GcProtectionMeetings(MeetingRecord& st) {
  for (auto it = st.protection_meetings.begin();
       it != st.protection_meetings.end();) {
    const size_t sw = it->first;
    bool used = false;
    for (const SecondaryTree& t : st.secondaries) {
      for (size_t i = 1; !used && i + 1 < t.path.size(); ++i) {
        used = t.path[i] == sw;
      }
    }
    if (used) {
      ++it;
      continue;
    }
    // A protection meeting has no members to notify.
    if (table_[sw].alive) table_[sw].channel->RemoveMeeting(it->second);
    --table_[sw].meetings;
    it = st.protection_meetings.erase(it);
  }
}

void FleetController::ReconcileProtection(MeetingRecord& st) {
  if (!settings_.redundancy.redundant_trees) return;
  // An implicit full mesh has no declared links to be disjoint from (and
  // no physical backbone routes for the chain to diverge over).
  if (!topology().explicit_topology()) return;
  // One pass is enough: a drop or a flip only takes load off links (a
  // chain's load was registered when it was planned), and a plan only adds
  // load where its path has room, so no change below creates a failure.
  for (MeetingRelay& r : st.relays) {
    // Every change moves load: read the failures afresh for each relay.
    const auto failures = Failures(table_);
    SecondaryTree* standby = ChainOf(st, r, /*active=*/false);
    if (standby != nullptr && PathHitsAny(standby->path, failures)) {
      DropSecondary(st, st.secondaries.begin() +
                            (standby - st.secondaries.data()));
      standby = nullptr;
    }
    if (standby == nullptr) standby = PlanSecondary(st, r, failures);
    // An empty transport is a lost one: a span collapse dropped the chain
    // an earlier flip promoted, and only the standby still feeds the relay.
    const std::vector<size_t>& current = CurrentPath(st, r);
    if (standby != nullptr &&
        (current.empty() || PathHitsAny(current, failures))) {
      FlipRelay(st, r, *standby);
      PlanSecondary(st, r, failures);
    }
  }
  GcProtectionMeetings(st);
}

SecondaryTree* FleetController::PlanSecondary(
    MeetingRecord& st, MeetingRelay& r,
    const std::vector<std::pair<size_t, size_t>>& failures) {
  // Be disjoint from the relay's *current* transport — its own backbone
  // path, or the promoted chain's if a flip already happened — and from
  // every link a failure lands on (a failed link, or any link of a dead
  // switch).
  const std::vector<size_t>& current = CurrentPath(st, r);
  std::vector<std::pair<size_t, size_t>> avoid;
  for (size_t i = 0; i + 1 < current.size(); ++i) {
    avoid.emplace_back(current[i], current[i + 1]);
  }
  for (const auto& link : topology().links()) {
    if (PathHitsAny({link.a, link.b}, failures)) {
      avoid.emplace_back(link.a, link.b);
    }
  }
  const std::vector<size_t> path = topology().DisjointPath(
      r.upstream, r.downstream, avoid, settings_.relay_stream_bps);
  // No useful secondary: unreachable, the "disjoint" path is the current
  // transport itself (a bridge link with no way around it), the only way
  // round still crosses a failure, or it lacks room for the stream.
  if (path.size() < 2 || path == current || PathHitsAny(path, failures) ||
      topology().PathResidual(path) < settings_.relay_stream_bps) {
    return nullptr;
  }

  SecondaryTree t;
  t.origin = r.origin;
  t.upstream = r.upstream;
  t.downstream = r.downstream;
  t.path = path;
  t.load_bps = settings_.relay_stream_bps;

  ParticipantId carried = r.upstream_sender;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    RelayHop h;
    h.upstream = path[i];
    h.downstream = path[i + 1];
    h.upstream_sender = carried;
    h.relay_receiver = NextRelayId();
    const MeetingId up_meeting = i == 0 ? LocalMeetingOn(st, h.upstream)
                                        : ProtectionMeetingOn(st, h.upstream);
    // The last hop merges into the primary relay sender behind its
    // (origin, seq) dedup window instead of minting a second sender.
    const bool last = h.downstream == r.downstream;
    if (last) {
      h.relay_sender = r.relay_sender;
      h.downstream_port = r.downstream_port;
    } else {
      h.relay_sender = NextRelayId();
    }
    WireHop(h, up_meeting,
            last ? LocalMeetingOn(st, h.downstream)
                 : ProtectionMeetingOn(st, h.downstream),
            r, /*merge=*/last);
    // Dedup keys on (ssrc, seq), so both trees must carry the *same*
    // numbering: pin every chain leg to full quality — an adapted leg
    // would rewrite its copy onto a different sequence line.
    table_[h.upstream].channel->ForceDecodeTarget(up_meeting, h.relay_receiver,
                                                  h.upstream_sender, 2);
    carried = h.relay_sender;
    t.hops.push_back(h);
  }
  // The primary's own forwarding leg gets the same pin, for the same
  // reason; it was created in this scheduler instant, so no estimate has
  // adapted it yet and both trees start on identical numbering. A flip
  // removed that leg, and the promoted chain's legs are pinned already.
  if (!r.backbone_path.empty()) {
    table_[r.upstream].channel->ForceDecodeTarget(
        LocalMeetingOn(st, r.upstream), r.relay_receiver, r.upstream_sender,
        2);
  }

  // Both trees' load rides the backbone for as long as the protection
  // stands — residual-capacity planning must see the doubled footprint.
  topology().AddLoad(t.path, t.load_bps);
  Trace(obs::Category::kRedundancy, "redundancy.secondary_planned",
        "origin=%u edge=%zu-%zu hops=%zu", static_cast<unsigned>(t.origin),
        t.upstream, t.downstream, t.hops.size());
  ++stats_.secondary_trees_installed;
  return &st.secondaries.emplace_back(std::move(t));
}

void FleetController::FlipRelay(MeetingRecord& st, MeetingRelay& r,
                                SecondaryTree& tree) {
  const RelayHop& term = tree.hops.back();
  const net::Endpoint new_src{table_[term.upstream].sfu_ip,
                              term.upstream_port};
  // Promote at the merge point: the secondary source becomes the relay
  // sender's primary (the data plane forwarded first-arrivals from either
  // tree all along, so receivers never see a seam).
  table_[r.downstream].channel->PromoteRelaySource(
      LocalMeetingOn(st, r.downstream), r.relay_sender, new_src);
  // Drain the old transport. The relay record keeps its logical identity
  // (the tree edge, its ids, the merge-point sender) — only the physical
  // feed changes — so span bookkeeping and relay idempotence are
  // untouched by any number of flips.
  SecondaryTree* old = ChainOf(st, r, /*active=*/true);
  tree.active = true;  // before any erase below invalidates the reference
  ++stats_.tree_flips;
  Trace(obs::Category::kRedundancy, "redundancy.tree_flip",
        "origin=%u edge=%zu-%zu", static_cast<unsigned>(r.origin),
        r.upstream, r.downstream);
  if (old != nullptr) {
    // Second flip: the outgoing transport is itself a chain. Demote it to
    // a plain standby and tear it down like one.
    old->active = false;
    DropSecondary(st, st.secondaries.begin() + (old - st.secondaries.data()));
    GcProtectionMeetings(st);
  } else if (!r.backbone_path.empty()) {
    // First flip: the outgoing transport is the relay's own leg. (With
    // neither, the transport was already gone: nothing to drain.)
    if (table_[r.upstream].alive) {
      table_[r.upstream].channel->RemoveParticipant(
          LocalMeetingOn(st, r.upstream), r.relay_receiver);
    }
    UnregisterRelayLoad(r);
    // The old leg is gone; the relay no longer carries a physical path of
    // its own (UnregisterRelayLoad and shard adoption both become no-ops
    // for it — the chain's load is accounted on the chain).
    r.backbone_path.clear();
    r.load_bps = 0.0;
  }
}

std::vector<SecondaryTree>::iterator FleetController::DropSecondary(
    MeetingRecord& st, std::vector<SecondaryTree>::iterator tree) {
  for (size_t i = 0; i < tree->hops.size(); ++i) {
    const RelayHop& h = tree->hops[i];
    if (i + 1 == tree->hops.size()) {
      // An active (promoted) chain's last-hop source IS the relay
      // sender's primary feed now; it dies with the relay sender itself,
      // not as a detachable secondary source.
      if (!tree->active && table_[h.downstream].alive) {
        table_[h.downstream].channel->RemoveRelaySource(
            LocalMeetingOn(st, h.downstream), h.relay_sender,
            net::Endpoint{table_[h.upstream].sfu_ip, h.upstream_port});
      }
    } else if (table_[h.downstream].alive) {
      // Interior senders live in the switch's protection meeting, even
      // when that switch also hosts a span of the plan.
      table_[h.downstream].channel->RemoveParticipant(
          ProtectionMeetingOn(st, h.downstream), h.relay_sender);
    }
    if (table_[h.upstream].alive) {
      const MeetingId lm = i == 0 ? LocalMeetingOn(st, h.upstream)
                                  : ProtectionMeetingOn(st, h.upstream);
      table_[h.upstream].channel->RemoveParticipant(lm, h.relay_receiver);
    }
  }
  topology().RemoveLoad(tree->path, tree->load_bps);
  ++stats_.secondary_trees_removed;
  return st.secondaries.erase(tree);
}

void FleetController::HitlessMigrate(MeetingRecord& st, MeetingId meeting,
                                     size_t target) {
  const size_t source = st.placement.home;
  // Make: open the span on the target and start relaying every sender's
  // stream into it. Nothing has moved yet; members' sessions are intact.
  RelaySpan& made = EnsureSpan(st, target);
  const MeetingId target_local = made.local_meeting;
  std::vector<ParticipantId> target_members = std::move(made.participants);
  // Flip: re-root the plan at the target. The old home becomes a
  // member-carrying span hanging off the new home — every leg, session
  // and relay keeps working because the tree edge between the two
  // switches is the one EnsureSpan just built.
  RelaySpan old_home;
  old_home.switch_index = source;
  old_home.parent = SIZE_MAX;  // child of the new home
  old_home.local_meeting = st.placement.local_meeting;
  old_home.participants = std::move(st.placement.home_participants);
  std::erase_if(st.placement.spans, [&](const RelaySpan& s) {
    return s.switch_index == target;
  });
  st.placement.spans.push_back(std::move(old_home));
  st.placement.home = target;
  st.placement.local_meeting = target_local;
  st.placement.home_participants = std::move(target_members);
  st.migrated_once = true;
  st.last_migrated = sched_ != nullptr ? sched_->now() : 0;
  // Drain: nothing to tear down now — the old home's span drains through
  // the ordinary Leave cascade as its members churn away. Members never
  // re-signal, so the meeting is not frozen and no migration callback
  // (which would drop sessions) fires.
  ++stats_.hitless_migrations;
  ++stats_.placements_rebalanced;
  Trace(obs::Category::kRedundancy, "redundancy.hitless_migrate",
        "meeting=%u from=%zu to=%zu", static_cast<unsigned>(meeting), source,
        target);
  ReconcileProtection(st);
  if (settings_.on_moved_hitless) settings_.on_moved_hitless(meeting);
}

void FleetController::EndMeeting(MeetingId meeting) {
  MeetingRecord* found = Find(meeting);
  if (found == nullptr) return;
  MeetingRecord& st = *found;

  // Collapse the spans first: ending each span's meeting notifies its
  // members, and relay teardown tells everyone else their relayed senders
  // are gone.
  while (!st.placement.spans.empty()) {
    TearDownSpan(st, st.placement.spans.back().switch_index,
                 /*switch_dead=*/false);
  }
  // Span teardown drains all protection state with the relays it covers;
  // sweep whatever is left so the protection meetings end with the
  // meeting.
  while (!st.secondaries.empty()) {
    DropSecondary(st, std::prev(st.secondaries.end()));
  }
  GcProtectionMeetings(st);

  SwitchTable::Record& sw = table_[st.placement.home];
  // Drain members still joined at meeting end so the freed switch
  // actually looks free to placement.
  sw.participants -= static_cast<int>(st.members.size());
  --sw.meetings;
  EndLocalMeeting(st, st.placement.home);
  meetings_.erase(meeting);
}

void FleetController::MigrateMeeting(MeetingId meeting, size_t target_switch) {
  MeetingRecord* found = Find(meeting);
  if (found == nullptr) return;
  MeetingRecord& st = *found;
  if (st.placement.home == target_switch && !st.placement.spans_switches()) {
    return;
  }
  const size_t source_switch = st.placement.home;
  Trace(obs::Category::kFleet, "meeting.migrate", "meeting=%u from=%zu to=%zu",
        static_cast<unsigned>(meeting), source_switch, target_switch);
  // Planned moves go make-before-break when hitless migration is on: the
  // target span is built and relaying before anything flips, and no
  // member ever re-signals. Forced moves (the source switch is dead, or
  // the meeting already spans and must collapse) stay classic.
  if (settings_.redundancy.hitless_migration &&
      !st.placement.spans_switches() &&
      target_switch < table_.size() && IsAlive(source_switch) &&
      IsAlive(target_switch) && OwnsSwitch(target_switch)) {
    HitlessMigrate(st, meeting, target_switch);
    return;
  }
  // Let the substrate/harness drop the members' sessions first (they must
  // re-signal onto the target); anything still joined afterwards is
  // drained below.
  if (settings_.on_moved) {
    std::vector<ParticipantId> dropped;
    dropped.reserve(st.members.size());
    for (const auto& [pid, info] : st.members) dropped.push_back(pid);
    settings_.on_moved(meeting, dropped);
  }

  // The migration collapses the meeting to a single fresh home; if it was
  // cascaded, the spans go too — the policy re-plans them as members
  // re-join.
  while (!st.placement.spans.empty()) {
    TearDownSpan(st, st.placement.spans.back().switch_index,
                 /*switch_dead=*/false);
  }

  // The old switch-local meeting is over (state wiped by the restart, or
  // torn down on a live source); current members' sessions go with it —
  // they re-Join and land on the target.
  SwitchTable::Record& from = table_[st.placement.home];
  from.participants -= static_cast<int>(st.members.size());
  EndLocalMeeting(st, st.placement.home);
  --from.meetings;
  st.members.clear();
  st.placement.home_participants.clear();

  st.placement.home = target_switch;
  st.placement.local_meeting = OpenLocalMeeting(target_switch);
  st.migrated_once = true;
  st.last_migrated = sched_ != nullptr ? sched_->now() : 0;
  // Members are down until they re-signal: the rebalancer keeps its hands
  // off until the first re-Join.
  st.frozen = true;
  ++stats_.placements_rebalanced;
}

void FleetController::OnSwitchDown(size_t switch_index) {
  SwitchTable::Record& m = table_[switch_index];
  if (!m.alive) return;  // already declared dead: migrate exactly once
  m.alive = false;
  switch_down_(switch_index);
}

void FleetController::LoseSwitch(size_t switch_index) {
  std::vector<MeetingId> homed, spanned;
  for (const auto& [meeting, st] : meetings_) {
    if (st.placement.home == switch_index) {
      homed.push_back(meeting);
    } else if (st.placement.SpanOn(switch_index) != nullptr) {
      spanned.push_back(meeting);
    }
  }
  // The owner records the death; a borrower's trace shows only the spans
  // it collapses.
  if (OwnsSwitch(switch_index)) {
    Trace(obs::Category::kFleet, "switch.down",
          "switch=%zu homed=%zu spanned=%zu", switch_index, homed.size(),
          spanned.size());
  }
  for (MeetingId meeting : homed) {
    const size_t standby = LeastLoadedLive(Loads(), {switch_index});
    // With no live standby the meeting stays put and recovers only when
    // the switch itself is revived (single-switch fleets behave like the
    // plain Scallop testbed's restart failover).
    if (standby == SIZE_MAX) continue;
    MigrateMeeting(meeting, standby);
  }
  for (MeetingId meeting : spanned) {
    // Only a span died: the home (hub) survives, so collapse the span and
    // let its members re-join — the policy re-plans them onto live
    // switches.
    MeetingRecord& st = *Find(meeting);
    Trace(obs::Category::kFleet, "span.collapsed", "meeting=%u switch=%zu",
          static_cast<unsigned>(meeting), switch_index);
    if (settings_.on_moved) {
      settings_.on_moved(meeting, SubtreeMembers(st, switch_index));
    }
    TearDownSpan(st, switch_index, /*switch_dead=*/true);
    st.frozen = true;
  }
  // Instant fallback: relays whose current transport merely *transits*
  // the dead switch flip onto a standby chain that avoids it — the chain
  // was already delivering duplicate copies, so receivers never see a
  // gap. (A relay ending at the dead switch has no such standby; the span
  // handling above owned its fate.) Standby chains the dead switch was
  // part of are gone: their surviving wiring is dropped, and the relay
  // gets a standby around the dead switch.
  for (auto& [meeting, st] : meetings_) ReconcileProtection(st);
}

void FleetController::ReviveSwitch(size_t switch_index) {
  SwitchTable::Record& m = table_[switch_index];
  m.alive = true;
  // Restart the liveness clock: the grace period before fresh heartbeats
  // arrive must not count as misses and instantly re-kill the switch.
  if (sched_ != nullptr) m.last_heartbeat = sched_->now();
}

MeetingPlacement FleetController::PlacementOf(MeetingId meeting) const {
  const MeetingRecord* rec = Find(meeting);
  return rec == nullptr ? MeetingPlacement{} : rec->placement;
}

std::pair<size_t, MeetingId> FleetController::PlacementDetail(
    MeetingId meeting) const {
  const MeetingRecord* rec = Find(meeting);
  if (rec == nullptr) return {SIZE_MAX, 0};
  return {rec->placement.home, rec->placement.local_meeting};
}

std::vector<MeetingRelay> FleetController::RelaysOf(
    MeetingId meeting) const {
  const MeetingRecord* rec = Find(meeting);
  return rec == nullptr ? std::vector<MeetingRelay>{} : rec->relays;
}

std::vector<SecondaryTree> FleetController::SecondariesOf(
    MeetingId meeting) const {
  const MeetingRecord* rec = Find(meeting);
  return rec == nullptr ? std::vector<SecondaryTree>{} : rec->secondaries;
}

bool FleetController::IsMember(MeetingId meeting,
                               ParticipantId participant) const {
  const MeetingRecord* rec = Find(meeting);
  return rec != nullptr && rec->members.count(participant) > 0;
}

}  // namespace scallop::core
