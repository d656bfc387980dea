#include "core/federation.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace scallop::core {

namespace {
// A controller is declared dead after this many silent heartbeat
// intervals — the same miss threshold the fleet applies to switches.
constexpr int kControllerMissThreshold = 3;
// The plane's own transitions (lookups, controller deaths, adoptions,
// border spans) share one trace track.
constexpr const char* kTrack = "federation";
}  // namespace

FederatedControlPlane::FederatedControlPlane(sim::Scheduler& sched,
                                             const FederationConfig& cfg)
    : sched_(sched), cfg_(cfg) {
  if (cfg_.regions < 1) cfg_.regions = 1;
  const size_t R = cfg_.regions;
  regions_.resize(R);
  death_chain_.assign(R, 0);
  for (size_t r = 0; r < R; ++r) {
    Region& reg = regions_[r];
    reg.controller = std::make_unique<FleetController>(table_, settings_, r);
    reg.peer_last_seen.assign(R, 0);
    reg.peer_alive.assign(R, true);
    // Disjoint id spaces: region r mints meeting ids r+1, r+1+R, ...
    // (so (id-1) % R names the minting region) and relay
    // pseudo-participants from a per-region base (region 0's is the
    // classic single-controller base).
    reg.controller->ConfigureIdSpace(
        static_cast<MeetingId>(r) + 1, static_cast<MeetingId>(R),
        0x4000'0000u + 60'000u + static_cast<ParticipantId>(r) * 100'000u);
    reg.controller->SetBorderSpanProvider(
        [this, r](MeetingId meeting) { return BorderGuestFor(r, meeting); });
    reg.controller->SetSwitchDownHandler(
        [this](size_t i) { LoseSwitchEverywhere(i); });
  }
  BindPolicy();
  // One conduit per unordered region pair: each east-west peering link
  // gets its own RNG stream, like each southbound channel does.
  conduits_.resize(R * R);
  for (size_t a = 0; a < R; ++a) {
    for (size_t b = a + 1; b < R; ++b) {
      conduits_[a * R + b] = std::make_unique<MessageConduit>(
          sched_, cfg_.east_west_latency, cfg_.east_west_loss,
          cfg_.seed * 1'000'003 + 8191 + (a * R + b) * 104'729);
    }
  }
}

FederatedControlPlane::~FederatedControlPlane() = default;

void FederatedControlPlane::set_trace(obs::TraceLog* trace) {
  trace_ = trace;
  const size_t R = regions_.size();
  for (size_t r = 0; r < R; ++r) {
    regions_[r].controller->set_trace(
        trace, R == 1 ? std::string("fleet")
                      : "region:" + std::to_string(r));
  }
  for (size_t a = 0; a < R; ++a) {
    for (size_t b = a + 1; b < R; ++b) {
      conduits_[a * R + b]->set_trace(
          trace, "ew:" + std::to_string(a) + "-" + std::to_string(b),
          obs::Category::kFederation);
    }
  }
}

MessageConduit& FederatedControlPlane::ConduitFor(size_t a, size_t b) {
  if (a > b) std::swap(a, b);
  return *conduits_[a * regions_.size() + b];
}

size_t FederatedControlPlane::SliceOf(size_t switch_index) const {
  const size_t R = regions_.size();
  const size_t n = cfg_.switches > 0 ? cfg_.switches : R;
  const size_t base = n / R;
  const size_t rem = n % R;
  size_t start = 0;
  for (size_t r = 0; r < R; ++r) {
    const size_t size = base + (r < rem ? 1 : 0);
    if (switch_index < start + size) return r;
    start += size;
  }
  return R - 1;
}

size_t FederatedControlPlane::AddSwitch(ControlChannel& channel,
                                        net::Ipv4 sfu_ip) {
  return regions_[SliceOf(table_.size())].controller->AddSwitch(channel,
                                                                 sfu_ip);
}

void FederatedControlPlane::Activate() {
  // A lone region has no peers to heartbeat or watch.
  if (regions_.size() < 2 || cfg_.heartbeat_interval <= 0) return;
  for (size_t r = 0; r < regions_.size(); ++r) {
    Region& reg = regions_[r];
    // Liveness baseline: the grace period before the first heartbeats
    // land must not count as misses.
    for (size_t q = 0; q < regions_.size(); ++q) {
      reg.peer_last_seen[q] = sched_.now();
    }
    reg.hb_task = std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.heartbeat_interval, [this, r] {
          SendControllerHeartbeats(r);
          return true;
        });
    reg.detector_task = std::make_unique<sim::PeriodicTask>(
        sched_, cfg_.heartbeat_interval, [this, r] {
          CheckControllerPeers(r);
          return true;
        });
  }
}

// ---- signaling -------------------------------------------------------------

std::pair<size_t, size_t> FederatedControlPlane::LeastLoadedOwnedSwitch(
    size_t skip) const {
  // The same participants-then-meetings comparison LeastLoadedLive applies
  // inside one fleet, weighted by each switch's capacity class (exact
  // no-op at the homogeneous default of 1.0).
  std::pair<size_t, size_t> best{SIZE_MAX, SIZE_MAX};
  double best_participants = std::numeric_limits<double>::infinity();
  double best_meetings = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < regions_.size(); ++r) {
    if (r == skip || regions_[r].dead) continue;
    for (size_t i = 0; i < table_.size(); ++i) {
      const SwitchTable::Record& sw = table_[i];
      if (sw.owner != r || !sw.alive) continue;
      const double p = sw.participants / sw.capacity_class;
      const double m = sw.meetings / sw.capacity_class;
      if (p < best_participants ||
          (p == best_participants && m < best_meetings)) {
        best_participants = p;
        best_meetings = m;
        best = {r, i};
      }
    }
  }
  return best;
}

MeetingId FederatedControlPlane::CreateMeetingIn(size_t r) {
  size_t owner = r;
  if (owner >= regions_.size() || regions_[owner].dead) {
    owner = LeastLoadedOwnedSwitch().first;
    if (owner == SIZE_MAX) {
      throw std::runtime_error("federation: no live region to place on");
    }
  }
  const MeetingId id = regions_[owner].controller->CreateMeeting();
  // Announce the new meeting to every live peer (reliably — a missed
  // announcement degrades the peer to a lookup round, but the ack/retx
  // machinery makes that rare), so their directory caches resolve Joins
  // without asking around.
  for (size_t q = 0; q < regions_.size(); ++q) {
    if (q == owner || regions_[q].dead) continue;
    ConduitFor(owner, q).SendReliable(
        ew_stats_,
        [this, q, id, owner] {
          if (!regions_[q].dead) regions_[q].owner_cache[id] = owner;
        },
        nullptr, "announce");
    ++stats_.directory_announcements;
  }
  return id;
}

size_t FederatedControlPlane::NextIngress() {
  for (size_t tries = 0; tries < regions_.size(); ++tries) {
    const size_t r = next_ingress_++ % regions_.size();
    if (!regions_[r].dead) return r;
  }
  return 0;
}

size_t FederatedControlPlane::ResolveOwner(size_t ingress, MeetingId meeting) {
  ++stats_.directory_lookups;
  Region& in = regions_[ingress];
  if (in.controller->OwnsMeeting(meeting)) return ingress;
  auto cached = in.owner_cache.find(meeting);
  if (cached != in.owner_cache.end()) {
    const size_t owner = cached->second;
    if (!regions_[owner].dead &&
        regions_[owner].controller->OwnsMeeting(meeting)) {
      return owner;
    }
    in.owner_cache.erase(cached);  // stale: the owner died or lost it
  }
  // Cache miss: one query round over the live peers. Request + response
  // ride the conduit (accounting; the authoritative answer is read from
  // the peer's shard synchronously, like the rest of the signaling path).
  ++stats_.directory_lookups_remote;
  const uint64_t corr = obs::NextCorrelation(trace_);
  obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
             "lookup.begin", corr, "meeting=%u ingress=%zu",
             static_cast<unsigned>(meeting), ingress);
  size_t owner = SIZE_MAX;
  for (size_t q = 0; q < regions_.size(); ++q) {
    if (q == ingress || regions_[q].dead) continue;
    MessageConduit& conduit = ConduitFor(ingress, q);
    conduit.Send(ew_stats_, [] {}, "lookup.query");
    conduit.Send(ew_stats_, [] {}, "lookup.response");
    if (owner == SIZE_MAX && regions_[q].controller->OwnsMeeting(meeting)) {
      owner = q;
    }
  }
  if (owner != SIZE_MAX) in.owner_cache[meeting] = owner;
  obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
             "lookup.end", corr, "meeting=%u owner=%lld",
             static_cast<unsigned>(meeting),
             owner == SIZE_MAX ? -1LL : static_cast<long long>(owner));
  return owner;
}

FederatedControlPlane::JoinResult FederatedControlPlane::Join(
    MeetingId meeting, const sdp::SessionDescription& offer,
    SignalingClient* client) {
  return JoinVia(SIZE_MAX, meeting, offer, client);
}

void FederatedControlPlane::Leave(MeetingId meeting,
                                  ParticipantId participant) {
  LeaveVia(SIZE_MAX, meeting, participant);
}

SignalingServer& FederatedControlPlane::ingress(size_t r) {
  if (ingress_faces_.empty()) ingress_faces_.resize(regions_.size());
  if (!ingress_faces_[r]) {
    ingress_faces_[r] = std::make_unique<RegionIngress>(*this, r);
  }
  return *ingress_faces_[r];
}

FederatedControlPlane::JoinResult FederatedControlPlane::JoinVia(
    size_t r, MeetingId meeting, const sdp::SessionDescription& offer,
    SignalingClient* client) {
  const size_t owner = ResolveOwner(IngressFor(r), meeting);
  if (owner == SIZE_MAX) {
    throw std::out_of_range(
        "federation: meeting unknown to every live region (bad id, or its "
        "owning controller is down and its shard not yet adopted)");
  }
  return regions_[owner].controller->Join(meeting, offer, client);
}

void FederatedControlPlane::LeaveVia(size_t r, MeetingId meeting,
                                     ParticipantId participant) {
  const size_t owner = ResolveOwner(IngressFor(r), meeting);
  if (owner == SIZE_MAX) return;  // quiet, like FleetController::Leave
  regions_[owner].controller->Leave(meeting, participant);
}

size_t FederatedControlPlane::IngressFor(size_t r) {
  // Pinned ingress — a roamer enters at its access region, not the
  // round-robin one (and does not advance the round-robin cursor). A
  // dead access region falls back to round-robin: the client's traffic
  // has to land somewhere.
  return r < regions_.size() && !regions_[r].dead ? r : NextIngress();
}

bool FederatedControlPlane::HasLiveOwner(MeetingId meeting) const {
  const size_t owner = OwnerRegionOf(meeting);
  return owner != SIZE_MAX && !regions_[owner].dead;
}

// ---- plane-wide settings ---------------------------------------------------

void FederatedControlPlane::BindPolicy() {
  PlacementPolicy& policy = *settings_.policy;
  policy.BindTopology(&table_.topology());
  policy.SetStreamEstimate(settings_.relay_stream_bps);
  // Protected meetings put two trees' worth of stream load on the
  // backbone; admission must budget for both or the second tree's
  // registered load overshoots links the planner thought had headroom.
  policy.SetRedundancyFactor(settings_.redundancy.redundant_trees ? 2.0
                                                                  : 1.0);
}

void FederatedControlPlane::SetPlacementPolicy(
    const PlacementPolicyConfig& policy) {
  settings_.policy = policy.Make();
  BindPolicy();
}

void FederatedControlPlane::set_relay_stream_bps(double bps) {
  settings_.relay_stream_bps = bps;
  BindPolicy();
}

void FederatedControlPlane::SetInterSwitchLinkCapacity(size_t a, size_t b,
                                                       double capacity_bps) {
  table_.topology().SetLinkCapacity(a, b, capacity_bps);
  for (Region& reg : regions_) {
    if (!reg.dead) reg.controller->OnLinkCapacityChanged(a, b, capacity_bps);
  }
}

void FederatedControlPlane::EnableRebalancer(const RebalanceConfig& cfg) {
  if (cfg.interval <= 0) {
    throw std::invalid_argument(
        "federation: the rebalancer needs a positive interval");
  }
  settings_.rebalance = cfg;
  // Each live region runs its own rebalancer task over the one config.
  for (Region& reg : regions_) {
    if (!reg.dead) reg.controller->EnableRebalancer();
  }
}

void FederatedControlPlane::SetRedundancy(const RedundancyConfig& cfg) {
  settings_.redundancy = cfg;
  BindPolicy();
}

// ---- fleet state -----------------------------------------------------------

void FederatedControlPlane::FreezeMeetings(
    const std::vector<MeetingId>& meetings) {
  // Regional FreezeMeetings ignores ids outside its shard.
  for (Region& reg : regions_) {
    if (!reg.dead) reg.controller->FreezeMeetings(meetings);
  }
}

MeetingPlacement FederatedControlPlane::PlacementOf(MeetingId meeting) const {
  const size_t r = OwnerRegionOf(meeting);
  return r == SIZE_MAX ? MeetingPlacement{}
                       : regions_[r].controller->PlacementOf(meeting);
}

std::pair<size_t, MeetingId> FederatedControlPlane::PlacementDetail(
    MeetingId meeting) const {
  const size_t r = OwnerRegionOf(meeting);
  return r == SIZE_MAX ? std::pair<size_t, MeetingId>{SIZE_MAX, 0}
                       : regions_[r].controller->PlacementDetail(meeting);
}

std::vector<MeetingRelay> FederatedControlPlane::RelaysOf(
    MeetingId meeting) const {
  const size_t r = OwnerRegionOf(meeting);
  return r == SIZE_MAX ? std::vector<MeetingRelay>{}
                       : regions_[r].controller->RelaysOf(meeting);
}

void FederatedControlPlane::ReviveSwitch(size_t switch_index) {
  regions_[RegionOfSwitch(switch_index)].controller->ReviveSwitch(
      switch_index);
}

FleetStats FederatedControlPlane::TotalFleetStats() const {
  FleetStats total;
  for (const Region& reg : regions_) {
    const FleetStats& s = reg.controller->stats();
    total.meetings_placed += s.meetings_placed;
    total.placements_rebalanced += s.placements_rebalanced;
    total.rebalance_migrations += s.rebalance_migrations;
    total.heartbeats_seen += s.heartbeats_seen;
    total.heartbeats_missed += s.heartbeats_missed;
    total.load_reports_seen += s.load_reports_seen;
    total.switches_failed += s.switches_failed;
    total.relay_spans_installed += s.relay_spans_installed;
    total.relay_spans_removed += s.relay_spans_removed;
    total.relay_replans += s.relay_replans;
    total.secondary_trees_installed += s.secondary_trees_installed;
    total.secondary_trees_removed += s.secondary_trees_removed;
    total.tree_flips += s.tree_flips;
    total.hitless_migrations += s.hitless_migrations;
  }
  return total;
}

// ---- east-west peering -----------------------------------------------------

void FederatedControlPlane::SendControllerHeartbeats(size_t from) {
  if (regions_[from].dead) return;
  for (size_t q = 0; q < regions_.size(); ++q) {
    if (q == from) continue;
    ConduitFor(from, q).Send(ew_stats_, [this, q, from] {
      OnControllerHeartbeat(q, from);
    });
  }
}

void FederatedControlPlane::OnControllerHeartbeat(size_t at, size_t from) {
  Region& reg = regions_[at];
  if (reg.dead) return;
  ++stats_.controller_heartbeats_seen;
  reg.peer_last_seen[from] = sched_.now();
  // A heartbeat un-declares a peer lost to transient east-west loss. A
  // truly dead controller never sends again, so it stays declared.
  reg.peer_alive[from] = true;
}

size_t FederatedControlPlane::LowestLiveRegion() const {
  for (size_t r = 0; r < regions_.size(); ++r) {
    if (!regions_[r].dead) return r;
  }
  return SIZE_MAX;
}

void FederatedControlPlane::CheckControllerPeers(size_t r) {
  Region& reg = regions_[r];
  if (reg.dead) return;
  const util::DurationUs interval = cfg_.heartbeat_interval;
  const util::DurationUs latency = cfg_.east_west_latency;
  for (size_t q = 0; q < regions_.size(); ++q) {
    if (q == r) continue;
    // Adoption is deterministic: exactly one adopter (the lowest live
    // region), exactly once per dead shard.
    const bool may_adopt = regions_[q].dead && !regions_[q].adopted &&
                           r == LowestLiveRegion();
    if (!reg.peer_alive[q]) {
      if (may_adopt) AdoptRegion(r, q);
      continue;
    }
    // Same calibration as the fleet's switch detector: a heartbeat is
    // only late once its one-way latency has passed too.
    const util::DurationUs gap = sched_.now() - reg.peer_last_seen[q];
    if (gap < 2 * interval + latency) continue;
    ++stats_.controller_heartbeats_missed;
    // One death chain per observed peer: its first miss opens it, and the
    // death + adoption events reuse it so the whole miss -> dead ->
    // adopted sequence reads as one causal chain.
    if (death_chain_[q] == 0) death_chain_[q] = obs::NextCorrelation(trace_);
    obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
               "controller.heartbeat_miss", death_chain_[q],
               "peer=%zu observer=%zu gap_us=%lld", q, r,
               static_cast<long long>(gap));
    if (gap >= kControllerMissThreshold * interval + latency) {
      reg.peer_alive[q] = false;
      obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
                 "controller.dead", death_chain_[q], "peer=%zu observer=%zu",
                 q, r);
      if (may_adopt) AdoptRegion(r, q);
    }
  }
}

void FederatedControlPlane::KillController(size_t r) {
  Region& reg = regions_[r];
  if (reg.dead) return;
  reg.dead = true;
  reg.hb_task.reset();
  reg.detector_task.reset();
  reg.controller->Shutdown();
  ++stats_.controllers_failed;
  obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
             "controller.failed", 0, "region=%zu", r);
}

void FederatedControlPlane::AdoptRegion(size_t adopter, size_t dead) {
  Region& d = regions_[dead];
  if (d.adopted) return;
  // Only the switches the dead region owned change hands; ones it
  // borrowed stay with their owners.
  const size_t adopted =
      regions_[adopter].controller->AdoptShardFrom(*d.controller);
  d.owner_cache.clear();
  d.border_guest.clear();
  d.adopted = true;
  ++stats_.shards_adopted;
  stats_.meetings_adopted += adopted;
  obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
             "controller.adopted", death_chain_[dead],
             "dead=%zu adopter=%zu meetings=%zu", dead, adopter, adopted);
}

size_t FederatedControlPlane::OwnerRegionOf(MeetingId meeting) const {
  for (size_t r = 0; r < regions_.size(); ++r) {
    if (regions_[r].controller->OwnsMeeting(meeting)) return r;
  }
  return SIZE_MAX;
}

void FederatedControlPlane::LoseSwitchEverywhere(size_t switch_index) {
  // A region only homes meetings on switches it owns: the owner migrates
  // them, the rest only collapse border spans.
  const size_t owner = RegionOfSwitch(switch_index);
  if (!regions_[owner].dead) {
    regions_[owner].controller->LoseSwitch(switch_index);
  }
  for (size_t r = 0; r < regions_.size(); ++r) {
    if (r != owner && !regions_[r].dead) {
      regions_[r].controller->LoseSwitch(switch_index);
    }
  }
}

size_t FederatedControlPlane::BorderGuestFor(size_t owner, MeetingId meeting) {
  Region& own = regions_[owner];
  auto cached = own.border_guest.find(meeting);
  if (cached != own.border_guest.end()) {
    if (table_[cached->second].alive) return cached->second;
    own.border_guest.erase(cached);  // the guest died: borrow another
  }
  // Lender: the live peer holding the least-loaded owned live switch,
  // ranked exactly as new meetings are placed (capacity-weighted).
  const auto [lender, guest] = LeastLoadedOwnedSwitch(owner);
  if (lender == SIZE_MAX) return SIZE_MAX;
  // The border negotiation is a synchronous request/grant pair — the
  // span must be usable within this Join. Either message lost: no span
  // this time; the home absorbs the joiner and the next overflow Join
  // retries (nothing is cached on failure).
  if (!ConduitFor(owner, lender).Transact(ew_stats_, "border_request") ||
      !ConduitFor(lender, owner).Transact(ew_stats_, "border_grant")) {
    return SIZE_MAX;
  }
  own.border_guest[meeting] = guest;
  ++stats_.border_spans;
  obs::Emitf(trace_, sched_.now(), obs::Category::kFederation, kTrack,
             "federation.border_span", 0,
             "meeting=%u owner=%zu lender=%zu switch=%zu",
             static_cast<unsigned>(meeting), owner, lender, guest);
  return guest;
}

}  // namespace scallop::core
