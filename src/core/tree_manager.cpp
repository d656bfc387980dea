#include "core/tree_manager.hpp"

#include <algorithm>

namespace scallop::core {

TreeDesign TreeManager::DesignFor(const MeetingSpec& spec) {
  if (spec.members.size() <= 2) return TreeDesign::kTwoParty;
  bool all_full = true;
  bool receiver_uniform = true;
  for (const MemberSpec& p : spec.members) {
    int first_dt = -1;
    for (const MemberSpec& s : spec.members) {
      if (s.id == p.id || !s.sends_video) continue;
      int dt = p.DtFor(s.id);
      if (dt != 2) all_full = false;
      if (first_dt == -1) {
        first_dt = dt;
      } else if (dt != first_dt) {
        receiver_uniform = false;
      }
    }
  }
  if (all_full) return TreeDesign::kNRA;
  if (receiver_uniform) return TreeDesign::kRAR;
  return TreeDesign::kRASR;
}

uint32_t TreeManager::AllocMgid() {
  if (!free_mgids_.empty()) {
    uint32_t m = free_mgids_.back();
    free_mgids_.pop_back();
    return m;
  }
  return next_mgid_++;
}

void TreeManager::FreeMgid(uint32_t mgid) { free_mgids_.push_back(mgid); }

uint32_t TreeManager::FindOpenGroup(TreeDesign design) const {
  for (const auto& [id, g] : groups_) {
    if (g.design == design && (g.slots[0] == 0 || g.slots[1] == 0)) {
      return id;
    }
  }
  return 0;
}

std::optional<TreeDesign> TreeManager::CurrentDesign(MeetingId id) const {
  auto it = meetings_.find(id);
  if (it == meetings_.end()) return std::nullopt;
  return it->second.design;
}

TreeDesign TreeManager::Reconfigure(const MeetingSpec& spec) {
  ++stats_.reconfigs;
  const TreeDesign desired = DesignFor(spec);

  std::optional<MeetingRecord> old;
  auto it = meetings_.find(spec.id);
  if (it != meetings_.end()) {
    if (it->second.design != desired) ++stats_.migrations;
    // Make-before-break is modeled by building the replacement state before
    // clearing stream entries of removed members: stream entries are
    // overwritten in place (a single table write repoints the meeting), so
    // media never hits a missing entry mid-migration.
    old = std::move(it->second);
    meetings_.erase(it);
  }
  MeetingRecord rec;
  rec.design = desired;
  rec.spec = spec;
  switch (desired) {
    case TreeDesign::kTwoParty:
      InstallStreams(spec, TreeDesign::kTwoParty, {}, {});
      break;
    case TreeDesign::kNRA: BuildGrouped(spec, rec, desired, 1); break;
    case TreeDesign::kRAR: BuildGrouped(spec, rec, desired, 3); break;
    case TreeDesign::kRASR: BuildRASR(spec, rec); break;
  }
  meetings_.emplace(spec.id, std::move(rec));
  if (old.has_value()) TearDown(*old);
  return desired;
}

void TreeManager::RemoveMeeting(MeetingId id) {
  auto it = meetings_.find(id);
  if (it == meetings_.end()) return;
  MeetingRecord rec = std::move(it->second);
  meetings_.erase(it);
  // Remove this meeting's stream entries.
  for (const MemberSpec& m : rec.spec.members) {
    if (m.sends_video) dp_.RemoveStream(StreamKey{m.media_src, m.video_ssrc});
    if (m.sends_audio) dp_.RemoveStream(StreamKey{m.media_src, m.audio_ssrc});
  }
  TearDown(rec);
}

void TreeManager::TearDown(MeetingRecord& rec) {
  // Remove this meeting's nodes from (possibly shared) trees.
  for (auto [mgid, node_id] : rec.nodes) {
    pre_.RemoveNode(mgid, node_id);
  }
  rec.nodes.clear();
  // Leave the pairing group; destroy trees when the group empties.
  if (rec.group_id != 0) {
    auto git = groups_.find(rec.group_id);
    if (git != groups_.end()) {
      Group& g = git->second;
      if (rec.slot >= 1 && rec.slot <= 2) g.slots[rec.slot - 1] = 0;
      if (g.slots[0] == 0 && g.slots[1] == 0) {
        for (uint32_t mgid : g.mgids) {
          pre_.DestroyTree(mgid);
          FreeMgid(mgid);
        }
        groups_.erase(git);
      }
    }
  }
  // RA-SR trees are owned by the meeting alone.
  for (uint32_t mgid : rec.own_mgids) {
    pre_.DestroyTree(mgid);
    FreeMgid(mgid);
  }
  rec.own_mgids.clear();
}

void TreeManager::InstallStreams(
    const MeetingSpec& spec, TreeDesign design,
    const std::map<ParticipantId, uint32_t>& sender_mgid,
    const std::map<ParticipantId, uint16_t>& sender_xid) {
  for (const MemberSpec& m : spec.members) {
    if (!m.sends_video && !m.sends_audio) continue;
    StreamEntry entry;
    entry.meeting = spec.id;
    entry.sender = m.id;
    entry.design = design;
    if (design == TreeDesign::kTwoParty) {
      for (const MemberSpec& peer : spec.members) {
        if (peer.id != m.id) entry.peer_egress = peer.id;
      }
    } else {
      entry.mgid_base = sender_mgid.at(m.id);
      entry.l1_xid = sender_xid.at(m.id);
      entry.rid = static_cast<uint16_t>(m.id);
      entry.l2_xid = static_cast<uint16_t>(m.id);
      // The sender's own egress port is excluded via its L2-XID.
      pre_.MapL2Xid(static_cast<uint16_t>(m.id), {m.id});
    }
    if (m.sends_video) {
      entry.is_video = true;
      dp_.InstallStream(StreamKey{m.media_src, m.video_ssrc}, entry);
    }
    if (m.sends_audio) {
      entry.is_video = false;
      dp_.InstallStream(StreamKey{m.media_src, m.audio_ssrc}, entry);
    }
  }
}

void TreeManager::BuildGrouped(const MeetingSpec& spec, MeetingRecord& rec,
                               TreeDesign design, uint32_t layers) {
  uint32_t group_id = FindOpenGroup(design);
  if (group_id == 0) {
    group_id = next_group_id_++;
    Group fresh;
    fresh.design = design;
    // One cumulative layer tree per layer l, on consecutive mgids (a
    // packet of layer l invokes mgid_base + l); regenerate the block if
    // the free list broke contiguity.
    uint32_t base = AllocMgid();
    bool contiguous = true;
    for (uint32_t l = 1; l < layers; ++l) {
      if (AllocMgid() != base + l) contiguous = false;
    }
    if (!contiguous) {
      base = next_mgid_;
      next_mgid_ += layers;
    }
    for (uint32_t l = 0; l < layers; ++l) {
      pre_.CreateTree(base + l);
      ++stats_.trees_built;
      fresh.mgids.push_back(base + l);
    }
    groups_.emplace(group_id, fresh);
  }
  Group& g = groups_.at(group_id);
  uint8_t slot = g.slots[0] == 0 ? 1 : 2;
  g.slots[slot - 1] = spec.id;
  rec.group_id = group_id;
  rec.slot = slot;

  for (const MemberSpec& m : spec.members) {
    // Uniform decode target of this receiver (same across senders).
    int dt = 2;
    for (const MemberSpec& s : spec.members) {
      if (s.id != m.id && s.sends_video) dt = m.DtFor(s.id);
    }
    for (uint32_t l = 0; l < layers; ++l) {
      if (dt < static_cast<int>(l)) continue;  // not above its target
      switchsim::L1Node node;
      node.node_id = NextNodeId();
      node.rid = static_cast<uint16_t>(m.id);
      node.l1_xid = slot;
      node.prune_enabled = true;
      node.ports = {m.id};
      pre_.AddNode(g.mgids[l], node);
      ++stats_.nodes_added;
      rec.nodes.emplace_back(g.mgids[l], node.node_id);
    }
  }

  std::map<ParticipantId, uint32_t> sender_mgid;
  std::map<ParticipantId, uint16_t> sender_xid;
  uint16_t exclude_xid = slot == 1 ? 2 : 1;  // exclude the other slot
  for (const MemberSpec& m : spec.members) {
    sender_mgid[m.id] = g.mgids[0];
    sender_xid[m.id] = exclude_xid;
  }
  InstallStreams(spec, design, sender_mgid, sender_xid);
}

void TreeManager::BuildRASR(const MeetingSpec& spec, MeetingRecord& rec) {
  // Collect video senders; audio-only senders ride the first pair block's
  // layer-0 tree via their own stream entries.
  std::vector<const MemberSpec*> senders;
  for (const MemberSpec& m : spec.members) {
    if (m.sends_video || m.sends_audio) senders.push_back(&m);
  }
  std::map<ParticipantId, uint32_t> sender_mgid;
  std::map<ParticipantId, uint16_t> sender_xid;

  for (size_t i = 0; i < senders.size(); i += 2) {
    // One block of q=3 trees per pair of senders.
    uint32_t base = next_mgid_;
    next_mgid_ += 3;
    for (uint32_t l = 0; l < 3; ++l) {
      pre_.CreateTree(base + l);
      ++stats_.trees_built;
      rec.own_mgids.push_back(base + l);
    }
    for (size_t k = 0; k < 2 && i + k < senders.size(); ++k) {
      const MemberSpec& s = *senders[i + k];
      uint8_t branch_xid = static_cast<uint8_t>(k + 1);
      sender_mgid[s.id] = base;
      sender_xid[s.id] = branch_xid == 1 ? 2 : 1;  // exclude the other branch
      for (const MemberSpec& p : spec.members) {
        if (p.id == s.id) continue;
        int dt = p.DtFor(s.id);
        for (int l = 0; l < 3; ++l) {
          if (dt < l) continue;
          switchsim::L1Node node;
          node.node_id = NextNodeId();
          node.rid = static_cast<uint16_t>(p.id);
          node.l1_xid = branch_xid;
          node.prune_enabled = true;
          node.ports = {p.id};
          pre_.AddNode(base + static_cast<uint32_t>(l), node);
          ++stats_.nodes_added;
          rec.nodes.emplace_back(base + static_cast<uint32_t>(l),
                                 node.node_id);
        }
      }
    }
  }
  InstallStreams(spec, TreeDesign::kRASR, sender_mgid, sender_xid);
}

}  // namespace scallop::core
