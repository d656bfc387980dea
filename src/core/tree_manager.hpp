// Replication-tree construction and migration (paper §6.1 / Fig. 11).
//
// Designs:
//  - two-party: no tree; the stream entry names the peer directly.
//  - NRA: one tree shared by m=2 meetings. One L1 node per participant
//    (rid = participant id, port = participant egress); meeting slots are
//    separated by L1-XIDs; the sender's own copy is suppressed by the
//    RID + L2-XID rule.
//  - RA-R: q=3 trees per meeting group, one per cumulative layer set;
//    tree_l holds the receivers whose decode target is >= l. A packet of
//    temporal layer l invokes tree mgid_base+l, so tree membership itself
//    performs the SVC filtering.
//  - RA-SR: q trees per *sender pair* within a meeting; the two senders'
//    receiver branches share each tree and are separated by L1-XIDs.
//
// Migration is make-before-break: new trees are built, stream entries are
// repointed, then the old trees are freed (paper's three-step process).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/dataplane.hpp"
#include "core/types.hpp"
#include "switchsim/pre.hpp"

namespace scallop::core {

struct MemberSpec {
  ParticipantId id = 0;
  net::Endpoint media_src;  // client endpoint media arrives from
  uint32_t video_ssrc = 0;
  uint32_t audio_ssrc = 0;
  bool sends_video = false;
  bool sends_audio = false;
  // Decode target this member wants *from* each sender (participant id ->
  // 0..2). Missing entries default to 2 (full rate).
  std::map<ParticipantId, int> decode_targets;

  int DtFor(ParticipantId sender) const {
    auto it = decode_targets.find(sender);
    return it == decode_targets.end() ? 2 : it->second;
  }
};

struct MeetingSpec {
  MeetingId id = 0;
  std::vector<MemberSpec> members;
};

struct TreeManagerStats {
  uint64_t reconfigs = 0;
  uint64_t migrations = 0;       // design changes (make-before-break)
  uint64_t trees_built = 0;
  uint64_t nodes_added = 0;
};

class TreeManager {
 public:
  TreeManager(DataPlaneProgram& dp, switchsim::ReplicationEngine& pre)
      : dp_(dp), pre_(pre) {}

  // Decision rule mapping a meeting's decode-target matrix onto a design.
  static TreeDesign DesignFor(const MeetingSpec& spec);

  // Builds or updates forwarding state for the meeting; installs/updates
  // the data plane's stream entries. Returns the design in effect.
  TreeDesign Reconfigure(const MeetingSpec& spec);

  void RemoveMeeting(MeetingId id);

  std::optional<TreeDesign> CurrentDesign(MeetingId id) const;
  const TreeManagerStats& stats() const { return stats_; }

 private:
  struct Group {  // m=2 meeting pairing for NRA / RA-R
    TreeDesign design;
    std::vector<uint32_t> mgids;  // 1 (NRA) or 3 (RA-R)
    MeetingId slots[2] = {0, 0};
  };
  struct MeetingRecord {
    TreeDesign design;
    MeetingSpec spec;
    uint32_t group_id = 0;            // NRA / RA-R
    uint8_t slot = 0;                 // 1 or 2 within the group
    std::vector<uint32_t> own_mgids;  // RA-SR blocks owned by the meeting
    std::vector<std::pair<uint32_t, uint32_t>> nodes;  // (mgid, node_id)
  };

  uint32_t AllocMgid();
  void FreeMgid(uint32_t mgid);
  uint32_t NextNodeId() { return next_node_id_++; }

  void InstallStreams(const MeetingSpec& spec, TreeDesign design,
                      const std::map<ParticipantId, uint32_t>& sender_mgid,
                      const std::map<ParticipantId, uint16_t>& sender_xid);
  void TearDown(MeetingRecord& rec);
  // NRA and RA-R: the meeting takes a slot in a group of `layers`
  // cumulative layer trees shared with one other meeting. NRA is RA-R with
  // one layer, which every receiver's decode target reaches.
  void BuildGrouped(const MeetingSpec& spec, MeetingRecord& rec,
                    TreeDesign design, uint32_t layers);
  void BuildRASR(const MeetingSpec& spec, MeetingRecord& rec);
  // Id of a group of `design` with a free slot; 0 when there is none.
  uint32_t FindOpenGroup(TreeDesign design) const;

  DataPlaneProgram& dp_;
  switchsim::ReplicationEngine& pre_;
  std::map<MeetingId, MeetingRecord> meetings_;
  std::map<uint32_t, Group> groups_;
  uint32_t next_group_id_ = 1;
  uint32_t next_mgid_ = 1;
  std::vector<uint32_t> free_mgids_;
  uint32_t next_node_id_ = 1;
  TreeManagerStats stats_;
};

}  // namespace scallop::core
