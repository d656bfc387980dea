// Scallop's data-plane program: the logic the paper implements in ~2000
// lines of P4 on the Tofino2, expressed against the switch simulator's
// pipeline interface. Per packet:
//
//   ingress:  classify (RTP / RTCP / STUN)  ->  stream-index lookup  ->
//             pick PRE invocation (or unicast / copy-to-CPU / drop)
//   egress:   per-replica address rewrite, SVC template filtering,
//             sequence-number rewriting (S-LR)
//
// Everything the control plane installs lives in statically sized
// match-action tables and register cells whose footprints feed the
// resource model (Table 3) and whose capacities bound scalability
// (Figs. 15-17).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "av1/dependency_descriptor.hpp"
#include "core/redundancy.hpp"
#include "core/types.hpp"
#include "rtp/classifier.hpp"
#include "switchsim/switch.hpp"
#include "switchsim/tables.hpp"

namespace scallop::core {

struct DataPlaneConfig {
  // S-LR rewriter state cells (paper: 65,536 concurrent streams).
  size_t rewriter_cells = 1 << 16;
};

struct DataPlaneStats {
  uint64_t rtp_in = 0;
  uint64_t rtcp_in = 0;
  uint64_t stun_in = 0;
  uint64_t unknown_in = 0;
  uint64_t stream_misses = 0;
  uint64_t remb_filtered = 0;   // REMBs suppressed by the downlink filter
  uint64_t remb_forwarded = 0;
  uint64_t nack_translated = 0;
  uint64_t svc_suppressed = 0;  // packets dropped by the layer filter
  uint64_t seq_rewritten = 0;
  uint64_t seq_dropped = 0;     // rewriter refused (duplicate risk)
  uint64_t keyframe_dd_to_cpu = 0;
  uint64_t parse_depth_exceeded = 0;  // Appendix E parser bound hit
  uint64_t relay_packets = 0;  // replicas forwarded to a downstream switch
  uint64_t relay_bytes = 0;    // wire bytes of those replicas
  // Redundant dual relay trees (FRER-style merge at this switch):
  uint64_t redundant_relayed = 0;      // copies that arrived via a secondary
  uint64_t duplicates_eliminated = 0;  // in-window (origin, seq) repeats
};

class DataPlaneProgram : public switchsim::PipelineProgram {
 public:
  DataPlaneProgram(switchsim::Switch& sw, const DataPlaneConfig& cfg);

  // switchsim::PipelineProgram
  void Ingress(const net::Packet& pkt,
               switchsim::PacketMetadata& meta) override;
  bool Egress(net::Packet& pkt, const switchsim::PacketMetadata& meta,
              const switchsim::Replica& replica) override;

  // ---- control-plane write API (called by the switch agent) ----
  bool InstallStream(const StreamKey& key, const StreamEntry& entry);
  bool RemoveStream(const StreamKey& key);
  StreamEntry* MutableStream(const StreamKey& key);

  bool InstallEgress(const EgressKey& key, const EgressEntry& entry);
  bool RemoveEgress(const EgressKey& key);

  bool InstallSvc(const SvcKey& key, const SvcEntry& entry);
  bool RemoveSvc(const SvcKey& key);
  SvcEntry* MutableSvc(const SvcKey& key);

  bool InstallFeedback(uint16_t sfu_port, const FeedbackEntry& entry);
  bool RemoveFeedback(uint16_t sfu_port);
  FeedbackEntry* MutableFeedback(uint16_t sfu_port);

  // Duplicate-elimination windows for redundantly relayed streams, keyed
  // by origin ssrc so both trees' stream entries share one history.
  // Installing is idempotent (the window survives re-installs untouched).
  void InstallDedup(uint32_t ssrc, int window);
  void RemoveDedup(uint32_t ssrc);

  // Rewriter state management (control plane assigns collision-free
  // indices; immediate cleanup on stream end — paper §6.3).
  uint32_t AllocateRewriter(const SkipCadence& cadence);
  void ConfigureRewriter(uint32_t index, const SkipCadence& cadence);
  void FreeRewriter(uint32_t index);
  size_t rewriters_in_use() const { return rewriters_in_use_; }

  const DataPlaneStats& stats() const { return stats_; }
  switchsim::Switch& sw() { return switch_; }

 private:
  void IngressRtp(const net::Packet& pkt, switchsim::PacketMetadata& meta);
  void IngressRtcp(const net::Packet& pkt, switchsim::PacketMetadata& meta);
  void ApplyForwarding(const StreamEntry& entry, uint8_t temporal_layer,
                       switchsim::PacketMetadata& meta);
  // The rewriter in cell `index`; nullptr when the cell is free or was
  // never allocated.
  SequenceRewriter* RewriterAt(uint32_t index) const {
    return index < rewriters_.size() ? rewriters_[index].get() : nullptr;
  }

  switchsim::Switch& switch_;
  DataPlaneConfig cfg_;

  switchsim::ExactTable<StreamKey, StreamEntry> stream_table_;
  switchsim::ExactTable<EgressKey, EgressEntry> egress_table_;
  switchsim::ExactTable<SvcKey, SvcEntry> svc_table_;
  switchsim::ExactTable<uint16_t, FeedbackEntry> feedback_table_;
  // Protocol classification rules (RFC 7983 demux) live in TCAM on the
  // hardware; the logic itself is in rtp::Classify, this table carries the
  // static allocation for the resource model.
  switchsim::TernaryTable<uint8_t> classify_table_;
  // Six logical hash tables in the paper; the resource model accounts
  // them as one footprint of S-LR state cells, occupied by the rewriters
  // in use.
  switchsim::TableFootprint stream_tracker_;
  // Allocated cells, grown on demand up to cfg_.rewriter_cells.
  std::vector<std::unique_ptr<SequenceRewriter>> rewriters_;
  std::vector<uint32_t> free_rewriter_indices_;
  uint32_t next_rewriter_ = 0;
  size_t rewriters_in_use_ = 0;
  std::unordered_map<uint32_t, DedupWindow> dedup_;

  DataPlaneStats stats_;
};

// Scans a compound RTCP payload for a REMB signature ("parser lookahead"
// over packet boundaries, which the hardware parser can do for a bounded
// number of sub-packets).
bool CompoundContainsRemb(std::span<const uint8_t> payload);
// First RTCP packet type in a compound payload.
uint8_t CompoundFirstType(std::span<const uint8_t> payload);

}  // namespace scallop::core
