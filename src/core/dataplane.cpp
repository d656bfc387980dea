#include "core/dataplane.hpp"

#include "media/packetizer.hpp"
#include "rtp/rtcp.hpp"
#include "rtp/rtp_packet.hpp"
#include "switchsim/parser.hpp"

namespace scallop::core {

const char* TreeDesignName(TreeDesign d) {
  switch (d) {
    case TreeDesign::kTwoParty: return "two-party";
    case TreeDesign::kNRA: return "NRA";
    case TreeDesign::kRAR: return "RA-R";
    case TreeDesign::kRASR: return "RA-SR";
  }
  return "?";
}

bool CompoundContainsRemb(std::span<const uint8_t> payload) {
  size_t offset = 0;
  while (offset + 4 <= payload.size()) {
    auto pkt = payload.subspan(offset);
    if ((pkt[0] >> 6) != 2) return false;
    if (rtp::LooksLikeRemb(pkt)) return true;
    size_t len = (static_cast<size_t>(pkt[2] << 8 | pkt[3]) + 1) * 4;
    if (len == 0 || len > pkt.size()) return false;
    offset += len;
  }
  return false;
}

uint8_t CompoundFirstType(std::span<const uint8_t> payload) {
  return payload.size() >= 2 ? payload[1] : 0;
}

namespace {

// Table capacities are static allocations, as on the hardware. The
// full-scale bounds (e.g. the stream-index SRAM that limits two-party
// scale to 533K meetings) live in the capacity model; this one only needs
// to exceed any simulated scenario.
constexpr size_t kTableCapacity = 1 << 16;

}  // namespace

DataPlaneProgram::DataPlaneProgram(switchsim::Switch& sw,
                                   const DataPlaneConfig& cfg)
    : switch_(sw),
      cfg_(cfg),
      stream_table_("stream_index", kTableCapacity,
                    /*key_bits=*/48 + 32, /*value_bits=*/96),
      egress_table_("egress_rewrite", kTableCapacity,
                    /*key_bits=*/48 + 16, /*value_bits=*/96),
      svc_table_("svc_filter", kTableCapacity,
                 /*key_bits=*/32 + 24, /*value_bits=*/64),
      feedback_table_("feedback_legs", kTableCapacity,
                      /*key_bits=*/16, /*value_bits=*/112),
      classify_table_("classify", /*capacity=*/256, /*key_bits=*/104,
                      /*value_bits=*/8),
      stream_tracker_{"stream_tracker", cfg.rewriter_cells,
                      /*entry_bits=*/160, /*tcam=*/false, /*occupied=*/0} {
  switch_.SetProgram(this);
  auto& res = switch_.resources();
  res.Register(&stream_table_.footprint());
  res.Register(&egress_table_.footprint());
  res.Register(&svc_table_.footprint());
  res.Register(&feedback_table_.footprint());
  res.Register(&classify_table_.footprint());
  res.Register(&stream_tracker_);
  // The static demux rules (first two payload bits + RTCP PT range +
  // STUN magic cookie); rtp::Classify implements their semantics.
  classify_table_.Insert(0x2000'0000, 0xC000'0000, 0);  // RTP/RTCP (v=2)
  classify_table_.Insert(0x0000'2112, 0x0000'FFFF, 1);  // STUN cookie hi
  classify_table_.Insert(0x0, 0x0, 2);                  // default: drop
}

void DataPlaneProgram::Ingress(const net::Packet& pkt,
                               switchsim::PacketMetadata& meta) {
  switch (rtp::Classify(pkt.payload_span())) {
    case rtp::PayloadKind::kStun:
      ++stats_.stun_in;
      // STUN headers are too complex for the pipeline (paper §5.1): the
      // whole packet goes to the switch CPU, nothing is forwarded inline.
      meta.copy_to_cpu = true;
      meta.drop = true;
      return;
    case rtp::PayloadKind::kRtcp:
      ++stats_.rtcp_in;
      IngressRtcp(pkt, meta);
      return;
    case rtp::PayloadKind::kRtp:
      ++stats_.rtp_in;
      IngressRtp(pkt, meta);
      return;
    case rtp::PayloadKind::kUnknown:
      ++stats_.unknown_in;
      meta.drop = true;
      return;
  }
}

void DataPlaneProgram::IngressRtp(const net::Packet& pkt,
                                  switchsim::PacketMetadata& meta) {
  auto ssrc = rtp::PeekSsrc(pkt.payload_span());
  if (!ssrc.has_value()) {
    meta.drop = true;
    return;
  }
  const StreamEntry* entry =
      stream_table_.Lookup(StreamKey{pkt.src, *ssrc});
  if (entry == nullptr) {
    ++stats_.stream_misses;
    meta.drop = true;
    return;
  }

  meta.rtp_parsed = true;
  meta.rtp_ssrc = *ssrc;
  // PeekSsrc's length and version check is PeekSequenceNumber's too.
  meta.rtp_seq = *rtp::PeekSequenceNumber(pkt.payload_span());

  // Redundant relay merge point: both trees' copies of this origin stream
  // funnel through one (origin, seq) window before any replication, so
  // receivers downstream see exactly one copy no matter which tree won.
  if (entry->dedup) {
    if (entry->tree > 0) ++stats_.redundant_relayed;
    auto it = dedup_.find(*ssrc);
    if (it != dedup_.end() && it->second.Observe(meta.rtp_seq)) {
      ++stats_.duplicates_eliminated;
      meta.drop = true;
      return;
    }
  }

  uint8_t temporal_layer = 0;
  if (entry->is_video) {
    // Depth-aware extension parse (paper Appendix E): a bounded walk of
    // the extension block locates the DD and its mandatory fields;
    // extended descriptors go to the control plane.
    auto loc = switchsim::LocateRtpExtension(pkt.payload_span(),
                                             av1::kDdExtensionId);
    if (loc.depth_exceeded) ++stats_.parse_depth_exceeded;
    if (loc.found) {
      auto dd = av1::PeekMandatory(
          pkt.payload_span().subspan(loc.offset, loc.length));
      if (dd.has_value()) {
        temporal_layer = av1::TemporalLayerForTemplate(dd->template_id);
        // Cache the mandatory DD fields for the egress replicas.
        meta.dd_found = true;
        meta.dd_template_id = dd->template_id;
        meta.dd_start_of_frame = dd->start_of_frame;
        meta.dd_end_of_frame = dd->end_of_frame;
        meta.dd_frame_number = dd->frame_number;
        if (dd->has_extended) {
          meta.copy_to_cpu = true;
          ++stats_.keyframe_dd_to_cpu;
        }
      }
    }
  }
  ApplyForwarding(*entry, temporal_layer, meta);
}

void DataPlaneProgram::ApplyForwarding(const StreamEntry& entry,
                                       uint8_t temporal_layer,
                                       switchsim::PacketMetadata& meta) {
  if (entry.design == TreeDesign::kTwoParty) {
    meta.unicast = true;
    meta.unicast_port = entry.peer_egress;
    return;
  }
  meta.mgid = entry.design == TreeDesign::kNRA
                  ? entry.mgid_base
                  : entry.mgid_base + temporal_layer;
  meta.l1_xid = entry.l1_xid;
  meta.rid = entry.rid;
  meta.l2_xid = entry.l2_xid;
}

void DataPlaneProgram::IngressRtcp(const net::Packet& pkt,
                                   switchsim::PacketMetadata& meta) {
  uint8_t first_pt = CompoundFirstType(pkt.payload_span());

  if (first_pt == rtp::kRtcpSr || first_pt == rtp::kRtcpSdes) {
    // Sender reports: replicated to all receivers like media (Fig. 10);
    // a copy goes to the CPU so the agent can track sender rates.
    meta.copy_to_cpu = true;
    // The SR names the sender's ssrc right after the common header.
    if (pkt.payload.size() < 8) {
      meta.drop = true;
      return;
    }
    uint32_t ssrc = static_cast<uint32_t>(pkt.payload[4]) << 24 |
                    static_cast<uint32_t>(pkt.payload[5]) << 16 |
                    static_cast<uint32_t>(pkt.payload[6]) << 8 |
                    pkt.payload[7];
    const StreamEntry* entry = stream_table_.Lookup(StreamKey{pkt.src, ssrc});
    if (entry == nullptr) {
      ++stats_.stream_misses;
      meta.drop = true;
      return;
    }
    ApplyForwarding(*entry, /*temporal_layer=*/0, meta);
    return;
  }

  // Receiver-side feedback: RR / REMB / NACK / PLI. Identify the leg by
  // the SFU-local port it arrived on.
  const FeedbackEntry* fb = feedback_table_.Lookup(pkt.dst.port);
  if (fb == nullptr) {
    meta.drop = true;
    return;
  }
  meta.copy_to_cpu = true;  // agent runs the filter function + SVC logic
  if (CompoundContainsRemb(pkt.payload_span())) {
    if (!fb->remb_allowed) {
      // Suppressed by the best-downlink filter: CPU still sees the copy.
      ++stats_.remb_filtered;
      meta.drop = true;
      return;
    }
    ++stats_.remb_forwarded;
  }
  meta.unicast = true;
  meta.unicast_port = fb->sender_rid;
}

// Every refusal (egress-table miss, SVC suppression, rewriter drop) returns
// before the first write to `pkt`, as PipelineProgram::Egress requires.
bool DataPlaneProgram::Egress(net::Packet& pkt,
                              const switchsim::PacketMetadata& meta,
                              const switchsim::Replica& replica) {
  uint16_t rid = replica.rid != 0 ? replica.rid
                                  : static_cast<uint16_t>(replica.port);
  const EgressEntry* out = egress_table_.Lookup(EgressKey{pkt.src, rid});
  if (out == nullptr) return false;

  // Replicas are copies of the packet ingress classified: every RTP packet
  // that got this far carries ingress's cached parse, so no replica walks
  // the payload again.
  if (meta.rtp_parsed) {
    const SvcEntry* svc =
        svc_table_.Lookup(SvcKey{meta.rtp_ssrc, out->receiver});
    if (svc != nullptr && meta.dd_found) {
      bool suppress =
          svc->filter_in_egress &&
          !av1::TemplateInDecodeTarget(
              meta.dd_template_id,
              static_cast<av1::DecodeTarget>(svc->decode_target));
      if (SequenceRewriter* rw = RewriterAt(svc->rewriter_index)) {
        RewritePacketView view{meta.rtp_seq, meta.dd_frame_number,
                               meta.dd_start_of_frame, meta.dd_end_of_frame,
                               suppress};
        RewriteResult res = rw->Process(view);
        if (!res.forward) {
          if (suppress) {
            ++stats_.svc_suppressed;
          } else {
            ++stats_.seq_dropped;
          }
          return false;
        }
        rtp::PatchSequenceNumber(pkt.payload, res.out_seq);
        ++stats_.seq_rewritten;
      } else if (suppress) {
        ++stats_.svc_suppressed;
        return false;
      }
    }
  } else if (rtp::Classify(pkt.payload_span()) == rtp::PayloadKind::kRtcp) {
    // NACK sequence translation: the receiver NACKs in its rewritten
    // space; the sender's history is in the original space. Applies only
    // to feedback legs whose stream has an active rewriter.
    const FeedbackEntry* fb = feedback_table_.Lookup(pkt.dst.port);
    if (fb != nullptr && !fb->is_uplink) {
      const SvcEntry* svc =
          svc_table_.Lookup(SvcKey{fb->video_ssrc, fb->receiver});
      SequenceRewriter* rw =
          svc != nullptr ? RewriterAt(svc->rewriter_index) : nullptr;
      if (rw != nullptr) {
        auto msgs = rtp::ParseCompound(pkt.payload_span());
        if (msgs.has_value()) {
          bool changed = false;
          int64_t offset = rw->current_offset();
          for (auto& msg : *msgs) {
            if (auto* nack = std::get_if<rtp::Nack>(&msg)) {
              for (auto& s : nack->sequence_numbers) {
                s = static_cast<uint16_t>(s + offset);
              }
              changed = true;
            }
          }
          if (changed) {
            pkt.payload = rtp::SerializeCompound(*msgs);
            ++stats_.nack_translated;
          }
        }
      }
    }
  }

  // Per-receiver addressing (paper: SFU source, receiver unicast dest).
  pkt.src = out->sfu_src;
  pkt.dst = out->dst;
  if (out->is_relay && meta.rtp_parsed) {
    // Media crossing the inter-switch relay toward a downstream SFU: the
    // cascade metric the controller's span accounting is pinned against.
    ++stats_.relay_packets;
    stats_.relay_bytes += pkt.wire_size();
  }
  return true;
}

// ---- control-plane write API ----

bool DataPlaneProgram::InstallStream(const StreamKey& key,
                                     const StreamEntry& entry) {
  return stream_table_.Insert(key, entry);
}
bool DataPlaneProgram::RemoveStream(const StreamKey& key) {
  return stream_table_.Erase(key);
}
StreamEntry* DataPlaneProgram::MutableStream(const StreamKey& key) {
  return stream_table_.Mutable(key);
}

bool DataPlaneProgram::InstallEgress(const EgressKey& key,
                                     const EgressEntry& entry) {
  return egress_table_.Insert(key, entry);
}
bool DataPlaneProgram::RemoveEgress(const EgressKey& key) {
  return egress_table_.Erase(key);
}

bool DataPlaneProgram::InstallSvc(const SvcKey& key, const SvcEntry& entry) {
  return svc_table_.Insert(key, entry);
}
bool DataPlaneProgram::RemoveSvc(const SvcKey& key) {
  return svc_table_.Erase(key);
}
SvcEntry* DataPlaneProgram::MutableSvc(const SvcKey& key) {
  return svc_table_.Mutable(key);
}

bool DataPlaneProgram::InstallFeedback(uint16_t sfu_port,
                                       const FeedbackEntry& entry) {
  return feedback_table_.Insert(sfu_port, entry);
}
bool DataPlaneProgram::RemoveFeedback(uint16_t sfu_port) {
  return feedback_table_.Erase(sfu_port);
}
FeedbackEntry* DataPlaneProgram::MutableFeedback(uint16_t sfu_port) {
  return feedback_table_.Mutable(sfu_port);
}

void DataPlaneProgram::InstallDedup(uint32_t ssrc, int window) {
  dedup_.try_emplace(ssrc, window);
}
void DataPlaneProgram::RemoveDedup(uint32_t ssrc) { dedup_.erase(ssrc); }

uint32_t DataPlaneProgram::AllocateRewriter(const SkipCadence& cadence) {
  uint32_t index;
  if (!free_rewriter_indices_.empty()) {
    index = free_rewriter_indices_.back();
    free_rewriter_indices_.pop_back();
  } else {
    index = next_rewriter_++;
  }
  if (index >= cfg_.rewriter_cells) {
    next_rewriter_ = static_cast<uint32_t>(cfg_.rewriter_cells);
    return UINT32_MAX;  // register memory exhausted
  }
  if (index >= rewriters_.size()) rewriters_.resize(index + 1);
  rewriters_[index] = std::make_unique<SlrRewriter>(cadence);
  stream_tracker_.occupied = ++rewriters_in_use_;
  return index;
}

void DataPlaneProgram::ConfigureRewriter(uint32_t index,
                                         const SkipCadence& cadence) {
  if (SequenceRewriter* rw = RewriterAt(index)) rw->SetCadence(cadence);
}

void DataPlaneProgram::FreeRewriter(uint32_t index) {
  if (RewriterAt(index) != nullptr) {
    rewriters_[index].reset();
    free_rewriter_indices_.push_back(index);
    stream_tracker_.occupied = --rewriters_in_use_;
  }
}

}  // namespace scallop::core
