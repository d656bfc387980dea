// Software split-proxy SFU baseline (Mediasoup-style, paper §2.2/§3).
//
// Functionally it relays media like Scallop (per-receiver addressing, leg
// per participant pair) but everything runs on general-purpose CPU cores
// with an operating-system delay model:
//   per-packet service time = base + per_replica * copies, multiplied by a
//   log-normal scheduler-noise factor, plus FIFO queueing on the busiest-
//   free core; packets are dropped when the socket buffer (queue) is full.
// Control loops are split per leg: the SFU terminates NACKs from its own
// per-stream cache and aggregates REMB toward each sender as the *minimum*
// of its receivers' estimates (the classic split-proxy behaviour the paper
// contrasts with Scallop's best-downlink filter).
//
// Media packets are forwarded as exact copies except for addresses — the
// forwarding behaviour the paper observed in production SFUs (§3).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "core/controller.hpp"
#include "net/packet.hpp"
#include "rtp/rtcp.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace scallop::sfu {

struct SoftwareSfuConfig {
  net::Ipv4 address;
  int cores = 1;
  double base_service_us = 8.0;    // receive + demux + socket read
  double per_replica_us = 4.0;     // per outgoing copy (clone + sendto)
  // Scheduler / wakeup latency: log-normal multiplier on a base delay.
  double wakeup_median_us = 290.0;
  double wakeup_sigma = 0.30;
  util::DurationUs max_queue_delay = util::Millis(200);  // then drop
  uint16_t first_port = 20'000;
  uint64_t seed = 99;
  util::DurationUs remb_aggregate_interval = util::Millis(500);
  size_t nack_cache_packets = 512;
};

struct SoftwareSfuStats {
  uint64_t packets_in = 0;
  uint64_t packets_out = 0;
  uint64_t packets_dropped = 0;  // queue overflow
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t nacks_served_from_cache = 0;
  uint64_t nacks_forwarded = 0;
  uint64_t rembs_aggregated = 0;
  double cpu_busy_us = 0.0;  // total service time consumed
};

class SoftwareSfu : public sim::Host, public core::SignalingServer {
 public:
  SoftwareSfu(sim::Scheduler& sched, sim::Network& network,
              const SoftwareSfuConfig& cfg);

  core::MeetingId CreateMeeting();

  // core::SignalingServer
  JoinResult Join(core::MeetingId meeting,
                  const sdp::SessionDescription& offer,
                  core::SignalingClient* client) override;
  void Leave(core::MeetingId meeting, core::ParticipantId participant) override;

  // sim::Host
  void OnPacket(net::PacketPtr pkt) override;

  const SoftwareSfuStats& stats() const { return stats_; }
  // Distribution of SFU-induced forwarding latency (queue + service).
  const util::SampleSet& forwarding_latency_us() const { return latency_us_; }
  // Utilization of the pinned core(s) over the run so far.
  double CpuUtilization(util::TimeUs now) const;

 private:
  struct Leg {
    uint16_t sfu_port = 0;          // port this leg uses on the SFU
    net::Endpoint client;           // receiver-side endpoint of the leg
  };
  struct Participant {
    core::ParticipantId id = 0;
    core::MeetingId meeting = 0;
    core::SignalingClient* client = nullptr;
    net::Endpoint media_src;
    uint16_t uplink_port = 0;
    uint32_t video_ssrc = 0;
    uint32_t audio_ssrc = 0;
    bool sends_video = false;
    bool sends_audio = false;
    std::map<core::ParticipantId, Leg> recv_legs;  // by sender
    // REMB aggregation state per sender (this participant as receiver).
    std::map<core::ParticipantId, double> remb;
  };
  struct StreamCache {  // per sender video stream, for NACK termination
    std::map<uint16_t, std::vector<uint8_t>> packets;
    std::deque<uint16_t> order;
  };

  void Process(net::PacketPtr pkt, util::TimeUs done);
  void ForwardMedia(const Participant& sender, const net::Packet& pkt,
                    size_t copies_budgeted);
  void HandleFeedback(const net::Packet& pkt);
  void AggregateRemb();
  util::DurationUs EnqueueWork(double replicas);

  sim::Scheduler& sched_;
  sim::Network& network_;
  SoftwareSfuConfig cfg_;
  util::Rng rng_;

  std::map<core::MeetingId, std::vector<core::ParticipantId>> meetings_;
  std::map<core::ParticipantId, Participant> participants_;
  std::map<uint16_t, core::ParticipantId> port_owner_;
  std::map<uint16_t, std::pair<core::ParticipantId, core::ParticipantId>>
      leg_ports_;  // port -> (receiver, sender)
  std::map<uint32_t, StreamCache> caches_;  // by video ssrc
  core::MeetingId next_meeting_ = 1;
  core::ParticipantId next_participant_ = 1;
  uint16_t next_port_;

  std::vector<util::TimeUs> core_free_;  // per-core busy horizon
  std::unique_ptr<sim::PeriodicTask> remb_task_;

  SoftwareSfuStats stats_;
  util::SampleSet latency_us_;
};

}  // namespace scallop::sfu
