// Unidirectional link with serialization rate, propagation delay, random
// jitter, iid loss, reordering, and a drop-tail queue. Capacity and loss can
// change at runtime (used to emulate congested downlinks in Fig. 14).
//
// A link has one receiver, fixed at construction: every packet it delivers
// goes to the same callback. An in-flight packet is a 16-byte slab entry
// (the packet and its arrival time) and one typed scheduler delivery
// naming the link and the entry.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "util/random.hpp"
#include "util/slab.hpp"
#include "util/time.hpp"

namespace scallop::sim {

struct LinkConfig {
  double rate_bps = 0.0;               // 0 = infinite capacity
  util::DurationUs prop_delay = 0;     // one-way propagation
  util::DurationUs jitter_stddev = 0;  // extra random delay (half-normal)
  double loss_rate = 0.0;              // iid drop probability
  double reorder_rate = 0.0;           // probability of extra reorder delay
  util::DurationUs reorder_delay = util::Millis(5);
  size_t queue_bytes = 256 * 1024;     // drop-tail queue bound
};

struct LinkStats {
  uint64_t sent_packets = 0;
  uint64_t delivered_packets = 0;
  uint64_t lost_packets = 0;      // random loss
  uint64_t dropped_packets = 0;   // queue overflow
  uint64_t sent_bytes = 0;
  uint64_t delivered_bytes = 0;
};

class Link final : private Scheduler::Target {
 public:
  using DeliverFn = std::function<void(net::PacketPtr)>;

  // `deliver` receives every packet the link delivers, at its arrival
  // time, with Packet::arrival stamped.
  Link(Scheduler& sched, LinkConfig cfg, uint64_t seed, DeliverFn deliver);
  // In-flight deliveries name the link.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Enqueues the packet for the receiver. `depart_at` (if ahead of now)
  // defers the start of serialization — the switch uses it to model its
  // fixed pipeline latency without paying a scheduler event per packet
  // just to delay the hand-off.
  void Send(net::PacketPtr pkt, util::TimeUs depart_at = -1);

  // Runtime knobs (take effect for subsequently sent packets).
  void set_rate_bps(double bps) { cfg_.rate_bps = bps; }
  void set_loss_rate(double p) { cfg_.loss_rate = p; }
  void set_reorder_rate(double p) { cfg_.reorder_rate = p; }
  void set_prop_delay(util::DurationUs d) { cfg_.prop_delay = d; }
  void set_jitter_stddev(util::DurationUs j) { cfg_.jitter_stddev = j; }

  const LinkConfig& config() const { return cfg_; }
  const LinkStats& stats() const { return stats_; }

 private:
  // Scheduler::Target: delivers the flight in slab slot `token`.
  void Fire(uint64_t token) override;

  struct Flight {
    net::PacketPtr pkt;
    util::TimeUs arrival = 0;
  };

  Scheduler& sched_;
  LinkConfig cfg_;
  DeliverFn deliver_;
  util::Rng rng_;
  util::TimeUs busy_until_ = 0;
  LinkStats stats_;
  util::Slab<Flight> flights_;
};

}  // namespace scallop::sim
