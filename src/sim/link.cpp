#include "sim/link.hpp"

#include <algorithm>
#include <cmath>

namespace scallop::sim {

Link::Link(Scheduler& sched, LinkConfig cfg, uint64_t seed, DeliverFn deliver)
    : sched_(sched), cfg_(cfg), deliver_(std::move(deliver)), rng_(seed) {}

void Link::Send(net::PacketPtr pkt, util::TimeUs depart_at) {
  ++stats_.sent_packets;
  stats_.sent_bytes += pkt->wire_size();

  if (rng_.Bernoulli(cfg_.loss_rate)) {
    ++stats_.lost_packets;
    return;
  }

  util::TimeUs now = sched_.now();
  if (depart_at > now) now = depart_at;
  util::TimeUs tx_end;
  if (cfg_.rate_bps > 0.0) {
    // Backlog relative to the (possibly deferred) departure time.
    util::TimeUs backlog = busy_until_ - now;
    size_t queued =
        backlog <= 0 ? 0
                     : static_cast<size_t>(static_cast<double>(backlog) *
                                           cfg_.rate_bps / 8e6);
    if (queued + pkt->wire_size() > cfg_.queue_bytes) {
      ++stats_.dropped_packets;
      return;
    }
    double tx_us = static_cast<double>(pkt->wire_size()) * 8e6 / cfg_.rate_bps;
    util::TimeUs tx_start = std::max(now, busy_until_);
    tx_end = tx_start + static_cast<util::TimeUs>(tx_us);
    busy_until_ = tx_end;
  } else {
    tx_end = now;
  }

  util::DurationUs extra = 0;
  if (cfg_.jitter_stddev > 0) {
    extra += static_cast<util::DurationUs>(std::abs(
        rng_.Normal(0.0, static_cast<double>(cfg_.jitter_stddev))));
  }
  if (cfg_.reorder_rate > 0.0 && rng_.Bernoulli(cfg_.reorder_rate)) {
    extra += cfg_.reorder_delay;
  }

  util::TimeUs arrival = tx_end + cfg_.prop_delay + extra;
  // Deliveries are never cancelled, so they skip At's callable slot: the
  // packet waits in the link's own slab under the delivery's token.
  sched_.Post(arrival, *this, flights_.Put(Flight{std::move(pkt), arrival}));
}

void Link::Fire(uint64_t token) {
  Flight f = flights_.Take(static_cast<uint32_t>(token));
  f.pkt->arrival = f.arrival;
  ++stats_.delivered_packets;
  stats_.delivered_bytes += f.pkt->wire_size();
  deliver_(std::move(f.pkt));
}

}  // namespace scallop::sim
