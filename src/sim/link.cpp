#include "sim/link.hpp"

#include <algorithm>
#include <cmath>

namespace scallop::sim {

Link::Link(Scheduler& sched, LinkConfig cfg, uint64_t seed)
    : sched_(sched), cfg_(cfg), rng_(seed) {}

void Link::Send(net::PacketPtr pkt, DeliverFn deliver,
                util::TimeUs depart_at) {
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
  uint32_t idx;
  if (!flight_free_.empty()) {
    idx = flight_free_.back();
    flight_free_.pop_back();
  } else {
    idx = static_cast<uint32_t>(flights_.size());
    flights_.emplace_back();
  }
  Flight& f = flights_[idx];
  f.pkt = std::move(pkt);
  f.deliver = std::move(deliver);
  f.arrival = arrival;
  // BatchAt: deliveries are never cancelled, and batching them collapses
  // fan-out bursts into one event-queue operation.
  sched_.BatchAt(arrival, [this, idx] { Deliver(idx); });
}

void Link::Deliver(uint32_t idx) {
  net::PacketPtr pkt = std::move(flights_[idx].pkt);
  DeliverFn deliver = std::move(flights_[idx].deliver);
  util::TimeUs arrival = flights_[idx].arrival;
  flight_free_.push_back(idx);
  ++stats_.delivered_packets;
  stats_.delivered_bytes += pkt->wire_size();
  pkt->arrival = arrival;
  deliver(std::move(pkt));
}

}  // namespace scallop::sim
