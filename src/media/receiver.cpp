#include "media/receiver.hpp"

#include <algorithm>

namespace scallop::media {

// Out-of-order sample (does not happen in simulation, where time is
// monotone, but keep the container sorted regardless).
void PerSecondSeries::AddOutOfOrder(int64_t second, double value) {
  auto it = std::lower_bound(
      by_second_.begin(), by_second_.end(), second,
      [](const auto& e, int64_t s) { return e.first < s; });
  if (it != by_second_.end() && it->first == second) {
    it->second += value;
  } else {
    by_second_.insert(it, {second, value});
  }
}

double PerSecondSeries::SumInSecond(int64_t second) const {
  auto it = std::lower_bound(
      by_second_.begin(), by_second_.end(), second,
      [](const auto& e, int64_t s) { return e.first < s; });
  return (it != by_second_.end() && it->first == second) ? it->second : 0.0;
}

VideoReceiver::VideoReceiver(const VideoReceiverConfig& cfg,
                             SendNackFn send_nack, SendPliFn send_pli)
    : cfg_(cfg),
      send_nack_(std::move(send_nack)),
      send_pli_(std::move(send_pli)),
      jitter_(cfg.clock_rate) {}

const PerSecondSeries& VideoReceiver::template_bytes_series(
    uint8_t template_id) const {
  static const PerSecondSeries kEmpty;
  return template_id < template_bytes_.size() ? template_bytes_[template_id]
                                              : kEmpty;
}

void VideoReceiver::OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival) {
  const rtp::RtpExtension* ext = pkt.FindExtension(cfg_.dd_extension_id);
  auto dd = ext ? av1::PeekMandatory(ext->data) : std::nullopt;
  if (!dd.has_value()) return;  // video without a DD is not decodable here

  ++stats_.packets_received;
  if (first_packet_time_ < 0) first_packet_time_ = arrival;
  stats_.bytes_received += pkt.payload.size();
  jitter_.OnPacket(pkt.timestamp, arrival);
  bytes_series_.Add(arrival, static_cast<double>(pkt.payload.size()));
  template_bytes_[dd->template_id & 63].Add(
      arrival, static_cast<double>(pkt.payload.size()));

  int64_t seq = seq_unwrap_.Unwrap(pkt.sequence_number);
  int64_t frame = frame_unwrap_.Unwrap(dd->frame_number);
  max_seen_frame_ = std::max(max_seen_frame_, frame);

  // Template 0 is used exclusively by key frames in the L1T3 scheme (the
  // extended structure rides only on the first one, so it cannot serve as
  // the key-frame marker).
  bool key = dd->template_id == 0;

  // `seen_` keys are bounded by `seen_max_`, so a seq beyond it cannot be
  // a duplicate — the common in-order case skips the lookup entirely and
  // appends with an end hint (O(1) for a monotone key).
  auto existing = seq > seen_max_ ? seen_.end() : seen_.find(seq);
  if (existing != seen_.end()) {
    ++stats_.duplicate_packets;
    // Same sequence number, different frame content: this is the broken
    // rewrite the paper warns about — the decoder state is corrupted.
    if (existing->second.first != frame ||
        existing->second.second != dd->template_id) {
      ++stats_.conflicting_duplicates;
      if (!decoder_broken_) {
        decoder_broken_ = true;
        waiting_for_key_frame_ = true;
        ++stats_.decoder_breaks;
      }
    }
    return;
  }
  if (seq > seen_max_) {
    seen_.emplace_hint(seen_.end(), seq,
                       std::make_pair(frame, dd->template_id));
    seen_max_ = seq;
  } else {
    seen_.emplace(seq, std::make_pair(frame, dd->template_id));
  }
  while (!seen_.empty() && seen_.begin()->first < seq - 4096) {
    seen_.erase(seen_.begin());
  }

  BufferedPacket info{frame,
                      dd->template_id,
                      dd->start_of_frame,
                      dd->end_of_frame,
                      key,
                      pkt.payload.size(),
                      arrival};
  // Highest-so-far seqs (the in-order common case) append at the end.
  if (seq > highest_seq_) {
    buffer_.emplace_hint(buffer_.end(), seq, info);
  } else {
    buffer_.emplace(seq, info);
  }

  if (missing_.erase(seq) > 0) {
    ++stats_.recovered_packets;
  } else if (abandoned_.erase(seq) > 0) {
    // Arrived after we gave up; frame was already failed.
    ++stats_.recovered_packets;
  }

  DetectGaps(seq, arrival);
  AssembleFrame(seq, info);
  TryDecode(arrival);
}

void VideoReceiver::DetectGaps(int64_t seq, util::TimeUs now) {
  if (highest_seq_ < 0) {
    highest_seq_ = seq;
    return;
  }
  if (seq > highest_seq_ + 1) {
    // Record the gap; the first NACK goes out from OnTick once the packet
    // has been missing longer than the reorder tolerance.
    for (int64_t s = highest_seq_ + 1; s < seq; ++s) {
      if (buffer_.count(s) || abandoned_.count(s)) continue;
      missing_.emplace(s, MissingPacket{now, 0, 0});
    }
  }
  highest_seq_ = std::max(highest_seq_, seq);
}

void VideoReceiver::AssembleFrame(int64_t seq, const BufferedPacket& info) {
  PendingFrame& f = pending_frames_[info.frame_number];
  if (info.start_of_frame) f.start_seq = seq;
  if (info.end_of_frame) f.end_seq = seq;
  f.template_id = info.template_id;
  f.key_frame = f.key_frame || info.key_frame;
  ++f.packets_have;
  f.bytes += info.size;
}

bool VideoReceiver::FrameComplete(const PendingFrame& f) const {
  if (f.start_seq < 0 || f.end_seq < 0 || f.failed) return false;
  return static_cast<int64_t>(f.packets_have) == f.end_seq - f.start_seq + 1;
}

void VideoReceiver::TryDecode(util::TimeUs now) {
  // Decode pending frames in frame-number order. Stop at the first frame
  // that is incomplete but still recoverable (waiting on retransmission).
  bool progress = true;
  while (progress && !pending_frames_.empty()) {
    progress = false;
    auto it = pending_frames_.begin();
    int64_t frame_number = it->first;
    PendingFrame& f = it->second;

    if (f.failed) {
      ++stats_.frames_undecodable;
      waiting_for_key_frame_ = true;
      pending_frames_.erase(it);
      progress = true;
      continue;
    }
    if (!FrameComplete(f)) {
      // Frame might still complete via retransmission; but if a newer key
      // frame is already complete, skip ahead to it (decoder resync).
      auto key_it = std::find_if(
          pending_frames_.begin(), pending_frames_.end(),
          [this](const auto& kv) {
            return kv.second.key_frame && FrameComplete(kv.second);
          });
      if (key_it != pending_frames_.end() && key_it->first > frame_number) {
        // Drop everything before the key frame.
        for (auto drop = pending_frames_.begin(); drop != key_it;) {
          ++stats_.frames_undecodable;
          drop = pending_frames_.erase(drop);
        }
        progress = true;
        continue;
      }
      break;
    }

    ++stats_.frames_completed;

    if (f.key_frame) {
      decoder_broken_ = false;
      waiting_for_key_frame_ = false;
      DecodeFrame(frame_number, f, now);
      ++stats_.key_frames_decoded;
      pending_frames_.erase(it);
      progress = true;
      continue;
    }
    if (decoder_broken_ || waiting_for_key_frame_) {
      ++stats_.frames_undecodable;
      pending_frames_.erase(it);
      progress = true;
      continue;
    }

    int dist = av1::L1T3Pattern::DependencyDistance(f.template_id, false);
    int64_t dep = frame_number - dist;
    bool dep_ok = decoded_frames_.count(dep) > 0 || dep <= 0;
    if (dep_ok) {
      DecodeFrame(frame_number, f, now);
      pending_frames_.erase(it);
      progress = true;
      continue;
    }
    // Dependency not decoded. If it can still arrive (newer than anything
    // assembled), wait; otherwise the frame is permanently undecodable.
    bool dep_pending = pending_frames_.count(dep) > 0;
    if (dep_pending) break;
    ++stats_.frames_undecodable;
    waiting_for_key_frame_ = true;
    pending_frames_.erase(it);
    progress = true;
  }
}

void VideoReceiver::DecodeFrame(int64_t frame_number, const PendingFrame& f,
                                util::TimeUs now) {
  decoded_frames_.insert(frame_number);
  last_decoded_frame_ = std::max(last_decoded_frame_, frame_number);
  PruneDecodedSet(frame_number - 64);
  ++stats_.frames_decoded;
  last_decode_time_ = now;
  fps_series_.Add(now, 1.0);
  decode_times_[frame_number] = now;
  while (decode_times_.size() > 256) decode_times_.erase(decode_times_.begin());
  // Drop packet buffer entries for this frame.
  if (f.start_seq >= 0 && f.end_seq >= f.start_seq) {
    for (int64_t s = f.start_seq; s <= f.end_seq; ++s) buffer_.erase(s);
  }
}

void VideoReceiver::PruneDecodedSet(int64_t below) {
  auto it = decoded_frames_.begin();
  while (it != decoded_frames_.end() && *it < below) {
    it = decoded_frames_.erase(it);
  }
}

void VideoReceiver::OnTick(util::TimeUs now) {
  // NACK retries / abandonment.
  std::vector<uint16_t> renacks;
  for (auto it = missing_.begin(); it != missing_.end();) {
    MissingPacket& m = it->second;
    if (now - m.first_detected > cfg_.loss_abandon_timeout ||
        m.retries > cfg_.max_nack_retries) {
      // Give up: mark the owning frame(s) failed. The lost packet's frame
      // boundaries may themselves be missing, so bound the affected frame
      // range by the frames of the nearest buffered neighbors.
      int64_t seq = it->first;
      abandoned_.insert(seq);
      ++stats_.abandoned_packets;
      int64_t frame_lo = 0;
      int64_t frame_hi = max_seen_frame_;
      auto above = buffer_.upper_bound(seq);
      if (above != buffer_.end()) frame_hi = above->second.frame_number;
      if (above != buffer_.begin()) {
        auto below = std::prev(above);
        frame_lo = below->second.frame_number;
      }
      for (auto& [fn, f] : pending_frames_) {
        if (fn >= frame_lo && fn <= frame_hi && !FrameComplete(f)) {
          f.failed = true;
        }
      }
      it = missing_.erase(it);
      continue;
    }
    bool due = m.retries == 0
                   ? now - m.first_detected >= cfg_.nack_initial_delay
                   : now - m.last_nack >= cfg_.nack_retry_interval;
    if (due) {
      m.last_nack = now;
      ++m.retries;
      renacks.push_back(static_cast<uint16_t>(it->first & 0xffff));
    }
    ++it;
  }
  if (!renacks.empty() && send_nack_) {
    ++stats_.nacks_sent;
    stats_.nacked_packets += renacks.size();
    send_nack_(renacks);
  }

  // Bound buffer growth for abandoned/failed state.
  while (abandoned_.size() > 4096) abandoned_.erase(abandoned_.begin());

  // Freeze detection -> PLI.
  if (stats_.frames_decoded > 0 &&
      now - last_decode_time_ > cfg_.freeze_pli_threshold) {
    util::TimeUs freeze_start =
        std::max(last_decode_time_, freeze_accounted_until_);
    if (now > freeze_start) {
      stats_.total_freeze_ms += util::ToMillis(now - freeze_start);
      freeze_accounted_until_ = now;
    }
    if (send_pli_ && now - last_pli_time_ >= cfg_.pli_min_interval) {
      last_pli_time_ = now;
      ++stats_.plis_sent;
      send_pli_();
    }
    // Resync: throw away stalled pending frames older than the newest key
    // frame candidate; handled in TryDecode on the next packet.
  } else if (stats_.frames_decoded == 0 && first_packet_time_ >= 0 &&
             now - first_packet_time_ > cfg_.freeze_pli_threshold) {
    // Cold start mid-stream: packets are arriving but nothing is
    // decodable until the next key frame. A PLI short-circuits the wait
    // for the sender's periodic refresh (late joiners would otherwise
    // stall for up to a full key-frame interval).
    if (send_pli_ && now - last_pli_time_ >= cfg_.pli_min_interval) {
      last_pli_time_ = now;
      ++stats_.plis_sent;
      send_pli_();
    }
  }

  TryDecode(now);
}

bool VideoReceiver::frozen(util::TimeUs now) const {
  return stats_.frames_decoded > 0 &&
         now - last_decode_time_ > cfg_.freeze_pli_threshold;
}

double VideoReceiver::RecentFps(util::TimeUs now,
                                util::DurationUs window) const {
  int64_t count = 0;
  for (const auto& [frame, t] : decode_times_) {
    if (now - t <= window) ++count;
  }
  return static_cast<double>(count) / util::ToSeconds(window);
}

void AudioReceiver::OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival) {
  ++packets_;
  bytes_ += pkt.payload.size();
  jitter_.OnPacket(pkt.timestamp, arrival);
  int64_t seq = unwrap_.Unwrap(pkt.sequence_number);
  if (highest_seq_ >= 0 && seq > highest_seq_ + 1) {
    gaps_ += static_cast<uint64_t>(seq - highest_seq_ - 1);
  }
  highest_seq_ = std::max(highest_seq_, seq);
}

}  // namespace scallop::media
