// WebRTC-style receive pipeline: packet buffer with loss detection (NACK),
// frame assembly, and a dependency-aware SVC decoder model implementing the
// failure semantics the paper measured:
//   - a sequence gap looks like network loss -> retransmission requests;
//   - a duplicate/incorrectly rewritten sequence number breaks decoder
//     state -> freeze until the next key frame (paper §6.2).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "av1/dependency_descriptor.hpp"
#include "rtp/rtp_packet.hpp"
#include "util/seqnum.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scallop::media {

// Accumulates per-second values; used for fps / bitrate time series in the
// Fig. 14 and Fig. 23/24 plots. Samples arrive in (virtually) monotone
// time order, so the store is a sorted vector with an O(1) append/update
// fast path on the newest second — this runs once per received packet.
class PerSecondSeries {
 public:
  void Add(util::TimeUs t, double value) {
    int64_t second = t / 1'000'000;
    if (!by_second_.empty() && by_second_.back().first == second) {
      by_second_.back().second += value;
      return;
    }
    if (by_second_.empty() || second > by_second_.back().first) {
      by_second_.emplace_back(second, value);
      return;
    }
    AddOutOfOrder(second, value);
  }
  double SumInSecond(int64_t second) const;

 private:
  void AddOutOfOrder(int64_t second, double value);

  std::vector<std::pair<int64_t, double>> by_second_;  // sorted by second
};

// A map from unwrapped sequence or frame numbers to T, stored flat: one
// slot per key from the lowest to the highest live key, in a power-of-two
// ring that doubles when that span outgrows it and is reused afterwards.
// Lookups and in-order inserts are O(1) and allocate nothing once the ring
// covers the span; memory follows the span of live keys, not their count.
template <typename T>
class KeyWindow {
 public:
  const T* Find(int64_t key) const {
    if (count_ == 0 || key < lo_ || key - lo_ >= static_cast<int64_t>(span_)) {
      return nullptr;
    }
    const Slot& s = ring_[Index(key)];
    return s.live ? &s.value : nullptr;
  }

  // The value of `key`, value-initialized if the key was not live.
  T& Insert(int64_t key) {
    if (count_ == 0) {
      Reserve(1);
      head_ = 0;
      lo_ = key;
      span_ = 1;
    } else if (key < lo_) {
      const auto grow = static_cast<size_t>(lo_ - key);
      Reserve(span_ + grow);
      head_ = (head_ - grow) & (ring_.size() - 1);
      lo_ = key;
      span_ += grow;
    } else if (key - lo_ >= static_cast<int64_t>(span_)) {
      Reserve(static_cast<size_t>(key - lo_) + 1);
      span_ = static_cast<size_t>(key - lo_) + 1;
    }
    Slot& s = ring_[Index(key)];
    if (!s.live) {
      s = Slot{T{}, true};
      ++count_;
    }
    return s.value;
  }

  // Erases every key below `bound`.
  void EraseBelow(int64_t bound) {
    while (count_ > 0 && lo_ < bound) PopLowest();
  }
  void EraseLowest() {
    if (count_ > 0) PopLowest();
  }

  size_t size() const { return count_; }

  // Calls fn(key, value) for each live key in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < span_; ++i) {
      const Slot& s = ring_[(head_ + i) & (ring_.size() - 1)];
      if (s.live) fn(lo_ + static_cast<int64_t>(i), s.value);
    }
  }

 private:
  struct Slot {
    T value{};
    bool live = false;
  };
  static constexpr size_t kMinSlots = 64;

  size_t Index(int64_t key) const {
    return (head_ + static_cast<size_t>(key - lo_)) & (ring_.size() - 1);
  }

  // Grows the ring to hold `span` slots, keeping the live keys in place.
  // Slots outside [lo_, lo_ + span_) are never live.
  void Reserve(size_t span) {
    if (span <= ring_.size()) return;
    std::vector<Slot> next(std::max(kMinSlots, std::bit_ceil(span)));
    for (size_t i = 0; i < span_; ++i) {
      next[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_.swap(next);
    head_ = 0;
  }

  // Erases the lowest key and moves lo_ up to the next live one.
  void PopLowest() {
    ring_[head_].live = false;
    --count_;
    do {
      head_ = (head_ + 1) & (ring_.size() - 1);
      ++lo_;
      --span_;
    } while (span_ > 0 && !ring_[head_].live);
  }

  std::vector<Slot> ring_;
  size_t head_ = 0;   // slot of lo_
  int64_t lo_ = 0;    // lowest live key
  size_t span_ = 0;   // keys covered: [lo_, lo_ + span_)
  size_t count_ = 0;  // live keys
};

struct VideoReceiverConfig {
  uint32_t clock_rate = 90'000;
  uint8_t dd_extension_id = av1::kDdExtensionId;
  // A missing packet is only NACKed after this long (tolerates the
  // micro-reordering of packetization bursts, as real jitter buffers do).
  util::DurationUs nack_initial_delay = util::Millis(15);
  util::DurationUs nack_retry_interval = util::Millis(100);
  int max_nack_retries = 4;
  // A missing packet is abandoned (treated as unrecoverable) this long
  // after first detection.
  util::DurationUs loss_abandon_timeout = util::Millis(450);
  // Decoder stalled this long -> send PLI (rate limited).
  util::DurationUs freeze_pli_threshold = util::Millis(500);
  util::DurationUs pli_min_interval = util::Seconds(1);
};

struct VideoReceiverStats {
  uint64_t packets_received = 0;
  uint64_t bytes_received = 0;
  uint64_t duplicate_packets = 0;
  uint64_t conflicting_duplicates = 0;  // same seq, different content
  uint64_t nacks_sent = 0;
  uint64_t nacked_packets = 0;  // total sequence numbers requested
  uint64_t plis_sent = 0;
  uint64_t recovered_packets = 0;   // arrived after being NACKed
  uint64_t abandoned_packets = 0;   // never recovered
  uint64_t frames_completed = 0;
  uint64_t frames_decoded = 0;
  uint64_t key_frames_decoded = 0;
  uint64_t frames_undecodable = 0;  // dropped: missing dependency/broken
  uint64_t decoder_breaks = 0;      // duplicate-seq induced state breaks
  double total_freeze_ms = 0.0;
};

class VideoReceiver {
 public:
  using SendNackFn =
      std::function<void(const std::vector<uint16_t>& seqs)>;
  using SendPliFn = std::function<void()>;

  VideoReceiver(const VideoReceiverConfig& cfg, SendNackFn send_nack,
                SendPliFn send_pli);

  // Both overloads run one body; a view is read only during the call.
  void OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival);
  void OnPacket(const rtp::RtpView& pkt, util::TimeUs arrival);
  // Drives NACK retries, loss abandonment and freeze detection; call every
  // few tens of milliseconds.
  void OnTick(util::TimeUs now);

  const VideoReceiverStats& stats() const { return stats_; }
  const util::JitterEstimator& jitter() const { return jitter_; }
  const PerSecondSeries& decoded_fps_series() const { return fps_series_; }
  const PerSecondSeries& received_bytes_series() const { return bytes_series_; }
  // Received bytes per second broken down by template id (Fig. 24).
  const PerSecondSeries& template_bytes_series(uint8_t template_id) const;
  bool frozen(util::TimeUs now) const;
  // fps decoded over the trailing window (default 1 s).
  double RecentFps(util::TimeUs now, util::DurationUs window = util::Seconds(1)) const;

 private:
  struct BufferedPacket {
    int64_t frame_number;  // unwrapped
    uint8_t template_id;
    bool start_of_frame;
    bool end_of_frame;
    bool key_frame;
    size_t size;
    util::TimeUs arrival;
  };
  struct MissingPacket {
    util::TimeUs first_detected;
    util::TimeUs last_nack;
    int retries = 0;
  };
  struct PendingFrame {
    int64_t start_seq = -1;
    int64_t end_seq = -1;
    uint8_t template_id = 0;
    bool key_frame = false;
    size_t packets_have = 0;
    size_t bytes = 0;
    bool failed = false;
  };

  // The body behind both OnPacket overloads; `dd` is the dependency
  // descriptor extension's data.
  void OnMedia(std::span<const uint8_t> dd, uint16_t sequence_number,
               uint32_t timestamp, size_t payload_bytes, util::TimeUs arrival);
  void DetectGaps(int64_t unwrapped_seq, util::TimeUs now);
  void AssembleFrame(int64_t seq, const BufferedPacket& info);
  bool FrameComplete(const PendingFrame& f) const;
  void TryDecode(util::TimeUs now);
  void DecodeFrame(int64_t frame_number, const PendingFrame& f,
                   util::TimeUs now);

  VideoReceiverConfig cfg_;
  SendNackFn send_nack_;
  SendPliFn send_pli_;

  util::SeqUnwrapper seq_unwrap_;
  util::SeqUnwrapper frame_unwrap_;
  int64_t highest_seq_ = -1;
  std::map<int64_t, BufferedPacket> buffer_;
  // The three windows below keep exactly what ordered containers pruned
  // the same way would; an entry lives until a later insert passes it by
  // the window, even one inserted already older than the window.
  //
  // (frame, template) per received seq, for duplicate detection. Inserting
  // seq s erases every seq below s - 4096; it outlives buffer_ entries.
  struct SeenPacket {
    int64_t frame_number = 0;
    uint8_t template_id = 0;
  };
  KeyWindow<SeenPacket> seen_;
  std::map<int64_t, MissingPacket> missing_;
  // Seqs given up on, so a late arrival still counts as recovered; OnTick
  // keeps the 4,096 highest.
  std::set<int64_t> abandoned_;
  std::map<int64_t, PendingFrame> pending_frames_;
  // Decoded frames that later frames may reference: decoding frame f
  // erases every frame below f - 64.
  KeyWindow<bool> decoded_frames_;
  int64_t max_seen_frame_ = -1;
  int64_t last_decoded_frame_ = -1;

  bool decoder_broken_ = false;
  bool waiting_for_key_frame_ = false;
  util::TimeUs last_decode_time_ = 0;
  util::TimeUs last_pli_time_ = -10'000'000;
  util::TimeUs freeze_accounted_until_ = 0;
  util::TimeUs first_packet_time_ = -1;  // <0: nothing received yet

  VideoReceiverStats stats_;
  util::JitterEstimator jitter_;
  PerSecondSeries fps_series_;
  PerSecondSeries bytes_series_;
  // Indexed directly by template id (6 bits on the wire): this is touched
  // once per video packet, and a flat array beats a map lookup.
  std::array<PerSecondSeries, 64> template_bytes_;
  // Decode time of the 256 highest decoded frames, for RecentFps: each
  // decode past 256 entries erases the lowest frame, which may be itself.
  KeyWindow<util::TimeUs> decode_times_;
};

// Audio receive statistics (no NACK/PLI for audio).
class AudioReceiver {
 public:
  explicit AudioReceiver(uint32_t clock_rate = 48'000) : jitter_(clock_rate) {}

  void OnPacket(const rtp::RtpPacket& pkt, util::TimeUs arrival) {
    OnMedia(pkt.sequence_number, pkt.timestamp, pkt.payload.size(), arrival);
  }
  void OnPacket(const rtp::RtpView& pkt, util::TimeUs arrival) {
    OnMedia(pkt.sequence_number, pkt.timestamp, pkt.payload.size(), arrival);
  }

  uint64_t packets_received() const { return packets_; }
  uint64_t bytes_received() const { return bytes_; }
  uint64_t gaps_detected() const { return gaps_; }
  const util::JitterEstimator& jitter() const { return jitter_; }

 private:
  void OnMedia(uint16_t sequence_number, uint32_t timestamp,
               size_t payload_bytes, util::TimeUs arrival);

  util::SeqUnwrapper unwrap_;
  int64_t highest_seq_ = -1;
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t gaps_ = 0;
  util::JitterEstimator jitter_;
};

}  // namespace scallop::media
