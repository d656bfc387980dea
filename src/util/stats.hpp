// Statistics helpers used by the evaluation harnesses: EWMA (the switch
// agent's downlink filter), running mean/variance, percentile/CDF samples,
// fixed-bucket histograms, and the RFC 3550 interarrival-jitter estimator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace scallop::util {

// Exponentially-weighted moving average. `alpha` is the weight of a new
// sample; the first sample initializes the average directly.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void Add(double sample);
  double value() const { return value_; }
  bool has_value() const { return initialized_; }
  void Reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Welford running mean / variance.
class RunningStats {
 public:
  void Add(double x);
  int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Stores all samples; answers percentile / CDF queries. Used for latency
// distributions (Fig. 19) and jitter tails (Fig. 3).
class SampleSet {
 public:
  void Add(double x) { samples_.push_back(x); sorted_ = false; }
  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // p in [0,100]; linear interpolation between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;
  double Min() const { return Percentile(0.0); }
  double Max() const { return Percentile(100.0); }

  // Fraction of samples <= x.
  double CdfAt(double x) const;
  // Evenly spaced (value, cumulative fraction) points for plotting.
  std::vector<std::pair<double, double>> CdfPoints(size_t n_points) const;

  const std::vector<double>& samples() const { return samples_; }
  void Clear() { samples_.clear(); sorted_ = false; }

 private:
  void Sort() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Fixed-width bucket histogram over [lo, hi); out-of-range clamps to edges.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);
  void Add(double x);
  int64_t count() const { return total_; }
  int64_t bucket_count(size_t i) const { return counts_[i]; }
  size_t buckets() const { return counts_.size(); }
  double BucketLow(size_t i) const;
  std::string ToString() const;

 private:
  double lo_, hi_, width_;
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

// RFC 3550 §6.4.1 interarrival jitter: smoothed |relative transit delta|
// maintained in the media-clock domain. WebRTC reports this (scaled to ms)
// in its stats API; Figs. 3 and 14 consume it.
class JitterEstimator {
 public:
  explicit JitterEstimator(uint32_t clock_rate_hz) : clock_rate_(clock_rate_hz) {}

  // Called per received packet with its RTP timestamp and arrival time.
  void OnPacket(uint32_t rtp_timestamp, TimeUs arrival);

  // Current jitter estimate converted to milliseconds.
  double JitterMs() const;
  uint32_t JitterClockUnits() const { return static_cast<uint32_t>(jitter_); }

 private:
  uint32_t clock_rate_;
  bool have_prev_ = false;
  uint32_t prev_ts_ = 0;
  TimeUs prev_arrival_ = 0;
  double jitter_ = 0.0;  // in clock-rate units, RFC 3550 J estimator
};

}  // namespace scallop::util
