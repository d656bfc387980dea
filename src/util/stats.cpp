#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace scallop::util {

void Ewma::Add(double sample) {
  if (!initialized_) {
    value_ = sample;
    initialized_ = true;
  } else {
    value_ = alpha_ * sample + (1.0 - alpha_) * value_;
  }
}

void Ewma::Reset() {
  value_ = 0.0;
  initialized_ = false;
}

void RunningStats::Add(double x) {
  ++n_;
  if (n_ == 1) {
    mean_ = x;
    min_ = max_ = x;
    m2_ = 0.0;
    return;
  }
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void SampleSet::Sort() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  Sort();
  if (p <= 0.0) return samples_.front();
  if (p >= 100.0) return samples_.back();
  double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double SampleSet::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::CdfAt(double x) const {
  if (samples_.empty()) return 0.0;
  Sort();
  auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> SampleSet::CdfPoints(size_t n_points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || n_points == 0) return out;
  Sort();
  out.reserve(n_points);
  for (size_t i = 0; i < n_points; ++i) {
    double frac = static_cast<double>(i) / static_cast<double>(n_points - 1);
    size_t idx = std::min(samples_.size() - 1,
                          static_cast<size_t>(frac * static_cast<double>(samples_.size() - 1)));
    out.emplace_back(samples_[idx],
                     static_cast<double>(idx + 1) / static_cast<double>(samples_.size()));
  }
  return out;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {}

void Histogram::Add(double x) {
  double clamped = std::clamp(x, lo_, hi_);
  size_t idx = std::min(counts_.size() - 1,
                        static_cast<size_t>((clamped - lo_) / width_));
  ++counts_[idx];
  ++total_;
}

double Histogram::BucketLow(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

std::string Histogram::ToString() const {
  std::string out;
  char line[128];
  for (size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(line, sizeof(line), "[%8.3f, %8.3f) %ld\n", BucketLow(i),
                  BucketLow(i) + width_, static_cast<long>(counts_[i]));
    out += line;
  }
  return out;
}

void JitterEstimator::OnPacket(uint32_t rtp_timestamp, TimeUs arrival) {
  // Arrival time expressed in media clock units.
  double arrival_clock =
      static_cast<double>(arrival) * static_cast<double>(clock_rate_) / 1e6;
  if (have_prev_) {
    double prev_clock =
        static_cast<double>(prev_arrival_) * static_cast<double>(clock_rate_) / 1e6;
    // D(i-1, i) = (R_i - R_{i-1}) - (S_i - S_{i-1})
    double d = (arrival_clock - prev_clock) -
               static_cast<double>(static_cast<int32_t>(rtp_timestamp - prev_ts_));
    jitter_ += (std::abs(d) - jitter_) / 16.0;
  }
  have_prev_ = true;
  prev_ts_ = rtp_timestamp;
  prev_arrival_ = arrival;
}

double JitterEstimator::JitterMs() const {
  return jitter_ / static_cast<double>(clock_rate_) * 1000.0;
}

}  // namespace scallop::util
