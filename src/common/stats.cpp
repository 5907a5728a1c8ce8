#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"

namespace scale {

// ---------------------------------------------------------------- OnlineStats

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

// ---------------------------------------------------------- PercentileSampler

PercentileSampler::PercentileSampler(std::size_t cap) : cap_(cap) {}

void PercentileSampler::add(double x) {
  ++seen_;
  if (cap_ == 0 || samples_.size() < cap_) {
    samples_.push_back(x);
    sorted_ = false;
    return;
  }
  // Vitter's algorithm R with a tiny xorshift64* (decoupled from scale::Rng
  // so measurement never perturbs workload randomness).
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  const std::uint64_t r = rng_state_ * 0x2545F4914F6CDD1Dull;
  const std::uint64_t slot = r % seen_;
  if (slot < cap_) {
    samples_[static_cast<std::size_t>(slot)] = x;
    sorted_ = false;
  }
}

void PercentileSampler::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double PercentileSampler::percentile(double q) const {
  SCALE_CHECK(q >= 0.0 && q <= 1.0);
  SCALE_CHECK_MSG(!samples_.empty(), "percentile of empty sampler");
  ensure_sorted();
  const auto n = samples_.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return samples_[rank == 0 ? 0 : rank - 1];
}

double PercentileSampler::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double PercentileSampler::max() const {
  SCALE_CHECK(!samples_.empty());
  ensure_sorted();
  return samples_.back();
}

std::vector<std::pair<double, double>> PercentileSampler::cdf(
    std::size_t n) const {
  SCALE_CHECK(n >= 2);
  std::vector<std::pair<double, double>> out;
  if (samples_.empty()) return out;
  ensure_sorted();
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(n - 1);
    const auto idx = std::min(
        samples_.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples_.size())));
    out.emplace_back(samples_[idx], q);
  }
  return out;
}

void PercentileSampler::clear() {
  samples_.clear();
  seen_ = 0;
  sorted_ = false;
}

// ----------------------------------------------------------------------- Ewma

Ewma::Ewma(double alpha) : alpha_(alpha) {
  SCALE_CHECK(alpha > 0.0 && alpha <= 1.0);
}

double Ewma::update(double x) {
  if (!primed_) {
    value_ = x;
    primed_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
  return value_;
}

// ----------------------------------------------------------------- TimeSeries

void TimeSeries::add(Time t, double v) {
  SCALE_CHECK_MSG(points_.empty() || points_.back().first <= t,
                  "TimeSeries must be appended in time order");
  points_.emplace_back(t, v);
}

double TimeSeries::max_value() const {
  double m = 0.0;
  for (const auto& [t, v] : points_) m = std::max(m, v);
  return m;
}

double TimeSeries::mean_value() const {
  if (points_.empty()) return 0.0;
  double s = 0.0;
  for (const auto& [t, v] : points_) s += v;
  return s / static_cast<double>(points_.size());
}

double TimeSeries::mean_in(Time from, Time to) const {
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& [t, v] : points_) {
    if (t >= from && t < to) {
      s += v;
      ++n;
    }
  }
  return n ? s / static_cast<double>(n) : 0.0;
}

double TimeSeries::value_at(Time t) const {
  double v = 0.0;
  for (const auto& [pt, pv] : points_) {
    if (pt > t) break;
    v = pv;
  }
  return v;
}

// -------------------------------------------------------------------- helpers

std::string format_cdf(const std::vector<std::pair<double, double>>& cdf,
                       const std::string& x_label,
                       const std::string& f_label) {
  std::ostringstream os;
  os << x_label << "\t" << f_label << "\n";
  for (const auto& [x, f] : cdf) os << x << "\t" << f << "\n";
  return os.str();
}

}  // namespace scale
