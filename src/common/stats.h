// Statistics primitives used by the measurement harness:
//   OnlineStats        — streaming mean/variance/min/max (Welford)
//   PercentileSampler  — exact percentiles / CDF over retained samples
//   Ewma               — exponentially-weighted moving average (Eq. 1 load
//                        estimator uses this shape)
//   TimeSeries         — (time, value) trace, e.g. CPU utilization timelines
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/time.h"

namespace scale {

/// Streaming first/second-moment accumulator (Welford's algorithm, no
/// catastrophic cancellation).
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;
  /// NaN when empty — a silent 0.0 reads as a real observation.
  double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples (optionally capped with uniform reservoir sampling)
/// and answers exact percentile and CDF queries over what was kept.
class PercentileSampler {
 public:
  /// cap == 0 keeps every sample; otherwise reservoir-samples down to cap.
  explicit PercentileSampler(std::size_t cap = 0);

  void add(double x);
  std::uint64_t count() const { return seen_; }
  bool empty() const { return samples_.empty(); }

  /// q in [0,1]; q=0.99 is the paper's "99th %tile". Nearest-rank method.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;

  /// Evenly spaced CDF points (x, F(x)) suitable for plotting; n >= 2.
  [[nodiscard]] std::vector<std::pair<double, double>> cdf(std::size_t n = 50) const;

  const std::vector<double>& samples() const { return samples_; }
  void clear();

 private:
  void ensure_sorted() const;

  std::size_t cap_;
  std::uint64_t seen_ = 0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  // reservoir state
  std::uint64_t rng_state_ = 0x853C49E6748FEA9Bull;
};

/// Exponentially weighted moving average: est ← alpha*x + (1-alpha)*est.
/// This is exactly the paper's load estimator L̄(t) (Section 4.4, Eq. 1).
class Ewma {
 public:
  explicit Ewma(double alpha);

  double update(double x);
  double value() const { return value_; }
  bool primed() const { return primed_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// A sampled trace of (time, value) pairs, e.g. per-VM CPU utilization.
class TimeSeries {
 public:
  void add(Time t, double v);
  std::size_t size() const { return points_.size(); }
  const std::vector<std::pair<Time, double>>& points() const {
    return points_;
  }
  [[nodiscard]] double max_value() const;
  [[nodiscard]] double mean_value() const;
  /// Mean of values with t in [from, to).
  [[nodiscard]] double mean_in(Time from, Time to) const;
  /// Last value at or before t (0 if none).
  [[nodiscard]] double value_at(Time t) const;

 private:
  std::vector<std::pair<Time, double>> points_;
};

/// Render a CDF as aligned text rows ("x  F" per line) for bench output.
[[nodiscard]] std::string format_cdf(const std::vector<std::pair<double, double>>& cdf,
                       const std::string& x_label,
                       const std::string& f_label);

}  // namespace scale
