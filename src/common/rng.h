// Deterministic random number generation for simulations.
//
// xoshiro256++ with SplitMix64 seeding: fast, high quality, and — unlike
// std::mt19937 + std::*_distribution — bit-identical across standard library
// implementations, which keeps benchmark output reproducible everywhere.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"

namespace scale {

/// Seedable xoshiro256++ PRNG with the distributions the workloads need.
/// Each logical stream (per device class, per scenario) should own its own
/// Rng, seeded on its own, so adding a consumer never perturbs the draws
/// seen by another.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Uniform in [0, n). Requires n > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with probability p of true.
  bool chance(double p);

  /// Exponentially distributed with given rate (mean 1/rate). rate > 0.
  double exponential(double rate);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample an index from a discrete distribution given non-negative
  /// weights (need not be normalized). Requires a positive total weight.
  std::size_t weighted_index(std::span<const double> weights);

 private:
  std::uint64_t s_[4];
};

}  // namespace scale
