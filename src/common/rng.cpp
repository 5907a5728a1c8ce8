#include "common/rng.h"

#include <cmath>

namespace scale {

namespace {
inline std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is the one illegal state for xoshiro; seed 0 would not
  // produce it through splitmix, but be defensive.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  SCALE_CHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling with rejection.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SCALE_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::exponential(double rate) {
  SCALE_CHECK(rate > 0.0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  SCALE_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= next_double();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction for large means.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

double Rng::normal(double mean, double stddev) {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return mean + stddev * u * factor;
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  SCALE_CHECK(n >= 1);
  // Rejection-inversion sampler (Hörmann & Derflinger) keeps draws O(1)
  // without precomputing the full harmonic table.
  if (n == 1) return 1;
  const double nd = static_cast<double>(n);
  auto h_integral = [s](double x) {
    const double logx = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return logx;
    return (std::exp((1.0 - s) * logx) - 1.0) / (1.0 - s);
  };
  auto h = [s](double x) { return std::exp(-s * std::log(x)); };
  const double hx0 = h_integral(nd + 0.5);
  const double hx1 = h_integral(1.5) - 1.0;
  // Shortcut acceptance width (Hörmann & Derflinger).
  const double shortcut =
      2.0 - [&] {
        const double target = h_integral(2.5) - h(2.0);
        if (std::abs(1.0 - s) < 1e-12) return std::exp(target);
        return std::exp(std::log1p(target * (1.0 - s)) / (1.0 - s));
      }();
  for (;;) {
    const double u = hx1 + next_double() * (hx0 - hx1);
    double x;
    if (std::abs(1.0 - s) < 1e-12) {
      x = std::exp(u);
    } else {
      x = std::exp(std::log1p(u * (1.0 - s)) / (1.0 - s));
    }
    double k = std::floor(x + 0.5);
    k = std::max(1.0, std::min(nd, k));  // clamp, don't reject, edge ranks
    if (k - x <= shortcut || u >= h_integral(k + 0.5) - h(k))
      return static_cast<std::uint64_t>(k);
  }
}

double Rng::pareto(double xm, double alpha) {
  SCALE_CHECK(xm > 0.0 && alpha > 0.0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

Rng Rng::fork() { return Rng(next_u64()); }

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    SCALE_CHECK(w >= 0.0);
    total += w;
  }
  SCALE_CHECK_MSG(total > 0.0, "weighted_index needs positive total weight");
  double target = next_double() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fall back to last entry
}

}  // namespace scale
