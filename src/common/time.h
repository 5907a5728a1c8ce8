// Simulation time: fixed-point microseconds since simulation start.
//
// A strong integral type avoids the classic unit bugs (ms vs us vs s) that
// plague network simulators, while staying trivially copyable and totally
// ordered so it can key the event queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <compare>
#include <string>

namespace scale {

/// A span of simulated time, in microseconds. Negative durations are legal
/// as intermediate values (e.g. time deltas) but never used to schedule.
class Duration {
 public:
  constexpr Duration() = default;
  static constexpr Duration us(std::int64_t v) { return Duration(v); }
  /// Fractional milliseconds/seconds are fine: double carries integers
  /// exactly up to 2^53 µs (~285 years of simulated time).
  static constexpr Duration ms(double v) {
    return Duration(static_cast<std::int64_t>(v * 1000.0));
  }
  static constexpr Duration sec(double v) {
    return Duration(static_cast<std::int64_t>(v * 1'000'000.0));
  }
  static constexpr Duration zero() { return Duration(0); }

  constexpr std::int64_t count_us() const { return us_; }
  constexpr double to_ms() const { return static_cast<double>(us_) / 1000.0; }
  constexpr double to_sec() const {
    return static_cast<double>(us_) / 1'000'000.0;
  }

  constexpr auto operator<=>(const Duration&) const = default;
  constexpr Duration operator+(Duration o) const {
    return Duration(us_ + o.us_);
  }
  constexpr Duration operator-(Duration o) const {
    return Duration(us_ - o.us_);
  }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<std::int64_t>(static_cast<double>(us_) * k));
  }
  constexpr Duration operator/(std::int64_t k) const {
    return Duration(us_ / k);
  }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(us_) / static_cast<double>(o.us_);
  }
  constexpr Duration& operator+=(Duration o) {
    us_ += o.us_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    us_ -= o.us_;
    return *this;
  }

  std::string str() const;

 private:
  constexpr explicit Duration(std::int64_t v) : us_(v) {}
  std::int64_t us_ = 0;
};

/// An instant on the simulation clock. Time::zero() is simulation start.
class Time {
 public:
  constexpr Time() = default;
  static constexpr Time zero() { return Time(0); }
  static constexpr Time max() { return Time(INT64_MAX); }
  static constexpr Time from_us(std::int64_t v) { return Time(v); }
  static constexpr Time from_sec(double v) {
    return Time(static_cast<std::int64_t>(v * 1'000'000.0));
  }

  constexpr std::int64_t count_us() const { return us_; }
  constexpr double to_ms() const { return static_cast<double>(us_) / 1000.0; }
  constexpr double to_sec() const {
    return static_cast<double>(us_) / 1'000'000.0;
  }

  constexpr auto operator<=>(const Time&) const = default;
  constexpr Time operator+(Duration d) const { return Time(us_ + d.count_us()); }
  constexpr Time operator-(Duration d) const { return Time(us_ - d.count_us()); }
  constexpr Duration operator-(Time o) const {
    return Duration::us(us_ - o.us_);
  }
  constexpr Time& operator+=(Duration d) {
    us_ += d.count_us();
    return *this;
  }


 private:
  constexpr explicit Time(std::int64_t v) : us_(v) {}
  std::int64_t us_ = 0;
};

inline std::string Duration::str() const {
  if (us_ >= 1'000'000 || us_ <= -1'000'000)
    return std::to_string(to_sec()) + "s";
  if (us_ >= 1000 || us_ <= -1000) return std::to_string(to_ms()) + "ms";
  return std::to_string(us_) + "us";
}

/// Monotonic wall-clock read in nanoseconds, for *measuring* the simulator
/// (events/s in bench/perf_core.cpp), never for driving it. This is the one
/// sanctioned real-clock bridge (ScaleLint L1 exempts this file): simulation
/// code must use sim::Engine::now(), so wall time can never leak into a
/// trajectory.
inline std::int64_t wall_clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace literals {
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::us(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::us(static_cast<std::int64_t>(v) * 1000);
}
constexpr Duration operator""_sec(unsigned long long v) {
  return Duration::us(static_cast<std::int64_t>(v) * 1'000'000);
}
}  // namespace literals

}  // namespace scale
