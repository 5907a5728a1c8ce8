// MetricsRegistry — one flat, hierarchically *named* namespace for every
// counter, gauge, and histogram a component exports.
//
// Names are dotted lowercase paths ("mmp.3.queue_depth", "mlb.redirects");
// components export under a caller-chosen prefix so the same class can be
// instantiated many times ("mmp.0.", "mmp.1.", …). Storage is a std::map,
// so enumeration order is the sorted name order — deterministic across
// runs and platforms, which keeps registry dumps byte-identical for
// same-seed simulations.
//
// Histograms are backed by the existing stats primitives: an OnlineStats
// (exact count/mean/min/max over everything observed) plus a
// PercentileSampler (reservoir-capped percentile queries).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "obs/json.h"

namespace scale::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Make an arbitrary label usable as one dotted-path component: characters
/// outside [A-Za-z0-9_-] become '_' (empty input becomes "_").
[[nodiscard]] std::string metric_component(std::string_view label);

class MetricsRegistry {
 public:
  // --- writes (create the metric on first use) -----------------------------
  void inc(std::string_view name, std::uint64_t delta = 1);
  void set(std::string_view name, double value);
  void observe(std::string_view name, double sample);
  /// Absolute counter write — what component export_metrics() hooks use to
  /// publish their own monotonic totals (idempotent: exporting twice does
  /// not double-count).
  void set_counter(std::string_view name, std::uint64_t value);

  // --- reads ---------------------------------------------------------------
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;

  /// All metric names in sorted (lexicographic) order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Sorted names under a dotted prefix ("mmp." matches "mmp.0.sheds").
  [[nodiscard]] std::vector<std::string> names_with_prefix(
      std::string_view prefix) const;

  // --- snapshot / diff -----------------------------------------------------
  /// Point-in-time scalar view of one metric. Percentile fields are NaN
  /// when the histogram is empty (NaN serializes as JSON null).
  struct Value {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    std::uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    [[nodiscard]] Json to_json() const;
  };

  struct Snapshot {
    std::map<std::string, Value> values;  // sorted by name
    /// Interval view: counters and histogram count/sum/mean subtract
    /// (`*this` minus `earlier`); gauges and percentile fields keep the
    /// later snapshot's point-in-time values (they cannot be subtracted).
    [[nodiscard]] Snapshot diff(const Snapshot& earlier) const;
    [[nodiscard]] Json to_json() const;
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] Json to_json() const { return snapshot().to_json(); }

 private:
  struct Metric {
    explicit Metric(MetricKind k, std::size_t cap)
        : kind(k), sampler(k == MetricKind::kHistogram ? cap : 0) {}
    MetricKind kind;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    OnlineStats stats;
    PercentileSampler sampler;
  };

  Metric& get_or_create(std::string_view name, MetricKind k);
  const Metric& require(std::string_view name, MetricKind k) const;

  std::map<std::string, Metric, std::less<>> metrics_;
};

}  // namespace scale::obs
