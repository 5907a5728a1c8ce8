#include "obs/registry.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace scale::obs {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
/// Bound on each histogram's percentile reservoir.
constexpr std::size_t kHistogramCap = 4096;

bool valid_name(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string metric_component(std::string_view label) {
  if (label.empty()) return "_";
  std::string out(label);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

MetricsRegistry::Metric& MetricsRegistry::get_or_create(std::string_view name,
                                                        MetricKind k) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    SCALE_CHECK_MSG(valid_name(name),
                    "bad metric name '" + std::string(name) + "'");
    it = metrics_.emplace(std::string(name), Metric(k, kHistogramCap)).first;
  }
  SCALE_CHECK_MSG(it->second.kind == k,
                  "metric '" + std::string(name) + "' is a " +
                      metric_kind_name(it->second.kind) + ", not a " +
                      metric_kind_name(k));
  return it->second;
}

const MetricsRegistry::Metric& MetricsRegistry::require(std::string_view name,
                                                        MetricKind k) const {
  const auto it = metrics_.find(name);
  SCALE_CHECK_MSG(it != metrics_.end(),
                  "unknown metric '" + std::string(name) + "'");
  SCALE_CHECK_MSG(it->second.kind == k,
                  "metric '" + std::string(name) + "' is a " +
                      metric_kind_name(it->second.kind) + ", not a " +
                      metric_kind_name(k));
  return it->second;
}

void MetricsRegistry::inc(std::string_view name, std::uint64_t delta) {
  get_or_create(name, MetricKind::kCounter).counter += delta;
}

void MetricsRegistry::set(std::string_view name, double value) {
  get_or_create(name, MetricKind::kGauge).gauge = value;
}

void MetricsRegistry::set_counter(std::string_view name, std::uint64_t value) {
  get_or_create(name, MetricKind::kCounter).counter = value;
}

void MetricsRegistry::observe(std::string_view name, double sample) {
  auto& m = get_or_create(name, MetricKind::kHistogram);
  m.stats.add(sample);
  m.sampler.add(sample);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  return require(name, MetricKind::kCounter).counter;
}

double MetricsRegistry::gauge(std::string_view name) const {
  return require(name, MetricKind::kGauge).gauge;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [name, m] : metrics_) out.push_back(name);
  return out;
}

std::vector<std::string> MetricsRegistry::names_with_prefix(
    std::string_view prefix) const {
  std::vector<std::string> out;
  for (auto it = metrics_.lower_bound(prefix); it != metrics_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  for (const auto& [name, m] : metrics_) {
    Value v;
    v.kind = m.kind;
    switch (m.kind) {
      case MetricKind::kCounter:
        v.counter = m.counter;
        break;
      case MetricKind::kGauge:
        v.gauge = m.gauge;
        break;
      case MetricKind::kHistogram:
        v.count = m.stats.count();
        v.sum = m.stats.sum();
        v.mean = v.count ? m.stats.mean() : kNan;
        v.min = m.stats.min();
        v.max = m.stats.max();
        if (m.sampler.empty()) {
          v.p50 = v.p95 = v.p99 = kNan;
        } else {
          v.p50 = m.sampler.percentile(0.50);
          v.p95 = m.sampler.percentile(0.95);
          v.p99 = m.sampler.percentile(0.99);
        }
        break;
    }
    snap.values.emplace(name, v);
  }
  return snap;
}

MetricsRegistry::Snapshot MetricsRegistry::Snapshot::diff(
    const Snapshot& earlier) const {
  Snapshot out;
  for (const auto& [name, later] : values) {
    Value d = later;
    const auto it = earlier.values.find(name);
    if (it != earlier.values.end()) {
      const Value& before = it->second;
      SCALE_CHECK_MSG(before.kind == later.kind,
                      "snapshot kind mismatch for '" + name + "'");
      switch (later.kind) {
        case MetricKind::kCounter:
          SCALE_CHECK_MSG(later.counter >= before.counter,
                          "counter '" + name + "' went backwards");
          d.counter = later.counter - before.counter;
          break;
        case MetricKind::kGauge:
          break;  // point-in-time: keep the later value
        case MetricKind::kHistogram:
          SCALE_CHECK_MSG(later.count >= before.count,
                          "histogram '" + name + "' went backwards");
          d.count = later.count - before.count;
          d.sum = later.sum - before.sum;
          d.mean = d.count ? d.sum / static_cast<double>(d.count) : kNan;
          break;
      }
    }
    out.values.emplace(name, d);
  }
  return out;
}

Json MetricsRegistry::Value::to_json() const {
  Json out = Json::object();
  out.set("kind", metric_kind_name(kind));
  switch (kind) {
    case MetricKind::kCounter:
      out.set("value", counter);
      break;
    case MetricKind::kGauge:
      out.set("value", gauge);
      break;
    case MetricKind::kHistogram:
      out.set("count", count);
      out.set("sum", sum);
      out.set("mean", mean);
      out.set("min", min);
      out.set("max", max);
      out.set("p50", p50);
      out.set("p95", p95);
      out.set("p99", p99);
      break;
  }
  return out;
}

Json MetricsRegistry::Snapshot::to_json() const {
  Json out = Json::object();
  for (const auto& [name, v] : values) out.set(name, v.to_json());
  return out;
}

}  // namespace scale::obs
