#include "sim/metrics.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"
#include "sim/engine.h"

namespace scale::sim {

namespace {
/// Weight of the newest utilization sample in UtilizationTracker's EWMA.
constexpr double kUtilAlpha = 0.3;
}  // namespace

// -------------------------------------------------------------- FaultCounters

void FaultCounters::export_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  reg.set_counter(prefix + ".random_drops", random_drops);
  reg.set_counter(prefix + ".link_down_drops", link_down_drops);
  reg.set_counter(prefix + ".partition_drops", partition_drops);
  reg.set_counter(prefix + ".duplicates", duplicates);
  reg.set_counter(prefix + ".reorders", reorders);
}

// -------------------------------------------------------------- DelayRecorder

void DelayRecorder::record(proto::ProcedureType p, Duration delay) {
  record(std::string(proto::procedure_name(p)), delay);
}

bool DelayRecorder::has(proto::ProcedureType p) const {
  return has(std::string(proto::procedure_name(p)));
}

const PercentileSampler& DelayRecorder::bucket(proto::ProcedureType p) const {
  return bucket(std::string(proto::procedure_name(p)));
}

void DelayRecorder::record(const std::string& bucket, Duration delay) {
  buckets_[bucket].add(delay.to_ms());
}

bool DelayRecorder::has(const std::string& bucket) const {
  return buckets_.count(bucket) > 0;
}

const PercentileSampler& DelayRecorder::bucket(
    const std::string& bucket) const {
  const auto it = buckets_.find(bucket);
  SCALE_CHECK_MSG(it != buckets_.end(), "unknown delay bucket: " + bucket);
  return it->second;
}

PercentileSampler DelayRecorder::merged() const {
  PercentileSampler all;
  for (const auto& [name, sampler] : buckets_)
    for (double s : sampler.samples()) all.add(s);
  return all;
}

std::vector<std::string> DelayRecorder::buckets() const {
  std::vector<std::string> names;
  names.reserve(buckets_.size());
  for (const auto& [name, s] : buckets_) names.push_back(name);
  return names;
}

std::uint64_t DelayRecorder::total_count() const {
  std::uint64_t n = 0;
  for (const auto& [name, s] : buckets_) n += s.count();
  return n;
}

void DelayRecorder::clear() { buckets_.clear(); }

void DelayRecorder::export_metrics(obs::MetricsRegistry& reg,
                                   const std::string& prefix) const {
  for (const auto& [name, s] : buckets_) {
    const std::string base =
        prefix + ".delay_ms." + obs::metric_component(name);
    reg.set_counter(base + ".count", s.count());
    if (s.empty()) continue;
    reg.set(base + ".mean", s.mean());
    reg.set(base + ".p50", s.percentile(0.50));
    reg.set(base + ".p95", s.percentile(0.95));
    reg.set(base + ".p99", s.percentile(0.99));
  }
}

// --------------------------------------------------------- UtilizationTracker

UtilizationTracker::UtilizationTracker(Engine& engine, const CpuModel& cpu,
                                       Duration interval)
    : engine_(engine), cpu_(cpu), interval_(interval), ewma_(kUtilAlpha),
      last_busy_(cpu.cumulative_busy()), last_time_(engine.now()) {
  SCALE_CHECK(interval > Duration::zero());
  engine_.after(interval_, [this] { tick(); });
}

void UtilizationTracker::tick() {
  if (stopped_) return;
  const Time now = engine_.now();
  const Duration wall = now - last_time_;
  if (wall > Duration::zero()) {
    const Duration busy = cpu_.cumulative_busy();
    ewma_.update(std::min(1.0, (busy - last_busy_) / wall));
    last_busy_ = busy;
    last_time_ = now;
    if (hook_) hook_();
  }
  engine_.after(interval_, [this] { tick(); });
}

// ----------------------------------------------------------------- CpuSampler

CpuSampler::CpuSampler(Engine& engine, Duration interval)
    : engine_(engine), interval_(interval), last_sample_(engine.now()) {
  SCALE_CHECK(interval > Duration::zero());
}

void CpuSampler::track(const std::string& name, const CpuModel& cpu) {
  SCALE_CHECK_MSG(tracked_.count(name) == 0, "already tracking " + name);
  tracked_.emplace(name, Tracked{&cpu, cpu.cumulative_busy(), TimeSeries{}});
  if (!running_ && !stopped_) {
    running_ = true;
    last_sample_ = engine_.now();
    engine_.after(interval_, [this] { tick(); });
  }
}

void CpuSampler::untrack(const std::string& name) { tracked_.erase(name); }

void CpuSampler::stop() { stopped_ = true; }

void CpuSampler::tick() {
  if (stopped_) {
    running_ = false;
    return;
  }
  const Time now = engine_.now();
  const Duration wall = now - last_sample_;
  if (wall > Duration::zero()) {
    for (auto& [name, t] : tracked_) {
      const Duration busy = t.cpu->cumulative_busy();
      const double util =
          std::min(1.0, (busy - t.last_busy) / wall);
      t.last_busy = busy;
      t.series.add(now, util);
    }
  }
  last_sample_ = now;
  engine_.after(interval_, [this] { tick(); });
}

const TimeSeries& CpuSampler::series(const std::string& name) const {
  const auto it = tracked_.find(name);
  SCALE_CHECK_MSG(it != tracked_.end(), "unknown cpu series: " + name);
  return it->second.series;
}

bool CpuSampler::has(const std::string& name) const {
  return tracked_.count(name) > 0;
}

std::vector<std::string> CpuSampler::names() const {
  std::vector<std::string> names;
  for (const auto& [name, t] : tracked_) names.push_back(name);
  return names;
}

}  // namespace scale::sim
