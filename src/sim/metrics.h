// Measurement probes used by every experiment:
//   DelayRecorder — end-to-end control-procedure delays, bucketed by
//                   procedure type (Attach / Service Request / Handover ...)
//   CpuSampler    — periodic CPU-utilization sampling of a set of CpuModels,
//                   producing the timelines of Figs. 7, 8(b,c), 9(a)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "proto/types.h"
#include "sim/cpu.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::sim {

class Engine;

/// Per-cause accounting for the FaultPlane (the fault-injection layer in
/// sim/network + epc/fabric). One instance lives inside Network and resets
/// together with the transfer counters, so chaos runs can be fingerprinted
/// and compared window by window.
struct FaultCounters {
  std::uint64_t random_drops = 0;     ///< LinkFaults::drop_prob losses
  std::uint64_t link_down_drops = 0;  ///< scripted link-down windows
  std::uint64_t partition_drops = 0;  ///< scripted DC-partition windows
  std::uint64_t duplicates = 0;       ///< extra PDU copies injected
  std::uint64_t reorders = 0;         ///< PDUs displaced by extra delay

  std::uint64_t total_drops() const {
    return random_drops + link_down_drops + partition_drops;
  }
  void reset() { *this = FaultCounters{}; }
  bool operator==(const FaultCounters&) const = default;

  /// Publish as counters under `prefix` ("net.faults.random_drops", ...).
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;
};

class DelayRecorder {
 public:
  /// Typed overloads — the standard control procedures. The enum maps onto
  /// the same canonical bucket names procedure_name() yields, so typed and
  /// string callers share buckets; prefer the enum (typos become compile
  /// errors). The string overload remains for test-local ad-hoc buckets.
  void record(proto::ProcedureType p, Duration delay);
  bool has(proto::ProcedureType p) const;
  const PercentileSampler& bucket(proto::ProcedureType p) const;

  void record(const std::string& bucket, Duration delay);
  bool has(const std::string& bucket) const;
  const PercentileSampler& bucket(const std::string& bucket) const;
  /// Union of every bucket's samples.
  PercentileSampler merged() const;
  std::vector<std::string> buckets() const;
  std::uint64_t total_count() const;
  void clear();

  /// Publish per-bucket count/mean/p50/p95/p99 gauges under
  /// `prefix` + ".delay_ms.<bucket>.".
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  std::map<std::string, PercentileSampler> buckets_;
};

/// Self-contained moving-average CPU-utilization estimate for one VM — what
/// an MMP reports in its LoadReport (§4.6: "current load (moving average of
/// CPU utilization)") and what overload-protection thresholds test against.
/// Each sample enters the average with weight 0.3 (kUtilAlpha).
class UtilizationTracker {
 public:
  UtilizationTracker(Engine& engine, const CpuModel& cpu,
                     Duration interval = Duration::ms(100.0));

  /// Current moving-average utilization in [0, 1].
  double utilization() const { return ewma_.value(); }

  /// Invoked after every EWMA update: a traffic-independent reassessment
  /// point for overload governors, so pressure is re-evaluated even when no
  /// requests arrive to trigger admission.
  void set_sample_hook(std::function<void()>&& hook) {
    hook_ = std::move(hook);
  }

  /// Stop sampling (call before destroying the tracked CPU).
  void stop() { stopped_ = true; }

 private:
  void tick();

  Engine& engine_;
  const CpuModel& cpu_;
  Duration interval_;
  Ewma ewma_;
  Duration last_busy_;
  Time last_time_;
  std::function<void()> hook_;
  bool stopped_ = false;
};

/// Samples utilization of registered CPUs every `interval`, writing one
/// TimeSeries per CPU. Utilization over a sample window = busy-time delta /
/// wall delta, i.e. the fraction of the window the server was serving.
class CpuSampler {
 public:
  CpuSampler(Engine& engine, Duration interval);

  /// Register a CPU under a display name; starts sampling immediately. The
  /// CpuModel must outlive the sampler (or sampling must stop first).
  void track(const std::string& name, const CpuModel& cpu);

  /// Stop tracking (safe to call for a CPU about to be destroyed).
  void untrack(const std::string& name);

  /// Stop all sampling (no more events are scheduled).
  void stop();

  const TimeSeries& series(const std::string& name) const;
  bool has(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  void tick();

  struct Tracked {
    const CpuModel* cpu;
    Duration last_busy;
    TimeSeries series;
  };

  Engine& engine_;
  Duration interval_;
  Time last_sample_;
  bool running_ = false;
  bool stopped_ = false;
  std::map<std::string, Tracked> tracked_;
};

}  // namespace scale::sim
