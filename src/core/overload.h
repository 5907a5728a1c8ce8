// OverloadGovernor — graduated, priority-aware admission control for an MMP
// VM (Envoy-overload-manager style; ROADMAP open item 4).
//
// PR 1's OverloadReject is binary: a VM is either accepting everything or
// shedding everything, including the attaches the paper's mass-access
// argument cares most about. The governor replaces that with a watermark
// resource monitor over three per-VM pressure signals —
//
//   * CPU backlog (queued seconds of work: the request would wait at least
//     this long before being served),
//   * the CPU-utilization EWMA (sim/metrics.h UtilizationTracker),
//   * the count of in-flight procedure transactions (MmeApp::in_flight) —
//
// normalized into one pressure score, mapped through low/high/overload
// watermarks with hysteresis into a PressureLevel, which drives actions in
// severity order: shed TAU first (pure bookkeeping, the device retries),
// then Service Request / Handover, then Attach last (the procedure the
// cluster exists to absorb); stretch paging fan-out under pressure; and let
// the MLB apply per-eNB token-bucket backpressure so rejected load backs
// off at the edge instead of hammering the pool (TokenBucket below).
//
// The watermarks, signal references and paging cap are the only knobs; the
// shed's steer-away hint (kShedBackoff, mmp.cpp) is a fixed 200 ms.
//
// Determinism contract (DESIGN.md §9): every decision is a pure function of
// sim time and the signals — no wall clock, no entropy, no unordered
// iteration — so governed runs fingerprint and replay like ungoverned ones.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/time.h"
#include "proto/types.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::core {

/// Degradation bands, in ascending severity. Actions latch on when the
/// pressure score crosses the band's watermark and release only after it
/// falls back below watermark − hysteresis (no flapping at the boundary).
enum class PressureLevel : std::uint8_t {
  kNominal = 0,
  kElevated = 1,  ///< shed TAU / periodic TAU
  kHigh = 2,      ///< also shed Service Request and Handover
  kOverload = 3,  ///< also shed Attach (last resort)
};

const char* pressure_level_name(PressureLevel level);

/// One VM's pressure inputs, sampled at decision time.
struct PressureSignals {
  Duration backlog = Duration::zero();  ///< queued seconds of CPU work
  double utilization = 0.0;             ///< CPU EWMA in [0, 1]
  std::size_t in_flight = 0;            ///< open procedure transactions
};

/// Deterministic token bucket (lazy refill from elapsed sim time). Used by
/// the MLB for per-eNB edge backpressure; no timers, no entropy.
class TokenBucket {
 public:
  TokenBucket(double rate_per_sec, double burst, Time now)
      : rate_(rate_per_sec), burst_(burst), tokens_(burst), last_(now) {}

  /// Take `n` tokens at sim time `now`; false when the bucket is dry.
  [[nodiscard]] bool try_take(Time now, double n = 1.0);

  /// Tokens available at `now` (refill applied, nothing consumed).
  double available(Time now) const;

 private:
  double rate_;
  double burst_;
  double tokens_;
  Time last_;
};

class OverloadGovernor {
 public:
  struct Config {
    /// Off by default: the PR 1 binary shed (MmpNode::Config.shed_backlog)
    /// and the seed's unbounded queues stay byte-identical.
    bool enabled = false;

    // Watermarks on the normalized pressure score, one per band. Ascent is
    // immediate (protection must not lag a surge); descent from a band
    // requires pressure < watermark − hysteresis, one band at a time.
    double low_watermark = 0.45;
    double high_watermark = 0.70;
    double overload_watermark = 0.90;
    double hysteresis = 0.10;

    // Signal normalization: the backlog / in-flight count mapping to a
    // pressure contribution of 1.0. Utilization is already in [0, 1].
    Duration backlog_ref = Duration::ms(80.0);
    std::size_t inflight_ref = 256;

    /// Paging stretch: defer the paging fan-out by 100 ms × 2^(level−1),
    /// capped at max_paging_defer. The cap must stay inside the transport's
    /// retry horizon (TransportConfig::retry_horizon) or a stretched page
    /// could outlive the reliable channel's retransmissions.
    Duration max_paging_defer = Duration::ms(800.0);
  };

  struct Decision {
    bool admit = true;
    PressureLevel level = PressureLevel::kNominal;
  };

  explicit OverloadGovernor(Config cfg);

  bool enabled() const { return cfg_.enabled; }
  const Config& config() const { return cfg_; }
  PressureLevel level() const { return level_; }

  /// Fold fresh signals into the watermark state machine and return the
  /// resulting band. Also called traffic-independently (utilization-sample
  /// hook) so pressure decays — and actions relax — when shedding has
  /// silenced the inflow.
  PressureLevel assess(const PressureSignals& signals);

  /// Admission decision for one initial procedure, updating the level
  /// first. Detach is never shed (it frees state).
  Decision admit(const PressureSignals& signals,
                 proto::ProcedureType procedure);

  /// Severity rank: the band index at which `procedure` starts being shed
  /// (1 = TAU at kElevated ... 3 = Attach at kOverload); 4 = never shed.
  static int shed_rank(proto::ProcedureType procedure);

  /// Current paging-fanout deferral (zero at nominal / when disabled).
  Duration paging_defer() const;

  std::uint64_t shed_total() const { return shed_total_; }
  std::uint64_t shed_of(proto::ProcedureType procedure) const {
    const auto idx = static_cast<std::size_t>(procedure);
    SCALE_CHECK_MSG(idx < sheds_.size(),
                    "ProcedureType outside the counter table");
    return sheds_[idx];
  }
  std::uint64_t level_changes() const { return level_changes_; }

  /// Publish governor state under `prefix` ("….level", "….pressure",
  /// "….shed.<procedure>", …). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  double score(const PressureSignals& signals) const;
  double watermark(int band) const;

  Config cfg_;
  PressureLevel level_ = PressureLevel::kNominal;
  double pressure_ = 0.0;

  std::uint64_t admitted_ = 0;
  std::uint64_t shed_total_ = 0;
  std::array<std::uint64_t, proto::kProcedureTypeCount> sheds_{};
  std::uint64_t level_changes_ = 0;
};

}  // namespace scale::core
