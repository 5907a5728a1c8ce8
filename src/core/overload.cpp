#include "core/overload.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"

namespace scale::core {

const char* pressure_level_name(PressureLevel level) {
  switch (level) {
    case PressureLevel::kNominal: return "nominal";
    case PressureLevel::kElevated: return "elevated";
    case PressureLevel::kHigh: return "high";
    case PressureLevel::kOverload: return "overload";
  }
  return "unknown";
}

// ------------------------------------------------------------- TokenBucket

double TokenBucket::available(Time now) const {
  return std::min(burst_, tokens_ + (now - last_).to_sec() * rate_);
}

bool TokenBucket::try_take(Time now, double n) {
  tokens_ = available(now);
  last_ = now;
  if (tokens_ < n) return false;
  tokens_ -= n;
  return true;
}

// -------------------------------------------------------- OverloadGovernor

OverloadGovernor::OverloadGovernor(Config cfg) : cfg_(cfg) {
  SCALE_CHECK(cfg_.low_watermark <= cfg_.high_watermark &&
              cfg_.high_watermark <= cfg_.overload_watermark);
  SCALE_CHECK(cfg_.backlog_ref > Duration::zero());
  SCALE_CHECK(cfg_.inflight_ref > 0);
}

double OverloadGovernor::score(const PressureSignals& signals) const {
  // max-of-signals: any one saturated resource is enough to act on; an
  // average would let a deep queue hide behind an idle-looking EWMA.
  const double backlog = signals.backlog / cfg_.backlog_ref;
  const double inflight = static_cast<double>(signals.in_flight) /
                          static_cast<double>(cfg_.inflight_ref);
  return std::max({backlog, signals.utilization, inflight});
}

double OverloadGovernor::watermark(int band) const {
  switch (band) {
    case 1: return cfg_.low_watermark;
    case 2: return cfg_.high_watermark;
    default: return cfg_.overload_watermark;
  }
}

PressureLevel OverloadGovernor::assess(const PressureSignals& s) {
  pressure_ = score(s);
  int target = 0;
  if (pressure_ >= cfg_.overload_watermark) target = 3;
  else if (pressure_ >= cfg_.high_watermark) target = 2;
  else if (pressure_ >= cfg_.low_watermark) target = 1;
  int band = static_cast<int>(level_);
  if (target > band) {
    band = target;  // ascend immediately: protection must not lag the surge
  } else {
    // Descend only once pressure clears the band's watermark by the
    // hysteresis margin — oscillation around a threshold must not flap
    // actions on and off.
    while (band > target && pressure_ < watermark(band) - cfg_.hysteresis)
      --band;
  }
  if (band != static_cast<int>(level_)) ++level_changes_;
  level_ = static_cast<PressureLevel>(band);
  return level_;
}

int OverloadGovernor::shed_rank(proto::ProcedureType procedure) {
  switch (procedure) {
    case proto::ProcedureType::kTrackingAreaUpdate:
      return 1;  // pure bookkeeping; the periodic timer retries it
    case proto::ProcedureType::kServiceRequest:
    case proto::ProcedureType::kHandover:
      return 2;  // user-visible, but the device recovers on its own
    case proto::ProcedureType::kAttach:
      return 3;  // shed last: registrations are the point of the cluster
    case proto::ProcedureType::kPaging:
    case proto::ProcedureType::kDetach:
      return 4;  // never: paging is deferred (not shed), detach frees state
  }
  return 4;
}

OverloadGovernor::Decision OverloadGovernor::admit(
    const PressureSignals& signals, proto::ProcedureType procedure) {
  Decision d;
  d.level = assess(signals);
  if (static_cast<int>(d.level) >= shed_rank(procedure)) d.admit = false;
  if (d.admit) {
    ++admitted_;
  } else {
    ++shed_total_;
    ++sheds_[static_cast<std::size_t>(procedure)];
  }
  return d;
}

Duration OverloadGovernor::paging_defer() const {
  const int band = static_cast<int>(level_);
  if (!cfg_.enabled || band == 0) return Duration::zero();
  constexpr Duration kPagingDeferUnit = Duration::ms(100.0);  // at kElevated
  const Duration defer =
      kPagingDeferUnit * static_cast<double>(1 << (band - 1));
  return std::min(defer, cfg_.max_paging_defer);
}

void OverloadGovernor::export_metrics(obs::MetricsRegistry& reg,
                                      const std::string& prefix) const {
  reg.set(prefix + ".level", static_cast<double>(level_));
  reg.set(prefix + ".pressure", pressure_);
  reg.set_counter(prefix + ".admitted", admitted_);
  reg.set_counter(prefix + ".shed_total", shed_total_);
  for (const proto::ProcedureType p : proto::kAllProcedures)
    reg.set_counter(prefix + ".shed." + proto::procedure_name(p),
                    sheds_[static_cast<std::size_t>(p)]);
  reg.set_counter(prefix + ".level_changes", level_changes_);
}

}  // namespace scale::core
