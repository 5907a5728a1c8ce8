#include "workload/arrivals.h"

#include <array>

#include "common/check.h"

namespace scale::workload {

// -------------------------------------------------------------- OpenLoopDriver

OpenLoopDriver::OpenLoopDriver(sim::Engine& engine, std::vector<Ue*> devices,
                               Config cfg)
    : engine_(engine), devices_(std::move(devices)), cfg_(cfg),
      rng_(cfg.seed) {
  SCALE_CHECK(!devices_.empty());
  SCALE_CHECK(cfg_.rate_per_sec > 0.0);
}

void OpenLoopDriver::set_handover_targets(std::vector<EnodeB*> enbs) {
  handover_targets_ = std::move(enbs);
}

void OpenLoopDriver::set_rate(double rate_per_sec) {
  SCALE_CHECK(rate_per_sec > 0.0);
  cfg_.rate_per_sec = rate_per_sec;
}

void OpenLoopDriver::start(Time until) {
  until_ = until;
  running_ = true;
  schedule_next();
}

void OpenLoopDriver::schedule_next() {
  if (!running_) return;
  const Duration gap = Duration::sec(rng_.exponential(cfg_.rate_per_sec));
  const Time next = engine_.now() + gap;
  if (next >= until_) {
    running_ = false;
    return;
  }
  engine_.at(next, [this]() {
    ++arrivals_;
    if (fire_one()) ++issued_;
    schedule_next();
  });
}

bool OpenLoopDriver::try_procedure(Ue& ue, int which) {
  switch (which) {
    case 0: return ue.attach();
    case 1:
      if (!ue.registered()) return ue.attach();
      return ue.service_request();
    case 2: return ue.tracking_area_update();
    case 3: {
      if (handover_targets_.empty()) return false;
      for (unsigned i = 0; i < 4; ++i) {
        EnodeB* target = handover_targets_[static_cast<std::size_t>(
            rng_.next_below(handover_targets_.size()))];
        if (target != ue.serving_enb()) return ue.handover(*target);
      }
      return false;
    }
    case 4: return ue.detach();
    default: return false;
  }
}

bool OpenLoopDriver::fire_one() {
  const std::array<double, 5> weights = {cfg_.mix.attach,
                                         cfg_.mix.service_request,
                                         cfg_.mix.tau, cfg_.mix.handover,
                                         cfg_.mix.detach};
  // Resample while the device cannot run the procedure (busy, wrong
  // state); after this many draws the arrival is dropped.
  constexpr unsigned kResampleAttempts = 8;
  for (unsigned attempt = 0; attempt < kResampleAttempts; ++attempt) {
    Ue& ue = *devices_[static_cast<std::size_t>(
        rng_.next_below(devices_.size()))];
    const int which = static_cast<int>(rng_.weighted_index(weights));
    if (try_procedure(ue, which)) return true;
  }
  return false;
}

// -------------------------------------------------------------- PeriodicDriver

PeriodicDriver::PeriodicDriver(sim::Engine& engine, std::vector<Ue*> devices,
                               Config cfg)
    : engine_(engine), devices_(std::move(devices)), cfg_(cfg),
      rng_(cfg.seed) {
  SCALE_CHECK(!devices_.empty());
  SCALE_CHECK(cfg_.mean_period > Duration::zero());
}

void PeriodicDriver::start(Time until) {
  until_ = until;
  running_ = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    // Random initial phase avoids a synchronized thundering herd (use
    // MassAccessEvent to create one deliberately).
    const Duration phase =
        Duration::sec(rng_.uniform(0.0, cfg_.mean_period.to_sec()));
    schedule_device(i, phase);
  }
}

void PeriodicDriver::schedule_device(std::size_t idx, Duration delay) {
  const Time next = engine_.now() + delay;
  if (!running_ || next >= until_) return;
  engine_.at(next, [this, idx]() { fire_device(idx); });
}

void PeriodicDriver::fire_device(std::size_t idx) {
  if (!running_) return;
  Ue& ue = *devices_[idx];
  bool ok = false;
  if (!ue.registered()) {
    ok = ue.attach();
  } else if (!ue.connected()) {
    ok = ue.service_request();
  }
  if (ok) ++issued_;
  schedule_device(
      idx, Duration::sec(rng_.exponential(1.0 / cfg_.mean_period.to_sec())));
}

// ------------------------------------------------------------- MassAccessEvent

MassAccessEvent::MassAccessEvent(sim::Engine& engine,
                                 std::vector<Ue*> devices, std::uint64_t seed)
    : engine_(engine), devices_(std::move(devices)), rng_(seed) {
  SCALE_CHECK(!devices_.empty());
}

void MassAccessEvent::schedule(Time at, std::size_t count, Duration spread) {
  std::vector<Ue*> sample = devices_;
  rng_.shuffle(sample);
  const std::size_t n = std::min(count, sample.size());
  for (std::size_t i = 0; i < n; ++i) {
    Ue* ue = sample[i];
    const Duration offset =
        Duration::sec(rng_.uniform(0.0, std::max(1e-9, spread.to_sec())));
    engine_.at(at + offset, [this, ue]() {
      const bool ok = ue->registered() ? ue->service_request() : ue->attach();
      if (ok) ++issued_;
    });
  }
}

}  // namespace scale::workload
