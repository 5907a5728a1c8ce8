// Control-plane workload drivers.
//
//   OpenLoopDriver   — Poisson request stream over a device set with a
//                      configurable procedure mix (the rate sweeps of
//                      Figs. 2(a), 3(a) and the load experiments);
//   PeriodicDriver   — per-device periodic activity (IoT smart-meter style:
//                      "smart meters upload information to the cloud
//                      periodically", §4.5);
//   MassAccessEvent  — synchronous mass-access (§3: "multiple event-
//                      triggered devices become active simultaneously").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "epc/ue.h"
#include "sim/engine.h"

namespace scale::workload {

using epc::EnodeB;
using epc::Ue;

/// Procedure mix; weights need not sum to 1.
struct ProcedureMix {
  double attach = 0.0;
  double service_request = 1.0;
  double tau = 0.0;
  double handover = 0.0;
  double detach = 0.0;
};

class OpenLoopDriver {
 public:
  struct Config {
    double rate_per_sec = 100.0;
    ProcedureMix mix;
    std::uint64_t seed = 11;
  };

  OpenLoopDriver(sim::Engine& engine, std::vector<Ue*> devices, Config cfg);

  /// Handover targets (required when mix.handover > 0).
  void set_handover_targets(std::vector<EnodeB*> enbs);

  /// Generate arrivals in [now, until).
  void start(Time until);
  void set_rate(double rate_per_sec);

  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t issued() const { return issued_; }

 private:
  void schedule_next();
  bool fire_one();
  bool try_procedure(Ue& ue, int which);

  sim::Engine& engine_;
  std::vector<Ue*> devices_;
  Config cfg_;
  Rng rng_;
  std::vector<EnodeB*> handover_targets_;
  Time until_ = Time::zero();
  bool running_ = false;
  std::uint64_t arrivals_ = 0;
  std::uint64_t issued_ = 0;
};

/// Each device wakes every ~period (exponential gaps), issues a service
/// request (or attach when deregistered), and relies on the network's
/// inactivity release to go back to Idle.
class PeriodicDriver {
 public:
  struct Config {
    Duration mean_period = Duration::sec(60.0);
    std::uint64_t seed = 13;
  };

  PeriodicDriver(sim::Engine& engine, std::vector<Ue*> devices, Config cfg);

  void start(Time until);
  void stop() { running_ = false; }
  std::uint64_t issued() const { return issued_; }

 private:
  void schedule_device(std::size_t idx, Duration delay);
  void fire_device(std::size_t idx);

  sim::Engine& engine_;
  std::vector<Ue*> devices_;
  Config cfg_;
  Rng rng_;
  Time until_ = Time::zero();
  bool running_ = false;
  std::uint64_t issued_ = 0;
};

/// Trigger a burst: `count` devices become active within `spread` starting
/// at `at` — the synchronous mass-access pattern that overloads a static
/// assignment.
class MassAccessEvent {
 public:
  MassAccessEvent(sim::Engine& engine, std::vector<Ue*> devices,
                  std::uint64_t seed = 17);

  void schedule(Time at, std::size_t count, Duration spread);
  std::uint64_t issued() const { return issued_; }

 private:
  sim::Engine& engine_;
  std::vector<Ue*> devices_;
  Rng rng_;
  std::uint64_t issued_ = 0;
};

}  // namespace scale::workload
