// Epoch-based VM provisioning (§4.4, Eq. 1):
//
//   V_C(t) = ⌈ L̄(t) / N ⌉            — compute requirement
//   V_S(t) = ⌈ β · R · K(t) / S ⌉    — memory requirement
//   V(t)   = max(V_C, V_S)
//   L̄(t)   = α·L(t−1) + (1−α)·L̄(t−1)
//
// β ∈ (0, 1] throttles the memory term using access-awareness (Eq. 2):
//   β(x) = 1 − (K̂(x) − S_n − S_m) / (R·K)
// where K̂(x) counts devices with wᵢ ≤ x, S_n reserves room for newcomers
// and S_m for external (remote-DC) state.
#pragma once

#include <cstdint>

#include "common/stats.h"

namespace scale::core {

class Provisioner {
 public:
  struct Config {
    double alpha = 0.5;          ///< EWMA weight on the latest epoch's load
    std::uint64_t requests_per_vm_epoch = 1000;  ///< N
    std::uint64_t devices_per_vm = 10000;        ///< S (state slots)
    unsigned replicas = 2;                       ///< R
    std::uint32_t min_vms = 1;
    std::uint32_t max_vms = 500;
  };

  struct Decision {
    std::uint32_t vms = 0;
    std::uint32_t compute_vms = 0;  ///< V_C
    std::uint32_t storage_vms = 0;  ///< V_S
    double load_estimate = 0.0;     ///< L̄(t)
    double beta = 1.0;
  };

  explicit Provisioner(Config cfg);

  /// β for the next decision (1.0 = replicate everything, Eq. 1 unthrottled).
  void set_beta(double beta);

  /// Compute Eq. 2's β(x). Values are in device-state units. Clamped to
  /// (0, 1]; returns 1 when access-awareness frees no memory.
  static double beta_for(std::uint64_t k_hat_x, std::uint64_t s_new,
                         std::uint64_t s_external, unsigned replicas,
                         std::uint64_t registered_devices);

  /// One provisioning step: feed last epoch's measured load and the
  /// currently registered device count; returns the VM target.
  Decision decide(std::uint64_t measured_load, std::uint64_t registered);

 private:
  Config cfg_;
  Ewma load_;
  double beta_ = 1.0;
};

}  // namespace scale::core
