// Appendix A1 — stochastic model of replication in consistent hashing.
//
// Model: devices arrive at each VM as a Poisson process with rate λ over an
// epoch of length T; a VM can serve N devices per epoch; a device's state is
// replicated on R VMs and an arriving device is served by a uniformly random
// one of them (Poisson splitting/combining keeps every VM's aggregate at
// rate λ). A device incurs cost C when it cannot be served.
//
// Closed form (Eq. 8):
//   C̄ᵢ(R) = (C/λ) wᵢ^R Σ_{k=N}^∞ (1 − wᵢ/(λT))^{kR}
//                       · Γ(kR+1) / (Γ(k+1)^R · R^{kR+1})
// with the numerically stable product form (Eq. 9):
//   Γ(kR+1)/(Γ(k+1)^R R^{kR+1})
//     = (1/R) Π_{p=0}^{k−1} Π_{q=0}^{R−1} (1 − q/((k−p)R))
// and the population average (Eq. 10): C̄ = Σ wᵢC̄ᵢ / Σ wᵢ.
//
// This reproduces Fig. 6(a): one replica (R=2) removes most of the
// saturation cost; R>2 adds little.
#pragma once

#include <cstdint>
#include <span>

namespace scale::analysis {

class ReplicationModel {
 public:
  struct Params {
    double lambda = 0.8;   ///< Poisson arrival rate per VM (devices/second)
    double epoch_T = 60.0; ///< epoch length (seconds)
    std::uint64_t capacity_N = 50;  ///< devices a VM can serve per epoch
    double cost_C = 1.0;   ///< cost of an unserved device
  };

  explicit ReplicationModel(Params p);


  /// Eq. 8 via log-gamma (numerically stable for large k, R).
  double expected_cost(double wi, unsigned R) const;

  /// Same quantity via the Eq. 9 product form (cross-check; O(k·R) per
  /// term, use only for modest N).
  double expected_cost_product_form(double wi, unsigned R) const;

  /// Eq. 10: population-average cost.
  double average_cost(std::span<const double> wis, unsigned R) const;

 private:
  double term_log_gamma(std::uint64_t k, unsigned R, double log_q) const;

  Params p_;
};

}  // namespace scale::analysis
