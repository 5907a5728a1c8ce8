// Appendix A2 — access-aware replication under memory constraints.
//
// With V VMs of usable state capacity S′ (after reserving S_n for new
// devices and S_m for external state) and K devices wanting R copies each:
// when V·S′ < R·K, every device gets R′ = ⌊V·S′/K⌋ copies and the leftover
// capacity (V·S′/K − R′)·K is rationed. Two strategies:
//
//   access-unaware (Eq. 11): every device gets the extra copy with equal
//     probability  Pᵢ = V·S′/K − ⌊V·S′/K⌋;
//   access-aware  (Eq. 12): Pᵢ = min{1, (wᵢ/Σwⱼ)·(V·S′/K − ⌊V·S′/K⌋)·K}.
//
// Device cost then mixes the two replication levels (Eq. 13):
//   C̄ᵢ = (1−Pᵢ)·C̄ᵢ(R′) + Pᵢ·C̄ᵢ(R′+1)
//
// Reproduces Fig. 6(b): proportional replication cuts the high-load cost by
// a large factor versus random selection at equal memory.
#pragma once

#include <cstdint>
#include <span>

#include "analysis/replication_model.h"

namespace scale::analysis {

class AccessAwareModel {
 public:
  struct Params {
    ReplicationModel::Params base;
    std::uint64_t vms_V = 10;
    double usable_capacity_S = 100.0;  ///< S′ per VM, in device states
    std::uint64_t devices_K = 1500;
    unsigned target_replicas_R = 2;
  };

  explicit AccessAwareModel(Params p);


  /// R′ = ⌊V·S′/K⌋, clamped to [0, R].
  unsigned base_replicas() const;

  /// Leftover capacity in units of "fraction of K devices".
  double leftover_fraction() const;

  /// Eq. 11.
  double p_extra_uniform() const;

  /// Eq. 12 (needs Σwⱼ over the population).
  double p_extra_access_aware(double wi, double sum_w) const;

  /// Eq. 13 for one device.
  double device_cost(double wi, double p_extra) const;

  /// Population average (Eq. 10 weighting) under either strategy.
  double average_cost(std::span<const double> wis, bool access_aware) const;

 private:
  Params p_;
  ReplicationModel model_;
};

}  // namespace scale::analysis
