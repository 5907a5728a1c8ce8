// MmePool — a 3GPP MME pool (§2, Figure 1): a cluster of classic MME
// servers that directly connect to all the eNodeBs of a geographic area.
// Reproduces the operational behaviours §3.1 criticizes:
//
//   * static device assignment — once attached, a device's GUTI pins it to
//     one pool member;
//   * reactive overload protection between peers (via MmeNode);
//   * cumbersome scale-out — a pool member added at runtime only receives
//     *unregistered* devices (Fig. 2(d)): existing GUTIs keep routing to
//     the old members, so rebalancing takes tens of seconds.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "epc/enodeb.h"
#include "mme/mme_node.h"

namespace scale::mme {

class MmePool {
 public:
  struct Config {
    MmeNode::Config node_template;  ///< mme_code/weight are overwritten
    std::size_t initial_count = 1;
  };

  MmePool(epc::Fabric& fabric, Config cfg);

  /// Scale-out: instantiate a new pool member at runtime. `weight` biases
  /// eNodeB selection of unregistered devices toward/away from it.
  MmeNode& add_mme(double weight);

  /// Connect an eNodeB: registers every pool member (current and future)
  /// with it and adds it to the paging fan-out set.
  void connect_enb(epc::EnodeB& enb);

  std::vector<std::unique_ptr<MmeNode>>& mmes() { return mmes_; }
  MmeNode& mme(std::size_t i) { return *mmes_.at(i); }

  /// Enable reactive overload protection on every member and wire them as
  /// mutual peers.
  void enable_overload_protection(double threshold);

  /// Publish every member's counters under `prefix` + ".<index>.".
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  epc::Fabric& fabric_;
  Config cfg_;
  std::vector<std::unique_ptr<MmeNode>> mmes_;
  std::vector<epc::EnodeB*> enbs_;
  std::uint8_t next_code_;
};

}  // namespace scale::mme
