// SIMPLE — the virtual-MME baseline of experiment E3 (Fig. 9):
// "a system that uniformly distributes the state of the devices across
// existing VMs and additionally replicates the states of each VM to another
// VM... representative of a few commercially available virtual MME
// systems."
//
// Concretely:
//   * the front-end keeps a PER-DEVICE routing table (the scalability
//     liability SCALE avoids);
//   * devices are assigned to VMs round-robin (uniform);
//   * VM v's entire state is replicated to a single buddy VM (v+1 mod V),
//     so when v overloads, ALL of its spillover lands on one neighbor —
//     the hot-spot SCALE's token-spread replication dissolves.
#pragma once

#include <unordered_map>
#include <vector>

#include "mme/cluster_vm.h"
#include "mme/front_end.h"

namespace scale::mme {

class SimpleVm final : public ClusterVm {
 public:
  using ClusterVm::ClusterVm;

  /// The buddy VM receiving this VM's replicas (SimpleLb wires it).
  NodeId buddy() const { return buddy_; }

 protected:
  void after_procedure(UeContext& ctx, proto::ProcedureType type) override;
  void on_idle(UeContext& ctx) override;
  void before_detach(UeContext& ctx) override;

 private:
  friend class SimpleLb;

  NodeId buddy_ = 0;
};

/// The SIMPLE front end: the shared relay (mme::FrontEnd) plus a
/// per-device table filled round robin, with spill-over to the primary's
/// buddy while the primary reports overload.
class SimpleLb final : public FrontEnd {
 public:
  struct Config {
    std::uint8_t mme_code = 1;  ///< logical MME code exposed to eNodeBs
    std::uint16_t plmn = 1;
    std::uint16_t mme_group = 1;
    double cpu_speed = 1.0;
  };

  SimpleLb(epc::Fabric& fabric, Config cfg);

  /// Register a processing VM. Buddies are re-wired ring-style (v -> v+1).
  void add_vm(SimpleVm& vm);

  /// Size of the per-device routing table (the thing that grows with the
  /// subscriber population).
  std::size_t routing_table_size() const { return table_.size(); }

 protected:
  NodeId pick(NodeId enb, const proto::Guti& guti) override;
  /// LoadReports feed the spill-over decision.
  void on_cluster(NodeId from, const proto::PduRef& pdu,
                  const proto::ClusterMessage& msg) override;

 private:
  struct VmEntry {
    SimpleVm* vm = nullptr;
    double load = 0.0;
  };

  std::vector<VmEntry> vms_;
  std::unordered_map<std::uint64_t, std::size_t> table_;  // guti -> vm index
  std::size_t next_rr_ = 0;
};

}  // namespace scale::mme
