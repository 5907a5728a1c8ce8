// dMME — the alternate split-MME design of An et al. ("DMME: A Distributed
// LTE Mobility Management Entity", Bell Labs TR 2012), which §6 of the
// SCALE paper names as the design choice worth comparing against:
//
//   stateless processing nodes + one centralized state store. Any node can
//   serve any device, but every Idle→Active transaction pays a fetch from
//   (and a write-back to) the store — CPU there plus a round trip — where
//   SCALE's replicas keep state co-located with compute.
//
// The front-end (DmmeLb) needs no per-device table (any node serves), like
// SCALE's MLB; the cost moved into the state-store round trips instead.
// bench/ablation_dmme quantifies the trade.
#pragma once

#include <deque>
#include <unordered_map>

#include "mme/cluster_vm.h"
#include "mme/front_end.h"

namespace scale::mme {

/// Centralized UE-state database: serves fetches, absorbs write-backs.
class DmmeStateStore : public epc::Endpoint {
 public:
  explicit DmmeStateStore(epc::Fabric& fabric, double cpu_speed = 1.0);

  std::size_t size() const { return store_.size(); }
  std::uint64_t fetches() const { return fetches_; }
  std::uint64_t writes() const { return writes_; }

  void receive(NodeId from, const proto::PduRef& pdu) override;

 private:
  sim::CpuModel cpu_;
  epc::UeContextStore store_;
  std::uint64_t fetches_ = 0;
  std::uint64_t writes_ = 0;
};

/// A stateless dMME processing node: fetches the device context from the
/// store before running a procedure, writes it back afterwards, and evicts
/// its local copy when the device returns to Idle.
class DmmeNode final : public ClusterVm {
 public:
  struct Config {
    ClusterVm::Config base;
    NodeId store = 0;
  };

  DmmeNode(epc::Fabric& fabric, Config cfg);

  std::uint64_t fetches_issued() const { return fetches_issued_; }
  std::uint64_t writebacks() const { return writebacks_; }

 protected:
  void handle_forward(NodeId from, const proto::PduRef& pdu,
                      const proto::ClusterForward& fwd) override;
  void handle_other_cluster(NodeId from,
                            const proto::ClusterMessage& msg) override;
  void after_procedure(UeContext& ctx, proto::ProcedureType type) override;
  void on_idle(UeContext& ctx) override;
  void before_detach(UeContext& ctx) override;

 private:
  void write_back(const UeContext& ctx);

  NodeId store_;
  /// Requests (ClusterForward boxes) parked while their context fetch is
  /// in flight.
  std::unordered_map<std::uint64_t, std::deque<proto::PduRef>> pending_;
  std::uint64_t fetches_issued_ = 0;
  std::uint64_t writebacks_ = 0;
};

/// Front-end for a dMME pool: the shared relay (mme::FrontEnd) with a
/// round-robin Idle→Active pick (any node can serve), no per-device table.
class DmmeLb final : public FrontEnd {
 public:
  struct Config {
    std::uint8_t mme_code = 1;
    std::uint16_t plmn = 1;
    std::uint16_t mme_group = 1;
    double cpu_speed = 1.0;
  };

  DmmeLb(epc::Fabric& fabric, Config cfg);

  void add_node(DmmeNode& node);

 protected:
  NodeId pick(NodeId enb, const proto::Guti& guti) override;

 private:
  std::vector<NodeId> nodes_;
  std::size_t next_rr_ = 0;
};

}  // namespace scale::mme
