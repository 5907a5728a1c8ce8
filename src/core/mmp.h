// MMP — a SCALE MME Processing VM (§4.1): an MmeApp behind the MLB, plus
// SCALE's state-management behaviours (§4.3, §4.5, §4.6):
//
//   * after processing a request, asynchronously replicate the device's
//     state to the ring neighbor (policy-gated: access-aware under memory
//     pressure) — and bulk-sync on Active→Idle;
//   * forward a request to the master MMP when the state isn't here;
//   * when overloaded and the device has an external replica, offload
//     processing to that remote DC (GeoForward);
//   * hold External contexts for remote DCs within the GeoManager budget;
//   * reply GeoReject when asked to serve an external device it no longer
//     holds (self-healing after eviction).
#pragma once

#include <array>
#include <vector>

#include "common/check.h"
#include "core/geo.h"
#include "core/overload.h"
#include "core/replication.h"
#include "hash/ring.h"
#include "mme/cluster_vm.h"

namespace scale::core {

class MmpNode final : public mme::ClusterVm {
 public:
  struct Config {
    mme::ClusterVm::Config base;
    /// Overload protection: an Initial request arriving while queued work
    /// exceeds shed_backlog is rejected back to the MLB (OverloadReject
    /// carrying the request + a 200 ms kShedBackoff steer-away hint) instead
    /// of joining a queue it would time out in. zero() disables shedding —
    /// the seed behaviour of unbounded silent queue growth.
    Duration shed_backlog = Duration::zero();
    /// Graduated admission control (OverloadGovernor). Disabled by default;
    /// when enabled it supersedes the binary shed_backlog rule above with
    /// watermark pressure bands and priority-ordered shedding.
    OverloadGovernor::Config governor;
    std::uint64_t seed = 7777;
  };

  MmpNode(epc::Fabric& fabric, Config cfg);

  /// Wire the shared cluster state (owned by ScaleCluster, outlives VMs).
  void set_ring(const hash::ConsistentHashRing* ring) { ring_ = ring; }
  void set_policy(const ReplicationPolicy* policy) { policy_ = policy; }
  void set_geo(GeoManager* geo) { geo_ = geo; }

  /// Migrate one master context to its new ring owner (ScaleCluster calls
  /// this after membership changes). Charges transfer CPU on this VM and
  /// install CPU at the destination; demotes or erases the local copy.
  void migrate_master(std::uint64_t guti_key, NodeId new_owner);

  /// Externally replicate this master context to remote DC `dc`
  /// (asynchronous; goes through the remote DC's MLB).
  void geo_replicate(std::uint64_t guti_key, std::uint32_t dc);

  /// Re-push this master's replica per the current ring/policy (epoch
  /// resync after membership churn).
  void resync_replica(mme::UeContext& ctx) { on_state_adopted(ctx); }

  std::uint64_t geo_offloads() const { return geo_offloads_; }
  std::uint64_t geo_served() const { return geo_served_; }
  std::uint64_t geo_rejects() const { return geo_rejects_; }
  std::uint64_t forwarded_to_master() const { return forwarded_to_master_; }
  std::uint64_t overload_sheds() const { return overload_sheds_; }
  /// Sheds split by the procedure type of the rejected request.
  std::uint64_t sheds_of(proto::ProcedureType p) const {
    const auto idx = static_cast<std::size_t>(p);
    SCALE_CHECK_MSG(idx < sheds_by_type_.size(),
                    "ProcedureType outside the counter table");
    return sheds_by_type_[idx];
  }
  const OverloadGovernor& governor() const { return governor_; }

  /// ClusterVm counters plus the MMP-specific geo/shed counters.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const override;

 protected:
  void handle_forward(NodeId from, const proto::PduRef& pdu,
                      const proto::ClusterForward& fwd) override;
  void handle_other_cluster(NodeId from,
                            const proto::ClusterMessage& msg) override;
  epc::ContextRole classify_replica(
      const proto::UeContextRecord& rec) override;
  void after_procedure(mme::UeContext& ctx,
                       proto::ProcedureType type) override;
  void on_idle(mme::UeContext& ctx) override;
  void before_detach(mme::UeContext& ctx) override;
  /// Stretches paging under overload pressure (the governor's deferral).
  Duration paging_defer() const override;
  void on_state_adopted(mme::UeContext& ctx) override;
  double load_score() const override;

 private:
  bool is_master_of(std::uint64_t guti_key) const;
  PressureSignals pressure_signals() const;
  void replicate_local(mme::UeContext& ctx);
  std::optional<NodeId> local_replica_target(std::uint64_t guti_key);

  Config mmp_cfg_;
  OverloadGovernor governor_;
  Rng rng_;
  const hash::ConsistentHashRing* ring_ = nullptr;
  /// Reused preference-list buffer for replicate_local(), which runs after
  /// every procedure and at every Idle transition, and for
  /// local_replica_target().
  std::vector<hash::RingNodeId> prefs_;
  const ReplicationPolicy* policy_ = nullptr;
  GeoManager* geo_ = nullptr;

  std::uint64_t geo_offloads_ = 0;
  std::uint64_t geo_served_ = 0;
  std::uint64_t geo_rejects_ = 0;
  std::uint64_t forwarded_to_master_ = 0;
  std::uint64_t overload_sheds_ = 0;
  std::array<std::uint64_t, proto::kProcedureTypeCount> sheds_by_type_{};
};

}  // namespace scale::core
