// ScaleCluster — one SCALE deployment at one data center (Figure 4):
// a front-end MLB plus an elastic MMP pool sharing a token-based consistent
// hash ring, with epoch-driven VM provisioning (§4.4), access-aware state
// allocation (§4.5.1) and geo-multiplexing (§4.5.2).
//
// Each epoch the cluster:
//   1. measures last epoch's signaling load L(t−1) and the registered
//      device count K(t);
//   2. refreshes per-device access frequencies wᵢ (moving average of the
//      per-epoch access indicator);
//   3. computes β(x) (Eq. 2) and the Eq. 3 replica-probability scale;
//   4. provisions V(t) = max(V_C, V_S) MMP VMs — adding/removing VMs
//      migrates only the affected ring arcs;
//   5. refreshes the geo budget S_m and pushes external replicas of
//      high-wᵢ devices to under-utilized remote DCs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/geo.h"
#include "core/mlb.h"
#include "core/mmp.h"
#include "core/provisioner.h"
#include "core/replication.h"
#include "epc/enodeb.h"

namespace scale::core {

class ScaleCluster {
 public:
  struct Config {
    // Identity exposed to eNodeBs.
    std::uint8_t mme_code = 1;
    std::uint16_t plmn = 1;
    std::uint16_t mme_group = 1;

    Mlb::Config mlb;                     ///< identity fields overwritten
    mme::ClusterVm::Config vm_template;  ///< sgw/hss/home_dc overwritten
    /// Unread: the geo-offload trigger is a fixed CPU backlog (mmp.cpp).
    /// Kept because wholerun/src/worlds.cpp sets it.
    double mmp_offload_threshold = 0.85;
    /// Overload shedding for every MMP VM (see MmpNode::Config). zero()
    /// keeps the seed behaviour (no shedding).
    Duration mmp_shed_backlog = Duration::zero();
    /// Graduated admission control for every MMP VM (OverloadGovernor;
    /// disabled by default). Edge backpressure is configured separately
    /// through mlb.enb_bucket_rate.
    OverloadGovernor::Config mmp_governor;

    unsigned ring_tokens = 5;

    ReplicationPolicy policy;
    Provisioner::Config provisioner;
    GeoManager::Config geo;  ///< dc_id overwritten with home_dc

    Duration epoch = Duration::sec(60.0);
    bool auto_epochs = false;
    /// EWMA weight for the per-device access-frequency estimate.
    double wi_alpha = 0.3;
    /// S_n: fraction of K reserved for devices expected to register next
    /// epoch (§4.5.1, "e.g. 5% of K").
    double new_device_reserve = 0.05;

    std::uint32_t home_dc = 0;
    std::size_t initial_mmps = 2;
    /// MLB VMs fronting the pool (Figure 4 shows several; eNodeBs spread
    /// across them, all share the ring + load metadata).
    std::size_t initial_mlbs = 1;
    /// First VM code; keep ranges disjoint across DCs so Active-mode ids
    /// never collide in multi-DC topologies.
    std::uint8_t first_vm_code = 1;
    std::uint64_t seed = 99;
  };

  struct EpochReport {
    std::uint64_t measured_load = 0;
    std::uint64_t registered = 0;
    double beta = 1.0;
    Provisioner::Decision decision;
    std::size_t geo_pushes = 0;
    /// Replica copies re-pushed by this epoch's post-churn resync (0 in
    /// steady state — resync only runs after a membership change).
    std::size_t resyncs = 0;
  };

  ScaleCluster(epc::Fabric& fabric, sim::NodeId sgw, sim::NodeId hss,
               Config cfg);
  ~ScaleCluster();

  ScaleCluster(const ScaleCluster&) = delete;
  ScaleCluster& operator=(const ScaleCluster&) = delete;

  // --- topology ---------------------------------------------------------
  Mlb& mlb() { return *mlbs_.front(); }
  std::vector<std::unique_ptr<Mlb>>& mlbs() { return mlbs_; }
  std::size_t mlb_count() const { return mlbs_.size(); }
  GeoManager& geo() { return *geo_; }
  const hash::ConsistentHashRing& ring() const { return ring_; }
  std::vector<std::unique_ptr<MmpNode>>& mmps() { return mmps_; }
  MmpNode& mmp(std::size_t i) { return *mmps_.at(i); }
  std::size_t mmp_count() const { return mmps_.size(); }

  /// Connect an eNodeB: it sees the MLB as its (single) MME.
  void connect_enb(epc::EnodeB& enb);

  // --- elasticity -------------------------------------------------------
  MmpNode& add_mmp();
  void remove_last_mmp();
  /// Failure injection: the VM at `index` disappears WITHOUT migrating its
  /// state (crash). Devices it mastered survive through their replicas
  /// (the ring's next owner promotes its copy on their next request) —
  /// the availability argument behind replication. Un-replicated devices
  /// must re-attach.
  void crash_mmp(std::size_t index);
  /// Grow/shrink to exactly `target` VMs (ring migration included).
  std::size_t resize(std::uint32_t target);

  // --- epochs -----------------------------------------------------------
  /// Run one provisioning epoch now; returns what was decided.
  EpochReport run_epoch();
  /// Start auto epochs (cfg.epoch period) and geo gossip.
  void start();

  // --- policy & accessors -----------------------------------------------
  ReplicationPolicy& policy() { return policy_; }
  /// Adjust S_m sizing at runtime (the epoch recomputes the budget from
  /// this fraction).
  void set_geo_budget_fraction(double fraction) {
    cfg_.geo.budget_fraction = fraction;
  }
  std::uint64_t registered_devices() const;
  std::uint64_t total_requests() const;
  /// Visit every master context in the cluster (e.g. to seed wᵢ from an
  /// operator profiling database — §4.5: "such predictable access patterns,
  /// when available").
  void for_each_master(const std::function<void(mme::UeContext&)>& fn);
  /// Overload passing the owning store too, for callers that need the SoA
  /// runtime columns (epoch hits, inactivity timer) alongside the record.
  void for_each_master(
      const std::function<void(epc::UeContextStore&, mme::UeContext&)>& fn);
  const EpochReport& last_epoch() const { return last_report_; }

 private:
  void epoch_chain();
  void on_evict_request(const proto::GeoEvictRequest& evict);
  void enforce_geo_budget();
  void update_access_frequencies();
  double compute_beta(std::uint64_t registered);
  std::size_t run_geo_selection();
  void push_membership();
  void migrate_after_membership_change();
  std::size_t resync_replicas();

  epc::Fabric& fabric_;
  Config cfg_;
  sim::NodeId sgw_;
  sim::NodeId hss_;
  Rng rng_;

  hash::ConsistentHashRing ring_;
  ReplicationPolicy policy_;
  Provisioner provisioner_;
  std::vector<std::unique_ptr<Mlb>> mlbs_;
  std::unique_ptr<GeoManager> geo_;
  std::vector<std::unique_ptr<MmpNode>> mmps_;
  std::vector<std::unique_ptr<MmpNode>> retired_;  ///< drained, not destroyed
  std::vector<epc::EnodeB*> enbs_;

  std::uint8_t next_code_;
  std::uint64_t ring_version_ = 1;
  std::uint64_t epoch_index_ = 0;
  /// Set on any membership change (add/remove/crash); the next epoch then
  /// re-pushes replica copies for every master before clearing it.
  bool membership_dirty_ = false;
  std::uint64_t requests_snapshot_ = 0;
  bool running_ = false;
  EpochReport last_report_;
};

}  // namespace scale::core
