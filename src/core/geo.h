// Geo-multiplexing (§4.5.2): cross-DC state budgets and remote-DC choice.
//
// Each DC i:
//   * reserves budget Sᵢm (≈10% of capacity) for *external* device state
//     from other DCs;
//   * tracks Ŝᵢm, the unused part, and gossips it to its peers;
//   * when its external share must shrink, asks peers to evict (lowest-wᵢ
//     first).
// Each MMP choosing a remote DC for a high-wᵢ device picks probabilistically
// among DCs with Ŝ > 0, with p ∝ (1/D_ij) / Σ(1/D_ik) — favor near DCs but
// avoid hot-spotting the nearest one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "epc/fabric.h"
#include "proto/cluster.h"

namespace scale::core {

using epc::Fabric;
using sim::NodeId;

class GeoManager {
 public:
  /// Remote-DC choice strategy. kScale is §4.5.2 (budget-gated, p ∝ 1/D);
  /// the others are the S2 baselines of Fig. 10(b): uniform random choice
  /// that ignores the peers' current utilization and/or propagation delay.
  enum class Selection : std::uint8_t {
    kScale = 0,
    kUniform = 1,  ///< ignore both budget (load) and delay — RDM1/RDM2
  };

  struct Config {
    std::uint32_t dc_id = 0;
    /// Sm as a fraction of the cluster's device-state capacity V·S.
    double budget_fraction = 0.10;
    Duration gossip_interval = Duration::ms(500.0);
    Selection selection = Selection::kScale;
    std::uint64_t seed = 1234;
  };

  GeoManager(Fabric& fabric, NodeId local_mlb, Config cfg);

  std::uint32_t dc_id() const { return cfg_.dc_id; }
  const Config& config() const { return cfg_; }

  void add_peer(std::uint32_t dc_id, NodeId mlb, Duration propagation);
  bool has_peers() const { return !peers_.empty(); }
  NodeId mlb_of_dc(std::uint32_t dc) const;
  /// Send `pdu` from the local MLB to every peer DC's MLB.
  void send_to_peers(const proto::PduRef& pdu);
  /// Ŝ last gossiped by peer `dc` (0 before its first gossip).
  double peer_available(std::uint32_t dc) const;

  /// Start periodic Ŝm gossip to all peers.
  void start_gossip();

  // --- local external-state budget (Sm / Ŝm) --------------------------
  void set_budget(double sm);
  double budget() const { return budget_; }

  /// Probe for the local cluster's mean CPU utilization. Ŝm "tracks the
  /// average processing load" (§4.5.2 DC-level (iv)): the advertised
  /// budget shrinks to zero as the DC approaches kLoadCeiling.
  void set_cluster_load_probe(std::function<double()>&& probe) {
    load_probe_ = std::move(probe);
  }
  void set_cluster_backlog_probe(std::function<double()>&& probe) {
    backlog_probe_ = std::move(probe);
  }

  /// Ŝm: unused state budget scaled by processing headroom.
  double available() const {
    const double slots = std::max(0.0, budget_ - used_);
    if (!load_probe_) return slots;
    const double util = load_probe_();
    const double headroom =
        std::clamp((kLoadCeiling - util) / kLoadCeiling, 0.0, 1.0);
    return slots * headroom;
  }

  /// Whether peer `dc` currently advertises processing headroom for
  /// offloaded work (its gossiped CPU load is below the ceiling). The
  /// uniform (RDM) baselines ignore this signal — that's their flaw.
  bool peer_accepting(std::uint32_t dc) const;

  /// Estimated cost (seconds) of processing one request at peer `dc` right
  /// now: its gossiped queue depth plus a propagation penalty. +inf when
  /// the peer is unknown or above the load ceiling.
  double peer_queue_cost(std::uint32_t dc) const;
  /// Reserve one external-state slot; false when full (push rejected).
  bool accept_external();
  /// Release a slot (eviction / detach of an external context).
  void release_external();
  double used() const { return used_; }

  // --- remote choice (§4.5.2 MMP-level (2)) ----------------------------
  /// Probabilistic pick of a peer DC id among peers with known Ŝ > 0;
  /// nullopt if none.
  std::optional<std::uint32_t> choose_remote(Rng& rng) const;

  /// How many devices each of the V local MMPs may replicate externally
  /// this epoch (its share of Sm, conservation across DCs).
  std::uint64_t per_vm_external_quota(std::size_t vm_count) const;

  void on_gossip(const proto::GeoBudgetGossip& gossip);

  std::uint64_t gossips_sent() const { return gossips_sent_; }

 private:
  struct PeerDc {
    std::uint32_t dc_id = 0;
    NodeId mlb = 0;
    Duration propagation = Duration::ms(20.0);
    double known_available = 0.0;  ///< last gossiped Ŝ of that peer
    double known_load = 0.0;       ///< last gossiped mean CPU utilization
    double known_backlog = 0.0;    ///< last gossiped mean queued work (s)
  };

  /// Mean CPU utilization at which a DC stops advertising headroom.
  static constexpr double kLoadCeiling = 0.85;

  void gossip_tick();

  Fabric& fabric_;
  NodeId local_mlb_;
  Config cfg_;
  std::vector<PeerDc> peers_;
  double budget_ = 0.0;
  double used_ = 0.0;
  bool gossiping_ = false;
  std::uint64_t gossips_sent_ = 0;
  std::function<double()> load_probe_;
  std::function<double()> backlog_probe_;
};

}  // namespace scale::core
