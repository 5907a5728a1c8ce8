// MLB — the MME Load Balancer, SCALE's front-end (§4.1, §5).
//
// Exposes a single standard MME to the eNodeBs / S-GW / HSS and routes every
// request into the MMP cluster with *no per-device state*. The relay it
// shares with the SIMPLE and dMME baselines — GUTI assignment before routing
// (§4.3.1), Active-mode routing on the MMP code embedded in the S1AP MME-UE
// id or S11 TEID, S6 answers on the hop-by-hop ref, ClusterReply relays —
// is mme::FrontEnd. What is SCALE's own:
//
//   * the Idle→Active pick: MD5(GUTI) on the consistent hash ring → the
//     R = `choices` preference-list VMs that hold the device's state →
//     least_loaded() picks among them (§4.6's fine-grained load balancing;
//     DESIGN.md §11 says why this is the only rule);
//   * OverloadReject re-steering and per-eNB edge backpressure (§9);
//   * the geo protocol: GeoForward / GeoReject routing and geo replica
//     placement on the local ring (§4.5.2);
//
// The only metadata kept: the ring (membership) and the MmpLoadView — one
// load/backoff record per MMP VM, nothing per device.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "core/overload.h"
#include "epc/fabric.h"
#include "hash/ring.h"
#include "mme/front_end.h"
#include "sim/metrics.h"

namespace scale::core {

using epc::Fabric;
using sim::NodeId;

/// Sentinel returned by load accessors for a VM that has never sent a
/// LoadReport. Distinct from a genuine "load 0.0" report: a fresh VM is an
/// unknown, not a provably idle server (see MmpLoadView::effective_load for
/// how steering treats it).
inline constexpr double kNoLoadReport = -1.0;

/// The MLB's per-MMP metadata table. Ordered (std::map) so every walk is
/// deterministic without waivers.
class MmpLoadView {
 public:
  void on_report(NodeId mmp, double load);
  void on_reject(NodeId mmp, Time backoff_until);

  bool has_report(NodeId mmp) const;
  /// Latest reported load, or kNoLoadReport when the VM never reported.
  double load_of(NodeId mmp) const;
  /// Load used for steering comparisons: optimistic 0.0 before the first
  /// report (a fresh VM must receive traffic immediately), the latest
  /// report afterwards.
  double effective_load(NodeId mmp) const;
  bool in_backoff(NodeId mmp, Time now) const;

  /// Any VM still inside a shed-backoff window.
  bool any_backoff(Time now) const;
  /// Any reported load at or above `limit`.
  bool any_load_at_least(double limit) const;

  /// `<prefix>.<mmp>` = latest load, for every VM that has reported.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  /// Everything the MLB knows about one MMP VM.
  struct Entry {
    double load = 0.0;      ///< most recent LoadReport value
    bool reported = false;  ///< at least one LoadReport arrived
    Time shed_until;        ///< OverloadReject backoff window end
  };

  std::map<NodeId, Entry> mmps_;
};

/// The §4.6 steering rule over `candidates` (a ring preference list,
/// possibly with the shedding VM removed; never empty): candidates inside a
/// shed-backoff window lose to any candidate outside one; within a class
/// the least effective load wins, first-in-list on ties. Pure function of
/// its arguments, so picks replay across runs.
NodeId least_loaded(const std::vector<hash::RingNodeId>& candidates,
                    const MmpLoadView& view, Time now);

class Mlb : public mme::FrontEnd {
 public:
  struct Config {
    std::uint8_t mme_code = 1;  ///< the one logical MME the eNodeBs see
    std::uint16_t plmn = 1;
    std::uint16_t mme_group = 1;
    /// Tokens per VM of the ring the MLB rebuilds on membership updates.
    unsigned ring_tokens = 5;
    /// R: how many preference-list VMs steering chooses among (SCALE uses
    /// 2; ScaleCluster sets it from ReplicationPolicy::local_copies).
    unsigned choices = 2;
    double cpu_speed = 1.0;
    /// First M-TMSI this MLB assigns; co-located MLB VMs of one pool use
    /// disjoint ranges so uncoordinated allocation stays collision-free.
    std::uint32_t tmsi_base = 1;
    /// Per-eNB edge backpressure (graduated overload, DESIGN.md §9): while
    /// any MMP is inside a shed-backoff window, each eNB's Initial UE
    /// messages drain a token bucket; when an eNB's bucket runs dry the MLB
    /// sends it OverloadStart (a 250 ms pacing window). rate 0 = off.
    double enb_bucket_rate = 0.0;  ///< tokens (initials) per second
    double enb_bucket_burst = 50.0;
  };

  Mlb(Fabric& fabric, Config cfg);
  ~Mlb() override;

  const hash::ConsistentHashRing& ring() const { return ring_; }

  /// Install the cluster membership (provisioner pushes RingUpdates).
  void apply_membership(
      const std::vector<proto::RingUpdate::Member>& members,
      std::uint64_t version);

  /// Sink for geo-protocol messages the MLB proxies to the DC controller
  /// (budget gossip, evict requests).
  void set_geo_sink(
      std::function<void(NodeId from, const proto::ClusterMessage&)>&& sink) {
    geo_sink_ = std::move(sink);
  }

  /// Latest load this MLB holds for `mmp`, or core::kNoLoadReport (−1.0)
  /// when the VM has never sent a LoadReport. "Never reported" is NOT
  /// "load 0": steering treats a silent VM as an optimistic unknown (it
  /// still receives traffic), but callers comparing loads must check
  /// has_load_report() first.
  double load_of(NodeId mmp) const;
  bool has_load_report(NodeId mmp) const;

  // Statistics (routing counters live in mme::FrontEnd).
  std::uint64_t overload_rejects() const { return overload_rejects_; }
  std::uint64_t overload_resteers() const { return overload_resteers_; }
  std::uint64_t overload_drops() const { return overload_drops_; }
  /// Rejects split by the procedure type the shedding MMP reported.
  std::uint64_t overload_rejects_of(proto::ProcedureType p) const {
    const auto idx = static_cast<std::size_t>(p);
    SCALE_CHECK_MSG(idx < rejects_by_type_.size(),
                    "ProcedureType outside the counter table");
    return rejects_by_type_[idx];
  }

  /// Publish routing counters + load map under `prefix` ("mlb.relays",
  /// "mlb.load.<node>", ...). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 protected:
  /// Least-loaded of the GUTI's R preference-list VMs (§4.6), after
  /// charging the eNB's edge-backpressure bucket.
  NodeId pick(NodeId enb, const proto::Guti& guti) override;
  /// LoadReport, RingUpdate, OverloadReject, the geo protocol and geo
  /// replica placement.
  void on_cluster(NodeId from, const proto::PduRef& pdu,
                  const proto::ClusterMessage& msg) override;

 private:
  // Each takes the received box (holding the named message), so the relay
  // forwards it, or the request it carries, without copying.
  void route_geo_forward(proto::PduRef pdu);   // a GeoForward
  void route_geo_reject(proto::PduRef pdu);    // a GeoReject
  void handle_overload_reject(proto::PduRef pdu);  // an OverloadReject
  /// True while any MMP is inside a shed-backoff window or reports load at
  /// or above the pressure limit.
  bool under_pressure(Time now) const;
  /// Charge `from`'s token bucket for one Initial UE message; when dry,
  /// signal OverloadStart so the eNB paces at the edge.
  void maybe_backpressure(NodeId from);

  Config cfg_;
  sim::UtilizationTracker util_;
  hash::ConsistentHashRing ring_;
  /// Reused preference-list buffer: steering runs once per Idle→Active
  /// request, and reusing it keeps that path free of heap allocations.
  std::vector<hash::RingNodeId> prefs_;
  std::uint64_t ring_version_ = 0;
  /// Per-MMP load/backoff metadata — everything steering reads.
  MmpLoadView view_;
  std::function<void(NodeId, const proto::ClusterMessage&)> geo_sink_;
  /// Edge-backpressure state, lazily created per eNB while pressure lasts.
  std::unordered_map<NodeId, TokenBucket> enb_buckets_;
  std::unordered_map<NodeId, Time> enb_signal_at_;

  std::uint64_t overload_rejects_ = 0;
  std::uint64_t overload_resteers_ = 0;
  std::uint64_t overload_drops_ = 0;
  std::uint64_t backpressure_signals_ = 0;
  std::array<std::uint64_t, proto::kProcedureTypeCount> rejects_by_type_{};
};

}  // namespace scale::core
