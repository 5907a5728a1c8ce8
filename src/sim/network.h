// Propagation-delay network model.
//
// Replaces the paper's physical LAN plus netem-emulated inter-DC links
// (§5, E4-ii): every ordered node pair has a one-way latency; unspecified
// pairs fall back to a default. Byte/message counters expose the signaling
// overhead that Figs. 2(c) and 8(b,c) attribute to reactive reassignment.
//
// FaultPlane: the network additionally owns the deterministic fault model —
// per-link / global stochastic faults (drop, duplicate, reorder-delay) and
// scripted timed faults (link down, DC partition, latency spike). Faults are
// driven by a dedicated Rng that only stochastic fault specs draw from, so
// the clean path consumes zero fault draws. Scripted windows are checked
// before any stochastic draw, so scripted outcomes consume no randomness at
// all — same-seed runs replay byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "sim/metrics.h"

namespace scale::sim {

/// Identifier of an addressable entity (UE, eNodeB, MLB, MMP, S-GW, HSS...).
using NodeId = std::uint32_t;

/// Stochastic fault spec for one link (or, as the global spec, for every
/// link without a per-link override). Probabilities are per-PDU.
struct LinkFaults {
  double drop_prob = 0.0;     ///< PDU silently lost
  double dup_prob = 0.0;      ///< PDU delivered twice
  double reorder_prob = 0.0;  ///< PDU delayed by reorder_window (overtaken)
  Duration reorder_window = Duration::ms(2.0);
};

/// Why the FaultPlane dropped (or perturbed) a PDU — carried on the verdict
/// so instrumentation (tracer annotations) can attribute the loss without
/// re-deriving window state.
enum class FaultCause : std::uint8_t {
  kNone = 0,
  kRandomDrop,
  kLinkDown,
  kPartition,
  kDuplicate,
  kReorder,
};

[[nodiscard]] const char* fault_cause_name(FaultCause c);

/// Outcome of consulting the FaultPlane for one PDU on one link.
struct FaultVerdict {
  bool deliver = true;
  bool duplicate = false;
  /// Extra delay added on top of the configured latency (reorder faults).
  Duration extra_delay = Duration::zero();
  /// Multiplier on the configured latency (scripted latency spikes).
  double latency_factor = 1.0;
  /// Dominant fault applied (drop causes win over duplicate/reorder).
  FaultCause cause = FaultCause::kNone;
};

class Network {
 public:
  explicit Network(Duration default_latency = Duration::us(500),
                   std::uint64_t seed = 42);

  /// Set the one-way latency for (a -> b); with symmetric=true also (b -> a).
  void set_latency(NodeId a, NodeId b, Duration latency,
                   bool symmetric = true);

  /// Data-center placement: nodes default to DC 0. A pair in different DCs
  /// without an explicit pair latency uses the DC-level latency matrix —
  /// this is the netem substitute for the inter-DC experiments (E4-ii, S2).
  void set_node_dc(NodeId node, std::uint32_t dc);
  std::uint32_t dc_of(NodeId node) const;
  void set_dc_latency(std::uint32_t dc_a, std::uint32_t dc_b,
                      Duration latency, bool symmetric = true);
  /// Configured DC-to-DC latency (default latency when unset or same DC).
  Duration dc_latency(std::uint32_t dc_a, std::uint32_t dc_b) const;

  /// One-way delay for a message a -> b: the pair's latency, else the DC
  /// matrix entry for a cross-DC pair, else the default.
  Duration delay(NodeId a, NodeId b) const;

  /// Accounting hook: call per message sent.
  void record_transfer(NodeId a, NodeId b, std::size_t bytes);

  std::uint64_t messages_sent() const { return messages_; }
  std::uint64_t bytes_sent() const { return bytes_; }
  std::uint64_t messages_between(NodeId a, NodeId b) const;

  /// Resets transfer AND fault counters (they fingerprint the same window).
  void reset_counters();

  // --- FaultPlane -----------------------------------------------------------

  /// Stochastic faults applied to every link without a per-link override.
  void set_global_faults(const LinkFaults& faults);
  /// Per-link override; with symmetric=true applies to both directions.
  void set_link_faults(NodeId a, NodeId b, const LinkFaults& faults,
                       bool symmetric = true);
  /// Remove all fault specs and scripted windows (counters are kept; use
  /// reset_counters() to clear them).
  void clear_faults();

  /// Scripted faults: [from, until) windows evaluated deterministically
  /// before any stochastic draw (they consume no randomness).
  void schedule_link_down(NodeId a, NodeId b, Time from, Time until,
                          bool symmetric = true);
  /// Severs every cross-DC link between dc_a and dc_b (both directions).
  void schedule_partition(std::uint32_t dc_a, std::uint32_t dc_b, Time from,
                          Time until);
  /// Multiplies configured latency between the two DCs by `factor`.
  void schedule_latency_spike(std::uint32_t dc_a, std::uint32_t dc_b,
                              Time from, Time until, double factor);

  /// False until the first fault spec / scripted window is installed; the
  /// fabric's clean path pays exactly one branch on this.
  bool faults_enabled() const { return faults_enabled_; }

  /// Decide the fate of one PDU on link a -> b at simulated time `now`.
  /// Mutates the fault counters and (for stochastic faults) the fault Rng.
  FaultVerdict fault_verdict(NodeId a, NodeId b, Time now);

  FaultCounters fault_counters() const { return faults_; }

  /// Publish transfer + fault counters under `prefix` ("net.messages",
  /// "net.faults.random_drops", ...). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  struct TimedFault {
    Time from;
    Time until;
    double factor = 1.0;  // latency spikes only
  };

  static std::uint64_t pair_key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  static bool window_active(const std::vector<TimedFault>& windows, Time now);
  /// Dense matrix cell for (a, b), or nullptr when outside the dense dim.
  const std::int64_t* dc_cell(std::uint32_t a, std::uint32_t b) const {
    if (a >= dc_dim_ || b >= dc_dim_) return nullptr;
    return &dc_matrix_[a * dc_dim_ + b];
  }
  void grow_dc_matrix(std::uint32_t need_dim);

  Duration default_latency_;
  std::unordered_map<std::uint64_t, Duration> latency_;
  /// DC of each node, indexed by NodeId; ids past the end are in DC 0.
  std::vector<std::uint32_t> node_dc_;

  /// DC latency matrix, dense row-major [a * dc_dim_ + b] in microseconds
  /// (kDcUnset = no entry). Sized to the highest DC id seen in
  /// set_dc_latency/set_node_dc; the delay() hot path is two bounds checks
  /// and one load instead of an unordered_map probe.
  static constexpr std::int64_t kDcUnset = -1;
  std::uint32_t dc_dim_ = 0;
  std::vector<std::int64_t> dc_matrix_;

  Rng fault_rng_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  /// Messages sent a -> b at [a][b]. Node ids are dense (Fabric numbers
  /// endpoints from 1), so a row per sender, grown to the largest receiver
  /// it has sent to, turns the per-PDU count into two bounds checks and an
  /// increment.
  std::vector<std::vector<std::uint64_t>> pair_messages_;
  FaultCounters faults_;

  // FaultPlane specs and scripted windows.
  bool faults_enabled_ = false;
  LinkFaults global_faults_;
  bool has_global_faults_ = false;
  std::unordered_map<std::uint64_t, LinkFaults> link_faults_;
  std::unordered_map<std::uint64_t, std::vector<TimedFault>> link_down_;
  std::unordered_map<std::uint64_t, std::vector<TimedFault>> partitions_;
  std::unordered_map<std::uint64_t, std::vector<TimedFault>> spikes_;
};

}  // namespace scale::sim
