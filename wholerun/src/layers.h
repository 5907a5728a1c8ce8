// Per-layer accounting for the traced run. Everything here is read from the
// benchmark's own code: counters through the layers' public accessors and
// export_metrics, host time from spans around the benchmark's calls into each
// layer, and per-call costs from a replay phase that runs after the
// measured window (so it cannot perturb any simulated result).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "worlds.h"

namespace wholerun {

/// Directed link classes, by the roles at each end.
enum LinkClass : std::size_t {
  kS1apUp,        // eNB -> MLB
  kS1apDown,      // MLB -> eNB
  kClusterFwd,    // MLB -> MMP
  kClusterReply,  // MMP -> MLB
  kMmpMmp,        // replica push/ack, state transfer
  kS11,           // MLB <-> S-GW
  kS6,            // MLB <-> HSS
  kGeo,           // anything crossing DCs
  kLinkClasses
};

/// Exact layer counters at one instant (cumulative since world start).
struct Counters {
  // sim
  std::uint64_t events = 0;       ///< engine.events_processed
  std::uint64_t queue_depth = 0;  ///< engine.queue_depth (live events)
  std::uint64_t msgs = 0;         ///< network messages sent
  std::uint64_t bytes = 0;        ///< network bytes sent
  // epc
  std::uint64_t batched_pdus = 0;
  std::uint64_t late_arrivals = 0;
  std::uint64_t dead_drops = 0;
  std::uint64_t hss_auth = 0;
  std::uint64_t paced_initials = 0;
  // core
  std::uint64_t initial_routed = 0;  ///< MLB ring steers
  std::uint64_t sticky_routed = 0;
  std::uint64_t mlb_overload_rejects = 0;
  std::uint64_t forwarded_to_master = 0;
  std::uint64_t replicas_pushed = 0;
  std::uint64_t geo_offloads = 0;
  std::uint64_t sheds = 0;
  /// Per MMP, clusters in order: requests handled and the index of the
  /// owning cluster.
  std::vector<std::uint64_t> mmp_requests;
  std::vector<std::size_t> mmp_cluster;
  /// Per cluster CPU (every MLB, then every MMP, clusters in order):
  /// cumulative busy time and current backlog, µs.
  std::vector<std::int64_t> cpu_busy_us;
  std::vector<std::int64_t> cpu_backlog_us;
  // workload
  Arrivals arrivals;

  /// Messages per LinkClass (names in link_class_names()).
  std::vector<std::uint64_t> link_msgs;
};

Counters read_counters(World& w, bool with_links);

/// Interval view: cumulative counters of `later` minus `earlier`; the
/// point-in-time values (queue depth, CPU backlog) keep `later`'s reading.
Counters diff(const Counters& later, const Counters& earlier);

/// Names of the link classes Counters::link_msgs is indexed by.
const std::vector<std::string>& link_class_names();

/// Host cost per call of each layer's public hot functions, measured on the
/// world's own state after the window.
struct ReplayCosts {
  double ns_per_encode = 0;
  double ns_per_decode = 0;
  double ns_per_wire_size = 0;
  double ns_per_owner = 0;
  double ns_per_find = 0;
  double ns_per_event = 0;
  std::uint64_t pdu_mix_size = 0;
};

/// `link_msgs` weights the PDU mix (window deltas per link class);
/// `pending` sizes the engine replay's heap.
ReplayCosts replay_layers(World& w, const std::vector<std::uint64_t>& link_msgs,
                          std::uint64_t pending, std::uint64_t seed);

}  // namespace wholerun
