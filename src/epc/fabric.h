// Fabric: the wiring between control-plane entities.
//
// Every addressable entity (eNodeB, MLB, MMP, classic MME, S-GW, HSS)
// registers as an Endpoint and gets a NodeId. `send` applies the Network's
// propagation delay and byte accounting, then delivers the PDU. Delivery to
// an unregistered node (e.g. an MMP VM that was just de-provisioned) is
// counted and dropped — exactly what a closed TCP/SCTP association does.
//
// UEs are deliberately *not* fabric endpoints: they talk to their eNodeB
// over the radio interface, modeled as a fixed delay inside EnodeB/Ue. This
// keeps the routing table at the size of the infrastructure, not the
// subscriber population.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proto/pdu.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::epc {

using sim::NodeId;

/// Parameters of the SCTP-like reliability shim (epc/reliable.h). Stored on
/// the fabric so every endpoint constructed against it picks up the same
/// policy without threading the knobs through each entity's Config. With
/// `reliable == false` (the default) the shim is pass-through: sends go out
/// unwrapped and the clean-path wire format is byte-identical to a build
/// without the shim.
struct TransportConfig {
  bool reliable = false;
  Duration rto_initial = Duration::ms(250.0);  ///< first retransmit timeout
  double rto_backoff = 2.0;                    ///< exponential backoff factor
  Duration rto_max = Duration::ms(4000.0);     ///< backoff cap
  std::uint32_t max_retransmits = 8;           ///< then the send is abandoned

  /// Worst-case span between first transmission and abandonment: the sum of
  /// every (capped) RTO the shim would wait through. Timers an overload
  /// governor stretches (e.g. deferred paging) must stay inside this window
  /// or the deferred message could outlive its own retransmissions.
  [[nodiscard]] Duration retry_horizon() const {
    Duration horizon = Duration::zero();
    Duration rto = rto_initial;
    for (std::uint32_t i = 0; i < max_retransmits; ++i) {
      horizon = horizon + rto;
      rto = rto * rto_backoff;
      if (rto > rto_max) rto = rto_max;
    }
    return horizon;
  }
};

class Fabric;

/// An addressable entity. Construction registers it with the fabric, which
/// assigns node(); destruction (or an earlier leave()) unregisters it. The
/// fabric holds the object's address meanwhile, so it is not copyable.
class Endpoint {
 public:
  explicit Endpoint(Fabric& fabric);
  virtual ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  NodeId node() const { return node_; }

  /// Handle a PDU delivered from `from`. The box is shared with the sender
  /// and every other holder: keep or forward the PduRef itself (a relay
  /// wraps it into its envelope as is) instead of copying the message.
  /// Implementations must not assume sender honesty beyond what the codecs
  /// guarantee.
  virtual void receive(NodeId from, const proto::PduRef& pdu) = 0;

 protected:
  /// Unregister now (a crash): PDUs in flight to node() are dropped. The
  /// object stays alive for callbacks already scheduled. Idempotent.
  void leave();
  bool registered() const { return registered_; }

  Fabric& fabric_;

 private:
  NodeId node_;
  bool registered_ = true;
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, sim::Network& network);

  bool is_registered(NodeId id) const;

  /// Send a boxed PDU from -> to with network delay + accounting (the box's
  /// memoised wire_bytes). When the network's FaultPlane is enabled the PDU
  /// may be dropped, duplicated (the same box delivered twice), or delayed
  /// according to the fault verdict for this link.
  void send(NodeId from, NodeId to, proto::PduRef pdu);

  /// Reliability-shim policy; endpoints snapshot this at construction, so
  /// set it before building the world.
  void set_transport(const TransportConfig& cfg) { transport_ = cfg; }
  const TransportConfig& transport() const { return transport_; }

  std::uint64_t dropped() const { return dropped_; }
  /// Always 0: every delivery is scheduled at or after now(). Kept for the
  /// WholeRun layer split and fig10's `fabric.late_arrivals` JSON counter.
  std::uint64_t late_arrivals() const { return 0; }

  /// Batched-delivery counters: engine events scheduled for delivery, and
  /// PDUs that rode an already-scheduled batch instead of a fresh event.
  std::uint64_t delivery_batches() const { return batches_; }
  std::uint64_t batched_pdus() const { return batched_pdus_; }

  /// Zero the dead-endpoint drop counter together with the network's
  /// transfer + fault counters (one measurement window, one reset).
  void reset_counters();

  /// Publish fabric-level counters under `prefix` ("fabric.dead_drops",
  /// "fabric.endpoints"). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

  sim::Engine& engine() { return engine_; }

 private:
  friend class Endpoint;  // the only caller of the two below

  /// Register an endpoint; returns its NodeId.
  NodeId add_endpoint(Endpoint* ep);
  /// Remove an endpoint (in-flight messages to it will be dropped).
  void remove_endpoint(NodeId id);

  /// One engine event's worth of same-destination, same-timestamp
  /// deliveries (pooled; items keep their capacity across reuse).
  struct DeliveryBatch {
    std::vector<std::pair<NodeId, proto::PduRef>> items;
  };
  /// Items a new batch reserves room for.
  static constexpr std::size_t kBatchReserve = 2;

  /// Schedule (or fold into the open batch) one delivery, post fault verdict.
  void deliver(NodeId from, NodeId to, proto::PduRef pdu, Duration latency);
  DeliveryBatch* alloc_batch();
  void drain_batch(NodeId to, DeliveryBatch* b);

  sim::Engine& engine_;
  sim::Network& network_;
  /// Registered endpoints indexed by NodeId; nullptr for id 0 (never
  /// assigned) and for ids that left. Ids are never reused, so the table
  /// grows by one slot per endpoint ever built.
  std::vector<Endpoint*> endpoints_;
  std::size_t live_endpoints_ = 0;
  std::uint64_t dropped_ = 0;
  TransportConfig transport_;

  // Batched delivery (DESIGN.md §12): the open batch accepts appends only
  // while (to, at) match AND no other event has been scheduled since the
  // batch event itself — the appended PDUs would have held consecutive
  // seqs, so folding them into one event preserves every relative
  // (time, seq) ordering and the determinism fingerprint.
  DeliveryBatch* open_batch_ = nullptr;
  NodeId open_to_ = 0;
  std::int64_t open_at_us_ = 0;
  std::uint64_t open_sched_count_ = 0;
  std::vector<std::unique_ptr<DeliveryBatch>> batch_pool_;
  std::vector<DeliveryBatch*> batch_free_;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_pdus_ = 0;
};

}  // namespace scale::epc
