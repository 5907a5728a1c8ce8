// ClusterVm — an MmeHost that sits *behind* a front-end load balancer:
// SCALE's MMP (core::MmpNode), the SIMPLE baseline's VM and the dMME node
// derive from it.
//
// All standard-interface I/O is tunneled through the LB (the paper's MLB
// "maintains standard compliant interactions with the other components...
// and hence acts as an MME to them", §5): replies leave as ClusterReply
// envelopes, inbound requests arrive as ClusterForward. The VM also emits
// periodic LoadReports — the only per-VM metadata the LB keeps (§4.6) —
// and pushes, applies and deletes context replicas. Subclasses override
// the MmeApp::Host callbacks (after_procedure, on_idle, before_detach,
// paging_defer) directly for their replication policy.
#pragma once

#include <string>

#include "mme/mme_host.h"

namespace scale::mme {

class ClusterVm : public MmeHost {
 public:
  struct Config : MmeHost::Config {
    Duration load_report_interval = Duration::ms(100.0);
    /// Sampling of the utilization EWMA folded into load_score(). The
    /// advertised load can be no fresher than max(this, report interval) —
    /// steering quality at high per-VM rates is bounded by that staleness.
    Duration util_sample_interval = Duration::ms(100.0);
  };

  ClusterVm(epc::Fabric& fabric, Config cfg);

  std::uint8_t vm_code() const { return app_.config().vm_code; }

  /// Attach to the front-end LB; starts periodic LoadReports.
  void attach_lb(NodeId lb);
  NodeId lb() const { return lb_; }

  /// Stop periodic reporting/sampling (call before de-provisioning; the
  /// object must still outlive any in-flight simulation events).
  void retire();

  /// Crash: unregister from the fabric immediately (in-flight messages to
  /// this VM are dropped). The object stays alive for scheduled callbacks.
  void fail() { leave(); }

  /// Procedures completed here since construction, detaches excluded.
  std::uint64_t requests_handled() const;
  std::uint64_t replicas_pushed() const { return replicas_pushed_; }
  std::uint64_t replicas_applied() const { return replicas_applied_; }

  /// Per-VM counters; subclasses extend with their own.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const override;

  void receive(NodeId from, const proto::PduRef& pdu) override;

  // MmeApp::Host: every send leaves through the LB.
  void to_enb(NodeId enb, proto::S1apMessage msg) override;
  void to_sgw(const UeContext& ctx, proto::S11Message msg) override;
  void to_hss(proto::S6Message msg) override;

 protected:
  /// Handle an inbound ClusterForward `fwd`, the message `pdu` holds (its
  /// inner PDU is never null); the default dispatches the inner PDU to the
  /// MmeApp. SCALE's MMP overrides it to forward-to-master (relaying `pdu`
  /// itself) and geo-offload first. `no_offload` disables re-offloading
  /// (loop guard).
  virtual void handle_forward(NodeId from, const proto::PduRef& pdu,
                              const proto::ClusterForward& fwd);

  /// Cluster messages other than Forward/ReplicaPush/StateTransfer land
  /// here (geo protocol in the MMP subclass).
  virtual void handle_other_cluster(NodeId from,
                                    const proto::ClusterMessage& msg);

  /// Role to store an incoming replica under (SIMPLE: always Replica;
  /// SCALE: decided by the hash ring / home DC).
  virtual ContextRole classify_replica(const proto::UeContextRecord& rec);

  /// Load figure advertised in LoadReports. The MMP overrides it to fold in
  /// the overload governor's pressure band so the MLB steers away early.
  virtual double load_score() const;

  /// Send a standard-interface PDU out through the LB.
  void send_via_lb(NodeId target, proto::PduRef inner);
  /// Send a cluster message directly to another VM.
  void send_direct(NodeId target, proto::ClusterMessage msg);
  /// Push a context replica to `target` (ClusterMessage over the fabric),
  /// charging the master-side CPU cost.
  void push_replica(NodeId target, const proto::UeContextRecord& rec,
                    bool geo);

 private:
  void report_load();

  Config cfg_;
  NodeId lb_ = 0;
  bool reporting_ = false;
  bool retired_ = false;
  std::uint64_t replicas_pushed_ = 0;
  std::uint64_t replicas_applied_ = 0;
};

}  // namespace scale::mme
