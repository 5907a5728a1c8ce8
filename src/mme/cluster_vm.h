// ClusterVm — shared machinery for a processing VM that sits *behind* a
// front-end load balancer: SCALE's MMP (core::MmpNode) and the SIMPLE
// baseline's VM both derive from it.
//
// All standard-interface I/O is tunneled through the LB (the paper's MLB
// "maintains standard compliant interactions with the other components...
// and hence acts as an MME to them", §5): replies leave as ClusterReply
// envelopes, inbound requests arrive as ClusterForward. The VM also emits
// periodic LoadReports — the only per-VM metadata the LB keeps (§4.6).
#pragma once

#include <memory>
#include <string>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "mme/mme_app.h"
#include "sim/metrics.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::mme {

class ClusterVm : public epc::Endpoint {
 public:
  struct Config {
    MmeApp::Config app;
    NodeId sgw = 0;
    NodeId hss = 0;
    double cpu_speed = 1.0;
    Duration load_report_interval = Duration::ms(100.0);
    /// Sampling of the utilization EWMA folded into load_score(). The
    /// advertised load can be no fresher than max(this, report interval) —
    /// steering quality at high per-VM rates is bounded by that staleness.
    Duration util_sample_interval = Duration::ms(100.0);
  };

  ClusterVm(epc::Fabric& fabric, Config cfg);
  ~ClusterVm() override;

  NodeId node() const { return node_; }
  std::uint8_t vm_code() const { return app_.config().vm_code; }
  sim::CpuModel& cpu() { return cpu_; }
  MmeApp& app() { return app_; }
  const MmeApp& app() const { return app_; }
  double utilization() const { return util_.utilization(); }

  /// Attach to the front-end LB; starts periodic LoadReports.
  void attach_lb(NodeId lb);
  NodeId lb() const { return lb_; }

  /// eNodeB set per tracking area (paging fan-out).
  void set_paging_enbs(std::function<std::vector<NodeId>(proto::Tac)>&& fn) {
    paging_fn_ = std::move(fn);
  }

  /// Stop periodic reporting/sampling (call before de-provisioning; the
  /// object must still outlive any in-flight simulation events).
  void retire();

  /// Crash: unregister from the fabric immediately (in-flight messages to
  /// this VM are dropped). The object stays alive for scheduled callbacks.
  void fail();

  /// Number of requests (initial procedures) handled since construction.
  std::uint64_t requests_handled() const { return requests_handled_; }
  std::uint64_t replicas_pushed() const { return replicas_pushed_; }
  std::uint64_t replicas_applied() const { return replicas_applied_; }
  const epc::ReliableChannel& transport() const { return rel_; }

  /// Publish per-VM counters under `prefix` (e.g. "mmp.3."). Subclasses
  /// extend with their own counters. Read-only.
  virtual void export_metrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const;

  void receive(NodeId from, const proto::Pdu& pdu) override;

 protected:
  /// Handle an inbound ClusterForward; the default dispatches the inner
  /// PDU to the MmeApp. SCALE's MMP overrides it to forward-to-master and
  /// geo-offload first. `no_offload` disables re-offloading (loop guard).
  virtual void handle_forward(NodeId from, const proto::ClusterForward& fwd);

  /// Cluster messages other than Forward/ReplicaPush/StateTransfer land
  /// here (geo protocol in the MMP subclass).
  virtual void handle_other_cluster(NodeId from,
                                    const proto::ClusterMessage& msg);

  /// Role to store an incoming replica under (SIMPLE: always Replica;
  /// SCALE: decided by the hash ring / home DC).
  virtual ContextRole classify_replica(const proto::UeContextRecord& rec);

  /// Replication trigger points (templates call these).
  virtual void on_procedure_done(UeContext& ctx, proto::ProcedureType type);
  virtual void on_idle_transition(UeContext& ctx);
  virtual void on_detach(UeContext& ctx);
  /// Called after a StateTransfer installs a context (ring migration /
  /// reassignment). SCALE's MMP re-establishes the replica from here.
  virtual void on_state_adopted(UeContext& ctx);

  /// Load figure advertised in LoadReports. The MMP overrides it to fold in
  /// the overload governor's pressure band so the MLB steers away early.
  virtual double load_score() const;

  /// Extra delay to apply before paging fan-out (zero = page immediately).
  /// The MMP overrides it to stretch paging under overload pressure.
  virtual Duration paging_defer_hint() const { return Duration::zero(); }

  /// Send a standard-interface PDU out through the LB.
  void send_via_lb(NodeId target, proto::Pdu inner);
  /// Send a cluster message directly to another VM.
  void send_direct(NodeId target, proto::ClusterMessage msg);
  /// Push a context replica to `target` (ClusterMessage over the fabric),
  /// charging the master-side CPU cost.
  void push_replica(NodeId target, const proto::UeContextRecord& rec,
                    bool geo);

  void dispatch_inner(NodeId origin, const proto::Pdu& inner,
                      const proto::Guti* guti_hint);

  epc::Fabric& fabric_;
  Config cfg_;
  NodeId node_;
  epc::ReliableChannel rel_;
  sim::CpuModel cpu_;
  sim::UtilizationTracker util_;
  std::function<std::vector<NodeId>(proto::Tac)> paging_fn_;
  MmeApp app_;
  NodeId lb_ = 0;
  bool reporting_ = false;
  bool retired_ = false;
  bool failed_ = false;
  std::uint64_t requests_handled_ = 0;
  std::uint64_t replicas_pushed_ = 0;
  std::uint64_t replicas_applied_ = 0;

 private:
  void report_load();
};

}  // namespace scale::mme
