// MmeNode — a classic standalone 3GPP MME server (the "current systems"
// baseline of §3.1). Terminates S1AP/S11/S6 directly on the fabric and runs
// the shared MmeApp. Implements the 3GPP-style *reactive* overload
// protection the paper measures in Figs. 2(b,c) and 8:
//
//   when CPU load exceeds a threshold, the MME picks devices and (a) sends
//   them a UeContextReleaseCommand with cause "load balancing TAU required"
//   so they re-initiate their connection toward another pool member, and
//   (b) transfers their state to a peer MME — both of which burn extra CPU
//   and signaling on BOTH MMEs ("the additional signaling causes high
//   delays and further increase in load").
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "mme/mme_app.h"
#include "sim/metrics.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::mme {

class MmeNode : public epc::Endpoint {
 public:
  struct Config {
    MmeApp::Config app;
    sim::NodeId sgw = 0;
    sim::NodeId hss = 0;
    double cpu_speed = 1.0;
    double weight = 1.0;  ///< eNodeB selection weight (relative capacity)

    // Reactive overload protection (off by default; the pool enables it):
    // every 200 ms an MME past the threshold sheds up to 8 Active devices.
    bool overload_protection = false;
    double overload_threshold = 0.9;
  };

  MmeNode(epc::Fabric& fabric, Config cfg);
  ~MmeNode() override;

  NodeId node() const { return node_; }
  std::uint8_t mme_code() const { return cfg_.app.mme_code; }
  double weight() const { return cfg_.weight; }
  sim::CpuModel& cpu() { return cpu_; }
  MmeApp& app() { return app_; }
  const MmeApp& app() const { return app_; }
  double utilization() const { return util_.utilization(); }

  /// Peers for reactive reassignment (state-transfer targets).
  void add_peer(MmeNode* peer);

  /// Turn reactive overload protection on at runtime, or retune its
  /// threshold when it is already on. Starts the overload tick once.
  void enable_overload(double threshold);

  /// Provide the eNodeB set per tracking area (paging fan-out).
  void set_paging_enbs(std::function<std::vector<NodeId>(proto::Tac)>&& fn);

  void receive(NodeId from, const proto::Pdu& pdu) override;

  std::uint64_t devices_shed() const { return devices_shed_; }
  std::uint64_t transfers_received() const { return transfers_received_; }

  /// Publish per-MME counters under `prefix` (e.g. "mme.1."). Read-only.
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const;

 private:
  bool admission_gate(NodeId enb, const proto::InitialUeMessage& msg,
                      UeContext* existing);
  void overload_tick();
  MmeNode* least_loaded_peer();
  void shed_context(UeContext& ctx, MmeNode& peer, NodeId enb,
                    proto::EnbUeId enb_ue_id);

  epc::Fabric& fabric_;
  Config cfg_;
  NodeId node_;
  epc::ReliableChannel rel_;
  sim::CpuModel cpu_;
  sim::UtilizationTracker util_;
  std::function<std::vector<NodeId>(proto::Tac)> paging_fn_storage_;
  MmeApp app_;
  std::vector<MmeNode*> peers_;
  bool ticking_ = false;
  std::uint64_t devices_shed_ = 0;
  std::uint64_t transfers_received_ = 0;
};

}  // namespace scale::mme
