// MmeHost — the node an MmeApp runs on: the base of the classic MME
// (mme::MmeNode) and of every VM behind a front end (mme::ClusterVm), which
// run the same procedures (§4.1) with different plumbing. It owns what they
// share: the fabric registration, transport, CPU and utilization tracker,
// the MmeApp (whose MmeApp::Host it is), the eNodeB list it pages from, the
// S1AP/S11/S6 dispatch and the StateTransfer install. Subclasses implement
// the three sends and override the policy points they need (DESIGN.md §4).
#pragma once

#include <string>
#include <vector>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "mme/mme_app.h"
#include "sim/metrics.h"

namespace scale::epc {
class EnodeB;
}  // namespace scale::epc
namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::mme {

class MmeHost : public epc::Endpoint, public MmeApp::Host {
 public:
  struct Config {
    MmeApp::Config app;
    NodeId sgw = 0;  ///< recorded into new contexts for geo routing
    NodeId hss = 0;
    double cpu_speed = 1.0;
  };

  /// The tracker samples utilization every `util_sample_interval`.
  MmeHost(epc::Fabric& fabric, const Config& cfg,
          Duration util_sample_interval = Duration::ms(100.0));

  sim::CpuModel& cpu() { return cpu_; }
  MmeApp& app() { return app_; }
  const MmeApp& app() const { return app_; }
  double utilization() const { return util_.utilization(); }
  const epc::ReliableChannel& transport() const { return rel_; }

  /// Page from `enbs` (the pool's list; it must outlive this host): the
  /// ones serving the device's tracking area.
  void set_paging_enbs(const std::vector<epc::EnodeB*>& enbs) { enbs_ = &enbs; }
  std::vector<NodeId> paging_enbs(proto::Tac tac) const override;

  /// Publish the counters under `prefix` (e.g. "mme.1."). Read-only.
  virtual void export_metrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const;

 protected:
  /// Hand an S1AP, S11 or S6 message from `origin` to the app.
  /// `guti_hint`: the GUTI a front end resolved for it, if any.
  void dispatch(NodeId origin, const proto::Pdu& pdu,
                const proto::Guti* guti_hint = nullptr);
  /// Install the context a peer transferred here (`xfer` holds a
  /// StateTransfer): state_transfer_rx of CPU, adopt it as master,
  /// on_state_adopted(), then ack to `from`.
  void install_transfer(NodeId from, proto::PduRef xfer);
  /// Called after install_transfer() adopts a context.
  virtual void on_state_adopted(UeContext&) {}

  epc::ReliableChannel rel_;
  sim::CpuModel cpu_;
  sim::UtilizationTracker util_;
  MmeApp app_;

 private:
  const std::vector<epc::EnodeB*>* enbs_ = nullptr;
};

}  // namespace scale::mme
