// MmeNode — a classic standalone 3GPP MME server (the "current systems"
// baseline of §3.1): an MmeHost whose sends go straight to the eNodeB, S-GW
// and HSS. Implements the 3GPP-style *reactive* overload protection the
// paper measures in Figs. 2(b,c) and 8:
//
//   when CPU load exceeds a threshold, the MME picks devices and (a) sends
//   them a UeContextReleaseCommand with cause "load balancing TAU required"
//   so they re-initiate their connection toward another pool member, and
//   (b) transfers their state to a peer MME — both of which burn extra CPU
//   and signaling on BOTH MMEs ("the additional signaling causes high
//   delays and further increase in load").
#pragma once

#include <string>
#include <vector>

#include "epc/parking_lot.h"
#include "mme/mme_host.h"

namespace scale::mme {

class MmeNode : public MmeHost {
 public:
  struct Config : MmeHost::Config {
    double weight = 1.0;  ///< eNodeB selection weight (relative capacity)

    // Reactive overload protection (off by default; the pool enables it):
    // every 200 ms an MME past the threshold sheds up to 8 Active devices.
    bool overload_protection = false;
    double overload_threshold = 0.9;
  };

  MmeNode(epc::Fabric& fabric, Config cfg);

  std::uint8_t mme_code() const { return cfg_.app.mme_code; }
  double weight() const { return cfg_.weight; }

  /// Peers for reactive reassignment (state-transfer targets).
  void add_peer(MmeNode* peer);

  /// Turn reactive overload protection on at runtime, or retune its
  /// threshold when it is already on. Starts the overload tick once.
  void enable_overload(double threshold);

  void receive(NodeId from, const proto::PduRef& pdu) override;

  std::uint64_t devices_shed() const { return devices_shed_; }
  std::uint64_t transfers_received() const { return transfers_received_; }

  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const override;

  // MmeApp::Host: direct sends, and the reactive shedding gate.
  void to_enb(NodeId enb, proto::S1apMessage msg) override;
  void to_sgw(const UeContext& ctx, proto::S11Message msg) override;
  void to_hss(proto::S6Message msg) override;
  bool admit(NodeId enb, const proto::InitialUeMessage& msg,
             UeContext* existing) override;

 protected:
  void on_state_adopted(UeContext& ctx) override;

 private:
  void overload_tick();
  /// The least-loaded peer, when this node is past the threshold and that
  /// peer is not; nullptr otherwise.
  MmeNode* shed_target();
  void shed_context(UeContext& ctx, MmeNode& peer, NodeId enb,
                    proto::EnbUeId enb_ue_id);

  /// A shed waiting for its state_transfer_tx CPU slice.
  struct Shed {
    proto::UeContextRecord rec;  ///< the transferred (deactivated) state
    NodeId peer = 0;
    NodeId enb = 0;
    proto::EnbUeId enb_ue_id = 0;
  };

  Config cfg_;
  epc::ParkingLot<Shed> sheds_;
  std::vector<MmeNode*> peers_;
  bool ticking_ = false;
  std::uint64_t devices_shed_ = 0;
  std::uint64_t transfers_received_ = 0;
};

}  // namespace scale::mme
