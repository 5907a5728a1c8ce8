// FrontEnd — the load-balancer front end every multi-VM MME design here
// shares: SCALE's MLB (core/mlb.h), the SIMPLE LB (mme/simple.h) and the
// dMME LB (mme/dmme.h). It "acts as an MME" to the eNodeBs, S-GW and HSS
// (§5) and relays between them and the processing VMs:
//
//   * Initial UE messages: the device's GUTI is resolved first — an attach
//     keeps an old GUTI of this pool or is assigned a new one here (§4.3.1),
//     a service request names it by S-TMSI, TAU and detach carry it — then
//     the subclass's pick() chooses the VM. This Idle→Active pick is the
//     only thing the three designs do differently;
//   * Active-mode S1AP (uplink NAS, path switch, context setup/release) and
//     every S11 message: routed on the VM code the serving VM embedded in
//     the S1AP MME-UE id or the S11 TEID;
//   * S6 answers: routed on the echoed Diameter hop-by-hop ref;
//   * ClusterReply envelopes from the VMs relay out of the standard
//     interfaces; every other cluster message goes to on_cluster().
//
// Traffic rides the endpoint's ReliableChannel, so a front end works with
// the transport shim on or off.
#pragma once

#include <array>
#include <cstdint>

#include "epc/fabric.h"
#include "epc/reliable.h"
#include "proto/pdu.h"
#include "sim/cpu.h"

namespace scale::mme {

using sim::NodeId;

class FrontEnd : public epc::Endpoint {
 public:
  /// `identity` is the logical MME the eNodeBs see (PLMN, group, code); its
  /// m_tmsi is the first M-TMSI this front end assigns. `route_cost` is the
  /// CPU charged per Initial UE message, before the GUTI and the pick.
  FrontEnd(epc::Fabric& fabric, const proto::Guti& identity,
           double cpu_speed, Duration route_cost);
  std::uint8_t mme_code() const { return next_guti_.mme_code; }
  sim::CpuModel& cpu() { return cpu_; }
  const epc::ReliableChannel& transport() const { return rel_; }

  void receive(NodeId from, const proto::PduRef& pdu) final;

  // Statistics.
  std::uint64_t initial_routed() const { return initial_routed_; }
  std::uint64_t sticky_routed() const { return sticky_routed_; }
  std::uint64_t relays() const { return relays_; }

 protected:
  /// CPU charged per relayed message.
  static constexpr Duration kRelayCost = Duration::us(20);

  /// The VM that serves this Idle→Active request from eNodeB `enb`, or 0
  /// when none can (counted unroutable).
  virtual NodeId pick(NodeId enb, const proto::Guti& guti) = 0;
  /// Every cluster message other than a ClusterReply: `msg` is the message
  /// `pdu` holds. Default: ignored.
  virtual void on_cluster(NodeId from, const proto::PduRef& pdu,
                          const proto::ClusterMessage& msg);

  /// Send `inner` to VM `vm` wrapped in a ClusterForward (the box itself,
  /// not a copy).
  void forward(NodeId vm, NodeId origin, const proto::Guti& guti,
               proto::PduRef inner, bool no_offload = false);

  epc::ReliableChannel rel_;
  sim::CpuModel cpu_;
  /// VM code (embedded in MME-UE ids and TEIDs) → VM node; 0 = unknown.
  std::array<NodeId, 256> code_to_node_{};
  std::uint64_t unroutable_ = 0;

 private:
  /// `pdu` holds an InitialUeMessage.
  void route_initial(NodeId from, proto::PduRef pdu);
  void route_by_code(NodeId from, std::uint8_t code, proto::PduRef pdu);

  Duration route_cost_;
  /// Identity of the next GUTI to assign; m_tmsi counts up.
  proto::Guti next_guti_;
  std::uint64_t initial_routed_ = 0;
  std::uint64_t sticky_routed_ = 0;
  std::uint64_t relays_ = 0;
};

}  // namespace scale::mme
