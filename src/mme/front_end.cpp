#include "mme/front_end.h"

#include "common/logging.h"

namespace scale::mme {

FrontEnd::FrontEnd(epc::Fabric& fabric, const proto::Guti& identity,
                   double cpu_speed, Duration route_cost)
    : Endpoint(fabric), rel_(fabric, node()),
      cpu_(fabric.engine(), cpu_speed), route_cost_(route_cost),
      next_guti_(identity) {}

void FrontEnd::on_cluster(NodeId from, const proto::ClusterMessage& msg) {
  (void)from;
  SCALE_DEBUG("front end ignoring " << proto::cluster_name(msg));
}

void FrontEnd::forward(NodeId vm, NodeId origin, const proto::Guti& guti,
                       proto::Pdu inner, bool no_offload) {
  proto::ClusterForward fwd;
  fwd.origin = origin;
  fwd.guti = guti;
  fwd.no_offload = no_offload;
  fwd.inner = proto::box(std::move(inner));
  rel_.send(vm, proto::pdu_of(proto::ClusterMessage{std::move(fwd)}));
}

void FrontEnd::route_initial(NodeId from, const proto::InitialUeMessage& msg) {
  proto::Guti guti;
  if (const auto* a = std::get_if<proto::NasAttachRequest>(&msg.nas)) {
    // "In case of a request from an unregistered device, the MLB first
    // assigns it a GUTI before routing its request" (§4.3.1). A GUTI of this
    // pool (same group and code) is kept.
    if (a->old_guti && a->old_guti->mme_group == next_guti_.mme_group &&
        a->old_guti->mme_code == next_guti_.mme_code) {
      guti = *a->old_guti;
    } else {
      guti = next_guti_;
      ++next_guti_.m_tmsi;
    }
  } else if (const auto* s = std::get_if<proto::NasServiceRequest>(&msg.nas)) {
    guti = proto::Guti{next_guti_.plmn, next_guti_.mme_group, s->mme_code,
                       s->m_tmsi};
  } else if (const auto* t = std::get_if<proto::NasTauRequest>(&msg.nas)) {
    guti = t->guti;
  } else if (const auto* d = std::get_if<proto::NasDetachRequest>(&msg.nas)) {
    guti = d->guti;
  } else {
    ++unroutable_;
    return;
  }
  const NodeId vm = pick(from, guti);
  if (vm == 0) {
    ++unroutable_;
    return;
  }
  ++initial_routed_;
  forward(vm, from, guti, proto::make_pdu(msg));
}

void FrontEnd::route_by_code(NodeId from, std::uint8_t code,
                             const proto::Pdu& pdu) {
  const NodeId vm = code_to_node_[code];
  if (vm == 0) {
    ++unroutable_;
    SCALE_DEBUG("front end cannot route code " << static_cast<int>(code));
    return;
  }
  ++sticky_routed_;
  forward(vm, from, proto::Guti{}, pdu);
}

void FrontEnd::receive(NodeId from, const proto::Pdu& pdu) {
  const proto::Pdu* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  std::visit(
      [this, from](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, proto::S1apMessage>) {
          if (const auto* init =
                  std::get_if<proto::InitialUeMessage>(&family)) {
            const proto::InitialUeMessage msg = *init;
            cpu_.execute(route_cost_,
                         [this, from, msg]() { route_initial(from, msg); });
            return;
          }
          std::uint8_t code = 0;
          if (const auto* u = std::get_if<proto::UplinkNasTransport>(&family))
            code = u->mme_ue_id.mmp_id();
          else if (const auto* p =
                       std::get_if<proto::PathSwitchRequest>(&family))
            code = p->mme_ue_id.mmp_id();
          else if (const auto* r =
                       std::get_if<proto::InitialContextSetupResponse>(
                           &family))
            code = r->mme_ue_id.mmp_id();
          else if (const auto* c =
                       std::get_if<proto::UeContextReleaseComplete>(&family))
            code = c->mme_ue_id.mmp_id();
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, code, copy]() {
            route_by_code(from, code, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::S11Message>) {
          std::uint8_t code = 0;
          std::visit(
              [&code](const auto& m) {
                if constexpr (requires { m.mme_teid; })
                  code = m.mme_teid.owner_id();
              },
              family);
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, code, copy]() {
            route_by_code(from, code, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::S6Message>) {
          std::uint32_t hop = 0;
          if (const auto* a = std::get_if<proto::AuthInfoAnswer>(&family))
            hop = a->hop_ref;
          else if (const auto* u =
                       std::get_if<proto::UpdateLocationAnswer>(&family))
            hop = u->hop_ref;
          const proto::Pdu copy{family};
          cpu_.execute(kRelayCost, [this, from, hop, copy]() {
            // hop_ref is the VM's NodeId (Diameter hop-by-hop echo).
            if (hop == 0 || !fabric_.is_registered(hop)) {
              ++unroutable_;
              return;
            }
            ++relays_;
            forward(hop, from, proto::Guti{}, copy);
          });
        } else if constexpr (std::is_same_v<T, proto::ClusterMessage>) {
          if (const auto* reply = std::get_if<proto::ClusterReply>(&family)) {
            SCALE_CHECK(reply->inner != nullptr);
            const NodeId target = reply->target;
            const proto::PduRef inner = reply->inner;
            cpu_.execute(kRelayCost, [this, target, inner]() {
              ++relays_;
              rel_.send(target, inner->value);
            });
          } else {
            on_cluster(from, family);
          }
        }
      },
      *app);
}

}  // namespace scale::mme
