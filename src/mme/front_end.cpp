#include "mme/front_end.h"

#include "common/logging.h"

namespace scale::mme {

FrontEnd::FrontEnd(epc::Fabric& fabric, const proto::Guti& identity,
                   double cpu_speed, Duration route_cost)
    : Endpoint(fabric), rel_(fabric, node()),
      cpu_(fabric.engine(), cpu_speed), route_cost_(route_cost),
      next_guti_(identity) {}

void FrontEnd::on_cluster(NodeId from, const proto::PduRef& pdu,
                          const proto::ClusterMessage& msg) {
  (void)from;
  (void)pdu;
  SCALE_DEBUG("front end ignoring " << proto::cluster_name(msg));
}

void FrontEnd::forward(NodeId vm, NodeId origin, const proto::Guti& guti,
                       proto::PduRef inner, bool no_offload) {
  proto::ClusterForward fwd;
  fwd.origin = origin;
  fwd.guti = guti;
  fwd.no_offload = no_offload;
  fwd.inner = std::move(inner);
  rel_.send(vm, proto::box(std::move(fwd)));
}

void FrontEnd::route_initial(NodeId from, proto::PduRef pdu) {
  const auto& msg = proto::message<proto::InitialUeMessage>(pdu);
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
  forward(vm, from, guti, std::move(pdu));
}

void FrontEnd::route_by_code(NodeId from, std::uint8_t code,
                             proto::PduRef pdu) {
  const NodeId vm = code_to_node_[code];
  if (vm == 0) {
    ++unroutable_;
    SCALE_DEBUG("front end cannot route code " << static_cast<int>(code));
    return;
  }
  ++sticky_routed_;
  forward(vm, from, proto::Guti{}, std::move(pdu));
}

void FrontEnd::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  // Every relay below holds the received box and forwards it as is.
  std::visit(
      [this, from, &ref = *app](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, proto::S1apMessage>) {
          if (std::holds_alternative<proto::InitialUeMessage>(family)) {
            cpu_.execute(route_cost_, [this, from, ref]() mutable {
              route_initial(from, std::move(ref));
            });
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
          cpu_.execute(kRelayCost, [this, from, code, ref]() mutable {
            route_by_code(from, code, std::move(ref));
          });
        } else if constexpr (std::is_same_v<T, proto::S11Message>) {
          std::uint8_t code = 0;
          std::visit(
              [&code](const auto& m) {
                if constexpr (requires { m.mme_teid; })
                  code = m.mme_teid.owner_id();
              },
              family);
          cpu_.execute(kRelayCost, [this, from, code, ref]() mutable {
            route_by_code(from, code, std::move(ref));
          });
        } else if constexpr (std::is_same_v<T, proto::S6Message>) {
          std::uint32_t hop = 0;
          if (const auto* a = std::get_if<proto::AuthInfoAnswer>(&family))
            hop = a->hop_ref;
          else if (const auto* u =
                       std::get_if<proto::UpdateLocationAnswer>(&family))
            hop = u->hop_ref;
          cpu_.execute(kRelayCost, [this, from, hop, ref]() mutable {
            // hop_ref is the VM's NodeId (Diameter hop-by-hop echo).
            if (hop == 0 || !fabric_.is_registered(hop)) {
              ++unroutable_;
              return;
            }
            ++relays_;
            forward(hop, from, proto::Guti{}, std::move(ref));
          });
        } else if constexpr (std::is_same_v<T, proto::ClusterMessage>) {
          if (const auto* reply = std::get_if<proto::ClusterReply>(&family)) {
            SCALE_CHECK(reply->inner != nullptr);
            const NodeId target = reply->target;
            cpu_.execute(kRelayCost,
                         [this, target, inner = reply->inner]() mutable {
                           ++relays_;
                           rel_.send(target, std::move(inner));
                         });
          } else {
            on_cluster(from, ref, family);
          }
        }
      },
      (*app)->value);
}

}  // namespace scale::mme
