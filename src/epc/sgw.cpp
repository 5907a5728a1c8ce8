#include "epc/sgw.h"

#include "common/logging.h"

namespace scale::epc {

namespace {
/// CPU service time of a session create/delete and a bearer modify/release.
constexpr Duration kSessionServiceTime = Duration::us(100);
constexpr Duration kBearerServiceTime = Duration::us(70);
}  // namespace

Sgw::Sgw(Fabric& fabric)
    : Endpoint(fabric), rel_(fabric, node()), cpu_(fabric.engine()) {}

void Sgw::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  const auto* s11 = std::get_if<proto::S11Message>(&(*app)->value);
  if (s11 == nullptr) {
    SCALE_WARN("S-GW received non-S11 PDU: "
               << proto::pdu_name((*app)->value));
    return;
  }
  handle_s11(from, *s11);
}

void Sgw::handle_s11(NodeId from, const proto::S11Message& msg) {
  std::visit(
      [this, from](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::CreateSessionRequest>) {
          cpu_.execute(kSessionServiceTime, [this, from, m]() {
            const proto::Teid teid{next_teid_++};
            sessions_[teid.raw] =
                Session{m.imsi, m.mme_teid, from, 0, false};
            proto::CreateSessionResponse resp;
            resp.mme_teid = m.mme_teid;
            resp.sgw_teid = teid;
            rel_.send(from, proto::box(resp));
          });
        } else if constexpr (std::is_same_v<T, proto::ModifyBearerRequest>) {
          cpu_.execute(kBearerServiceTime, [this, from, m]() {
            if (Session* session = sessions_.find(m.sgw_teid.raw)) {
              session->enb_id = m.enb_id;
              session->bearer_active = true;
              session->mme_teid = m.mme_teid;
            }
            proto::ModifyBearerResponse resp;
            resp.mme_teid = m.mme_teid;
            rel_.send(from, proto::box(resp));
          });
        } else if constexpr (std::is_same_v<T,
                                            proto::ReleaseAccessBearersRequest>) {
          cpu_.execute(kBearerServiceTime, [this, from, m]() {
            if (Session* session = sessions_.find(m.sgw_teid.raw))
              session->bearer_active = false;
            proto::ReleaseAccessBearersResponse resp;
            resp.mme_teid = m.mme_teid;
            rel_.send(from, proto::box(resp));
          });
        } else if constexpr (std::is_same_v<T, proto::DeleteSessionRequest>) {
          cpu_.execute(kSessionServiceTime, [this, from, m]() {
            sessions_.erase(m.sgw_teid.raw);
            proto::DeleteSessionResponse resp;
            resp.mme_teid = m.mme_teid;
            rel_.send(from, proto::box(resp));
          });
        } else if constexpr (std::is_same_v<T,
                                            proto::DownlinkDataNotificationAck>) {
          // Nothing further; paging is in flight on the MME side.
        } else {
          SCALE_WARN("S-GW: unexpected S11 message");
        }
      },
      msg);
}

bool Sgw::inject_downlink_data(proto::Teid sgw_teid) {
  const Session* session = sessions_.find(sgw_teid.raw);
  if (session == nullptr) return false;
  if (session->bearer_active) return true;  // delivered directly; no paging
  // Capture by value: the session may be deleted before the CPU slice runs.
  const proto::Teid mme_teid = session->mme_teid;
  const NodeId control_node = session->control_node;
  cpu_.execute(kBearerServiceTime, [this, mme_teid, control_node]() {
    proto::DownlinkDataNotification ddn;
    ddn.mme_teid = mme_teid;
    ++ddn_sent_;
    rel_.send(control_node, proto::box(ddn));
  });
  return true;
}

proto::Teid Sgw::teid_for(proto::Imsi imsi) const {
  std::uint32_t newest = 0;  // TEID 0 is never issued
  // lint: order-independent — a max over the IMSI's sessions.
  sessions_.for_each([&](std::uint32_t teid, const Session& session) {
    if (session.imsi == imsi && teid > newest) newest = teid;
  });
  return proto::Teid{newest};
}

}  // namespace scale::epc
