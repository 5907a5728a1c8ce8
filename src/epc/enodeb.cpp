#include "epc/enodeb.h"

#include <algorithm>

#include "common/logging.h"
#include "epc/ue.h"

namespace scale::epc {

EnodeB::EnodeB(Fabric& fabric, Config cfg)
    : Endpoint(fabric), cfg_(cfg), rel_(fabric, node()), rng_(cfg.seed) {}

void EnodeB::add_mme(NodeId mme, std::uint8_t mme_code, double weight) {
  SCALE_CHECK(weight > 0.0);
  mmes_.push_back(MmeEntry{mme, mme_code, weight});
}

void EnodeB::remove_mme(NodeId mme) {
  std::erase_if(mmes_, [mme](const MmeEntry& e) { return e.node == mme; });
}

template <class Pred>
void EnodeB::collect_weights(Pred take) {
  weights_.clear();
  for (const auto& e : mmes_)
    if (take(e)) weights_.push_back(e.weight);
}

template <class Pred>
NodeId EnodeB::nth_member(std::size_t k, Pred take) const {
  for (const auto& e : mmes_)
    if (take(e) && k-- == 0) return e.node;
  return 0;
}

NodeId EnodeB::route_by_code(std::uint8_t code) {
  // Several pool members may expose the same MME code (e.g. multiple MLB
  // VMs fronting one logical MME, Figure 4 of the paper): weighted-pick
  // among them.
  const auto take = [code](const MmeEntry& e) { return e.code == code; };
  collect_weights(take);
  if (weights_.empty()) return 0;
  if (weights_.size() == 1) return nth_member(0, take);
  return nth_member(rng_.weighted_index(weights_), take);
}

NodeId EnodeB::weighted_pick(std::optional<NodeId> exclude) {
  const bool may_exclude = exclude.has_value() && mmes_.size() > 1;
  const auto take = [&](const MmeEntry& e) {
    return !(may_exclude && e.node == *exclude);
  };
  collect_weights(take);
  SCALE_CHECK_MSG(!weights_.empty(), "eNodeB has no connected MME");
  return nth_member(rng_.weighted_index(weights_), take);
}

NodeId EnodeB::select_mme(const proto::NasMessage& nas,
                          std::optional<NodeId> exclude) {
  // 3GPP static assignment (§3.1-1): registered devices follow the MME code
  // carried by their temporary identity; only unregistered devices are
  // weighted-selected. With exclusion (post-redirect re-attach), the GUTI
  // route is bypassed — the network told the device to go elsewhere.
  if (const auto* attach = std::get_if<proto::NasAttachRequest>(&nas)) {
    if (attach->old_guti && !exclude) {
      const NodeId n = route_by_code(attach->old_guti->mme_code);
      if (n != 0) return n;
    }
    return weighted_pick(exclude);
  }
  if (const auto* sr = std::get_if<proto::NasServiceRequest>(&nas)) {
    const NodeId n = route_by_code(sr->mme_code);
    if (n != 0) return n;
    return weighted_pick(exclude);
  }
  if (const auto* tau = std::get_if<proto::NasTauRequest>(&nas)) {
    const NodeId n = route_by_code(tau->guti.mme_code);
    if (n != 0) return n;
    return weighted_pick(exclude);
  }
  if (const auto* det = std::get_if<proto::NasDetachRequest>(&nas)) {
    const NodeId n = route_by_code(det->guti.mme_code);
    if (n != 0) return n;
    return weighted_pick(exclude);
  }
  return weighted_pick(exclude);
}

void EnodeB::ue_initial_nas(Ue& ue, proto::NasMessage nas,
                            std::optional<NodeId> exclude_mme) {
  // Radio leg UE -> eNB, then S1AP InitialUeMessage to the selected MME.
  const std::uint32_t parked =
      radio_.park(Uplink{std::move(nas), exclude_mme});
  fabric_.engine().after(cfg_.radio_delay, [this, &ue, parked]() {
    const Time now = fabric_.engine().now();
    if (now < mme_backoff_until_ && overload_pace_ > Duration::zero()) {
      // Core signalled OverloadStart: serialize initials onto a spaced
      // grid instead of releasing the herd at once (3GPP access-class
      // barring in spirit, deterministic in mechanism).
      Time slot = now + overload_pace_;
      if (next_paced_slot_ + overload_pace_ > slot)
        slot = next_paced_slot_ + overload_pace_;
      // Grid full (200 ms ahead): stop absorbing — the core's admission
      // control owns the excess, or a burst outlives the overload here.
      constexpr Duration kOverloadPaceHorizon = Duration::ms(200.0);
      if (slot - now <= kOverloadPaceHorizon) {
        next_paced_slot_ = slot;
        ++paced_initials_;
        fabric_.engine().after(slot - now, [this, &ue, parked]() {
          send_initial(ue, parked);
        });
        return;
      }
    }
    send_initial(ue, parked);
  });
}

void EnodeB::send_initial(Ue& ue, std::uint32_t parked) {
  Uplink up = radio_.take(parked);
  // Reuse an existing S1 connection if the UE still has one.
  drop_connection(ue);
  const proto::EnbUeId id = next_ue_id_++;
  const NodeId mme = select_mme(up.nas, up.exclude_mme);
  conns_[id] = Conn{&ue, mme, proto::MmeUeId{}, fabric_.engine().now()};
  ue.set_s1_conn(id);
  ensure_rrc_sweep();
  proto::InitialUeMessage msg;
  msg.enb_id = node();
  msg.enb_ue_id = id;
  msg.tac = cfg_.tac;
  msg.nas = std::move(up.nas);
  rel_.send(mme, proto::box(std::move(msg)));
}

void EnodeB::ue_uplink_nas(Ue& ue, proto::NasMessage nas) {
  const std::uint32_t parked = radio_.park(Uplink{std::move(nas), {}});
  fabric_.engine().after(cfg_.radio_delay, [this, &ue, parked]() {
    Uplink up = radio_.take(parked);
    Conn* conn = conns_.find(ue.s1_conn());
    if (conn == nullptr || conn->ue != &ue) {
      SCALE_DEBUG("uplink NAS without S1 connection, dropping");
      return;
    }
    conn->last_activity = fabric_.engine().now();
    proto::UplinkNasTransport msg;
    msg.enb_id = node();
    msg.enb_ue_id = ue.s1_conn();
    msg.mme_ue_id = conn->mme_ue_id;
    msg.nas = std::move(up.nas);
    rel_.send(conn->mme_node, proto::box(std::move(msg)));
  });
}

void EnodeB::ue_arrive_handover(Ue& ue) {
  fabric_.engine().after(cfg_.radio_delay, [this, &ue]() {
    const proto::EnbUeId id = next_ue_id_++;
    conns_[id] = Conn{&ue, ue.serving_mme(), ue.mme_ue_id(),
                      fabric_.engine().now()};
    ue.set_s1_conn(id);
    ensure_rrc_sweep();
    proto::PathSwitchRequest msg;
    msg.new_enb_id = node();
    msg.enb_ue_id = id;
    msg.mme_ue_id = ue.mme_ue_id();
    msg.tac = cfg_.tac;
    rel_.send(ue.serving_mme(), proto::box(msg));
  });
}

void EnodeB::camp(Ue& ue) {
  if (ue.guti()) camped_[ue.guti()->m_tmsi] = &ue;
}

void EnodeB::decamp(Ue& ue) {
  if (ue.guti()) {
    Ue* const* camped = camped_.find(ue.guti()->m_tmsi);
    if (camped != nullptr && *camped == &ue) camped_.erase(ue.guti()->m_tmsi);
  }
}

void EnodeB::drop_connection(Ue& ue) {
  const Conn* conn = conns_.find(ue.s1_conn());
  if (conn != nullptr && conn->ue == &ue) conns_.erase(ue.s1_conn());
}

void EnodeB::ensure_rrc_sweep() {
  if (cfg_.rrc_inactivity <= Duration::zero() || rrc_sweep_running_) return;
  rrc_sweep_running_ = true;
  fabric_.engine().after(cfg_.rrc_inactivity / 4, [this]() { rrc_sweep(); });
}

void EnodeB::rrc_sweep() {
  rrc_sweep_running_ = false;
  const Time now = fabric_.engine().now();
  std::vector<proto::EnbUeId> stale;
  // lint: order-independent — stale ids are sorted before any release fires.
  conns_.for_each([&](proto::EnbUeId id, const Conn& conn) {
    if (now - conn.last_activity >= cfg_.rrc_inactivity) stale.push_back(id);
  });
  // Release in ascending connection-id order: each release schedules an
  // event, so table order here would reshuffle event ids across runs.
  std::sort(stale.begin(), stale.end());
  for (proto::EnbUeId id : stale) {
    Ue& ue = *conns_.find(id)->ue;
    conns_.erase(id);
    ++rrc_releases_;
    fabric_.engine().after(cfg_.radio_delay, [&ue, this]() {
      ue.on_release(proto::ReleaseCause::kUserInactivity, 0);
    });
  }
  if (!conns_.empty()) ensure_rrc_sweep();
}

void EnodeB::to_ue(Ue& ue, proto::PduRef pdu) {
  fabric_.engine().after(cfg_.radio_delay, [&ue, pdu = std::move(pdu)]() {
    ue.deliver_nas(proto::message<proto::DownlinkNasTransport>(pdu).nas);
  });
}

void EnodeB::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  const auto* s1ap = std::get_if<proto::S1apMessage>(&(*app)->value);
  if (s1ap == nullptr) {
    SCALE_WARN("eNodeB received non-S1AP PDU: "
               << proto::pdu_name((*app)->value));
    return;
  }
  handle_s1ap(from, *app, *s1ap);
}

void EnodeB::handle_s1ap(NodeId from, const proto::PduRef& pdu,
                         const proto::S1apMessage& msg) {
  std::visit(
      [this, from, &pdu](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::DownlinkNasTransport>) {
          Conn* conn = conns_.find(m.enb_ue_id);
          if (conn == nullptr) {
            SCALE_DEBUG("downlink NAS for unknown connection");
            return;
          }
          conn->last_activity = fabric_.engine().now();
          conn->mme_ue_id = m.mme_ue_id;
          conn->ue->learn_serving_mme(conn->mme_node, m.mme_ue_id);
          Ue& ue = *conn->ue;
          // A TAU or Detach accept ends the transient signaling connection.
          const bool final_msg =
              std::holds_alternative<proto::NasTauAccept>(m.nas) ||
              std::holds_alternative<proto::NasDetachAccept>(m.nas);
          if (final_msg) conns_.erase(m.enb_ue_id);
          to_ue(ue, pdu);
        } else if constexpr (std::is_same_v<T,
                                            proto::InitialContextSetupRequest>) {
          Conn* conn = conns_.find(m.enb_ue_id);
          if (conn == nullptr) return;
          conn->mme_ue_id = m.mme_ue_id;
          conn->ue->learn_serving_mme(conn->mme_node, m.mme_ue_id);
          proto::InitialContextSetupResponse resp;
          resp.enb_id = node();
          resp.enb_ue_id = m.enb_ue_id;
          resp.mme_ue_id = m.mme_ue_id;
          resp.enb_teid = proto::Teid::make(0, m.enb_ue_id);
          rel_.send(from, proto::box(resp));
          Ue& ue = *conn->ue;
          fabric_.engine().after(cfg_.radio_delay,
                                 [&ue]() { ue.on_connection_established(); });
        } else if constexpr (std::is_same_v<T,
                                            proto::UeContextReleaseCommand>) {
          proto::UeContextReleaseComplete resp;
          resp.enb_id = node();
          resp.enb_ue_id = m.enb_ue_id;
          resp.mme_ue_id = m.mme_ue_id;
          Conn* conn = conns_.find(m.enb_ue_id);
          if (conn == nullptr &&
              m.cause == proto::ReleaseCause::kLoadBalancingTauRequired) {
            SCALE_DEBUG("rebalance release for dead connection "
                        << m.enb_ue_id);
          }
          if (conn != nullptr) {
            Ue& ue = *conn->ue;
            const NodeId releasing = conn->mme_node;
            const auto cause = m.cause;
            conns_.erase(m.enb_ue_id);
            fabric_.engine().after(cfg_.radio_delay, [&ue, cause, releasing]() {
              ue.on_release(cause, releasing);
            });
          }
          rel_.send(from, proto::box(resp));
        } else if constexpr (std::is_same_v<T, proto::Paging>) {
          if (Ue* const* camped = camped_.find(m.m_tmsi)) {
            ++paging_hits_;
            Ue& ue = **camped;
            fabric_.engine().after(cfg_.radio_delay,
                                   [&ue]() { ue.on_paging(); });
          }
        } else if constexpr (std::is_same_v<T, proto::PathSwitchAck>) {
          Conn* conn = conns_.find(m.enb_ue_id);
          if (conn == nullptr) return;
          conn->mme_ue_id = m.mme_ue_id;
          conn->ue->learn_serving_mme(conn->mme_node, m.mme_ue_id);
          Ue& ue = *conn->ue;
          fabric_.engine().after(cfg_.radio_delay,
                                 [&ue]() { ue.on_connection_established(); });
        } else if constexpr (std::is_same_v<T, proto::OverloadStart>) {
          // Advisory pacing window from the core; fresh signals extend it.
          const Time until =
              fabric_.engine().now() +
              Duration::us(static_cast<std::int64_t>(m.window_us));
          if (until > mme_backoff_until_) mme_backoff_until_ = until;
        } else {
          SCALE_DEBUG("eNodeB ignoring S1AP message");
        }
      },
      msg);
}

}  // namespace scale::epc
