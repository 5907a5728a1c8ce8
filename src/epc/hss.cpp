#include "epc/hss.h"

#include "common/logging.h"
#include "hash/md5.h"

namespace scale::epc {

namespace {
/// CPU service time of one Authentication Information / Update Location.
constexpr Duration kAuthServiceTime = Duration::us(80);
constexpr Duration kLocationServiceTime = Duration::us(60);

/// Deterministic AKA network-authentication token.
std::uint64_t f_autn(std::uint64_t key, std::uint64_t rand) {
  return hash::fnv1a_u64(key ^ (rand * 0x9E3779B97F4A7C15ull));
}
}  // namespace

Hss::Hss(Fabric& fabric)
    : Endpoint(fabric), rel_(fabric, node()), cpu_(fabric.engine()) {}

void Hss::provision_subscriber(proto::Imsi imsi, std::uint64_t key,
                               std::uint32_t profile_id) {
  subscribers_[imsi] = Subscriber{key, profile_id, 0};
}

std::uint32_t Hss::serving_mme_of(proto::Imsi imsi) const {
  const Subscriber* sub = subscribers_.find(imsi);
  return sub == nullptr ? 0 : sub->serving_mme;
}

std::uint64_t Hss::f_res(std::uint64_t key, std::uint64_t rand) {
  return hash::fnv1a_u64((key * 0xC2B2AE3D27D4EB4Full) ^ rand);
}

void Hss::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  const auto* s6 = std::get_if<proto::S6Message>(&(*app)->value);
  if (s6 == nullptr) {
    SCALE_WARN("HSS received non-S6 PDU: " << proto::pdu_name((*app)->value));
    return;
  }
  std::visit(
      [this, from](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, proto::AuthInfoRequest>) {
          handle_auth(from, msg);
        } else if constexpr (std::is_same_v<T, proto::UpdateLocationRequest>) {
          handle_location(from, msg);
        } else {
          SCALE_WARN("HSS: unexpected S6 message");
        }
      },
      *s6);
}

void Hss::handle_auth(NodeId from, const proto::AuthInfoRequest& req) {
  cpu_.execute(kAuthServiceTime, [this, from, req]() {
    proto::AuthInfoAnswer ans;
    ans.imsi = req.imsi;
    ans.hop_ref = req.hop_ref;
    const Subscriber* sub = subscribers_.find(req.imsi);
    if (sub == nullptr) {
      ans.known_subscriber = false;
    } else {
      ans.known_subscriber = true;
      ans.rand = ++rand_counter_ * 0x2545F4914F6CDD1Dull;
      ans.autn = f_autn(sub->key, ans.rand);
      ans.xres = f_res(sub->key, ans.rand);
    }
    ++auth_served_;
    rel_.send(from, proto::box(ans));
  });
}

void Hss::handle_location(NodeId from,
                          const proto::UpdateLocationRequest& req) {
  cpu_.execute(kLocationServiceTime, [this, from, req]() {
    proto::UpdateLocationAnswer ans;
    ans.imsi = req.imsi;
    ans.hop_ref = req.hop_ref;
    Subscriber* sub = subscribers_.find(req.imsi);
    if (sub == nullptr) {
      ans.ok = false;
    } else {
      sub->serving_mme = req.mme_id;
      ans.ok = true;
      ans.profile_id = sub->profile_id;
    }
    rel_.send(from, proto::box(ans));
  });
}

}  // namespace scale::epc
