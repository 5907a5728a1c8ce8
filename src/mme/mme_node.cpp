#include "mme/mme_node.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::mme {

namespace {
/// Period of the reactive overload check.
constexpr Duration kOverloadCheckInterval = Duration::ms(200.0);
/// Active devices shed per overload check.
constexpr std::size_t kShedBatch = 8;

/// One VM == one logical MME: the MME code doubles as the VM code.
MmeHost::Config one_vm(MmeHost::Config cfg) {
  cfg.app.vm_code = cfg.app.mme_code;
  return cfg;
}
}  // namespace

MmeNode::MmeNode(epc::Fabric& fabric, Config cfg)
    : MmeHost(fabric, one_vm(cfg)), cfg_(cfg) {
  if (cfg_.overload_protection) enable_overload(cfg_.overload_threshold);
}

void MmeNode::to_enb(NodeId enb, proto::S1apMessage msg) {
  rel_.send(enb, proto::box(std::move(msg)));
}

void MmeNode::to_sgw(const UeContext& ctx, proto::S11Message msg) {
  (void)ctx;
  rel_.send(cfg_.sgw, proto::box(std::move(msg)));
}

void MmeNode::to_hss(proto::S6Message msg) {
  rel_.send(cfg_.hss, proto::box(std::move(msg)));
}

void MmeNode::add_peer(MmeNode* peer) {
  SCALE_CHECK(peer != nullptr && peer != this);
  peers_.push_back(peer);
}

void MmeNode::enable_overload(double threshold) {
  cfg_.overload_protection = true;
  cfg_.overload_threshold = threshold;
  if (ticking_) return;  // one tick chain per node
  ticking_ = true;
  fabric_.engine().after(kOverloadCheckInterval, [this] { overload_tick(); });
}

void MmeNode::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / duplicate)
  const auto* cluster = std::get_if<proto::ClusterMessage>(&(*app)->value);
  if (cluster == nullptr) {
    dispatch(from, (*app)->value);
  } else if (std::holds_alternative<proto::StateTransfer>(*cluster)) {
    // Installing shed state costs CPU on the receiving MME too — half of
    // the Fig. 2(c) overhead story.
    install_transfer(from, *app);
  }
  // StateTransferAck and other cluster messages: bookkeeping only.
}

void MmeNode::on_state_adopted(UeContext&) { ++transfers_received_; }

bool MmeNode::admit(NodeId enb, const proto::InitialUeMessage& msg,
                    UeContext* existing) {
  if (!cfg_.overload_protection) return true;
  // Only devices with retained state can be redirected with a transfer;
  // brand-new registrations must be served (nobody else has them yet).
  if (existing == nullptr || app_.has_transaction(existing->key()))
    return true;
  MmeNode* peer = shed_target();
  if (peer == nullptr) return true;
  shed_context(*existing, *peer, enb, msg.enb_ue_id);
  return false;
}

MmeNode* MmeNode::shed_target() {
  if (util_.utilization() < cfg_.overload_threshold) return nullptr;
  MmeNode* best = nullptr;
  for (MmeNode* p : peers_) {
    if (best == nullptr || p->utilization() < best->utilization()) best = p;
  }
  // Redirecting onto an equally overloaded peer just ping-pongs devices
  // (and still burns transfer signaling) — serve locally instead.
  if (best == nullptr || best->utilization() >= cfg_.overload_threshold)
    return nullptr;
  return best;
}

void MmeNode::shed_context(UeContext& ctx, MmeNode& peer, NodeId enb,
                           proto::EnbUeId enb_ue_id) {
  ++devices_shed_;
  if (obs::Tracer* tr = obs::Tracer::current()) {
    obs::Json args = obs::Json::object();
    args.set("peer", peer.node());
    args.set("guti", ctx.rec.guti.str());
    tr->instant(node(), "reactive_shed", fabric_.engine().now(),
                std::move(args));
  }
  Shed shed{ctx.rec, peer.node(), enb, enb_ue_id};
  shed.rec.active = false;
  shed.rec.version++;
  const std::uint32_t parked = sheds_.park(std::move(shed));
  cpu_.execute(
      app_.config().profile.parse + app_.config().profile.state_transfer_tx,
      [this, parked]() {
        const Shed s = sheds_.take(parked);
        rel_.send(s.peer, proto::box(proto::StateTransfer{s.rec}));
        proto::UeContextReleaseCommand rel;
        rel.enb_id = s.enb;
        rel.enb_ue_id = s.enb_ue_id;
        rel.mme_ue_id = s.rec.mme_ue_id;
        rel.cause = proto::ReleaseCause::kLoadBalancingTauRequired;
        rel_.send(s.enb, proto::box(rel));
        app_.remove_context(s.rec.guti.key());
      });
}

void MmeNode::overload_tick() {
  if (MmeNode* peer = shed_target()) {
    // Proactively shed a batch of Active devices (reactive rebalancing).
    const auto keys = app_.store().keys_if([this](const UeContext& c) {
      return c.rec.active && !app_.has_transaction(c.rec.guti.key());
    });
    std::size_t shed = 0;
    for (std::uint64_t key : keys) {
      if (shed >= kShedBatch) break;
      UeContext* ctx = app_.store().find(key);
      if (ctx == nullptr) continue;
      shed_context(*ctx, *peer, ctx->rec.enb_id, ctx->rec.enb_ue_id);
      ++shed;
    }
  }
  fabric_.engine().after(kOverloadCheckInterval, [this] { overload_tick(); });
}

void MmeNode::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  MmeHost::export_metrics(reg, prefix);
  reg.set_counter(prefix + ".devices_shed", devices_shed_);
  reg.set_counter(prefix + ".transfers_received", transfers_received_);
}

}  // namespace scale::mme
