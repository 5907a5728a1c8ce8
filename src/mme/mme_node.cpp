#include "mme/mme_node.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::mme {

namespace {
/// Period of the reactive overload check.
constexpr Duration kOverloadCheckInterval = Duration::ms(200.0);
/// Active devices shed per overload check.
constexpr std::size_t kShedBatch = 8;
}  // namespace

MmeNode::MmeNode(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(cfg), node_(fabric.add_endpoint(this)),
      rel_(fabric, node_),
      cpu_(fabric.engine(), cfg.cpu_speed),
      util_(fabric.engine(), cpu_),
      app_(fabric.engine(), cpu_,
           [this] {
             MmeApp::Config c = cfg_.app;
             c.vm_code = cfg_.app.mme_code;  // one VM == one logical MME
             c.hop_ref = node_;
             c.sgw_node = cfg_.sgw;
             return c;
           }(),
           MmeAppHooks{
               .to_enb =
                   [this](NodeId enb, proto::S1apMessage m) {
                     rel_.send(enb, proto::make_pdu(std::move(m)));
                   },
               .to_sgw =
                   [this](const UeContext&, proto::S11Message m) {
                     rel_.send(cfg_.sgw, proto::make_pdu(std::move(m)));
                   },
               .to_hss =
                   [this](proto::S6Message m) {
                     rel_.send(cfg_.hss, proto::make_pdu(std::move(m)));
                   },
               .paging_enbs =
                   [this](proto::Tac tac) {
                     return paging_fn_storage_ ? paging_fn_storage_(tac)
                                               : std::vector<NodeId>{};
                   },
               .admission =
                   [this](NodeId enb, const proto::InitialUeMessage& msg,
                          UeContext* existing) {
                     return admission_gate(enb, msg, existing);
                   },
               .after_procedure = nullptr,
               .on_idle = nullptr,
               .before_detach = nullptr,
           }) {
  if (cfg_.overload_protection) enable_overload(cfg_.overload_threshold);
}

MmeNode::~MmeNode() {
  util_.stop();
  fabric_.remove_endpoint(node_);
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

void MmeNode::set_paging_enbs(
    std::function<std::vector<NodeId>(proto::Tac)>&& fn) {
  // MmeAppHooks are wired at construction; route through a member so the
  // hook stays valid.
  paging_fn_storage_ = std::move(fn);
}

void MmeNode::receive(NodeId from, const proto::Pdu& pdu) {
  const proto::Pdu* unwrapped = rel_.unwrap(from, pdu);
  if (unwrapped == nullptr) return;  // shim traffic (ack / duplicate)
  std::visit(
      [this, from](const auto& family) {
        using T = std::decay_t<decltype(family)>;
        if constexpr (std::is_same_v<T, proto::S1apMessage>) {
          app_.handle_s1ap(from, family);
        } else if constexpr (std::is_same_v<T, proto::S11Message>) {
          app_.handle_s11(family);
        } else if constexpr (std::is_same_v<T, proto::S6Message>) {
          app_.handle_s6(family);
        } else if constexpr (std::is_same_v<T, proto::ClusterMessage>) {
          if (const auto* xfer =
                  std::get_if<proto::StateTransfer>(&family)) {
            // Installing shed state costs CPU on the receiving MME too —
            // half of the Fig. 2(c) overhead story.
            const proto::UeContextRecord rec = xfer->rec;
            cpu_.execute(app_.config().profile.state_transfer_rx,
                         [this, rec, from]() {
                           ++transfers_received_;
                           app_.adopt(rec, epc::ContextRole::kMaster);
                           proto::StateTransferAck ack;
                           ack.guti = rec.guti;
                           rel_.send(from, proto::make_pdu(ack));
                         });
          }
          // StateTransferAck and other cluster messages: bookkeeping only.
        } else {
          SCALE_WARN("MME ignoring unexpected PDU family");
        }
      },
      *unwrapped);
}

bool MmeNode::admission_gate(NodeId enb, const proto::InitialUeMessage& msg,
                             UeContext* existing) {
  if (!cfg_.overload_protection || peers_.empty()) return true;
  if (util_.utilization() < cfg_.overload_threshold) return true;
  // Only devices with retained state can be redirected with a transfer;
  // brand-new registrations must be served (nobody else has them yet).
  if (existing == nullptr) return true;
  if (app_.has_transaction(existing->key())) return true;
  MmeNode* peer = least_loaded_peer();
  // Redirecting onto an equally overloaded peer just ping-pongs devices
  // (and still burns transfer signaling) — serve locally instead.
  if (peer == nullptr || peer->utilization() >= cfg_.overload_threshold)
    return true;
  shed_context(*existing, *peer, enb, msg.enb_ue_id);
  return false;
}

MmeNode* MmeNode::least_loaded_peer() {
  MmeNode* best = nullptr;
  for (MmeNode* p : peers_) {
    if (best == nullptr || p->utilization() < best->utilization()) best = p;
  }
  return best;
}

void MmeNode::shed_context(UeContext& ctx, MmeNode& peer, NodeId enb,
                           proto::EnbUeId enb_ue_id) {
  ++devices_shed_;
  if (obs::Tracer* tr = obs::Tracer::current()) {
    obs::Json args = obs::Json::object();
    args.set("peer", peer.node());
    args.set("guti", ctx.rec.guti.str());
    tr->instant(node_, "reactive_shed", fabric_.engine().now(),
                std::move(args));
  }
  const proto::UeContextRecord rec = [&] {
    proto::UeContextRecord r = ctx.rec;
    r.active = false;
    r.version++;
    return r;
  }();
  const std::uint64_t key = ctx.key();
  const NodeId peer_node = peer.node();
  cpu_.execute(
      app_.config().profile.parse + app_.config().profile.state_transfer_tx,
      [this, rec, key, peer_node, enb, enb_ue_id]() {
        proto::StateTransfer xfer;
        xfer.rec = rec;
        rel_.send(peer_node, proto::make_pdu(xfer));
        proto::UeContextReleaseCommand rel;
        rel.enb_id = enb;
        rel.enb_ue_id = enb_ue_id;
        rel.mme_ue_id = rec.mme_ue_id;
        rel.cause = proto::ReleaseCause::kLoadBalancingTauRequired;
        rel_.send(enb, proto::make_pdu(rel));
        app_.remove_context(key);
      });
}

void MmeNode::overload_tick() {
  if (util_.utilization() >= cfg_.overload_threshold && !peers_.empty()) {
    MmeNode* peer = least_loaded_peer();
    if (peer != nullptr &&
        peer->utilization() < cfg_.overload_threshold) {
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
  }
  fabric_.engine().after(kOverloadCheckInterval, [this] { overload_tick(); });
}

void MmeNode::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  reg.set_counter(prefix + ".devices_shed", devices_shed_);
  reg.set_counter(prefix + ".transfers_received", transfers_received_);
  reg.set(prefix + ".utilization", util_.utilization());
  reg.set(prefix + ".contexts", static_cast<double>(app_.store().size()));
  rel_.export_metrics(reg, prefix + ".transport");
}

}  // namespace scale::mme
