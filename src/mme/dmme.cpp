#include "mme/dmme.h"

#include "common/logging.h"

namespace scale::mme {

// ------------------------------------------------------------- DmmeStateStore

namespace {
/// Store CPU cost of serving one fetch and of absorbing one write-back.
constexpr Duration kFetchCost = Duration::us(120);
constexpr Duration kWriteCost = Duration::us(150);
}  // namespace

DmmeStateStore::DmmeStateStore(epc::Fabric& fabric, double cpu_speed)
    : Endpoint(fabric), cpu_(fabric.engine(), cpu_speed) {}

void DmmeStateStore::receive(NodeId from, const proto::PduRef& pdu) {
  const auto* cluster = std::get_if<proto::ClusterMessage>(&pdu->value);
  if (cluster == nullptr) {
    SCALE_WARN("state store received non-cluster PDU");
    return;
  }
  if (const auto* fetch = std::get_if<proto::StateFetch>(cluster)) {
    const proto::Guti guti = fetch->guti;
    cpu_.execute(kFetchCost, [this, from, guti]() {
      ++fetches_;
      proto::StateFetchResp resp;
      resp.guti = guti;
      const auto* ctx = store_.find(guti.key());
      if (ctx != nullptr) {
        resp.found = true;
        resp.rec = ctx->rec;
      }
      fabric_.send(node(), from, proto::box(resp));
    });
  } else if (std::holds_alternative<proto::StateTransfer>(*cluster)) {
    cpu_.execute(kWriteCost, [this, write = pdu]() {
      const proto::UeContextRecord& rec =
          proto::message<proto::StateTransfer>(write).rec;
      ++writes_;
      auto* existing = store_.find(rec.guti.key());
      if (existing != nullptr) {
        if (rec.version >= existing->rec.version) existing->rec = rec;
      } else {
        store_.insert(rec, epc::ContextRole::kMaster);
      }
    });
  } else if (const auto* del = std::get_if<proto::ReplicaDelete>(cluster)) {
    const std::uint64_t key = del->guti.key();
    cpu_.execute(kWriteCost, [this, key]() {
      if (store_.contains(key)) store_.erase(key);
    });
  } else {
    SCALE_DEBUG("state store ignoring " << proto::cluster_name(*cluster));
  }
}

// ------------------------------------------------------------------- DmmeNode

DmmeNode::DmmeNode(epc::Fabric& fabric, Config cfg)
    : ClusterVm(fabric, cfg.base), store_(cfg.store) {
  SCALE_CHECK_MSG(store_ != 0, "dMME node needs a state store");
}

void DmmeNode::handle_forward(NodeId from, const proto::PduRef& pdu,
                              const proto::ClusterForward& fwd) {
  const auto* s1ap = std::get_if<proto::S1apMessage>(&fwd.inner->value);
  const bool initial =
      s1ap != nullptr &&
      std::holds_alternative<proto::InitialUeMessage>(*s1ap);

  if (initial && fwd.guti.valid()) {
    const std::uint64_t key = fwd.guti.key();
    if (app().store().find(key) == nullptr) {
      // Stateless node: the context (if any) lives in the central store.
      // Park the request and fetch — this round trip is dMME's cost.
      auto& queue = pending_[key];
      queue.push_back(pdu);
      if (queue.size() == 1) {
        ++fetches_issued_;
        proto::StateFetch fetch;
        fetch.guti = fwd.guti;
        fabric_.send(node(), store_, proto::box(fetch));
      }
      return;
    }
  }
  ClusterVm::handle_forward(from, pdu, fwd);
}

void DmmeNode::handle_other_cluster(NodeId from,
                                    const proto::ClusterMessage& msg) {
  const auto* resp = std::get_if<proto::StateFetchResp>(&msg);
  if (resp == nullptr) {
    SCALE_DEBUG("dMME node ignoring " << proto::cluster_name(msg));
    return;
  }
  const std::uint64_t key = resp->guti.key();
  if (resp->found) app().adopt(resp->rec, epc::ContextRole::kMaster);
  const auto it = pending_.find(key);
  if (it == pending_.end()) return;
  std::deque<proto::PduRef> queued = std::move(it->second);
  pending_.erase(it);
  // Not found → dispatch anyway: an attach creates the context, anything
  // else is rejected by the MmeApp (device unknown network-wide).
  for (const auto& fwd : queued)
    ClusterVm::handle_forward(from, fwd,
                              proto::message<proto::ClusterForward>(fwd));
}

void DmmeNode::write_back(const UeContext& ctx) {
  ++writebacks_;
  proto::StateTransfer write;
  write.rec = ctx.rec;
  fabric_.send(node(), store_, proto::box(write));
}

void DmmeNode::after_procedure(UeContext& ctx, proto::ProcedureType type) {
  (void)type;
  write_back(ctx);
}

void DmmeNode::on_idle(UeContext& ctx) {
  // Write the final state back and drop the local copy: the node stays
  // stateless between a device's Active periods.
  write_back(ctx);
  const std::uint64_t key = ctx.key();
  fabric_.engine().after(Duration::zero(),
                         [this, key]() { app().remove_context(key); });
}

void DmmeNode::before_detach(UeContext& ctx) {
  proto::ReplicaDelete del;
  del.guti = ctx.rec.guti;
  fabric_.send(node(), store_, proto::box(del));
}

// --------------------------------------------------------------------- DmmeLb

namespace {

/// CPU charged per Initial UE message (no table, no hashing).
constexpr Duration kRouteCost = Duration::us(25);

}  // namespace

DmmeLb::DmmeLb(epc::Fabric& fabric, Config cfg)
    : FrontEnd(fabric, proto::Guti{cfg.plmn, cfg.mme_group, cfg.mme_code, 1},
               cfg.cpu_speed, kRouteCost) {}

void DmmeLb::add_node(DmmeNode& node) {
  nodes_.push_back(node.node());
  code_to_node_[node.vm_code()] = node.node();
  node.attach_lb(this->node());
}

NodeId DmmeLb::pick(NodeId enb, const proto::Guti& guti) {
  (void)enb;
  (void)guti;
  SCALE_CHECK_MSG(!nodes_.empty(), "dMME LB has no nodes");
  // Any node can serve any device: plain round robin.
  return nodes_[next_rr_++ % nodes_.size()];
}

}  // namespace scale::mme
