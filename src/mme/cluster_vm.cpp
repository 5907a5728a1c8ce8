#include "mme/cluster_vm.h"

#include "common/logging.h"
#include "obs/registry.h"

namespace scale::mme {

ClusterVm::ClusterVm(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(cfg), node_(fabric.add_endpoint(this)),
      rel_(fabric, node_),
      cpu_(fabric.engine(), cfg.cpu_speed),
      util_(fabric.engine(), cpu_, cfg.util_sample_interval),
      app_(fabric.engine(), cpu_,
           [this] {
             MmeApp::Config c = cfg_.app;
             c.hop_ref = node_;
             c.sgw_node = cfg_.sgw;
             return c;
           }(),
           MmeAppHooks{
               .to_enb =
                   [this](NodeId enb, proto::S1apMessage m) {
                     send_via_lb(enb, proto::make_pdu(std::move(m)));
                   },
               .to_sgw =
                   [this](const UeContext& ctx, proto::S11Message m) {
                     // Geo-processed devices target their home S-GW.
                     const NodeId sgw =
                         ctx.rec.sgw_node != 0 ? ctx.rec.sgw_node : cfg_.sgw;
                     send_via_lb(sgw, proto::make_pdu(std::move(m)));
                   },
               .to_hss =
                   [this](proto::S6Message m) {
                     send_via_lb(cfg_.hss, proto::make_pdu(std::move(m)));
                   },
               .paging_enbs =
                   [this](proto::Tac tac) {
                     return paging_fn_ ? paging_fn_(tac)
                                       : std::vector<NodeId>{};
                   },
               .paging_defer = [this] { return paging_defer_hint(); },
               .admission = nullptr,
               .after_procedure =
                   [this](UeContext& ctx, proto::ProcedureType type) {
                     ++requests_handled_;
                     on_procedure_done(ctx, type);
                   },
               .on_idle =
                   [this](UeContext& ctx) { on_idle_transition(ctx); },
               .before_detach =
                   [this](UeContext& ctx) { on_detach(ctx); },
           }) {}

ClusterVm::~ClusterVm() {
  util_.stop();
  if (!failed_) fabric_.remove_endpoint(node_);
}

void ClusterVm::attach_lb(NodeId lb) {
  lb_ = lb;
  if (!reporting_) {
    reporting_ = true;
    fabric_.engine().after(cfg_.load_report_interval,
                           [this] { report_load(); });
  }
}

void ClusterVm::retire() {
  retired_ = true;
  reporting_ = false;
  util_.stop();
}

void ClusterVm::fail() {
  if (!failed_) {
    failed_ = true;
    fabric_.remove_endpoint(node_);
  }
}

void ClusterVm::report_load() {
  if (!reporting_ || retired_) return;
  if (lb_ != 0) {
    proto::LoadReport report;
    report.mmp_node = node_;
    report.cpu_util = load_score();
    report.active_devices = static_cast<std::uint32_t>(
        app_.store().count(ContextRole::kMaster));
    // Unreliable by design: a lost report is superseded by the next one;
    // retransmitting stale load would actively mislead the balancer.
    rel_.send_unreliable(lb_, proto::make_pdu(report));
  }
  fabric_.engine().after(cfg_.load_report_interval, [this] { report_load(); });
}

void ClusterVm::receive(NodeId from, const proto::Pdu& pdu) {
  const proto::Pdu* inner = rel_.unwrap(from, pdu);
  if (inner == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  const auto* cluster = std::get_if<proto::ClusterMessage>(inner);
  if (cluster == nullptr) {
    SCALE_WARN("cluster VM received bare " << proto::pdu_name(*inner)
                                           << "; expected envelope");
    return;
  }
  if (const auto* fwd = std::get_if<proto::ClusterForward>(cluster)) {
    handle_forward(from, *fwd);
  } else if (const auto* push = std::get_if<proto::ReplicaPush>(cluster)) {
    const proto::UeContextRecord rec = push->rec;
    cpu_.execute(app_.config().profile.replica_apply, [this, rec, from]() {
      ++replicas_applied_;
      app_.adopt(rec, classify_replica(rec));
      proto::ReplicaAck ack;
      ack.guti = rec.guti;
      ack.version = rec.version;
      ack.holder_dc = app_.config().home_dc;
      rel_.send(from, proto::make_pdu(ack));
    });
  } else if (const auto* xfer = std::get_if<proto::StateTransfer>(cluster)) {
    const proto::UeContextRecord rec = xfer->rec;
    cpu_.execute(app_.config().profile.state_transfer_rx, [this, rec,
                                                           from]() {
      UeContext* ctx = app_.adopt(rec, ContextRole::kMaster);
      if (ctx != nullptr) on_state_adopted(*ctx);
      proto::StateTransferAck ack;
      ack.guti = rec.guti;
      rel_.send(from, proto::make_pdu(ack));
    });
  } else if (const auto* del = std::get_if<proto::ReplicaDelete>(cluster)) {
    const std::uint64_t key = del->guti.key();
    cpu_.execute(Duration::us(20), [this, key]() {
      app_.remove_context(key);
    });
  } else if (std::holds_alternative<proto::ReplicaAck>(*cluster) ||
             std::holds_alternative<proto::StateTransferAck>(*cluster)) {
    // Synchronization acknowledgements: bookkeeping only.
  } else {
    handle_other_cluster(from, *cluster);
  }
}

void ClusterVm::handle_forward(NodeId from, const proto::ClusterForward& fwd) {
  (void)from;
  SCALE_CHECK_MSG(fwd.inner != nullptr, "forward without payload");
  dispatch_inner(fwd.origin, fwd.inner->value,
                 fwd.guti.valid() ? &fwd.guti : nullptr);
}

void ClusterVm::dispatch_inner(NodeId origin, const proto::Pdu& inner,
                               const proto::Guti* guti_hint) {
  if (const auto* s1ap = std::get_if<proto::S1apMessage>(&inner)) {
    app_.handle_s1ap(origin, *s1ap, guti_hint);
  } else if (const auto* s11 = std::get_if<proto::S11Message>(&inner)) {
    app_.handle_s11(*s11);
  } else if (const auto* s6 = std::get_if<proto::S6Message>(&inner)) {
    app_.handle_s6(*s6);
  } else {
    SCALE_WARN("cluster VM: unexpected inner PDU family");
  }
}

void ClusterVm::handle_other_cluster(NodeId from,
                                     const proto::ClusterMessage& msg) {
  (void)from;
  SCALE_DEBUG("cluster VM ignoring " << proto::cluster_name(msg));
}

ContextRole ClusterVm::classify_replica(const proto::UeContextRecord& rec) {
  (void)rec;
  return ContextRole::kReplica;
}

void ClusterVm::on_procedure_done(UeContext& ctx, proto::ProcedureType type) {
  (void)ctx;
  (void)type;
}

void ClusterVm::on_idle_transition(UeContext& ctx) { (void)ctx; }

void ClusterVm::on_detach(UeContext& ctx) { (void)ctx; }

void ClusterVm::on_state_adopted(UeContext& ctx) { (void)ctx; }

double ClusterVm::load_score() const {
  // Utilization plus queued seconds of work. Utilization alone saturates at
  // 1.0, which would make every overloaded VM look identical to the LB; the
  // backlog term keeps ordering meaningful (deeper queue = higher score)
  // exactly when balancing matters most.
  return util_.utilization() + cpu_.backlog().to_sec();
}

void ClusterVm::send_via_lb(NodeId target, proto::Pdu inner) {
  if (failed_) return;  // a crashed VM stops talking mid-sentence
  SCALE_CHECK_MSG(lb_ != 0, "VM has no LB attached");
  proto::ClusterReply reply;
  reply.target = target;
  reply.inner = proto::box(std::move(inner));
  rel_.send(lb_, proto::make_pdu(std::move(reply)));
}

void ClusterVm::send_direct(NodeId target, proto::ClusterMessage msg) {
  if (failed_) return;
  rel_.send(target, proto::pdu_of(std::move(msg)));
}

void ClusterVm::push_replica(NodeId target, const proto::UeContextRecord& rec,
                             bool geo) {
  if (failed_) return;
  cpu_.execute(app_.config().profile.replica_push, [this, target, rec,
                                                    geo]() {
    ++replicas_pushed_;
    proto::ReplicaPush push;
    push.rec = rec;
    push.geo = geo;
    rel_.send(target, proto::pdu_of(proto::ClusterMessage{push}));
  });
}

void ClusterVm::export_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  reg.set_counter(prefix + ".requests_handled", requests_handled_);
  reg.set_counter(prefix + ".replicas_pushed", replicas_pushed_);
  reg.set_counter(prefix + ".replicas_applied", replicas_applied_);
  reg.set(prefix + ".utilization", util_.utilization());
  const auto& store = app_.store();
  reg.set(prefix + ".contexts", static_cast<double>(store.size()));
  reg.set(prefix + ".contexts_master",
          static_cast<double>(store.count(epc::ContextRole::kMaster)));
  reg.set(prefix + ".contexts_replica",
          static_cast<double>(store.count(epc::ContextRole::kReplica)));
  reg.set(prefix + ".contexts_external",
          static_cast<double>(store.count(epc::ContextRole::kExternal)));
  rel_.export_metrics(reg, prefix + ".transport");
}

}  // namespace scale::mme
