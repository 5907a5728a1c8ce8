#include "mme/cluster_vm.h"

#include <numeric>

#include "common/logging.h"
#include "obs/registry.h"

namespace scale::mme {

ClusterVm::ClusterVm(epc::Fabric& fabric, Config cfg)
    : MmeHost(fabric, cfg, cfg.util_sample_interval), cfg_(cfg) {}

void ClusterVm::to_enb(NodeId enb, proto::S1apMessage msg) {
  send_via_lb(enb, proto::box(std::move(msg)));
}

void ClusterVm::to_sgw(const UeContext& ctx, proto::S11Message msg) {
  // Geo-processed devices target their home S-GW.
  const NodeId sgw = ctx.rec.sgw_node != 0 ? ctx.rec.sgw_node : cfg_.sgw;
  send_via_lb(sgw, proto::box(std::move(msg)));
}

void ClusterVm::to_hss(proto::S6Message msg) {
  send_via_lb(cfg_.hss, proto::box(std::move(msg)));
}

std::uint64_t ClusterVm::requests_handled() const {
  // after_procedure follows every completed procedure except detach.
  const auto& done = app_.counters().procedures;
  return std::accumulate(done.begin(), done.end(), std::uint64_t{0}) -
         done[static_cast<int>(proto::ProcedureType::kDetach)];
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

void ClusterVm::report_load() {
  if (!reporting_ || retired_) return;
  if (lb_ != 0) {
    proto::LoadReport report;
    report.mmp_node = node();
    report.cpu_util = load_score();
    report.active_devices = static_cast<std::uint32_t>(
        app_.store().count(ContextRole::kMaster));
    // Unreliable by design: a lost report is superseded by the next one;
    // retransmitting stale load would actively mislead the balancer.
    rel_.send_unreliable(lb_, proto::box(report));
  }
  fabric_.engine().after(cfg_.load_report_interval, [this] { report_load(); });
}

void ClusterVm::receive(NodeId from, const proto::PduRef& pdu) {
  const proto::PduRef* app = rel_.unwrap(from, pdu);
  if (app == nullptr) return;  // shim traffic (ack / suppressed duplicate)
  const auto* cluster = std::get_if<proto::ClusterMessage>(&(*app)->value);
  if (cluster == nullptr) {
    SCALE_WARN("cluster VM received bare " << proto::pdu_name((*app)->value)
                                           << "; expected envelope");
    return;
  }
  if (const auto* fwd = std::get_if<proto::ClusterForward>(cluster)) {
    SCALE_CHECK_MSG(fwd->inner != nullptr, "forward without payload");
    handle_forward(from, *app, *fwd);
  } else if (std::holds_alternative<proto::ReplicaPush>(*cluster)) {
    cpu_.execute(app_.config().profile.replica_apply, [this, from,
                                                        push = *app]() {
      const proto::UeContextRecord& rec =
          proto::message<proto::ReplicaPush>(push).rec;
      ++replicas_applied_;
      app_.adopt(rec, classify_replica(rec));
      proto::ReplicaAck ack;
      ack.guti = rec.guti;
      ack.version = rec.version;
      ack.holder_dc = app_.config().home_dc;
      rel_.send(from, proto::box(ack));
    });
  } else if (std::holds_alternative<proto::StateTransfer>(*cluster)) {
    install_transfer(from, *app);
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

void ClusterVm::handle_forward(NodeId from, const proto::PduRef& pdu,
                               const proto::ClusterForward& fwd) {
  (void)from;  // forwards are self-describing (origin travels inside)
  (void)pdu;
  dispatch(fwd.origin, fwd.inner->value,
           fwd.guti.valid() ? &fwd.guti : nullptr);
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

double ClusterVm::load_score() const {
  // Utilization plus queued seconds of work. Utilization alone saturates at
  // 1.0, which would make every overloaded VM look identical to the LB; the
  // backlog term keeps ordering meaningful (deeper queue = higher score)
  // exactly when balancing matters most.
  return util_.utilization() + cpu_.backlog().to_sec();
}

void ClusterVm::send_via_lb(NodeId target, proto::PduRef inner) {
  if (!registered()) return;  // a crashed VM stops talking mid-sentence
  SCALE_CHECK_MSG(lb_ != 0, "VM has no LB attached");
  proto::ClusterReply reply;
  reply.target = target;
  reply.inner = std::move(inner);
  rel_.send(lb_, proto::box(std::move(reply)));
}

void ClusterVm::send_direct(NodeId target, proto::ClusterMessage msg) {
  if (!registered()) return;
  rel_.send(target, proto::box(std::move(msg)));
}

void ClusterVm::push_replica(NodeId target, const proto::UeContextRecord& rec,
                             bool geo) {
  if (!registered()) return;
  // Boxed now: the push carries the record as it is at this call.
  cpu_.execute(app_.config().profile.replica_push,
               [this, target, push = proto::box(proto::ReplicaPush{
                                  .rec = rec, .geo = geo})]() mutable {
                 ++replicas_pushed_;
                 rel_.send(target, std::move(push));
               });
}

void ClusterVm::export_metrics(obs::MetricsRegistry& reg,
                               const std::string& prefix) const {
  MmeHost::export_metrics(reg, prefix);
  reg.set_counter(prefix + ".requests_handled", requests_handled());
  reg.set_counter(prefix + ".replicas_pushed", replicas_pushed_);
  reg.set_counter(prefix + ".replicas_applied", replicas_applied_);
  const auto& store = app_.store();
  reg.set(prefix + ".contexts_master",
          static_cast<double>(store.count(epc::ContextRole::kMaster)));
  reg.set(prefix + ".contexts_replica",
          static_cast<double>(store.count(epc::ContextRole::kReplica)));
  reg.set(prefix + ".contexts_external",
          static_cast<double>(store.count(epc::ContextRole::kExternal)));
}

}  // namespace scale::mme
