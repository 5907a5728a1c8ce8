#include "mme/mme_host.h"

#include "common/logging.h"
#include "epc/enodeb.h"
#include "obs/registry.h"

namespace scale::mme {

MmeHost::MmeHost(epc::Fabric& fabric, const Config& cfg,
                 Duration util_sample_interval)
    : Endpoint(fabric), rel_(fabric, node()),
      cpu_(fabric.engine(), cfg.cpu_speed),
      util_(fabric.engine(), cpu_, util_sample_interval),
      app_(fabric.engine(), cpu_, cfg.app, *this, node(), cfg.sgw) {}

std::vector<NodeId> MmeHost::paging_enbs(proto::Tac tac) const {
  std::vector<NodeId> out;
  if (enbs_ == nullptr) return out;
  out.reserve(enbs_->size());
  for (const epc::EnodeB* enb : *enbs_)
    if (enb->tac() == tac) out.push_back(enb->node());
  return out;
}

void MmeHost::dispatch(NodeId origin, const proto::Pdu& pdu,
                       const proto::Guti* guti_hint) {
  if (const auto* s1ap = std::get_if<proto::S1apMessage>(&pdu)) {
    app_.handle_s1ap(origin, *s1ap, guti_hint);
  } else if (const auto* s11 = std::get_if<proto::S11Message>(&pdu)) {
    app_.handle_s11(*s11);
  } else if (const auto* s6 = std::get_if<proto::S6Message>(&pdu)) {
    app_.handle_s6(*s6);
  } else {
    SCALE_WARN("MME ignoring unexpected " << proto::pdu_name(pdu));
  }
}

void MmeHost::install_transfer(NodeId from, proto::PduRef xfer) {
  cpu_.execute(app_.config().profile.state_transfer_rx,
               [this, from, xfer = std::move(xfer)]() {
                 const proto::UeContextRecord& rec =
                     proto::message<proto::StateTransfer>(xfer).rec;
                 UeContext* ctx = app_.adopt(rec, ContextRole::kMaster);
                 if (ctx != nullptr) on_state_adopted(*ctx);
                 proto::StateTransferAck ack;
                 ack.guti = rec.guti;
                 rel_.send(from, proto::box(ack));
               });
}

void MmeHost::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  reg.set(prefix + ".utilization", util_.utilization());
  reg.set(prefix + ".contexts", static_cast<double>(app_.store().size()));
  rel_.export_metrics(reg, prefix + ".transport");
}

}  // namespace scale::mme
