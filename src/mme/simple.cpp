#include "mme/simple.h"

namespace scale::mme {

// ------------------------------------------------------------------ SimpleVm

void SimpleVm::after_procedure(UeContext& ctx, proto::ProcedureType type) {
  (void)type;
  if (buddy_ != 0 && ctx.role == ContextRole::kMaster)
    push_replica(buddy_, ctx.rec, /*geo=*/false);
}

void SimpleVm::on_idle(UeContext& ctx) {
  if (buddy_ != 0 && ctx.role == ContextRole::kMaster)
    push_replica(buddy_, ctx.rec, /*geo=*/false);
}

void SimpleVm::before_detach(UeContext& ctx) {
  if (buddy_ != 0) {
    proto::ReplicaDelete del;
    del.guti = ctx.rec.guti;
    send_direct(buddy_, proto::ClusterMessage{del});
  }
}

// ------------------------------------------------------------------ SimpleLb

namespace {

/// CPU charged per Initial UE message (per-device table lookup).
constexpr Duration kRouteCost = Duration::us(30);
/// Primary VM load above which Idle→Active requests go to its buddy.
constexpr double kSpillThreshold = 0.9;

}  // namespace

SimpleLb::SimpleLb(epc::Fabric& fabric, Config cfg)
    : FrontEnd(fabric, proto::Guti{cfg.plmn, cfg.mme_group, cfg.mme_code, 1},
               cfg.cpu_speed, kRouteCost) {}

void SimpleLb::add_vm(SimpleVm& vm) {
  vms_.push_back(VmEntry{&vm, 0.0});
  code_to_node_[vm.vm_code()] = vm.node();
  vm.attach_lb(node());
  // Re-wire pairwise buddies ring-style.
  for (std::size_t i = 0; i < vms_.size(); ++i)
    vms_[i].vm->buddy_ = vms_[(i + 1) % vms_.size()].vm->node();
}

NodeId SimpleLb::pick(NodeId enb, const proto::Guti& guti) {
  (void)enb;
  SCALE_CHECK_MSG(!vms_.empty(), "SIMPLE LB has no VMs");
  std::size_t primary;
  const auto it = table_.find(guti.key());
  if (it != table_.end()) {
    primary = it->second % vms_.size();
  } else {
    primary = next_rr_++ % vms_.size();
    table_[guti.key()] = primary;  // the per-device table grows forever
  }
  // Pairwise spill-over: primary unless overloaded, then THE buddy.
  std::size_t chosen = primary;
  if (vms_[primary].load > kSpillThreshold && vms_.size() > 1)
    chosen = (primary + 1) % vms_.size();
  return vms_[chosen].vm->node();
}

void SimpleLb::on_cluster(NodeId from, const proto::PduRef& pdu,
                          const proto::ClusterMessage& msg) {
  (void)from;
  (void)pdu;
  const auto* load = std::get_if<proto::LoadReport>(&msg);
  if (load == nullptr) return;
  for (auto& e : vms_)
    if (e.vm->node() == load->mmp_node) e.load = load->cpu_util;
}

}  // namespace scale::mme
