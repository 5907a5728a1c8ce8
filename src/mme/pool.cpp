#include "mme/pool.h"

namespace scale::mme {

namespace {
/// MME code of the pool's first member; later members count up from it.
constexpr std::uint8_t kFirstMmeCode = 1;
}  // namespace

MmePool::MmePool(epc::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(cfg), next_code_(kFirstMmeCode) {
  for (std::size_t i = 0; i < cfg_.initial_count; ++i)
    add_mme(cfg_.node_template.weight);
}

MmeNode& MmePool::add_mme(double weight) {
  MmeNode::Config node_cfg = cfg_.node_template;
  node_cfg.app.mme_code = next_code_++;
  node_cfg.weight = weight;
  auto node = std::make_unique<MmeNode>(fabric_, node_cfg);
  MmeNode& ref = *node;
  ref.set_paging_enbs(enbs_);
  // Mutual peering for reactive reassignment.
  for (auto& existing : mmes_) {
    existing->add_peer(&ref);
    ref.add_peer(existing.get());
  }
  mmes_.push_back(std::move(node));
  // Late joiners must be visible to already-connected eNodeBs (scale-out).
  for (epc::EnodeB* enb : enbs_)
    enb->add_mme(ref.node(), ref.mme_code(), weight);
  return ref;
}

void MmePool::connect_enb(epc::EnodeB& enb) {
  enbs_.push_back(&enb);
  for (auto& node : mmes_)
    enb.add_mme(node->node(), node->mme_code(), node->weight());
}

void MmePool::enable_overload_protection(double threshold) {
  for (auto& node : mmes_) node->enable_overload(threshold);
}

void MmePool::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  for (std::size_t i = 0; i < mmes_.size(); ++i)
    mmes_[i]->export_metrics(reg, prefix + "." + std::to_string(i));
}

}  // namespace scale::mme
