#include "core/cluster.h"

#include <algorithm>

#include "common/logging.h"

namespace scale::core {

using epc::ContextRole;
using mme::UeContext;

ScaleCluster::ScaleCluster(epc::Fabric& fabric, sim::NodeId sgw,
                           sim::NodeId hss, Config cfg)
    : fabric_(fabric), cfg_(cfg), sgw_(sgw), hss_(hss), rng_(cfg.seed),
      ring_(cfg.ring_tokens),
      policy_(cfg.policy), provisioner_(cfg.provisioner),
      next_code_(cfg.first_vm_code) {
  Mlb::Config mlb_cfg = cfg_.mlb;
  mlb_cfg.mme_code = cfg_.mme_code;
  mlb_cfg.plmn = cfg_.plmn;
  mlb_cfg.mme_group = cfg_.mme_group;
  mlb_cfg.ring_tokens = cfg_.ring_tokens;
  mlb_cfg.choices = std::max(1u, policy_.local_copies);
  const auto mlb_count = std::max<std::size_t>(1, cfg_.initial_mlbs);
  for (std::size_t i = 0; i < mlb_count; ++i) {
    // Every MLB VM of a pool assigns GUTIs; disjoint M-TMSI ranges keep
    // them collision-free without coordination.
    Mlb::Config one = mlb_cfg;
    one.tmsi_base = static_cast<std::uint32_t>(1 + i * 50'000'000u);
    mlbs_.push_back(std::make_unique<Mlb>(fabric_, one));
  }

  GeoManager::Config geo_cfg = cfg_.geo;
  geo_cfg.dc_id = cfg_.home_dc;
  geo_ = std::make_unique<GeoManager>(fabric_, mlbs_.front()->node(),
                                      geo_cfg);
  geo_->set_cluster_load_probe([this]() {
    if (mmps_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& vm : mmps_) total += vm->utilization();
    return total / static_cast<double>(mmps_.size());
  });
  geo_->set_cluster_backlog_probe([this]() {
    if (mmps_.empty()) return 0.0;
    double total = 0.0;
    for (const auto& vm : mmps_) total += vm->cpu().backlog().to_sec();
    return total / static_cast<double>(mmps_.size());
  });
  for (auto& mlb : mlbs_) {
    mlb->set_geo_sink([this](sim::NodeId, const proto::ClusterMessage& msg) {
      if (const auto* gossip = std::get_if<proto::GeoBudgetGossip>(&msg))
        geo_->on_gossip(*gossip);
      else if (const auto* evict = std::get_if<proto::GeoEvictRequest>(&msg))
        on_evict_request(*evict);
    });
  }

  for (std::size_t i = 0; i < cfg_.initial_mmps; ++i) add_mmp();
  // Construction-time membership changes need no resync — no contexts yet.
  membership_dirty_ = false;
}

ScaleCluster::~ScaleCluster() {
  for (auto& m : mmps_) m->retire();
  for (auto& m : retired_) m->retire();
}

void ScaleCluster::connect_enb(epc::EnodeB& enb) {
  enbs_.push_back(&enb);
  for (auto& mlb : mlbs_) enb.add_mme(mlb->node(), cfg_.mme_code, 1.0);
}

MmpNode& ScaleCluster::add_mmp() {
  MmpNode::Config vm_cfg;
  vm_cfg.base = cfg_.vm_template;
  vm_cfg.base.sgw = sgw_;
  vm_cfg.base.hss = hss_;
  vm_cfg.base.app.assign_guti_locally = false;  // the MLB assigns GUTIs
  vm_cfg.base.app.mme_code = cfg_.mme_code;
  vm_cfg.base.app.plmn = cfg_.plmn;
  vm_cfg.base.app.mme_group = cfg_.mme_group;
  vm_cfg.base.app.vm_code = next_code_++;
  vm_cfg.base.app.home_dc = cfg_.home_dc;
  vm_cfg.shed_backlog = cfg_.mmp_shed_backlog;
  vm_cfg.governor = cfg_.mmp_governor;
  vm_cfg.seed = rng_.next_u64();

  auto vm = std::make_unique<MmpNode>(fabric_, vm_cfg);
  MmpNode& ref = *vm;
  ref.set_ring(&ring_);
  ref.set_policy(&policy_);
  ref.set_geo(geo_.get());
  // MMPs spread their reply/report channel across the MLB VMs.
  ref.attach_lb(mlbs_[mmps_.size() % mlbs_.size()]->node());
  ref.set_paging_enbs(enbs_);
  mmps_.push_back(std::move(vm));

  ring_.add_node(ref.node());
  push_membership();
  migrate_after_membership_change();
  return ref;
}

void ScaleCluster::remove_last_mmp() {
  SCALE_CHECK_MSG(mmps_.size() > 1, "cannot remove the last MMP");
  std::unique_ptr<MmpNode> victim = std::move(mmps_.back());
  mmps_.pop_back();
  ring_.remove_node(victim->node());
  push_membership();
  // Hand every master context to its new ring owner (neighbor arcs only).
  const auto keys = victim->app().store().keys_if(
      [](const UeContext& c) { return c.role == ContextRole::kMaster; });
  for (std::uint64_t key : keys)
    victim->migrate_master(key, ring_.owner(key));
  victim->retire();
  // Keep the object alive: in-flight events may still reference it.
  retired_.push_back(std::move(victim));
}

void ScaleCluster::crash_mmp(std::size_t index) {
  SCALE_CHECK_MSG(mmps_.size() > 1, "cannot crash the last MMP");
  SCALE_CHECK(index < mmps_.size());
  std::unique_ptr<MmpNode> victim = std::move(mmps_[index]);
  mmps_.erase(mmps_.begin() + static_cast<std::ptrdiff_t>(index));
  ring_.remove_node(victim->node());
  push_membership();
  // No migration, no goodbye: in-flight messages to it will be dropped by
  // the fabric once the endpoint disappears. Keep the object alive only
  // for already-scheduled callbacks (its endpoint is removed).
  victim->retire();
  victim->fail();
  retired_.push_back(std::move(victim));
}

std::size_t ScaleCluster::resize(std::uint32_t target) {
  std::size_t changes = 0;
  while (mmps_.size() < target) {
    add_mmp();
    ++changes;
  }
  while (mmps_.size() > target && mmps_.size() > 1) {
    remove_last_mmp();
    ++changes;
  }
  return changes;
}

void ScaleCluster::push_membership() {
  membership_dirty_ = true;
  proto::RingUpdate update;
  update.version = ++ring_version_;
  for (const auto& vm : mmps_)
    update.members.push_back(
        proto::RingUpdate::Member{vm->node(), vm->vm_code()});
  // Applied directly (management channel); the RingUpdate codec itself is
  // covered by the protocol tests.
  for (auto& mlb : mlbs_) mlb->apply_membership(update.members, update.version);
}

void ScaleCluster::migrate_after_membership_change() {
  for (const auto& vm : mmps_) {
    const auto keys = vm->app().store().keys_if([&](const UeContext& c) {
      return c.role == ContextRole::kMaster &&
             ring_.owner(c.rec.guti.key()) != vm->node();
    });
    for (std::uint64_t key : keys) vm->migrate_master(key, ring_.owner(key));
  }
}

std::uint64_t ScaleCluster::registered_devices() const {
  std::uint64_t n = 0;
  for (const auto& vm : mmps_) n += vm->app().store().count(ContextRole::kMaster);
  return n;
}

std::uint64_t ScaleCluster::total_requests() const {
  std::uint64_t n = 0;
  for (const auto& vm : mmps_) n += vm->requests_handled();
  for (const auto& vm : retired_) n += vm->requests_handled();
  return n;
}

void ScaleCluster::for_each_master(
    const std::function<void(UeContext&)>& fn) {
  for (const auto& vm : mmps_)
    vm->app().store().for_each([&](UeContext& ctx) {
      if (ctx.role == ContextRole::kMaster) fn(ctx);
    });
}

void ScaleCluster::for_each_master(
    const std::function<void(epc::UeContextStore&, mme::UeContext&)>& fn) {
  for (const auto& vm : mmps_) {
    auto& store = vm->app().store();
    store.for_each([&](UeContext& ctx) {
      if (ctx.role == ContextRole::kMaster) fn(store, ctx);
    });
  }
}

void ScaleCluster::update_access_frequencies() {
  // Dense slot-order sweep (epoch_scan): each visit is independent — a
  // per-context EWMA update and a hit reset — so the
  // insertion-history-dependent slot order cannot leak into trajectories.
  for (const auto& vm : mmps_) {
    vm->app().store().epoch_scan([this](UeContext& ctx, std::uint32_t& hits) {
      if (ctx.role == ContextRole::kMaster) {
        const double hit = hits > 0 ? 1.0 : 0.0;
        ctx.rec.access_freq =
            cfg_.wi_alpha * hit + (1.0 - cfg_.wi_alpha) * ctx.rec.access_freq;
      }
      hits = 0;
    });
  }
}

double ScaleCluster::compute_beta(std::uint64_t registered) {
  if (!policy_.access_aware || policy_.low_access_threshold <= 0.0 ||
      registered == 0)
    return 1.0;
  std::uint64_t k_hat = 0;
  // Dense scan: a pure count, so slot order is immaterial.
  for (const auto& vm : mmps_) {
    vm->app().store().scan([&](const UeContext& ctx) {
      if (ctx.role == ContextRole::kMaster &&
          ctx.rec.access_freq <= policy_.low_access_threshold)
        ++k_hat;
    });
  }
  const auto s_new = static_cast<std::uint64_t>(
      cfg_.new_device_reserve * static_cast<double>(registered));
  const auto s_ext = static_cast<std::uint64_t>(geo_->budget());
  return Provisioner::beta_for(k_hat, s_new, s_ext, policy_.local_copies,
                               registered);
}

std::size_t ScaleCluster::resync_replicas() {
  std::size_t pushed = 0;
  for (const auto& vm : mmps_) {
    const auto keys = vm->app().store().keys_if([](const UeContext& c) {
      return c.role == ContextRole::kMaster;
    });
    for (std::uint64_t key : keys) {
      UeContext* ctx = vm->app().store().find(key);
      if (ctx != nullptr) {
        vm->resync_replica(*ctx);
        ++pushed;
      }
    }
  }
  return pushed;
}

std::size_t ScaleCluster::run_geo_selection() {
  if (!geo_->has_peers()) return 0;
  std::size_t pushes = 0;
  const std::uint64_t quota = geo_->per_vm_external_quota(mmps_.size());
  constexpr double kGeoWiThreshold = 0.5;
  for (const auto& vm : mmps_) {
    // Candidates: high-access-probability masters without an external
    // replica yet (§4.5.2: wᵢ ≥ 0.5, replicated proportional to wᵢ).
    std::vector<std::pair<std::uint64_t, double>> candidates;
    double total_w = 0.0;
    vm->app().store().for_each([&](UeContext& ctx) {
      if (ctx.role != ContextRole::kMaster) return;
      if (ctx.rec.access_freq < kGeoWiThreshold) return;
      // Re-select devices whose external replica sits at a DC that stopped
      // accepting work (persistent overload there): their replica is
      // useless until that DC recovers.
      const bool needs_placement =
          ctx.rec.external_dc < 0 ||
          !geo_->peer_accepting(
              static_cast<std::uint32_t>(ctx.rec.external_dc));
      if (!needs_placement) return;
      candidates.emplace_back(ctx.rec.guti.key(), ctx.rec.access_freq);
      total_w += ctx.rec.access_freq;
    });
    SCALE_DEBUG("geo_selection vm=" << vm->node() << " candidates="
                                    << candidates.size() << " quota="
                                    << quota << " total_w=" << total_w);
    if (candidates.empty() || total_w <= 0.0) continue;
    std::uint64_t used = 0;
    for (const auto& [key, wi] : candidates) {
      if (used >= quota) break;
      const double p = std::min(
          1.0, static_cast<double>(quota) * wi / total_w);
      if (!rng_.chance(p)) continue;
      const auto remote = geo_->choose_remote(rng_);
      if (!remote) break;
      vm->geo_replicate(key, *remote);
      ++used;
      ++pushes;
    }
  }
  return pushes;
}

ScaleCluster::EpochReport ScaleCluster::run_epoch() {
  EpochReport report;
  ++epoch_index_;

  const std::uint64_t total = total_requests();
  report.measured_load = total - requests_snapshot_;
  requests_snapshot_ = total;

  update_access_frequencies();
  report.registered = registered_devices();

  report.beta = compute_beta(report.registered);
  provisioner_.set_beta(report.beta);
  report.decision = provisioner_.decide(report.measured_load,
                                        report.registered);
  const std::size_t before = mmps_.size();
  resize(report.decision.vms);
  if (before != mmps_.size()) migrate_after_membership_change();

  // Refresh S_m from the new VM count and Eq. 3's probability scale.
  const double sm = cfg_.geo.budget_fraction *
                    static_cast<double>(mmps_.size()) *
                    static_cast<double>(cfg_.provisioner.devices_per_vm);
  geo_->set_budget(geo_->has_peers() ? sm : 0.0);

  if (policy_.access_aware && report.registered > 0) {
    const double capacity = static_cast<double>(mmps_.size()) *
                            static_cast<double>(cfg_.provisioner.devices_per_vm);
    const double s_new = cfg_.new_device_reserve *
                         static_cast<double>(report.registered);
    const double spare =
        capacity - s_new - geo_->budget() -
        static_cast<double>(report.registered);
    double total_w = 0.0;
    for_each_master([&](UeContext& ctx) { total_w += ctx.rec.access_freq; });
    if (spare >= static_cast<double>(report.registered) *
                     (policy_.local_copies - 1.0)) {
      policy_.probability_scale = 1e18;  // no memory pressure
    } else if (total_w > 0.0 && spare > 0.0) {
      policy_.probability_scale = spare / total_w;  // Eq. 3
    } else if (spare <= 0.0) {
      policy_.probability_scale = 0.0;
    }
  }

  enforce_geo_budget();
  // Re-establish local replicas (policy-gated) only after membership churn:
  // a crash or resize since the last epoch may have destroyed replica copies
  // whose masters never noticed (the master does not track where its copies
  // live). Skipped in steady state — a full re-push every epoch would tax
  // already-loaded VMs for nothing.
  if (membership_dirty_) {
    report.resyncs = resync_replicas();
    membership_dirty_ = false;
  }
  report.geo_pushes = run_geo_selection();
  last_report_ = report;

  SCALE_INFO("epoch " << epoch_index_ << ": load="
                      << report.measured_load << " K=" << report.registered
                      << " beta=" << report.beta << " V="
                      << report.decision.vms);
  return report;
}

void ScaleCluster::enforce_geo_budget() {
  // §4.5.2 DC-level (v): "if at any stage Ŝm ≥ Sm or Ŝm = Sm = 0
  // (over-load), it requests the other DCs to appropriately reduce their
  // share of device states stored in DC i". Evict lowest-wᵢ external
  // contexts until within budget, then tell the owning DCs to drop their
  // now-dangling markers.
  if (!geo_->has_peers() || geo_->used() <= geo_->budget()) return;
  const double fraction = 1.0 - geo_->budget() / geo_->used();

  std::vector<std::pair<double, std::pair<MmpNode*, std::uint64_t>>> ext;
  for (auto& vm : mmps_) {
    vm->app().store().for_each([&](UeContext& ctx) {
      if (ctx.role == ContextRole::kExternal)
        ext.push_back({ctx.rec.access_freq, {vm.get(), ctx.rec.guti.key()}});
    });
  }
  std::sort(ext.begin(), ext.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto to_evict = static_cast<std::size_t>(
      fraction * static_cast<double>(ext.size()));
  for (std::size_t i = 0; i < to_evict && i < ext.size(); ++i) {
    ext[i].second.first->app().remove_context(ext[i].second.second);
    geo_->release_external();
  }

  proto::GeoEvictRequest req;
  req.dc_id = cfg_.home_dc;
  req.fraction = fraction;
  geo_->send_to_peers(proto::box(req));  // one box for every peer
}

void ScaleCluster::on_evict_request(const proto::GeoEvictRequest& evict) {
  // A peer DC shrank its external budget: clear the external markers of
  // our lowest-wᵢ devices replicated there so we stop offloading to ghosts
  // (GeoReject self-healing covers any stragglers).
  std::vector<std::pair<double, mme::UeContext*>> marked;
  for (auto& vm : mmps_) {
    vm->app().store().for_each([&](UeContext& ctx) {
      if (ctx.role == ContextRole::kMaster &&
          ctx.rec.external_dc ==
              static_cast<std::int32_t>(evict.dc_id))
        marked.push_back({ctx.rec.access_freq, &ctx});
    });
  }
  std::sort(marked.begin(), marked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto n = static_cast<std::size_t>(
      std::clamp(evict.fraction, 0.0, 1.0) *
      static_cast<double>(marked.size()));
  for (std::size_t i = 0; i < n && i < marked.size(); ++i)
    marked[i].second->rec.external_dc = -1;
}

void ScaleCluster::start() {
  if (running_) return;
  running_ = true;
  // Seed the external-state budget before the first epoch so early gossip
  // advertises real capacity.
  if (geo_->has_peers()) {
    geo_->set_budget(cfg_.geo.budget_fraction *
                     static_cast<double>(mmps_.size()) *
                     static_cast<double>(cfg_.provisioner.devices_per_vm));
  }
  geo_->start_gossip();
  if (cfg_.auto_epochs)
    fabric_.engine().after(cfg_.epoch, [this]() { epoch_chain(); });
}

void ScaleCluster::epoch_chain() {
  run_epoch();
  fabric_.engine().after(cfg_.epoch, [this]() { epoch_chain(); });
}

}  // namespace scale::core
