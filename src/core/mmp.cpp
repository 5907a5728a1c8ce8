#include "core/mmp.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::core {

using epc::ContextRole;
using mme::UeContext;

namespace {

/// Steer-away hint of every OverloadReject, binary or governed.
constexpr Duration kShedBackoff = Duration::ms(200.0);
/// CPU backlog from which Active-mode work may be geo-offloaded (§4.6).
constexpr Duration kOffloadBacklog = Duration::ms(40.0);

/// Procedure type of an Initial UE message, for priority-ordered shedding.
proto::ProcedureType initial_procedure(const proto::NasMessage& nas) {
  if (std::holds_alternative<proto::NasAttachRequest>(nas))
    return proto::ProcedureType::kAttach;
  if (std::holds_alternative<proto::NasTauRequest>(nas))
    return proto::ProcedureType::kTrackingAreaUpdate;
  if (std::holds_alternative<proto::NasDetachRequest>(nas))
    return proto::ProcedureType::kDetach;
  return proto::ProcedureType::kServiceRequest;
}

/// Cap the governor's paging stretch at the transport's retry horizon: a
/// page deferred past the last retransmission of a reliable send could
/// arrive after the channel has already abandoned it.
MmpNode::Config clamp_paging_defer(MmpNode::Config cfg,
                                   const epc::TransportConfig& transport) {
  if (cfg.governor.enabled && transport.reliable) {
    const Duration horizon = transport.retry_horizon();
    if (cfg.governor.max_paging_defer > horizon)
      cfg.governor.max_paging_defer = horizon;
  }
  return cfg;
}

}  // namespace

MmpNode::MmpNode(epc::Fabric& fabric, Config cfg)
    : mme::ClusterVm(fabric, cfg.base),
      mmp_cfg_(clamp_paging_defer(std::move(cfg), fabric.transport())),
      governor_(mmp_cfg_.governor), rng_(mmp_cfg_.seed) {
  if (governor_.enabled()) {
    // Reassess pressure (EWMA included) on every utilization sample,
    // independent of traffic — levels decay back to Nominal even when no
    // new requests arrive.
    util_.set_sample_hook([this] { governor_.assess(pressure_signals()); });
  }
}

PressureSignals MmpNode::pressure_signals() const {
  PressureSignals sig;
  sig.backlog = cpu_.backlog();
  sig.utilization = util_.utilization();
  sig.in_flight = app().in_flight();
  return sig;
}

double MmpNode::load_score() const {
  // Fold the governor's pressure band into the advertised load so the MLB
  // steers away from a VM that has begun shedding before its utilization
  // EWMA catches up.
  double score = mme::ClusterVm::load_score();
  if (governor_.enabled())
    score += static_cast<double>(static_cast<int>(governor_.level()));
  return score;
}

Duration MmpNode::paging_defer() const { return governor_.paging_defer(); }

bool MmpNode::is_master_of(std::uint64_t guti_key) const {
  return ring_ != nullptr && !ring_->empty() &&
         ring_->owner(guti_key) == node();
}

std::optional<NodeId> MmpNode::local_replica_target(
    std::uint64_t guti_key) {
  if (ring_ == nullptr || ring_->empty()) return std::nullopt;
  // Master's replica lives at the next distinct node clockwise; if *we*
  // are the replica serving an Active run, sync back to the master.
  ring_->preference_list(guti_key, 2, prefs_);
  if (prefs_.size() < 2) return std::nullopt;
  if (prefs_[0] == node()) return prefs_[1];
  return prefs_[0];
}

void MmpNode::handle_forward(NodeId from, const proto::PduRef& pdu,
                             const proto::ClusterForward& fwd) {
  const proto::Pdu& inner = fwd.inner->value;

  // Only Initial UE messages participate in forward-to-master / offload
  // logic; everything else (S11/S6 responses, uplink NAS) is mid-procedure
  // and must be handled here (the MLB routed it by our embedded code).
  const auto* s1ap = std::get_if<proto::S1apMessage>(&inner);
  const bool initial =
      s1ap != nullptr &&
      std::holds_alternative<proto::InitialUeMessage>(*s1ap);

  if (initial && fwd.guti.valid()) {
    const std::uint64_t key = fwd.guti.key();
    UeContext* ctx = app().store().find(key);
    const auto* init = std::get_if<proto::InitialUeMessage>(s1ap);
    const bool is_attach =
        std::holds_alternative<proto::NasAttachRequest>(init->nas);

    if (ctx == nullptr && !is_attach && !is_master_of(key) &&
        ring_ != nullptr && !ring_->empty()) {
      // "it forwards the request to the master MMP if it does not have the
      // state of the device" (§4.6 task (2)).
      const NodeId master = ring_->owner(key);
      if (master != node()) {
        ++forwarded_to_master_;
        // Fast path: redirects happen at ingestion (dispatcher thread),
        // ahead of the worker queue — a redirect must not wait behind the
        // very backlog it is escaping.
        rel_.send(master, pdu);
        return;
      }
    }

    if (ctx != nullptr && fwd.no_offload && ctx->rec.external_dc >= 0) {
      // A geo offload bounced (remote replica gone): clear the marker so
      // future requests stop trying that DC (self-healing after eviction).
      ctx->rec.external_dc = -1;
    }
    // Offload decision (§4.6 task (3), "if its load is above a threshold"):
    // divert when the request is estimated to complete sooner remotely —
    // local queued work vs the peer's gossiped queue plus the propagation
    // penalty. The minimum-backlog guard keeps lightly loaded VMs serving
    // everything locally.
    bool divert = false;
    const Duration backlog = cpu().backlog();
    if (ctx != nullptr && geo_ != nullptr && ctx->rec.external_dc >= 0 &&
        backlog >= kOffloadBacklog) {
      const auto dc = static_cast<std::uint32_t>(ctx->rec.external_dc);
      if (geo_->config().selection == GeoManager::Selection::kUniform) {
        divert = true;  // RDM baselines: overloaded → forward, blind
      } else {
        divert = backlog.to_sec() > geo_->peer_queue_cost(dc);
      }
    }
    if (ctx != nullptr && !fwd.no_offload && geo_ != nullptr &&
        ctx->rec.external_dc >= 0 && divert) {
      // "it forwards the processing request to the MLB of the appropriate
      // remote DC, if its load is above a threshold, and the device's
      // state has been replicated externally" (§4.6 task (3)).
      const NodeId remote_mlb =
          geo_->mlb_of_dc(static_cast<std::uint32_t>(ctx->rec.external_dc));
      if (remote_mlb != 0) {
        ++geo_offloads_;
        if (obs::Tracer* tr = obs::Tracer::current()) {
          obs::Json args = obs::Json::object();
          args.set("remote_mlb", remote_mlb);
          args.set("guti", fwd.guti.str());
          tr->instant(node(), "geo_offload", fabric_.engine().now(),
                      std::move(args));
        }
        proto::GeoForward gf;
        gf.origin = fwd.origin;
        gf.home_dc = geo_->dc_id();
        gf.home_mlb = lb();
        gf.guti = fwd.guti;
        gf.inner = fwd.inner;
        // Fast path (see forward-to-master above).
        rel_.send(remote_mlb, proto::box(std::move(gf)));
        return;
      }
    }

    // Overload shedding: a bounded ingress queue instead of silent growth.
    // Checked last — forward-to-master and geo-offload already move the
    // work elsewhere cheaply. no_offload forwards are final (an MLB
    // re-steer or geo bounce): shedding those would ping-pong forever, so
    // they always join the queue. Two modes: the graduated governor
    // (watermark bands, priority-ordered) when enabled, else the legacy
    // binary backlog threshold.
    const bool governed = governor_.enabled();
    if (!fwd.no_offload && lb() != 0 &&
        (governed || mmp_cfg_.shed_backlog > Duration::zero())) {
      const proto::ProcedureType ptype = initial_procedure(init->nas);
      bool shed = false;
      PressureLevel level = PressureLevel::kNominal;
      if (governed) {
        const OverloadGovernor::Decision d =
            governor_.admit(pressure_signals(), ptype);
        shed = !d.admit;
        level = d.level;
      } else {
        shed = backlog >= mmp_cfg_.shed_backlog;
      }
      if (shed) {
        ++overload_sheds_;
        ++sheds_by_type_[static_cast<std::size_t>(ptype)];
        if (obs::Tracer* tr = obs::Tracer::current()) {
          obs::Json args = obs::Json::object();
          args.set("guti", fwd.guti.str());
          args.set("backlog_ms", backlog.to_ms());
          if (governed) {
            args.set("procedure", proto::procedure_name(ptype));
            args.set("level", pressure_level_name(level));
          }
          tr->instant(node(), governed ? "overload_action" : "overload_shed",
                      fabric_.engine().now(), std::move(args));
        }
        proto::OverloadReject rej;
        rej.mmp_node = node();
        rej.origin = fwd.origin;
        rej.guti = fwd.guti;
        rej.backoff_us = static_cast<std::uint64_t>(kShedBackoff.count_us());
        rej.procedure = static_cast<std::uint8_t>(ptype);
        rej.level = static_cast<std::uint8_t>(level);
        rej.inner = fwd.inner;
        // Fast path, but reliable: losing the reject would strand the
        // request.
        rel_.send(lb(), proto::box(std::move(rej)));
        return;
      }
    }
  }

  ClusterVm::handle_forward(from, pdu, fwd);
}

void MmpNode::handle_other_cluster(NodeId from,
                                   const proto::ClusterMessage& msg) {
  if (const auto* gf = std::get_if<proto::GeoForward>(&msg)) {
    const std::uint64_t key = gf->guti.key();
    UeContext* ctx = app().store().find(key);
    if (ctx == nullptr || gf->inner == nullptr) {
      // External replica not here (evicted / never landed): bounce home.
      ++geo_rejects_;
      proto::GeoReject rej;
      rej.guti = gf->guti;
      rej.inner = gf->inner;
      rej.origin = gf->origin;
      if (gf->home_mlb != 0)
        rel_.send(gf->home_mlb, proto::box(std::move(rej)));
      return;
    }
    ++geo_served_;
    dispatch(gf->origin, gf->inner->value, &gf->guti);
    return;
  }
  (void)from;
  SCALE_DEBUG("MMP ignoring " << proto::cluster_name(msg));
}

ContextRole MmpNode::classify_replica(const proto::UeContextRecord& rec) {
  if (rec.home_dc != app().config().home_dc) {
    // External state from a remote DC: consumes the geo budget; when full,
    // keep it anyway but flag budget exhaustion via the manager (the DC
    // asked peers to shrink in that case).
    if (geo_ != nullptr) geo_->accept_external();
    return ContextRole::kExternal;
  }
  const std::uint64_t key = rec.guti.key();
  return is_master_of(key) ? ContextRole::kMaster : ContextRole::kReplica;
}

void MmpNode::after_procedure(UeContext& ctx, proto::ProcedureType type) {
  // Attach must replicate immediately (the copy does not exist yet, §5);
  // other procedures may defer to the Idle-transition bulk sync.
  if (policy_ != nullptr && !policy_->sync_every_procedure &&
      type != proto::ProcedureType::kAttach) {
    ctx.replica_dirty = true;
    return;
  }
  replicate_local(ctx);
}

void MmpNode::on_state_adopted(UeContext& ctx) {
  // A migrated/reassigned master must not stay un-replicated until the
  // device's next request — the old replica may have died with the VM that
  // triggered the migration.
  replicate_local(ctx);
}

void MmpNode::on_idle(UeContext& ctx) {
  // E2: bulk replica synchronization when the device returns to Idle.
  replicate_local(ctx);
}

void MmpNode::before_detach(UeContext& ctx) {
  if (ctx.role == ContextRole::kExternal && geo_ != nullptr)
    geo_->release_external();
  const auto target = local_replica_target(ctx.key());
  if (target && *target != node()) {
    proto::ReplicaDelete del;
    del.guti = ctx.rec.guti;
    send_direct(*target, proto::ClusterMessage{del});
  }
}

void MmpNode::replicate_local(UeContext& ctx) {
  if (ctx.role == ContextRole::kExternal) {
    // Processed on behalf of a remote DC: sync the updated state home so
    // the master copy stays authoritative.
    if (geo_ != nullptr) {
      const NodeId home_mlb = geo_->mlb_of_dc(ctx.rec.home_dc);
      if (home_mlb != 0) push_replica(home_mlb, ctx.rec, /*geo=*/false);
    }
    return;
  }
  if (ring_ == nullptr || ring_->empty()) return;
  const unsigned copies = policy_ != nullptr ? policy_->local_copies : 2;
  ring_->preference_list(ctx.key(), std::max(2u, copies), prefs_);
  const auto& prefs = prefs_;
  if (prefs.empty()) return;
  if (prefs[0] == node()) {
    // This VM is the hash-ring master: replicate to the next R−1 distinct
    // ring successors, gated by the (access-aware) policy.
    if (ctx.role != ContextRole::kMaster)
      app().store().set_role(ctx, ContextRole::kMaster);
    if (prefs.size() < 2 || copies < 2) return;
    if (policy_ != nullptr &&
        !policy_->should_replicate(ctx.rec.access_freq, rng_))
      return;
    for (std::size_t i = 1; i < prefs.size() && i < copies; ++i)
      push_replica(prefs[i], ctx.rec, /*geo=*/false);
  } else {
    // This VM served the request as the replica (fine-grained load
    // balancing, §4.6): the master copy must always be brought up to date,
    // regardless of replication policy.
    if (ctx.role == ContextRole::kMaster)
      app().store().set_role(ctx, ContextRole::kReplica);
    push_replica(prefs[0], ctx.rec, /*geo=*/false);
  }
}

void MmpNode::migrate_master(std::uint64_t guti_key, NodeId new_owner) {
  UeContext* ctx = app().store().find(guti_key);
  if (ctx == nullptr || new_owner == node()) return;
  proto::PduRef xfer = proto::box(proto::StateTransfer{ctx->rec});
  // Keep a demoted copy only if this VM is the new ring-replica target.
  bool keep_as_replica = false;
  if (ring_ != nullptr && !ring_->empty())
    keep_as_replica = ring_->replica_of(guti_key) == node();
  if (keep_as_replica) {
    app().store().set_role(*ctx, ContextRole::kReplica);
  } else {
    app().remove_context(guti_key);
  }
  cpu().execute(app().config().profile.state_transfer_tx,
                [this, new_owner, xfer = std::move(xfer)]() mutable {
                  rel_.send(new_owner, std::move(xfer));
                });
}

void MmpNode::geo_replicate(std::uint64_t guti_key, std::uint32_t dc) {
  UeContext* ctx = app().store().find(guti_key);
  if (ctx == nullptr || geo_ == nullptr) return;
  const NodeId remote_mlb = geo_->mlb_of_dc(dc);
  if (remote_mlb == 0) return;
  ctx->rec.external_dc = static_cast<std::int32_t>(dc);
  ctx->rec.version++;
  push_replica(remote_mlb, ctx->rec, /*geo=*/true);
  // Keep the local replica copy in sync so whichever VM the MLB picks at
  // the next Idle→Active transition knows about the external replica.
  const auto target = local_replica_target(guti_key);
  if (target && *target != node())
    push_replica(*target, ctx->rec, /*geo=*/false);
}

void MmpNode::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  ClusterVm::export_metrics(reg, prefix);
  reg.set_counter(prefix + ".geo_offloads", geo_offloads_);
  reg.set_counter(prefix + ".geo_served", geo_served_);
  reg.set_counter(prefix + ".geo_rejects", geo_rejects_);
  reg.set_counter(prefix + ".forwarded_to_master", forwarded_to_master_);
  reg.set_counter(prefix + ".overload_sheds", overload_sheds_);
  for (const proto::ProcedureType p : proto::kAllProcedures) {
    reg.set_counter(prefix + ".overload_sheds." + proto::procedure_name(p),
                    sheds_by_type_[static_cast<std::size_t>(p)]);
  }
  if (governor_.enabled()) governor_.export_metrics(reg, prefix + ".overload");
}

}  // namespace scale::core
