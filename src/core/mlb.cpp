#include "core/mlb.h"

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::core {

namespace {

/// CPU charged per Initial UE message, re-steer and geo message: ring
/// lookups hash MD5 and consult the load view.
constexpr Duration kRouteCost = Duration::us(35);
/// Graduated sheds of deferrable work are dropped instead of re-steered
/// when the best alternative reports at least this load (DESIGN.md §9).
constexpr double kDropLoadLimit = 3.0;
/// Edge backpressure engages when any reported load reaches this.
constexpr double kPressureLoadLimit = 2.0;
/// Pacing window an OverloadStart asks a dry-bucket eNB to keep.
constexpr Duration kEnbBackoffWindow = Duration::ms(250.0);

}  // namespace

// ------------------------------------------------------------ MmpLoadView

void MmpLoadView::on_report(NodeId mmp, double load) {
  Entry& info = mmps_[mmp];
  info.load = load;
  info.reported = true;
}

void MmpLoadView::on_reject(NodeId mmp, Time backoff_until) {
  mmps_[mmp].shed_until = backoff_until;
}

bool MmpLoadView::has_report(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  return it != mmps_.end() && it->second.reported;
}

double MmpLoadView::load_of(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  if (it == mmps_.end() || !it->second.reported) return kNoLoadReport;
  return it->second.load;
}

double MmpLoadView::effective_load(NodeId mmp) const {
  const double load = load_of(mmp);
  return load == kNoLoadReport ? 0.0 : load;
}

bool MmpLoadView::in_backoff(NodeId mmp, Time now) const {
  const auto it = mmps_.find(mmp);
  return it != mmps_.end() && now < it->second.shed_until;
}

bool MmpLoadView::any_backoff(Time now) const {
  for (const auto& [mmp, info] : mmps_)
    if (now < info.shed_until) return true;
  return false;
}

bool MmpLoadView::any_load_at_least(double limit) const {
  for (const auto& [mmp, info] : mmps_)
    if (info.reported && info.load >= limit) return true;
  return false;
}

void MmpLoadView::export_metrics(obs::MetricsRegistry& reg,
                                 const std::string& prefix) const {
  // Keyed by NodeId so names enumerate sorted. Only VMs that have reported
  // appear — matching the seed's loads_ map surface.
  for (const auto& [mmp, info] : mmps_)
    if (info.reported) reg.set(prefix + "." + std::to_string(mmp), info.load);
}

// ---------------------------------------------------------------- steering

NodeId least_loaded(const std::vector<hash::RingNodeId>& candidates,
                    const MmpLoadView& view, Time now) {
  SCALE_CHECK(!candidates.empty());
  if (candidates.size() == 1) return candidates.front();
  NodeId best = 0;
  bool best_shed = true;
  double best_load = 0.0;
  for (const hash::RingNodeId candidate : candidates) {
    const bool shed = view.in_backoff(candidate, now);
    const double load = view.effective_load(candidate);
    if (best == 0 || (!shed && best_shed) ||
        (shed == best_shed && load < best_load)) {
      best = candidate;
      best_shed = shed;
      best_load = load;
    }
  }
  return best;
}

// --------------------------------------------------------------------- Mlb

Mlb::Mlb(Fabric& fabric, Config cfg)
    : FrontEnd(fabric,
               proto::Guti{cfg.plmn, cfg.mme_group, cfg.mme_code,
                           cfg.tmsi_base},
               cfg.cpu_speed, kRouteCost),
      cfg_(cfg), util_(fabric.engine(), cpu_), ring_(cfg.ring_tokens) {}

Mlb::~Mlb() { util_.stop(); }

void Mlb::apply_membership(
    const std::vector<proto::RingUpdate::Member>& members,
    std::uint64_t version) {
  if (version <= ring_version_ && ring_version_ != 0) return;
  ring_version_ = version;
  ring_ = hash::ConsistentHashRing(cfg_.ring_tokens);
  code_to_node_.fill(0);
  for (const auto& m : members) {
    ring_.add_node(m.node);
    code_to_node_[m.code] = m.node;
  }
}

double Mlb::load_of(NodeId mmp) const { return view_.load_of(mmp); }

bool Mlb::has_load_report(NodeId mmp) const { return view_.has_report(mmp); }

void Mlb::handle_overload_reject(proto::PduRef pdu) {
  const auto& rej = proto::message<proto::OverloadReject>(pdu);
  ++overload_rejects_;
  if (rej.procedure < proto::kProcedureTypeCount)
    ++rejects_by_type_[static_cast<std::size_t>(rej.procedure)];
  const Time now = fabric_.engine().now();
  view_.on_reject(rej.mmp_node,
                  now + Duration::us(static_cast<std::int64_t>(
                            rej.backoff_us)));
  if (rej.inner == nullptr) return;  // pure backoff hint, nothing to re-steer
  if (ring_.empty()) {
    ++unroutable_;
    return;
  }
  // Re-steer to the best alternative: the preference list with the shedder
  // erased in place, falling back to the shedder when nothing else is left.
  // no_offload marks the forward as final so the replica can neither
  // geo-offload nor shed it back (ping-pong guard).
  ring_.preference_list(rej.guti.key(), cfg_.choices, prefs_);
  std::erase(prefs_, rej.mmp_node);
  const NodeId target =
      prefs_.empty() ? rej.mmp_node : least_loaded(prefs_, view_, now);
  // Graduated sheds (level > 0) of deferrable work are dropped outright
  // when the re-steer would be futile: every candidate is already backing
  // off, or even the least-loaded target reports kDropLoadLimit — i.e. it
  // is saturated and shedding this class itself, so a forced accept would
  // only deepen the very queue the governor is draining. The device's own
  // retry timer beats that. Attach is only droppable when the shedder sat
  // at the kOverload band (the whole ladder above it already fired), and
  // binary sheds (level 0) keep the PR 1 always-re-steer behaviour.
  bool all_backed_off = true;
  for (const hash::RingNodeId c : prefs_)
    if (!view_.in_backoff(c, now)) all_backed_off = false;
  const auto ptype = static_cast<proto::ProcedureType>(rej.procedure);
  const bool deferrable =
      ptype == proto::ProcedureType::kTrackingAreaUpdate ||
      ptype == proto::ProcedureType::kServiceRequest ||
      ptype == proto::ProcedureType::kHandover;
  const bool droppable =
      deferrable || rej.level >= static_cast<std::uint8_t>(
                                     core::PressureLevel::kOverload);
  if (rej.level > 0 && droppable &&
      (all_backed_off ||
       view_.effective_load(target) >= kDropLoadLimit)) {
    ++overload_drops_;
    if (obs::Tracer* tr = obs::Tracer::current()) {
      obs::Json args = obs::Json::object();
      args.set("shedder", rej.mmp_node);
      args.set("procedure", proto::procedure_name(ptype));
      args.set("guti", rej.guti.str());
      tr->instant(node(), "shed_drop", now, std::move(args));
    }
    return;
  }
  ++overload_resteers_;
  if (obs::Tracer* tr = obs::Tracer::current()) {
    obs::Json args = obs::Json::object();
    args.set("shedder", rej.mmp_node);
    args.set("resteered_to", target);
    args.set("guti", rej.guti.str());
    tr->instant(node(), "shed_resteer", fabric_.engine().now(),
                std::move(args));
  }
  forward(target, rej.origin, rej.guti, rej.inner, /*no_offload=*/true);
}

bool Mlb::under_pressure(Time now) const {
  return view_.any_backoff(now) ||
         view_.any_load_at_least(kPressureLoadLimit);
}

void Mlb::maybe_backpressure(NodeId from) {
  if (cfg_.enb_bucket_rate <= 0.0) return;
  const Time now = fabric_.engine().now();
  if (!under_pressure(now)) return;
  auto [it, inserted] = enb_buckets_.try_emplace(
      from, cfg_.enb_bucket_rate, cfg_.enb_bucket_burst, now);
  if (it->second.try_take(now)) return;
  // Bucket dry: tell the eNB to pace. Rate-limit the signal to half the
  // window so a hot eNB is not flooded with duplicate OverloadStarts.
  auto [sig, first] = enb_signal_at_.try_emplace(from, Time::zero());
  if (!first && now < sig->second + kEnbBackoffWindow * 0.5) return;
  sig->second = now;
  ++backpressure_signals_;
  proto::OverloadStart start;
  start.level = 1;
  start.window_us =
      static_cast<std::uint64_t>(kEnbBackoffWindow.count_us());
  // Advisory: a lost signal just means the eNB keeps sending and the next
  // dry take re-signals; retransmitting a stale window would be worse.
  rel_.send_unreliable(from, proto::box(start));
}

NodeId Mlb::pick(NodeId enb, const proto::Guti& guti) {
  maybe_backpressure(enb);
  if (ring_.empty()) return 0;
  // Least-loaded among the preference-list nodes — only at Idle→Active
  // (§4.6: subsequent requests stick to the chosen VM until Idle).
  ring_.preference_list(guti.key(), cfg_.choices, prefs_);
  return least_loaded(prefs_, view_, fabric_.engine().now());
}

void Mlb::route_geo_forward(proto::PduRef pdu) {
  if (ring_.empty()) {
    ++unroutable_;
    return;
  }
  // Deliver to the VM the local ring maps this GUTI to; it holds the
  // external replica (or answers GeoReject if it was evicted).
  const NodeId mmp =
      ring_.owner(proto::message<proto::GeoForward>(pdu).guti.key());
  rel_.send(mmp, std::move(pdu));
}

void Mlb::route_geo_reject(proto::PduRef pdu) {
  const auto& rej = proto::message<proto::GeoReject>(pdu);
  if (ring_.empty() || rej.inner == nullptr) {
    ++unroutable_;
    return;
  }
  // The remote DC could not serve it: process locally, without offloading
  // again (loop guard).
  ring_.preference_list(rej.guti.key(), cfg_.choices, prefs_);
  forward(least_loaded(prefs_, view_, fabric_.engine().now()), rej.origin,
          rej.guti, rej.inner, /*no_offload=*/true);
}

void Mlb::on_cluster(NodeId from, const proto::PduRef& pdu,
                     const proto::ClusterMessage& msg) {
  if (const auto* load = std::get_if<proto::LoadReport>(&msg)) {
    view_.on_report(load->mmp_node, load->cpu_util);
  } else if (const auto* ring_update = std::get_if<proto::RingUpdate>(&msg)) {
    apply_membership(ring_update->members, ring_update->version);
  } else if (std::holds_alternative<proto::GeoForward>(msg)) {
    cpu_.execute(kRouteCost, [this, pdu]() mutable {
      route_geo_forward(std::move(pdu));
    });
  } else if (std::holds_alternative<proto::GeoReject>(msg)) {
    cpu_.execute(kRouteCost, [this, pdu]() mutable {
      route_geo_reject(std::move(pdu));
    });
  } else if (std::holds_alternative<proto::ReplicaPush>(msg)) {
    // Geo replica arriving from a remote DC: place it on the local ring
    // (§4.5.2: "the replication is done using a MLB VM of the remote DC,
    // which selects the MMP VM based on the hash ring of that DC").
    cpu_.execute(kRelayCost, [this, pdu]() mutable {
      if (ring_.empty()) {
        ++unroutable_;
        return;
      }
      const NodeId mmp = ring_.owner(
          proto::message<proto::ReplicaPush>(pdu).rec.guti.key());
      rel_.send(mmp, std::move(pdu));
    });
  } else if (std::holds_alternative<proto::OverloadReject>(msg)) {
    cpu_.execute(kRouteCost, [this, pdu]() mutable {
      handle_overload_reject(std::move(pdu));
    });
  } else if (std::holds_alternative<proto::GeoBudgetGossip>(msg) ||
             std::holds_alternative<proto::GeoEvictRequest>(msg)) {
    if (geo_sink_) geo_sink_(from, msg);
  } else {
    SCALE_DEBUG("MLB ignoring cluster message");
  }
}

void Mlb::export_metrics(obs::MetricsRegistry& reg,
                         const std::string& prefix) const {
  reg.set_counter(prefix + ".initial_routed", initial_routed());
  reg.set_counter(prefix + ".sticky_routed", sticky_routed());
  reg.set_counter(prefix + ".relays", relays());
  reg.set_counter(prefix + ".unroutable", unroutable_);
  reg.set_counter(prefix + ".overload_rejects", overload_rejects_);
  reg.set_counter(prefix + ".overload_resteers", overload_resteers_);
  reg.set_counter(prefix + ".overload_drops", overload_drops_);
  reg.set_counter(prefix + ".backpressure_signals", backpressure_signals_);
  for (const proto::ProcedureType p : proto::kAllProcedures) {
    reg.set_counter(prefix + ".overload_rejects." + proto::procedure_name(p),
                    rejects_by_type_[static_cast<std::size_t>(p)]);
  }
  reg.set(prefix + ".utilization", util_.utilization());
  reg.set(prefix + ".ring_version", static_cast<double>(ring_version_));
  rel_.export_metrics(reg, prefix + ".transport");
  view_.export_metrics(reg, prefix + ".load");
}

}  // namespace scale::core
