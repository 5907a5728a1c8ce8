#include "core/steering.h"

#include "common/check.h"
#include "hash/md5.h"
#include "obs/registry.h"

namespace scale::core {

// ------------------------------------------------------------ MmpLoadView

void MmpLoadView::on_report(NodeId mmp, double load, std::uint32_t active,
                            Time now) {
  MmpLoadInfo& info = mmps_[mmp];
  if (info.reports == 0) {
    ++reported_count_;
    info.ewma = load;  // first report seeds the average
  } else {
    info.ewma = cfg_.ewma_alpha * load + (1.0 - cfg_.ewma_alpha) * info.ewma;
  }
  info.last_report = load;
  info.report_at = now;
  info.active_devices = active;
  ++info.reports;
}

void MmpLoadView::on_reject(NodeId mmp, Time backoff_until) {
  MmpLoadInfo& info = mmps_[mmp];
  info.shed_until = backoff_until;
  ++info.rejects;
}

bool MmpLoadView::has_report(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  return it != mmps_.end() && it->second.reported();
}

double MmpLoadView::load_of(NodeId mmp) const {
  const auto it = mmps_.find(mmp);
  if (it == mmps_.end() || !it->second.reported()) return kNoLoadReport;
  return it->second.ewma;
}

double MmpLoadView::effective_load(NodeId mmp) const {
  const double load = load_of(mmp);
  return load == kNoLoadReport ? 0.0 : load;
}

Duration MmpLoadView::report_age(NodeId mmp, Time now) const {
  const auto it = mmps_.find(mmp);
  if (it == mmps_.end() || !it->second.reported()) return Duration::max();
  return now - it->second.report_at;
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
    if (info.reported() && info.ewma >= limit) return true;
  return false;
}

double MmpLoadView::mean_load() const {
  if (reported_count_ == 0) return 0.0;
  double total = 0.0;
  for (const auto& [mmp, info] : mmps_)
    if (info.reported()) total += info.ewma;
  return total / static_cast<double>(reported_count_);
}

// ----------------------------------------------------------------- naming

const char* steer_reason_name(SteerReason r) {
  switch (r) {
    case SteerReason::kOnlyCandidate: return "only_candidate";
    case SteerReason::kLeastLoaded: return "least_loaded";
    case SteerReason::kApertureLocal: return "aperture_local";
    case SteerReason::kApertureSpill: return "aperture_spill";
    case SteerReason::kP2cWinner: return "p2c_winner";
    case SteerReason::kProbe: return "probe";
    case SteerReason::kAllEjected: return "all_ejected";
  }
  return "unknown";
}

const char* steering_policy_name(SteeringPolicyKind kind) {
  switch (kind) {
    case SteeringPolicyKind::kRingLeastLoaded: return "ring";
    case SteeringPolicyKind::kDeterministicAperture: return "aperture";
    case SteeringPolicyKind::kPowerOfTwoChoices: return "p2c";
  }
  return "unknown";
}

// --------------------------------------------------------- RingLeastLoaded

SteeringDecision RingLeastLoaded::pick(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  if (ctx.prefs.size() == 1)
    return {ctx.prefs.front(), SteerReason::kOnlyCandidate};
  // The seed loop, verbatim: candidates inside a shed-backoff window lose
  // to any candidate outside one; within a class, least load wins with
  // first-in-list tie-break.
  NodeId best = 0;
  bool best_shed = true;
  double best_load = 0.0;
  for (const hash::RingNodeId candidate : ctx.prefs) {
    const bool shed = ctx.view.in_backoff(candidate, ctx.now);
    const double load = ctx.view.effective_load(candidate);
    if (best == 0 || (!shed && best_shed) ||
        (shed == best_shed && load < best_load)) {
      best = candidate;
      best_shed = shed;
      best_load = load;
    }
  }
  return {best, SteerReason::kLeastLoaded};
}

// ---------------------------------------------------- DeterministicAperture

bool DeterministicAperture::in_aperture(const hash::ConsistentHashRing& ring,
                                        NodeId node) const {
  const std::vector<hash::RingNodeId> nodes = ring.nodes();  // sorted
  const std::size_t n = nodes.size();
  if (n == 0) return false;
  const std::size_t width = std::min<std::size_t>(cfg_.width, n);
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), node);
  if (it == nodes.end() || *it != node) return false;
  const std::size_t idx = static_cast<std::size_t>(it - nodes.begin());
  const std::size_t peers = std::max(1u, cfg_.peer_count);
  const std::size_t start = (static_cast<std::size_t>(cfg_.peer_index) * n) /
                            peers;
  return (idx + n - start) % n < width;
}

SteeringDecision DeterministicAperture::pick(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  if (ctx.prefs.size() == 1)
    return {ctx.prefs.front(), SteerReason::kOnlyCandidate};
  // Three-key lexicographic scan, first-in-list tie-break: backoff class
  // first (never steer fresh work into a shedding VM if avoidable), the
  // MLB's aperture window next, effective load last.
  NodeId best = 0;
  bool best_shed = true;
  bool best_local = false;
  double best_load = 0.0;
  for (const hash::RingNodeId candidate : ctx.prefs) {
    const bool shed = ctx.view.in_backoff(candidate, ctx.now);
    const bool local = in_aperture(ctx.ring, candidate);
    const double load = ctx.view.effective_load(candidate);
    bool wins = false;
    if (best == 0) {
      wins = true;
    } else if (shed != best_shed) {
      wins = !shed;
    } else if (local != best_local) {
      wins = local;
    } else {
      wins = load < best_load;
    }
    if (wins) {
      best = candidate;
      best_shed = shed;
      best_local = local;
      best_load = load;
    }
  }
  return {best, best_local ? SteerReason::kApertureLocal
                           : SteerReason::kApertureSpill};
}

// ------------------------------------------------------- PowerOfTwoChoices

SteeringDecision PowerOfTwoChoices::pick(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  const std::size_t n = ctx.prefs.size();
  if (n == 1) return {ctx.prefs.front(), SteerReason::kOnlyCandidate};
  // Stateless sampling: FNV-1a of the key yields the pair, so the same
  // device always races the same two candidates — deterministic across
  // runs and MLB peers, yet uniform across devices.
  const std::uint64_t h = hash::fnv1a_u64(ctx.key ^ 0x9E3779B97F4A7C15ull);
  const std::size_t i = static_cast<std::size_t>(h % n);
  const std::size_t j =
      (i + 1 + static_cast<std::size_t>((h >> 32) % (n - 1))) % n;
  const hash::RingNodeId a = ctx.prefs[std::min(i, j)];
  const hash::RingNodeId b = ctx.prefs[std::max(i, j)];
  const bool shed_a = ctx.view.in_backoff(a, ctx.now);
  const bool shed_b = ctx.view.in_backoff(b, ctx.now);
  if (shed_a != shed_b)
    return {shed_a ? b : a, SteerReason::kP2cWinner};
  const double load_a = ctx.view.effective_load(a);
  const double load_b = ctx.view.effective_load(b);
  // Tie goes to the earlier preference-list entry (the ring master):
  // locality is worth keeping when the load signal cannot separate them.
  return {load_b < load_a ? b : a, SteerReason::kP2cWinner};
}

// --------------------------------------------------- PassiveOutlierEjector

PassiveOutlierEjector::VmState& PassiveOutlierEjector::state_at(NodeId mmp,
                                                                Time now) {
  VmState& st = vms_[mmp];
  if (st.phase == Phase::kEjected && now >= st.ejected_until) {
    st.phase = Phase::kProbation;
    st.healthy_reports = 0;
  }
  return st;
}

std::size_t PassiveOutlierEjector::currently_ejected(Time now) const {
  std::size_t count = 0;
  for (const auto& [mmp, st] : vms_)
    if (st.phase == Phase::kEjected && now < st.ejected_until) ++count;
  return count;
}

bool PassiveOutlierEjector::ejection_allowed(const MmpLoadView& view,
                                             Time now) const {
  if (view.reported_count() < cfg_.min_pool) return false;
  const double limit = cfg_.max_eject_fraction *
                       static_cast<double>(view.reported_count());
  const std::size_t cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(limit));
  return currently_ejected(now) < cap;
}

void PassiveOutlierEjector::eject(VmState& st, Time now, bool repeat) {
  if (repeat) {
    st.backoff_mult = std::min(st.backoff_mult * 2, cfg_.max_backoff_mult);
    ++reejections_;
  } else {
    st.backoff_mult = 1;
    ++ejections_;
  }
  st.phase = Phase::kEjected;
  st.ejected_until =
      now + cfg_.base_ejection * static_cast<double>(st.backoff_mult);
  st.strikes = 0;
  st.healthy_reports = 0;
}

void PassiveOutlierEjector::on_load_report(NodeId mmp,
                                           const MmpLoadInfo& info,
                                           const MmpLoadView& view,
                                           Time now) {
  inner_->on_load_report(mmp, info, view, now);
  VmState& st = state_at(mmp, now);
  const bool outlier =
      view.reported_count() >= cfg_.min_pool &&
      info.ewma >= view.mean_load() * cfg_.factor + cfg_.margin;
  switch (st.phase) {
    case Phase::kHealthy:
      if (outlier) {
        if (++st.strikes >= cfg_.consecutive && ejection_allowed(view, now))
          eject(st, now, /*repeat=*/false);
      } else {
        st.strikes = 0;
      }
      break;
    case Phase::kEjected:
      break;  // sit out the window; state_at handles the expiry
    case Phase::kProbation:
      if (outlier) {
        eject(st, now, /*repeat=*/true);
      } else if (++st.healthy_reports >= cfg_.clear_reports) {
        st.phase = Phase::kHealthy;
        st.strikes = 0;
        st.backoff_mult = 1;
        ++readmissions_;
      }
      break;
  }
}

void PassiveOutlierEjector::on_overload_reject(NodeId mmp, Time now) {
  inner_->on_overload_reject(mmp, now);
  VmState& st = state_at(mmp, now);
  // A shed is direct evidence the VM cannot take steered work: it counts
  // as an outlier observation, and flunks a probation immediately.
  if (st.phase == Phase::kProbation) eject(st, now, /*repeat=*/true);
  else if (st.phase == Phase::kHealthy) ++st.strikes;
}

PassiveOutlierEjector::Phase PassiveOutlierEjector::phase_of(NodeId mmp,
                                                             Time now) const {
  const auto it = vms_.find(mmp);
  if (it == vms_.end()) return Phase::kHealthy;
  const VmState& st = it->second;
  if (st.phase == Phase::kEjected && now >= st.ejected_until)
    return Phase::kProbation;
  return st.phase;
}

SteeringDecision PassiveOutlierEjector::pick(const SteeringContext& ctx) {
  SCALE_CHECK(!ctx.prefs.empty());
  ++pick_seq_;
  const bool probe_turn =
      cfg_.probe_interval > 0 && pick_seq_ % cfg_.probe_interval == 0;
  std::vector<hash::RingNodeId> admitted;
  admitted.reserve(ctx.prefs.size());
  bool probed = false;
  for (const hash::RingNodeId candidate : ctx.prefs) {
    const Phase phase = phase_of(candidate, ctx.now);
    if (phase == Phase::kEjected) continue;
    if (phase == Phase::kProbation) {
      if (!probe_turn) continue;
      probed = true;
    }
    admitted.push_back(candidate);
  }
  if (admitted.empty()) {
    // Every candidate is ejected or on an off-turn probation: routing must
    // still happen — ignore the filter rather than drop the device.
    SteeringDecision d = inner_->pick(ctx);
    d.reason = SteerReason::kAllEjected;
    return d;
  }
  const SteeringContext filtered{ctx.key, admitted, ctx.ring, ctx.view,
                                 ctx.now};
  SteeringDecision d = inner_->pick(filtered);
  if (probed && phase_of(d.target, ctx.now) == Phase::kProbation) {
    ++probes_;
    d.reason = SteerReason::kProbe;
  }
  return d;
}

void PassiveOutlierEjector::export_metrics(obs::MetricsRegistry& reg,
                                           const std::string& prefix) const {
  inner_->export_metrics(reg, prefix);
  reg.set_counter(prefix + ".ejector.ejections", ejections_);
  reg.set_counter(prefix + ".ejector.reejections", reejections_);
  reg.set_counter(prefix + ".ejector.readmissions", readmissions_);
  reg.set_counter(prefix + ".ejector.probes", probes_);
  std::uint64_t out = 0;
  for (const auto& [mmp, st] : vms_)
    if (st.phase == Phase::kEjected) ++out;
  reg.set_counter(prefix + ".ejector.currently_ejected", out);
}

// ----------------------------------------------------------------- factory

std::unique_ptr<SteeringPolicy> make_steering_policy(
    const SteeringConfig& cfg) {
  std::unique_ptr<SteeringPolicy> policy;
  switch (cfg.policy) {
    case SteeringPolicyKind::kRingLeastLoaded:
      policy = std::make_unique<RingLeastLoaded>(std::max(1u, cfg.choices));
      break;
    case SteeringPolicyKind::kDeterministicAperture: {
      DeterministicAperture::Config ap;
      ap.choices = std::max(1u, cfg.choices);
      ap.width = std::max(1u, cfg.aperture_width);
      ap.peer_index = cfg.peer_index;
      ap.peer_count = std::max(1u, cfg.peer_count);
      policy = std::make_unique<DeterministicAperture>(ap);
      break;
    }
    case SteeringPolicyKind::kPowerOfTwoChoices: {
      PowerOfTwoChoices::Config p2c;
      p2c.width = std::max({1u, cfg.p2c_width, cfg.choices});
      policy = std::make_unique<PowerOfTwoChoices>(p2c);
      break;
    }
  }
  SCALE_CHECK(policy != nullptr);
  if (cfg.outlier_ejection)
    policy = std::make_unique<PassiveOutlierEjector>(std::move(policy),
                                                     cfg.outlier);
  return policy;
}

}  // namespace scale::core
