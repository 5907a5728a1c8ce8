// SteeringPolicy — the MLB's pluggable Idle→Active routing surface
// (ROADMAP item 3, DESIGN.md §11).
//
// The paper fixes one steering design point: MD5(GUTI) on the consistent
// hash ring, then least-loaded-of-R=2 over the preference list (§4.6). The
// mobility-load-balancing literature treats that as one point in a design
// space — so the decision is factored out of the MLB behind this interface:
//
//   * policies consume an MmpLoadView (per-MMP load EWMA, report age,
//     reject/backoff state — the MLB's complete per-VM metadata) plus the
//     ring preference list for the key, and return a deterministic pick
//     with a structured reason code;
//   * `RingLeastLoaded` is the paper's default, byte-identical to the seed
//     behaviour (the determinism fingerprint pins this);
//   * `DeterministicAperture` restricts each MLB VM to a bounded,
//     deterministically-offset window of the ring (Envoy/Twitter-style
//     d-aperture) so co-located MLBs spread replicas without coordination;
//   * `PowerOfTwoChoices` samples two candidates by a stateless hash of
//     the key and keeps the lower EWMA-reported load;
//   * `PassiveOutlierEjector` decorates any of the above: MMPs whose
//     reported load sits persistently above the pool mean are ejected from
//     steering and re-admitted through a probation probe cycle.
//
// Determinism contract (DESIGN.md §6): every pick is a pure function of
// (key, candidate list, view state, sim time) — no wall clock, no entropy,
// no unordered iteration — so any policy replays byte-identically across
// runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "hash/ring.h"
#include "sim/network.h"

namespace scale::obs {
class MetricsRegistry;
}  // namespace scale::obs

namespace scale::core {

using sim::NodeId;

/// Sentinel returned by load accessors for a VM that has never sent a
/// LoadReport. Distinct from a genuine "load 0.0" report: a fresh VM is an
/// unknown, not a provably idle server (see MmpLoadView::effective_load for
/// how steering treats it).
inline constexpr double kNoLoadReport = -1.0;

/// Everything the MLB knows about one MMP VM.
struct MmpLoadInfo {
  double ewma = 0.0;        ///< smoothed load (alpha = 1 ⇒ raw last report)
  double last_report = 0.0; ///< most recent raw LoadReport value
  Time report_at;           ///< sim time the last report arrived
  std::uint32_t active_devices = 0;
  std::uint64_t reports = 0;   ///< total LoadReports received
  Time shed_until;             ///< OverloadReject backoff window end
  std::uint64_t rejects = 0;   ///< total OverloadRejects from this VM
  bool reported() const { return reports > 0; }
};

/// The MLB's per-MMP metadata table — replaces the raw loads_/shed_until_
/// maps the seed kept. Ordered (std::map) so every walk is deterministic
/// without waivers. Policies read it; only the MLB writes it.
class MmpLoadView {
 public:
  struct Config {
    /// EWMA weight folded into `ewma` on each report: 1.0 (default) keeps
    /// the raw last report — the seed behaviour §4.6 describes (the MMP
    /// already smooths CPU utilization before reporting). Lower it when a
    /// policy wants balancer-side smoothing on top.
    double ewma_alpha = 1.0;
  };

  MmpLoadView() = default;
  explicit MmpLoadView(Config cfg) : cfg_(cfg) {}

  void on_report(NodeId mmp, double load, std::uint32_t active, Time now);
  void on_reject(NodeId mmp, Time backoff_until);

  bool has_report(NodeId mmp) const;
  /// Smoothed load, or kNoLoadReport when the VM never reported.
  double load_of(NodeId mmp) const;
  /// Load used for steering comparisons: optimistic 0.0 before the first
  /// report (a fresh VM must receive traffic immediately — and this is
  /// exactly the seed's defaulted-map behaviour, so RingLeastLoaded stays
  /// byte-identical), the EWMA afterwards.
  double effective_load(NodeId mmp) const;
  /// Age of the last report, or Duration::max() when none ever arrived.
  Duration report_age(NodeId mmp, Time now) const;
  bool in_backoff(NodeId mmp, Time now) const;

  /// Any VM still inside a shed-backoff window.
  bool any_backoff(Time now) const;
  /// Any reported load at or above `limit`.
  bool any_load_at_least(double limit) const;
  /// Mean over VMs that have reported (0.0 when none have).
  double mean_load() const;
  std::size_t reported_count() const { return reported_count_; }

  const std::map<NodeId, MmpLoadInfo>& entries() const { return mmps_; }

 private:
  Config cfg_;
  std::map<NodeId, MmpLoadInfo> mmps_;
  std::size_t reported_count_ = 0;
};

/// Why a policy picked the VM it picked (one counter per reason under
/// "mlb.steer.<policy>.picks.*").
enum class SteerReason : std::uint8_t {
  kOnlyCandidate = 0,  ///< candidate list had a single entry
  kLeastLoaded = 1,    ///< lowest effective load among the candidates
  kApertureLocal = 2,  ///< least loaded inside this MLB's aperture window
  kApertureSpill = 3,  ///< no candidate in the window; spilled to the ring
  kP2cWinner = 4,      ///< won the hashed two-candidate comparison
  kProbe = 5,          ///< probation probe admitted by the outlier ejector
  kAllEjected = 6,     ///< ejection filter emptied the list; filter ignored
};
inline constexpr std::size_t kSteerReasonCount = 7;

const char* steer_reason_name(SteerReason r);

struct SteeringDecision {
  NodeId target = 0;
  SteerReason reason = SteerReason::kLeastLoaded;
};

/// One routing question. `prefs` is the ring preference list for `key`,
/// already cut to the policy's candidate_width() (re-steer paths may have
/// filtered entries out — e.g. the shedding VM). Never empty.
struct SteeringContext {
  std::uint64_t key = 0;
  const std::vector<hash::RingNodeId>& prefs;
  const hash::ConsistentHashRing& ring;
  const MmpLoadView& view;
  Time now;
};

class SteeringPolicy {
 public:
  virtual ~SteeringPolicy() = default;

  /// Short stable identifier used in metric names ("ring", "aperture",
  /// "p2c").
  virtual const char* name() const = 0;

  /// How many distinct ring nodes the MLB should fetch into `prefs`.
  virtual std::size_t candidate_width() const = 0;

  /// The pick. Deterministic; must return one of ctx.prefs.
  virtual SteeringDecision pick(const SteeringContext& ctx) = 0;

  /// Observation hooks (the MLB calls these as metadata arrives; the
  /// outlier ejector is the only stateful consumer today).
  virtual void on_load_report(NodeId mmp, const MmpLoadInfo& info,
                              const MmpLoadView& view, Time now) {
    (void)mmp; (void)info; (void)view; (void)now;
  }
  virtual void on_overload_reject(NodeId mmp, Time now) {
    (void)mmp; (void)now;
  }

  /// Policy-specific counters under `prefix` (ejections, probes, ...).
  /// The pick-reason counters live in the MLB, which owns the pick loop.
  virtual void export_metrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const {
    (void)reg; (void)prefix;
  }
};

// ---------------------------------------------------------------- policies

/// The paper's §4.6 rule: least effective load among the R preference-list
/// nodes, candidates inside a shed-backoff window lose to any candidate
/// outside one, first-in-list tie-break. Byte-identical to the seed MLB.
class RingLeastLoaded final : public SteeringPolicy {
 public:
  explicit RingLeastLoaded(unsigned choices) : choices_(choices) {}
  const char* name() const override { return "ring"; }
  std::size_t candidate_width() const override { return choices_; }
  SteeringDecision pick(const SteeringContext& ctx) override;

 private:
  unsigned choices_;
};

/// Envoy/Twitter-style deterministic aperture adapted to a ring that also
/// places state: candidates still come from the key's (widened) preference
/// list — so a pick lands on a VM that holds, or neighbors, the device's
/// state — but each MLB VM deterministically prefers candidates inside its
/// own window of the sorted node list. Co-located MLBs thus exercise
/// different replicas of the same arc, flattening the load the single-ring
/// policy piles onto the master, with zero coordination.
class DeterministicAperture final : public SteeringPolicy {
 public:
  struct Config {
    unsigned choices = 2;  ///< pref-list width to consider (≥ ring R)
    unsigned width = 4;    ///< aperture window size, in ring nodes
    unsigned peer_index = 0;  ///< this MLB's index among the pool's MLBs
    unsigned peer_count = 1;
  };
  explicit DeterministicAperture(Config cfg) : cfg_(cfg) {}
  const char* name() const override { return "aperture"; }
  std::size_t candidate_width() const override {
    return std::max(cfg_.choices, cfg_.width);
  }
  SteeringDecision pick(const SteeringContext& ctx) override;

  /// True when `node` falls in this MLB's window of the ring's sorted node
  /// list (exposed for tests).
  bool in_aperture(const hash::ConsistentHashRing& ring, NodeId node) const;

 private:
  Config cfg_;
};

/// Power-of-two-choices over the EWMA-reported load: two candidates are
/// drawn from the preference list by a stateless FNV-1a hash of the key (no
/// RNG — the same key always samples the same pair, so runs replay), and
/// the lower effective load wins. Mitzenmacher's exponential improvement
/// over one random choice, with the ring providing state locality.
class PowerOfTwoChoices final : public SteeringPolicy {
 public:
  struct Config {
    unsigned width = 4;  ///< pref-list width the pair is sampled from
  };
  explicit PowerOfTwoChoices(Config cfg) : cfg_(cfg) {}
  const char* name() const override { return "p2c"; }
  std::size_t candidate_width() const override { return cfg_.width; }
  SteeringDecision pick(const SteeringContext& ctx) override;

 private:
  Config cfg_;
};

/// Passive outlier detection (Envoy outlier_detection_impl flavor): a VM
/// whose reported load sits persistently above the pool mean is *ejected*
/// from steering — removed from every candidate list — for an
/// exponentially-backed-off window, then re-admitted on probation, where
/// only periodic probe picks reach it until it proves healthy.
///
/// State machine (per VM):
///
///   Healthy --consecutive outlier reports--> Ejected(until)
///   Ejected --window elapses--> Probation
///   Probation --outlier report / overload reject--> Ejected(2× window)
///   Probation --clear_reports healthy reports--> Healthy
///
/// All transitions fire on load-report / reject arrival (deterministic
/// events); picks only read the phase.
struct OutlierEjectorConfig {
  /// A report is an outlier when load ≥ mean × factor + margin (mean over
  /// reporting VMs; requires ≥ min_pool reporters so a 1-VM pool never
  /// ejects itself).
  double factor = 1.5;
  double margin = 0.3;
  std::size_t min_pool = 3;
  unsigned consecutive = 3;  ///< outlier reports required to eject
  /// Never eject beyond this fraction of the reporting pool (at least one
  /// ejection is always allowed once the pool is ≥ min_pool).
  double max_eject_fraction = 0.34;
  Duration base_ejection = Duration::sec(5.0);
  unsigned max_backoff_mult = 8;  ///< cap on the ejection-window doubling
  unsigned probe_interval = 4;    ///< every Nth pick may reach probation VMs
  unsigned clear_reports = 3;     ///< healthy reports to leave probation
};

class PassiveOutlierEjector final : public SteeringPolicy {
 public:
  enum class Phase : std::uint8_t { kHealthy = 0, kEjected, kProbation };

  PassiveOutlierEjector(std::unique_ptr<SteeringPolicy> inner,
                        OutlierEjectorConfig cfg)
      : inner_(std::move(inner)), cfg_(cfg) {}

  const char* name() const override { return inner_->name(); }
  std::size_t candidate_width() const override {
    return inner_->candidate_width();
  }
  SteeringDecision pick(const SteeringContext& ctx) override;
  void on_load_report(NodeId mmp, const MmpLoadInfo& info,
                      const MmpLoadView& view, Time now) override;
  void on_overload_reject(NodeId mmp, Time now) override;
  void export_metrics(obs::MetricsRegistry& reg,
                      const std::string& prefix) const override;

  Phase phase_of(NodeId mmp, Time now) const;
  std::uint64_t ejections() const { return ejections_; }
  std::uint64_t reejections() const { return reejections_; }
  std::uint64_t readmissions() const { return readmissions_; }
  std::uint64_t probes() const { return probes_; }

 private:
  struct VmState {
    Phase phase = Phase::kHealthy;
    unsigned strikes = 0;         ///< consecutive outlier observations
    unsigned healthy_reports = 0; ///< consecutive clean probation reports
    unsigned backoff_mult = 1;
    Time ejected_until;
  };

  /// Ejected → Probation when the window has elapsed (lazy transition).
  VmState& state_at(NodeId mmp, Time now);
  void eject(VmState& st, Time now, bool repeat);
  std::size_t currently_ejected(Time now) const;
  bool ejection_allowed(const MmpLoadView& view, Time now) const;

  std::unique_ptr<SteeringPolicy> inner_;
  OutlierEjectorConfig cfg_;
  std::map<NodeId, VmState> vms_;
  std::uint64_t pick_seq_ = 0;  ///< drives the probe cadence
  std::uint64_t ejections_ = 0;
  std::uint64_t reejections_ = 0;
  std::uint64_t readmissions_ = 0;
  std::uint64_t probes_ = 0;
};

// ----------------------------------------------------------------- factory

enum class SteeringPolicyKind : std::uint8_t {
  kRingLeastLoaded = 0,
  kDeterministicAperture = 1,
  kPowerOfTwoChoices = 2,
};

const char* steering_policy_name(SteeringPolicyKind kind);

/// The complete steering knob group (nested into Mlb::Config as
/// Config::Steering). Defaults reproduce the paper's design point exactly.
struct SteeringConfig {
  SteeringPolicyKind policy = SteeringPolicyKind::kRingLeastLoaded;
  /// R: preference-list width for the default policy (SCALE uses 2; the
  /// cluster overwrites it from ReplicationPolicy::local_copies).
  unsigned choices = 2;
  /// Graduated sheds of deferrable work are dropped instead of re-steered
  /// when the best alternative reports at least this load (DESIGN.md §9).
  double drop_load_limit = 3.0;
  /// Edge backpressure engages when any reported load reaches this.
  double pressure_load_limit = 2.0;
  hash::ConsistentHashRing::Config ring;
  /// Balancer-side smoothing of reported loads (1.0 = raw, the seed).
  double ewma_alpha = 1.0;
  unsigned aperture_width = 4;
  unsigned p2c_width = 4;
  /// This MLB's slot among the pool's MLB VMs (ScaleCluster assigns).
  unsigned peer_index = 0;
  unsigned peer_count = 1;
  bool outlier_ejection = false;
  OutlierEjectorConfig outlier;
};

/// Build the configured policy (wrapped in the ejector when requested).
std::unique_ptr<SteeringPolicy> make_steering_policy(
    const SteeringConfig& cfg);

}  // namespace scale::core
