#include "sim/network.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"

namespace scale::sim {

const char* fault_cause_name(FaultCause c) {
  switch (c) {
    case FaultCause::kNone: return "none";
    case FaultCause::kRandomDrop: return "random_drop";
    case FaultCause::kLinkDown: return "link_down";
    case FaultCause::kPartition: return "partition";
    case FaultCause::kDuplicate: return "duplicate";
    case FaultCause::kReorder: return "reorder";
  }
  return "?";
}

namespace {
// Salts the fault stream's seed; kept so every seed draws the same faults it
// always has.
constexpr std::uint64_t kFaultSeedSalt = 0xFA517EDB17E5ull;
// DC ids index a dense matrix; anything this large is a config bug.
constexpr std::uint32_t kMaxDcId = 4096;
// Node ids index dense per-node tables. Fabric numbers endpoints from 1, so
// an id this large is a corrupt id, not a world with that many nodes.
constexpr NodeId kMaxNodeId = NodeId{1} << 20;

bool any_fault(const LinkFaults& f) {
  return f.drop_prob > 0.0 || f.dup_prob > 0.0 || f.reorder_prob > 0.0;
}
}  // namespace

Network::Network(Duration default_latency, std::uint64_t seed)
    : default_latency_(default_latency), fault_rng_(seed ^ kFaultSeedSalt) {}

void Network::set_latency(NodeId a, NodeId b, Duration latency,
                          bool symmetric) {
  SCALE_CHECK(latency >= Duration::zero());
  latency_[pair_key(a, b)] = latency;
  if (symmetric) latency_[pair_key(b, a)] = latency;
}

void Network::set_node_dc(NodeId node, std::uint32_t dc) {
  SCALE_CHECK(dc < kMaxDcId);
  if (node >= node_dc_.size()) {
    SCALE_CHECK(node < kMaxNodeId);
    node_dc_.resize(std::size_t{node} + 1, 0);
  }
  node_dc_[node] = dc;
  grow_dc_matrix(dc + 1);
}

std::uint32_t Network::dc_of(NodeId node) const {
  return node < node_dc_.size() ? node_dc_[node] : 0;
}

void Network::grow_dc_matrix(std::uint32_t need_dim) {
  if (need_dim <= dc_dim_) return;
  std::vector<std::int64_t> grown(
      static_cast<std::size_t>(need_dim) * need_dim, kDcUnset);
  for (std::uint32_t a = 0; a < dc_dim_; ++a)
    for (std::uint32_t b = 0; b < dc_dim_; ++b)
      grown[a * need_dim + b] = dc_matrix_[a * dc_dim_ + b];
  dc_matrix_ = std::move(grown);
  dc_dim_ = need_dim;
}

void Network::set_dc_latency(std::uint32_t dc_a, std::uint32_t dc_b,
                             Duration latency, bool symmetric) {
  SCALE_CHECK(latency >= Duration::zero());
  SCALE_CHECK(dc_a < kMaxDcId && dc_b < kMaxDcId);
  grow_dc_matrix(std::max(dc_a, dc_b) + 1);
  dc_matrix_[dc_a * dc_dim_ + dc_b] = latency.count_us();
  if (symmetric) dc_matrix_[dc_b * dc_dim_ + dc_a] = latency.count_us();
}

Duration Network::dc_latency(std::uint32_t dc_a, std::uint32_t dc_b) const {
  if (dc_a == dc_b) return default_latency_;
  const std::int64_t* cell = dc_cell(dc_a, dc_b);
  if (cell == nullptr || *cell == kDcUnset) return default_latency_;
  return Duration::us(*cell);
}

Duration Network::delay(NodeId a, NodeId b) const {
  // Per-pair overrides are the cold fallback: most worlds have none, so the
  // hot path skips the map probe entirely on one empty() branch.
  if (!latency_.empty()) {
    const auto it = latency_.find(pair_key(a, b));
    if (it != latency_.end()) return it->second;
  }
  const std::uint32_t dc_a = dc_of(a), dc_b = dc_of(b);
  if (dc_a != dc_b) return dc_latency(dc_a, dc_b);
  return default_latency_;
}

void Network::record_transfer(NodeId a, NodeId b, std::size_t bytes) {
  if (a >= pair_messages_.size()) {
    SCALE_CHECK(a < kMaxNodeId);
    pair_messages_.resize(std::size_t{a} + 1);
  }
  std::vector<std::uint64_t>& row = pair_messages_[a];
  if (b >= row.size()) {
    SCALE_CHECK(b < kMaxNodeId);
    row.resize(std::size_t{b} + 1, 0);
  }
  ++row[b];
  ++messages_;
  bytes_ += bytes;
}

std::uint64_t Network::messages_between(NodeId a, NodeId b) const {
  if (a >= pair_messages_.size()) return 0;
  const std::vector<std::uint64_t>& row = pair_messages_[a];
  return b < row.size() ? row[b] : 0;
}

void Network::reset_counters() {
  messages_ = 0;
  bytes_ = 0;
  for (std::vector<std::uint64_t>& row : pair_messages_)
    std::fill(row.begin(), row.end(), 0);
  faults_.reset();
}

// --- FaultPlane -------------------------------------------------------------

void Network::set_global_faults(const LinkFaults& faults) {
  SCALE_CHECK(faults.drop_prob >= 0.0 && faults.drop_prob <= 1.0);
  SCALE_CHECK(faults.dup_prob >= 0.0 && faults.dup_prob <= 1.0);
  SCALE_CHECK(faults.reorder_prob >= 0.0 && faults.reorder_prob <= 1.0);
  global_faults_ = faults;
  has_global_faults_ = any_fault(faults);
  faults_enabled_ = true;
}

void Network::set_link_faults(NodeId a, NodeId b, const LinkFaults& faults,
                              bool symmetric) {
  SCALE_CHECK(faults.drop_prob >= 0.0 && faults.drop_prob <= 1.0);
  SCALE_CHECK(faults.dup_prob >= 0.0 && faults.dup_prob <= 1.0);
  SCALE_CHECK(faults.reorder_prob >= 0.0 && faults.reorder_prob <= 1.0);
  link_faults_[pair_key(a, b)] = faults;
  if (symmetric) link_faults_[pair_key(b, a)] = faults;
  faults_enabled_ = true;
}

void Network::clear_faults() {
  global_faults_ = LinkFaults{};
  has_global_faults_ = false;
  link_faults_.clear();
  link_down_.clear();
  partitions_.clear();
  spikes_.clear();
  faults_enabled_ = false;
}

void Network::schedule_link_down(NodeId a, NodeId b, Time from, Time until,
                                 bool symmetric) {
  SCALE_CHECK(until > from);
  link_down_[pair_key(a, b)].push_back({from, until, 1.0});
  if (symmetric) link_down_[pair_key(b, a)].push_back({from, until, 1.0});
  faults_enabled_ = true;
}

void Network::schedule_partition(std::uint32_t dc_a, std::uint32_t dc_b,
                                 Time from, Time until) {
  SCALE_CHECK(until > from);
  SCALE_CHECK(dc_a != dc_b);
  partitions_[pair_key(dc_a, dc_b)].push_back({from, until, 1.0});
  partitions_[pair_key(dc_b, dc_a)].push_back({from, until, 1.0});
  faults_enabled_ = true;
}

void Network::schedule_latency_spike(std::uint32_t dc_a, std::uint32_t dc_b,
                                     Time from, Time until, double factor) {
  SCALE_CHECK(until > from);
  SCALE_CHECK(factor >= 1.0);
  spikes_[pair_key(dc_a, dc_b)].push_back({from, until, factor});
  if (dc_a != dc_b) spikes_[pair_key(dc_b, dc_a)].push_back({from, until, factor});
  faults_enabled_ = true;
}

bool Network::window_active(const std::vector<TimedFault>& windows, Time now) {
  for (const auto& w : windows) {
    if (now >= w.from && now < w.until) return true;
  }
  return false;
}

FaultVerdict Network::fault_verdict(NodeId a, NodeId b, Time now) {
  FaultVerdict v;
  if (!faults_enabled_) return v;

  // Scripted faults first: deterministic windows, no Rng consumed, so a
  // partition never shifts the stochastic draw sequence of other links.
  if (!link_down_.empty()) {
    const auto it = link_down_.find(pair_key(a, b));
    if (it != link_down_.end() && window_active(it->second, now)) {
      ++faults_.link_down_drops;
      v.deliver = false;
      v.cause = FaultCause::kLinkDown;
      return v;
    }
  }
  const std::uint32_t dc_a = dc_of(a), dc_b = dc_of(b);
  if (!partitions_.empty() && dc_a != dc_b) {
    const auto it = partitions_.find(pair_key(dc_a, dc_b));
    if (it != partitions_.end() && window_active(it->second, now)) {
      ++faults_.partition_drops;
      v.deliver = false;
      v.cause = FaultCause::kPartition;
      return v;
    }
  }
  if (!spikes_.empty()) {
    const auto it = spikes_.find(pair_key(dc_a, dc_b));
    if (it != spikes_.end()) {
      for (const auto& w : it->second) {
        if (now >= w.from && now < w.until) v.latency_factor *= w.factor;
      }
    }
  }

  // Stochastic faults: per-link spec wins over the global spec. Draws happen
  // in a fixed order (drop, dup, reorder) so same-seed runs replay exactly.
  const LinkFaults* spec = nullptr;
  if (!link_faults_.empty()) {
    const auto it = link_faults_.find(pair_key(a, b));
    if (it != link_faults_.end()) spec = &it->second;
  }
  if (spec == nullptr && has_global_faults_) spec = &global_faults_;
  if (spec == nullptr) return v;

  if (spec->drop_prob > 0.0 && fault_rng_.chance(spec->drop_prob)) {
    ++faults_.random_drops;
    v.deliver = false;
    v.cause = FaultCause::kRandomDrop;
    return v;
  }
  if (spec->dup_prob > 0.0 && fault_rng_.chance(spec->dup_prob)) {
    ++faults_.duplicates;
    v.duplicate = true;
    v.cause = FaultCause::kDuplicate;
  }
  if (spec->reorder_prob > 0.0 && fault_rng_.chance(spec->reorder_prob)) {
    ++faults_.reorders;
    v.extra_delay = spec->reorder_window;
    if (v.cause == FaultCause::kNone) v.cause = FaultCause::kReorder;
  }
  return v;
}

void Network::export_metrics(obs::MetricsRegistry& reg,
                             const std::string& prefix) const {
  reg.set_counter(prefix + ".messages", messages_sent());
  reg.set_counter(prefix + ".bytes", bytes_sent());
  fault_counters().export_metrics(reg, prefix + ".faults");
}

}  // namespace scale::sim
